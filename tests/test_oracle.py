"""The verification tooling itself: audits must catch tampering."""

from __future__ import annotations

import dataclasses

import numpy as np

from mfroute import MassField, apply_psi
from mfroute.oracle import audit_conservation, check_value_tables

from conftest import build, diamond_dict, zero_mass


def test_audit_detects_tampered_mass():
    net, ps, scen, grid = build(diamond_dict(steps=20))
    psi = apply_psi(net, ps, scen, zero_mass(ps, grid))
    good = audit_conservation(ps, scen, psi, scen.rho0)
    assert good.ok and good.first_mass_mismatch is None

    tampered = psi.mass.values.copy()
    tampered[3, 7] += 1e-9
    bad_psi = dataclasses.replace(psi, mass=MassField(values=tampered))
    bad = audit_conservation(ps, scen, bad_psi, scen.rho0)
    assert not bad.mass_match
    assert bad.first_mass_mismatch == (3, 7)


def test_audit_detects_tampered_flow():
    net, ps, scen, grid = build(diamond_dict(steps=20))
    psi = apply_psi(net, ps, scen, zero_mass(ps, grid))
    flows = psi.flows.copy()
    flows[1, 12] += 1e-6
    bad_psi = dataclasses.replace(psi, flows=flows)
    bad = audit_conservation(ps, scen, bad_psi, scen.rho0)
    # telescoping still holds for any flow values; the mass replay does not
    assert bad.telescope_exact
    assert not bad.mass_match


def test_value_check_detects_tampered_table():
    net, ps, scen, grid = build(diamond_dict(steps=8))
    psi = apply_psi(net, ps, scen, zero_mass(ps, grid))
    values = psi.value.copy()
    values[0, 2] += 1e-12
    mismatches = check_value_tables(net, ps, scen, psi.congestion, values,
                                    psi.policy)
    assert any(m.kind == "value" and m.node == 2 for m in mismatches)
