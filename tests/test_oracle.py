"""The verification tooling itself: audits must catch tampering."""

from __future__ import annotations

import dataclasses

from mfroute import MassField, apply_psi
from mfroute.oracle import (MAX_REPORTED_MISMATCHES, audit_conservation,
                            check_value_tables)

from conftest import build, chain_dict, diamond_dict, zero_mass


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

    # a start that is not rho0 ends the audit at node 0, with nothing replayed
    tampered = psi.mass.values.copy()
    tampered[2, 0] = 0.5
    bad_psi = dataclasses.replace(psi, mass=MassField(values=tampered))
    bad = audit_conservation(ps, scen, bad_psi, scen.rho0)
    assert not bad.ok and not bad.mass_match and not bad.telescope_exact
    assert bad.first_mass_mismatch == (2, 0)


def test_audit_detects_tampered_flow():
    net, ps, scen, grid = build(diamond_dict(steps=20))
    psi = apply_psi(net, ps, scen, zero_mass(ps, grid))
    flows = psi.flows.copy()
    flows[1, 12] += 1e-6
    bad_psi = dataclasses.replace(psi, flows=flows)
    bad = audit_conservation(ps, scen, bad_psi, scen.rho0)
    # telescoping still holds for any finite flows; the mass replay does not
    assert bad.telescope_exact
    assert not bad.mass_match
    # a NaN moved term has no exact sum, so the two sides cannot agree
    flows[1, 12] = float("nan")
    bad = audit_conservation(ps, scen, dataclasses.replace(psi, flows=flows), scen.rho0)
    assert not bad.ok and not bad.telescope_exact


def test_value_check_detects_tampered_table():
    net, ps, scen, grid = build(diamond_dict(steps=8))
    psi = apply_psi(net, ps, scen, zero_mass(ps, grid))
    values = psi.value.copy()
    values[0, 2] += 1e-12
    mismatches = check_value_tables(net, ps, scen, psi.phi_prefix, values,
                                    psi.policy.tau_idx)
    assert any(m.kind == "value" and m.node == 2 for m in mismatches)


def test_value_check_reports_one_tampered_policy_entry():
    net, ps, scen, grid = build(diamond_dict(steps=8))
    psi = apply_psi(net, ps, scen, zero_mass(ps, grid))
    r = int(ps.path_rows[1][0])
    tau = psi.policy.tau_idx.copy()
    assert tau[r, 3] != -1
    tau[r, 3] = -1
    mismatches = check_value_tables(net, ps, scen, psi.phi_prefix, psi.value, tau)
    assert [(m.path_idx, m.edge_id, m.node, m.kind, m.computed) for m in mismatches] == [
        (1, ps.paths[1][0], 3, "policy", -1.0)]
    assert mismatches[0].expected == float(psi.policy.tau_idx[r, 3])


def test_value_check_stops_at_the_cap_value_before_policy():
    net, ps, scen, grid = build(diamond_dict(steps=8))
    psi = apply_psi(net, ps, scen, zero_mass(ps, grid))
    r = int(ps.path_rows[0][0])
    tau = psi.policy.tau_idx.copy()
    tau[r, 0] = -1 if tau[r, 0] != -1 else 1
    mismatches = check_value_tables(net, ps, scen, psi.phi_prefix, psi.value + 1.0, tau)
    assert len(mismatches) == MAX_REPORTED_MISMATCHES
    assert [(m.node, m.kind) for m in mismatches[:3]] == [
        (0, "value"), (0, "policy"), (1, "value")]
    assert all(m.path_idx == 0 for m in mismatches)


def test_audit_of_a_single_route_injects_the_whole_budget():
    net, ps, scen, grid = build(chain_dict(3, steps=20))
    assert ps.n_paths == 1
    psi = apply_psi(net, ps, scen, zero_mass(ps, grid))
    audit = audit_conservation(ps, scen, psi, scen.rho0)
    assert audit.ok and audit.injection_max_ulp == 0.0
