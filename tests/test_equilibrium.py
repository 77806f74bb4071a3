"""Fixed-point iteration, residuals, and admissible-set diagnostics."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from mfroute import (MassField, ShapeMismatch, SolverSettings, apply_psi,
                     residual, solve, verify_X_membership)

from conftest import admissible_mass, build, diamond_dict, lattice_dict, zero_mass

GOLDEN_RESIDUALS_500 = [0.611642397957458, 0.29752430428880045,
                        0.14716729696282627, 0.06783532419631133,
                        0.033541677567599626, 0.016586285444163074]


def test_residual_basics(diamond):
    net, ps, scen, grid = diamond
    a = zero_mass(ps, grid)
    b = zero_mass(ps, grid)
    assert residual(a, b) == 0.0
    b.values[2, 5] = 0.3
    assert residual(a, b) == 0.3
    assert residual(b, a) == 0.3
    with pytest.raises(ShapeMismatch):
        residual(a, MassField(values=np.zeros((1, 2))))


def test_membership_zero_mass(diamond):
    net, ps, scen, grid = diamond
    d = verify_X_membership(zero_mass(ps, grid), scen, ps)
    assert d.mass_ok and d.lipschitz_ok
    assert d.max_total_edge_mass == 0.0
    assert d.max_diff_quotient == 0.0
    assert d.lipschitz_bound == 3.0 * scen.lam_max


def test_membership_tight_mass_bound(diamond):
    net, ps, scen, grid = diamond
    mass = zero_mass(ps, grid)
    # one pair per edge at the full bound, constant in time
    for e in range(5):
        rows = np.flatnonzero(ps.pair_edge_idx == e)
        mass.values[rows[0]] = scen.rho_max
    d = verify_X_membership(mass, scen, ps)
    assert d.mass_ok
    assert d.max_total_edge_mass == scen.rho_max
    assert d.max_diff_quotient == 0.0


def test_membership_sawtooth_fails_lipschitz(diamond):
    net, ps, scen, grid = diamond
    mass = zero_mass(ps, grid)
    slope = 4.0 * scen.lam_max
    saw = np.zeros(grid.steps + 1)
    saw[1::2] = slope * grid.dt
    mass.values[0] = saw
    d = verify_X_membership(mass, scen, ps)
    assert not d.lipschitz_ok
    assert d.max_diff_quotient == pytest.approx(slope)


def test_immediate_convergence_with_loose_tolerance():
    net, ps, scen, grid = build(diamond_dict(steps=100, solver={"tol": 1e9}))
    report = solve(net, ps, scen)
    assert report.converged and report.iterations == 1
    assert np.all(report.mass.values == 0.0)


def test_default_solve_converges_and_is_golden():
    net, ps, scen, grid = build(diamond_dict(steps=500))
    report = solve(net, ps, scen)
    assert report.converged
    assert report.iterations == len(GOLDEN_RESIDUALS_500)
    for got, want in zip(report.residuals, GOLDEN_RESIDUALS_500):
        assert got == pytest.approx(want, rel=1e-9)
    assert report.final_residual <= report.tol
    assert report.residual_increases == []


def test_solution_has_consistent_stages():
    # converged, and stopped by the iteration cap three iterations in
    for solver in ({}, {"max_iter": 3}):
        net, ps, scen, grid = build(diamond_dict(steps=200, solver=solver))
        report = solve(net, ps, scen)
        assert report.converged == (not solver)
        psi = apply_psi(net, ps, scen, report.mass)
        # the recorded psi evaluation is exactly the map applied to the
        # reported mass, and the membership diagnostics describe that mass
        assert np.array_equal(psi.mass.values, report.psi.mass.values)
        assert residual(report.mass, psi.mass) == report.final_residual
        assert report.membership == verify_X_membership(report.mass, scen, ps)
        assert report.membership.mass_ok and report.membership.lipschitz_ok
        sums = report.psi.preference.z.sum(axis=0)
        assert np.allclose(sums, scen.lam, rtol=1e-12, atol=0.0)


def test_non_convergence_is_reported_not_raised():
    net, ps, scen, grid = build(diamond_dict(steps=100, solver={"max_iter": 1}))
    report = solve(net, ps, scen)
    assert not report.converged
    assert report.iterations == 1
    assert len(report.residuals) == 1


def test_solver_flags_residual_increases():
    net, ps, scen, grid = build(diamond_dict(steps=100, solver={
        "gamma": 1.0, "max_iter": 30, "tol": 1e-12}))
    report = solve(net, ps, scen)
    # whether or not undamped iteration oscillates, the flags index residuals
    for n in report.residual_increases:
        assert report.residuals[n] > report.residuals[n - 1]
    # a lightly damped lattice oscillates: exactly the rises are flagged
    doc = lattice_dict(3, steps=40)
    doc["solver"].update(gamma=0.9, max_iter=25, tol=1e-12)
    report = solve(*build(doc)[:3])
    r = report.residuals
    assert report.iterations == len(r) == 25
    assert len(report.residual_increases) > 5
    assert all((r[k] > r[k - 1]) == (k in report.residual_increases) for k in range(1, 25))


def test_solve_deterministic():
    doc = diamond_dict(steps=150)
    n1, p1, s1, g1 = build(doc)
    n2, p2, s2, g2 = build(doc)
    r1 = solve(n1, p1, s1)
    r2 = solve(n2, p2, s2)
    assert r1.residuals == r2.residuals
    assert np.array_equal(r1.mass.values, r2.mass.values)


def test_gamma_validation(diamond):
    # the scenario parser rejects gamma = 0; settings built by hand skip it
    net, ps, scen, grid = diamond
    scen = dataclasses.replace(scen, solver=SolverSettings(gamma=0.0))
    with pytest.raises(ValueError):
        solve(net, ps, scen)


def test_near_flat_response_for_tiny_beta():
    net, ps, scen, grid = build(diamond_dict(steps=200, model={"beta": 1e-6}))
    report = solve(net, ps, scen)
    assert report.converged
    z = report.psi.preference.z
    assert np.max(np.abs(z - scen.lam / ps.n_paths)) <= 1e-4 * scen.lam_max
