"""Fixed-point iteration, residuals, and admissible-set diagnostics."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import mfroute.equilibrium as equilibrium
from mfroute import (MassField, ShapeMismatch, SolverSettings, apply_psi,
                     load_scenario, residual, solve, verify_X_membership)
from mfroute.oracle import audit_conservation

from conftest import admissible_mass, build, diamond_dict, lattice_dict, zero_mass

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

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
    assert report.final_relative_residual is None  # no mass to scale by


@pytest.fixture
def picard(monkeypatch):
    """Solve without Anderson history: damped Picard iteration, the solver's
    bits before Anderson."""
    monkeypatch.setattr(equilibrium, "ANDERSON_DEPTH", 0)


def test_default_solve_converges_and_is_golden(picard):
    net, ps, scen, grid = build(diamond_dict(steps=500))
    report = solve(net, ps, scen)
    assert report.converged
    assert report.iterations == len(GOLDEN_RESIDUALS_500)
    for got, want in zip(report.residuals, GOLDEN_RESIDUALS_500):
        assert got == pytest.approx(want, rel=1e-9)
    assert report.final_residual <= report.tol
    assert report.residual_increases == []


def test_solution_has_consistent_stages(monkeypatch):
    # converged, and stopped by the iteration cap: damped Picard three
    # iterations in, Anderson (which converges in three) two iterations in
    depth = equilibrium.ANDERSON_DEPTH
    for depth, solver in ((depth, {}), (0, {"max_iter": 3}), (depth, {"max_iter": 2})):
        monkeypatch.setattr(equilibrium, "ANDERSON_DEPTH", depth)
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


def oscillating_lattice():
    """A lightly damped lattice whose residual rises often in 25 steps (nine
    times by Anderson)."""
    doc = lattice_dict(3, steps=40)
    doc["solver"].update(gamma=0.9, max_iter=25, tol=1e-12)
    return build(doc)


def test_solve_deterministic(monkeypatch):
    for depth in (equilibrium.ANDERSON_DEPTH, 0):
        monkeypatch.setattr(equilibrium, "ANDERSON_DEPTH", depth)
        n1, p1, s1, g1 = oscillating_lattice()
        n2, p2, s2, g2 = oscillating_lattice()
        r1 = solve(n1, p1, s1)
        r2 = solve(n2, p2, s2)
        assert r1.residuals == r2.residuals
        assert r1.restarts == r2.restarts
        assert r1.mass.values.tobytes() == r2.mass.values.tobytes()
        assert r1.psi.mass.values.tobytes() == r2.psi.mass.values.tobytes()


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


def record_psi(monkeypatch) -> list[tuple[np.ndarray, np.ndarray]]:
    """(pre-image, image) of every map evaluation of the solves that follow,
    copied when the map returns."""
    calls = []

    def recorded(net, ps, scen, mass):
        psi = apply_psi(net, ps, scen, mass)
        calls.append((mass.values.copy(), psi.mass.values.copy()))
        return psi

    monkeypatch.setattr(equilibrium, "apply_psi", recorded)
    return calls


def picard_step(call, gamma):
    x, g = call
    return (1.0 - gamma) * x + gamma * g


def test_picard_is_the_empty_history_step(monkeypatch):
    calls = record_psi(monkeypatch)
    net, ps, scen, grid = oscillating_lattice()
    report = solve(net, ps, scen)
    assert report.iterations == len(calls) == 25
    gamma = scen.solver.gamma
    # the first step, and the step after every residual rise, is damped
    # Picard bit for bit; the others are not
    picard = {0} | set(report.residual_increases)
    assert len(picard) == 10
    for k in range(len(calls) - 1):
        same = calls[k + 1][0].tobytes() == picard_step(calls[k], gamma).tobytes()
        assert same == (k in picard), k


def test_residual_rise_empties_the_history(monkeypatch):
    calls = record_psi(monkeypatch)
    net, ps, scen, grid = oscillating_lattice()
    report = solve(net, ps, scen)
    rises = report.residual_increases
    assert report.restarts == len(rises) == 9
    gamma = scen.solver.gamma
    checked = 0
    for k in rises:
        if k + 1 in rises or k + 2 >= len(calls):
            continue
        # two steps after a rise, the history holds the one pair from it
        (x0, g0), (x1, g1) = calls[k], calls[k + 1]
        f0, f1 = g0 - x0, g1 - x1
        dx, df = x1 - x0, f1 - f0
        c = float((df * f1).sum()) / float((df * df).sum())
        want = np.maximum(picard_step(calls[k + 1], gamma) - c * (dx + gamma * df), 0.0)
        np.testing.assert_allclose(calls[k + 2][0], want, rtol=1e-12, atol=1e-15)
        checked += 1
    assert checked >= 3


def test_depth_zero_has_no_history(monkeypatch, picard):
    calls = record_psi(monkeypatch)
    net, ps, scen, grid = oscillating_lattice()
    report = solve(net, ps, scen)
    assert report.restarts == 0
    assert len(report.residual_increases) > 5
    for k in range(len(calls) - 1):
        assert calls[k + 1][0].tobytes() == picard_step(calls[k], 0.9).tobytes()


@pytest.mark.parametrize("name", ["diamond_coarse", "diamond_default", "diamond_constrained"])
def test_shipped_scenarios_converge_with_anderson(name):
    net, ps, scen, grid = load_scenario(SCENARIOS / f"{name}.json")
    report = solve(net, ps, scen)
    assert report.converged
    again = apply_psi(net, ps, scen, report.mass)
    for got, want in ((again.mass.values, report.psi.mass.values),
                      (again.value.values, report.psi.value.values),
                      (again.policy.tau_idx, report.psi.policy.tau_idx),
                      (again.flows.values, report.psi.flows.values)):
        assert got.tobytes() == want.tobytes()
    assert residual(report.mass, again.mass) == report.final_residual <= report.tol
    assert audit_conservation(ps, scen, report.psi, scen.rho0).ok
    assert report.membership.mass_ok


def _hard_cases():
    beta = diamond_dict(steps=500, model={"beta": 1000.0}, solver={"max_iter": 60})
    tight = json.loads((SCENARIOS / "diamond_constrained.json").read_text())
    tight["solver"].update(tol=1e-4, max_iter=60)
    return {"beta-1000": beta, "constrained-tol-1e-4": tight}


@pytest.mark.parametrize("depth", [equilibrium.ANDERSON_DEPTH, 0], ids=["anderson", "picard"])
@pytest.mark.parametrize("case", ["beta-1000", "constrained-tol-1e-4"])
def test_hard_cases_end_unconverged_without_raising(case, depth, monkeypatch):
    monkeypatch.setattr(equilibrium, "ANDERSON_DEPTH", depth)
    net, ps, scen, grid = build(_hard_cases()[case])
    report = solve(net, ps, scen)
    assert not report.converged and report.iterations == 60
    assert report.final_relative_residual > 0.0
    assert (report.restarts > 0) == (depth > 0)
    again = apply_psi(net, ps, scen, report.mass)
    assert again.mass.values.tobytes() == report.psi.mass.values.tobytes()


def test_anderson_correction_rejects_dependent_differences():
    rng = np.random.default_rng(0)
    df = rng.uniform(size=(3, 5))
    f = rng.uniform(size=(3, 5))
    step = rng.uniform(size=(3, 5))
    before = step.copy()
    # the same residual difference twice: the second pivot is zero
    assert not equilibrium.anderson_correction(step, f, [(df, df), (df, df)], 0.5)
    assert step.tobytes() == before.tobytes()
    assert not equilibrium.anderson_correction(step, f, [(df, 0.0 * df)], 0.5)
    # nearly the same difference twice: rounding leaves the second pivot
    # positive (about 3e-15) but far below PIVOT_RTOL of its diagonal entry
    near = df + 1e-8 * rng.uniform(size=(3, 5))
    assert not equilibrium.anderson_correction(step, f, [(df, df), (near, near)], 0.5)
    assert step.tobytes() == before.tobytes()
    # one pair: the least-squares coefficient of f on df
    assert equilibrium.anderson_correction(step, f, [(df, df)], 0.5)
    c = (df * f).sum() / (df * df).sum()
    np.testing.assert_allclose(step, np.maximum(before - c * 1.5 * df, 0.0), rtol=1e-14)
