"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Heavy solves are shared through module fixtures.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

import mfroute.equilibrium as equilibrium
from mfroute import (ReciprocalSpeedLimit, apply_psi, make_grid,
                     min_arrival, residual, solve, verify_X_membership)
from mfroute.cli import main as cli_main
from mfroute.oracle import audit_conservation, check_value_tables
from mfroute.preference import logit_response

from conftest import (admissible_mass, build, diamond_dict, speeds, value_stage,
                      zero_mass)

SLACK = {"enabled": True, "u": {"default": {"family": "reciprocal", "coeff": 1000.0}}}
TIGHT = {"enabled": True, "u": {"default": {"family": "reciprocal", "coeff": 0.4}}}


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def default_solve():
    objs = build(diamond_dict(steps=500))
    start = time.monotonic()
    rep = solve(*objs[:3])
    return objs, rep, time.monotonic() - start


@pytest.fixture(scope="module")
def beta_small_solve():
    objs = build(diamond_dict(steps=500, model={"beta": 1e-6}))
    return objs, solve(*objs[:3])


@pytest.fixture(scope="module")
def constrained_solve():
    objs = build(diamond_dict(steps=500, constrained=TIGHT))
    return objs, solve(*objs[:3])


@pytest.fixture(scope="module")
def grid_study():
    """Tightly converged equilibria on three nested grids."""
    runs = {}
    solver = {"max_iter": 3000, "tol": 1e-6 * diamond_dict()["model"]["rho_max"]}
    for steps in (500, 1000, 2000):
        objs = build(diamond_dict(steps=steps, solver=solver))
        runs[steps] = (objs, solve(*objs[:3]))
    return runs


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    worst = 0
    for steps in (8, 16):
        net, ps, scen, grid = build(diamond_dict(steps=steps))
        rng = np.random.default_rng(steps)
        fields = [zero_mass(ps, grid)]
        fields.append(apply_psi(net, ps, scen, fields[0]).mass)
        fields.append(admissible_mass(rng, ps, scen))
        for mass in fields:
            cong, table, policy = value_stage(net, ps, scen, mass)
            mismatches = check_value_tables(net, ps, scen, cong, table, policy)
            worst = max(worst, len(mismatches))
    elapsed = time.monotonic() - start
    report(1, worst == 0 and elapsed < 5.0,
           f"exhaustive enumeration matched exactly on N=8,16 in {elapsed:.2f}s")


def test_criterion_2_last_edge_closed_form():
    net, ps, scen, grid = build(diamond_dict(
        steps=500, model={"phi": {"default": {"family": "linear", "coeff": 0.0}}}))
    _, table, policy = value_stage(net, ps, scen, zero_mass(ps, grid))
    speed = speeds(net, ps, grid, policy)
    t = grid.nodes
    ok = True
    detail = []
    for r in np.flatnonzero(ps.last_mask):
        e = int(ps.pair_edge_idx[r])
        length = float(net.lengths[e])
        with np.errstate(divide="ignore"):
            moving = (length * length) / (2.0 * (scen.horizon - t))
        closed = np.minimum(scen.alpha * length, moving)
        rel = np.max(np.abs(table.values[r] - closed) / np.abs(closed))
        ok &= rel <= 1e-12
        # switch node: first grid node past horizon - length / (2 alpha)
        threshold = scen.horizon - length / (2.0 * scen.alpha)
        switch = int(np.searchsorted(t, threshold, side="right"))
        ok &= np.all(speed[r, :switch] > 0.0)
        ok &= np.all(speed[r, switch:] == 0.0)
        detail.append(f"{rel:.2e}")
    report(2, ok, f"closed form matched (max rel {max(detail)}), switch at "
                  "first node past the stay threshold on every last edge")


def test_criterion_3_simplex_and_logit(default_solve, beta_small_solve):
    (net, ps, scen, grid), rep, _ = default_solve
    z = rep.psi.preference.z
    f = rep.psi.preference.response
    rel_z = np.max(np.abs(z.sum(axis=0) - scen.lam) / scen.lam)
    rel_f = np.max(np.abs(f.sum(axis=0) - scen.lam) / scen.lam)

    costs = np.array([[0.5, 1.75], [1.25, 0.25], [2.75, 3.5]])
    lam = np.array([1.5, 2.0])
    base = logit_response(costs, lam, scen.beta)
    bitwise = all(np.array_equal(base, logit_response(costs + c, lam, scen.beta))
                  for c in (1.0, 64.0, -8.0, 0.03125))

    (net_b, ps_b, scen_b, _), rep_b = beta_small_solve
    flat = float(np.max(np.abs(rep_b.psi.preference.z
                               - scen_b.lam / ps_b.n_paths)))
    ok = (rel_z <= 1e-12 and rel_f <= 1e-12 and bitwise
          and rep_b.converged and flat <= 1e-4 * scen_b.lam_max)
    report(3, ok, f"simplex rel err z {rel_z:.2e}, response {rel_f:.2e}; "
                  f"shift-invariance bitwise; beta=1e-6 flatness {flat:.2e}")


def test_criterion_4_preference_ode_convergence():
    errors = {}
    for steps in (250, 500, 1000):
        net, ps, scen, grid = build(diamond_dict(steps=steps))
        psi = apply_psi(net, ps, scen, zero_mass(ps, grid))
        response = psi.preference.response
        z_euler = np.empty_like(response)
        z_euler[:, 0] = scen.z0
        for i in range(steps):
            z_euler[:, i + 1] = (z_euler[:, i]
                                 + (response[:, i + 1] - response[:, i])
                                 - grid.dt * scen.eta * (z_euler[:, i] - response[:, i]))
        errors[steps] = float(np.max(np.abs(z_euler - psi.preference.z)))
    r1 = errors[250] / errors[500]
    r2 = errors[500] / errors[1000]
    ok = 1.6 <= r1 <= 2.4 and 1.6 <= r2 <= 2.4
    report(4, ok, f"Euler-vs-closed-form error ratios {r1:.3f}, {r2:.3f} "
                  "(halving within 20%)")


def test_criterion_5_conservation_bitwise(default_solve, constrained_solve):
    audits = []

    def audited_psi(net, ps, scen, mass):
        psi = apply_psi(net, ps, scen, mass)
        audits.append(audit_conservation(ps, scen, psi, scen.rho0))
        return psi

    for (objs, rep) in ((default_solve[0], default_solve[1]),
                        (constrained_solve[0], constrained_solve[1])):
        # solve again, auditing every map evaluation of the solve
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(equilibrium, "apply_psi", audited_psi)
            assert solve(*objs[:3]).residuals == rep.residuals
    all_ok = all(a.mass_match and a.telescope_exact for a in audits)
    worst_ulp = max(a.injection_max_ulp for a in audits)
    worst_defect = max(a.balance_defect for a in audits)
    audited = len(audits)
    ok = all_ok and worst_ulp <= 1.0 and worst_defect <= 1e-12
    report(5, ok, f"balance telescoped bitwise on {audited} map evaluations; "
                  f"inflow within {worst_ulp:.0f} ulp of dt*throughput "
                  f"(float-noise defect {worst_defect:.2e})")


def test_criterion_6_psi_maps_into_admissible_set(default_solve):
    (net, ps, scen, grid), _, _ = default_solve
    rng = np.random.default_rng(2024)
    ok = True
    worst_quot = 0.0
    worst_total = 0.0
    for _ in range(20):
        mass = admissible_mass(rng, ps, scen)
        psi = apply_psi(net, ps, scen, mass)
        member = verify_X_membership(psi.mass, scen, ps)
        ok &= member.mass_ok and member.lipschitz_ok
        worst_quot = max(worst_quot, member.max_diff_quotient)
        worst_total = max(worst_total, member.max_total_edge_mass)
    report(6, ok, f"20 random inputs: max edge total {worst_total:.3f} <= "
                  f"{scen.rho_max}, max quotient {worst_quot:.3f} <= "
                  f"{scen.lipschitz_bound} + 1e-9")


def test_criterion_7_fixed_point(default_solve, tmp_path, capsys):
    (net, ps, scen, grid), rep, elapsed = default_solve
    ok = rep.converged and rep.iterations <= 500
    ok &= rep.final_residual <= 1e-3 * scen.rho_max
    ok &= elapsed < 60.0

    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(diamond_dict(steps=500)), encoding="utf-8")
    solve_dir = tmp_path / "solve"
    code = cli_main(["solve", str(scenario), "--out", str(solve_dir)])
    ok &= code == 0
    solve_report = json.loads((solve_dir / "report.json").read_text())
    psi_dir = tmp_path / "psi"
    code = cli_main(["psi-once", str(scenario), "--out", str(psi_dir),
                     "--mass", str(solve_dir / "masses.csv")])
    ok &= code == 0
    psi_report = json.loads((psi_dir / "report.json").read_text())
    ok &= psi_report["residual_vs_input"] == solve_report["residuals"][-1]
    capsys.readouterr()
    report(7, ok, f"converged in {rep.iterations} iterations, residual "
                  f"{rep.final_residual:.4f} <= {1e-3 * scen.rho_max}, "
                  f"{elapsed:.2f}s; map evaluation reproduces the residual")


def test_criterion_8_policy_monotonicity(default_solve, beta_small_solve,
                                         constrained_solve, grid_study):
    runs = [("default", default_solve[1]), ("beta-small", beta_small_solve[1]),
            ("constrained", constrained_solve[1])]
    runs += [(f"grid-{n}", rep) for n, (_, rep) in sorted(grid_study.items())]
    ok = True
    checked = 0
    for name, rep in runs:
        assert rep.converged, name
        tau = rep.psi.policy.tau_idx
        for r in range(tau.shape[0]):
            finite = np.flatnonzero(tau[r] >= 0)
            if finite.size:
                ok &= bool(np.all(np.diff(tau[r, finite]) >= 0))
                ok &= bool(np.all(tau[r, finite[-1] + 1:] == -1))
            checked += 1
    report(8, ok, f"arrival times nondecreasing and stay-forever absorbing on "
                  f"{checked} (edge, path) tables over {len(runs)} converged runs")


def test_criterion_9_constrained_mode(constrained_solve):
    # (a) slack limits reproduce the unconstrained solution
    slack_objs = build(diamond_dict(steps=500, constrained=SLACK))
    plain_objs = build(diamond_dict(steps=500))
    rep_slack = solve(*slack_objs[:3])
    rep_plain = solve(*plain_objs[:3])
    gap_a = float(np.max(np.abs(rep_slack.mass.values - rep_plain.mass.values)))
    ok = gap_a <= 1e-12

    # (b) tightened limits can only raise the values
    net, ps, scen, grid = build(diamond_dict(steps=200, constrained=TIGHT))
    netu, psu, scenu, _ = build(diamond_dict(steps=200))
    rng = np.random.default_rng(99)
    for mass in (zero_mass(ps, grid), admissible_mass(rng, ps, scen)):
        tc = apply_psi(net, ps, scen, mass).value
        _, tu, _ = value_stage(netu, psu, scenu, mass)
        ok &= bool(np.all(tc.values >= tu.values))

    # (c) reciprocal family with constant mass has the analytic arrival time
    grid_c = make_grid(10.0, 500)
    limit = ReciprocalSpeedLimit(coeff=2.0)
    gap_c = 0.0
    for m_const in (0.5, 2.0):
        tau = min_arrival(grid_c, 1.0, np.full(501, m_const), limit, 1e-6)
        gap_c = max(gap_c, float(np.max(np.abs(tau - (grid_c.nodes
                                                      + m_const / 2.0)))))
    ok &= gap_c <= 1e-10

    # (d) strict monotonicity in entry time, monotonicity in mass
    rng = np.random.default_rng(7)
    for _ in range(10):
        m1 = rng.uniform(0.05, 2.0, size=501)
        m2 = m1 + rng.uniform(0.01, 1.0, size=501)
        t1 = min_arrival(grid_c, 1.0, m1, limit, 1e-6)
        t2 = min_arrival(grid_c, 1.0, m2, limit, 1e-6)
        ok &= bool(np.all(np.diff(t1) > 0.0)) and bool(np.all(t2 > t1))
    report(9, ok, f"slack gap {gap_a:.2e}; domination pointwise; analytic "
                  f"arrival gap {gap_c:.2e}; monotonicity on 10 random fields")


def test_criterion_10_grid_stability(grid_study):
    consts = {}
    for coarse, fine in ((500, 1000), (1000, 2000)):
        (objs_c, rep_c) = grid_study[coarse]
        (objs_f, rep_f) = grid_study[fine]
        ratio = fine // coarse
        gap = float(np.max(np.abs(rep_f.mass.values[:, ::ratio]
                                  - rep_c.mass.values)))
        consts[coarse] = gap / (10.0 / coarse)
    # one envelope constant covers both refinements; switching times are
    # quantized to the grid, so the per-pair constant fluctuates below it
    envelope = 1.0
    ok = all(c <= envelope and c > 0.0 for c in consts.values())
    report(10, ok, "sup-norm refinement gaps " +
           ", ".join(f"N={n}: C={c:.4f}" for n, c in consts.items()) +
           f" within the envelope {envelope} * dt")
