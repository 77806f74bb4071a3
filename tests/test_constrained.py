"""Speed-limited mode: minimal arrivals, restricted values, per-edge delays."""

from __future__ import annotations

import numpy as np
import pytest

from mfroute import (MassField, ParseError, ReciprocalSpeedLimit, TabulatedSpeedLimit,
                     ValidationError, apply_psi, arrival_tables,
                     build_speed_limits, congestion_total, make_grid,
                     mean_traverse_and_delay, min_arrival, solve,
                     value_backward)
from mfroute.oracle import check_value_tables

from conftest import (SLACK, TIGHT, admissible_mass, build, by_pair, diamond_dict, row,
                      speeds, value_stage, zero_mass)


def speed_limits(spec, enabled=True):
    """Speed limits in edge order of the diamond with ``spec`` as the default."""
    net, ps, scen, grid = build(diamond_dict(steps=20, constrained={
        "enabled": enabled, "u": {"default": spec}}))
    return build_speed_limits(net, scen)


def test_limit_spec_validation():
    assert speed_limits({"family": "reciprocal", "coeff": 2.0}) == (
        ReciprocalSpeedLimit(coeff=2.0),) * 5
    for coeff in (0.0, -1.0):
        with pytest.raises(ValidationError, match=r"^constrained\.u\.default\.coeff must be positive$"):
            speed_limits({"family": "reciprocal", "coeff": coeff})
    # not finite: a parse error, as for every other number of the scenario
    for coeff in (float("nan"), float("inf")):
        with pytest.raises(ParseError, match="finite"):
            speed_limits({"family": "reciprocal", "coeff": coeff})
    assert speed_limits({"family": "table", "masses": [0.1, 1.0, 5.0],
                         "speeds": [3.0, 1.0, 0.2]}) == (
        TabulatedSpeedLimit(masses=(0.1, 1.0, 5.0), speeds=(3.0, 1.0, 0.2)),) * 5
    for masses, speeds_ in (([0.1, 1.0], [1.0, 2.0]), ([1.0, 0.1], [2.0, 1.0]),
                            ([0.1, 1.0], [1.0, 0.0])):
        with pytest.raises(ValidationError):
            speed_limits({"family": "table", "masses": masses, "speeds": speeds_})


def test_speed_limits_follow_edge_order():
    net, ps, scen, grid = build(diamond_dict(steps=20, constrained={
        "enabled": True, "u": {"default": {"family": "reciprocal", "coeff": 2.0},
                               "per_edge": {"e2": {"family": "reciprocal", "coeff": 0.5}}}}))
    coeffs = [limit.coeff for limit in build_speed_limits(net, scen)]
    assert coeffs == [2.0, 0.5, 2.0, 2.0, 2.0]


def test_disabled_speed_limits_are_built_and_checked_at_load():
    spec = {"family": "table", "masses": [0.1, 1.0], "speeds": [2.0, 1.0]}
    assert speed_limits(spec, enabled=False) == (
        TabulatedSpeedLimit(masses=(0.1, 1.0), speeds=(2.0, 1.0)),) * 5
    with pytest.raises(ParseError, match=r"constrained\.u\.default\.family 'nope'"):
        speed_limits({"family": "nope"}, enabled=False)
    with pytest.raises(ValidationError, match="speeds must be strictly positive"):
        speed_limits({"family": "table", "masses": [0.1, 1.0], "speeds": [1.0, 2.0]},
                     enabled=False)


def test_reciprocal_constant_mass_analytic():
    grid = make_grid(10.0, 200)
    limit = ReciprocalSpeedLimit(coeff=2.0)
    for m_const in (0.5, 1.0, 3.0):
        mass = np.full(201, m_const)
        tau = min_arrival(grid, 1.5, mass, limit, eps_rho=1e-6)
        expected = grid.nodes + 1.5 * m_const / 2.0
        assert np.max(np.abs(tau - expected)) <= 1e-10


def test_floored_mass_gives_near_immediate_arrival():
    grid = make_grid(10.0, 100)
    limit = ReciprocalSpeedLimit(coeff=2.0)
    tau = min_arrival(grid, 1.0, np.zeros(101), limit, eps_rho=2e-5)
    assert np.all(tau > grid.nodes)
    assert np.max(tau[:-1] - grid.nodes[:-1]) <= 2e-5  # l * eps / coeff = 1e-5


def test_congested_edge_blocks_past_horizon():
    grid = make_grid(10.0, 100)
    limit = ReciprocalSpeedLimit(coeff=0.05)  # speed 0.0025 at mass 20
    tau = min_arrival(grid, 1.0, np.full(101, 20.0), limit, eps_rho=1e-6)
    assert np.all(tau > grid.horizon)


def test_min_arrival_strictly_increasing():
    grid = make_grid(5.0, 64)
    rng = np.random.default_rng(31)
    limit = ReciprocalSpeedLimit(coeff=1.0)
    for _ in range(5):
        mass = rng.uniform(0.05, 3.0, size=65)
        tau = min_arrival(grid, 0.7, mass, limit, eps_rho=1e-6)
        assert np.all(np.diff(tau) > 0.0)


def test_min_arrival_monotone_in_mass():
    grid = make_grid(5.0, 64)
    rng = np.random.default_rng(37)
    limit = ReciprocalSpeedLimit(coeff=1.0)
    for _ in range(10):
        m1 = rng.uniform(0.05, 2.0, size=65)
        m2 = m1 + rng.uniform(0.05, 1.0, size=65)
        t1 = min_arrival(grid, 0.7, m1, limit, eps_rho=1e-6)
        t2 = min_arrival(grid, 0.7, m2, limit, eps_rho=1e-6)
        assert np.all(t2 > t1)


def test_tabulated_limit_interpolates_and_clamps():
    limit = TabulatedSpeedLimit(masses=np.array([0.0, 1.0, 2.0]),
                                speeds=np.array([4.0, 2.0, 1.0]))
    assert limit(0.5) == pytest.approx(3.0)
    assert limit(10.0) == pytest.approx(1.0)  # clamped at the last sample
    grid = make_grid(4.0, 32)
    tau = min_arrival(grid, 1.0, np.full(33, 1.0), limit, eps_rho=1e-6)
    assert np.allclose(tau, grid.nodes + 0.5, atol=1e-10)


def test_slack_limits_reproduce_unconstrained_bitwise():
    net, ps, scen, grid = build(diamond_dict(steps=100, constrained=SLACK))
    netu, psu, scenu, _ = build(diamond_dict(steps=100))
    rng = np.random.default_rng(41)
    for mass in (zero_mass(ps, grid), admissible_mass(rng, ps, scen)):
        cpsi = apply_psi(net, ps, scen, mass)
        upsi = apply_psi(netu, psu, scenu, mass)
        assert np.array_equal(cpsi.value, upsi.value)
        assert np.array_equal(cpsi.policy.tau_idx, upsi.policy.tau_idx)
        assert np.array_equal(cpsi.mass.values, upsi.mass.values)


def test_blocked_edge_forces_stay():
    blocked = {"enabled": True,
               "u": {"default": {"family": "reciprocal", "coeff": 1000.0},
                     "per_edge": {"e3": {"family": "reciprocal", "coeff": 1e-4}}}}
    doc = diamond_dict(steps=50, constrained=blocked,
                       model={"rho0": {"rule": "explicit",
                                       "values": [1.0, 1.0, 0.0, 0.5, 0.0, 0.5, 0.0]}})
    net, ps, scen, grid = build(doc)
    mass = MassField(values=np.tile(scen.rho0[:, None], (1, grid.steps + 1)))
    psi = apply_psi(net, ps, scen, mass)
    table, policy = psi.value, psi.policy.tau_idx
    r = row(ps, "e3", ps.paths.index(("e1", "e3", "e5")))
    assert np.all(policy[r] == -1)
    assert np.all(speeds(net, ps, grid, policy)[r] == 0.0)
    e3 = net.edge_index["e3"]
    stay = scen.alpha * net.dist_tail[e3] + (psi.phi_prefix[e3, -1]
                                             - psi.phi_prefix[e3])
    assert np.allclose(table[r], stay, rtol=0, atol=1e-15)


def test_tightened_limits_dominate_unconstrained():
    net, ps, scen, grid = build(diamond_dict(steps=100, constrained=TIGHT))
    netu, psu, scenu, _ = build(diamond_dict(steps=100))
    rng = np.random.default_rng(43)
    for mass in (zero_mass(ps, grid), admissible_mass(rng, ps, scen)):
        tc = apply_psi(net, ps, scen, mass).value
        _, tu, _ = value_stage(netu, psu, scenu, mass)
        assert np.all(tc >= tu)


def test_constrained_tables_match_enumeration():
    net, ps, scen, grid = build(diamond_dict(steps=10, constrained=TIGHT))
    rng = np.random.default_rng(47)
    mass = admissible_mass(rng, ps, scen)
    totals, phi_prefix = congestion_total(ps, scen, mass.values)
    limits = build_speed_limits(net, scen)
    arr = arrival_tables(net, scen, totals, limits)
    table, policy = by_pair(ps, *value_backward(net, ps, scen, phi_prefix, arr.floor_idx))
    assert check_value_tables(net, ps, scen, phi_prefix, table, policy, arr.floor_idx) == []


def test_mean_traverse_constant_excess():
    net, ps, scen, grid = build(diamond_dict(steps=100))
    tau = grid.nodes[None, :] + 0.8  # constant excess on one edge row
    tau = np.tile(tau, (5, 1))
    tau_bar, k_idx = mean_traverse_and_delay(tau, scen)
    assert np.allclose(tau_bar, 0.8, rtol=1e-12)
    assert np.allclose(k_idx * grid.dt, 0.8, rtol=1e-12)  # exceeds k = 0.5
    assert np.all(k_idx == 8)


def test_ktilde_slack_keeps_apriori_delay():
    net, ps, scen, grid = build(diamond_dict(steps=100, constrained=SLACK))
    mass = zero_mass(ps, grid)
    psi = apply_psi(net, ps, scen, mass)
    assert np.all(psi.k_idx_edges == scen.k_idx)
    assert np.all(psi.arrival.tau_bar < scen.k)


def test_ktilde_capped_at_half_horizon():
    net, ps, scen, grid = build(diamond_dict(steps=100))
    tau = grid.nodes[None, :] + 8.0
    tau = np.tile(tau, (5, 1))
    tau_bar, k_idx = mean_traverse_and_delay(tau, scen)
    assert np.allclose(k_idx * grid.dt, 5.0)  # horizon / 2
    assert np.all(k_idx == 50)


def test_constrained_solve_end_to_end():
    net, ps, scen, grid = build(diamond_dict(steps=100, constrained=TIGHT))
    report = solve(net, ps, scen)
    assert report.converged
    assert report.membership.mass_ok and report.membership.lipschitz_ok
    sums = report.psi.z.sum(axis=0)
    assert np.allclose(sums, scen.lam, rtol=1e-12, atol=0.0)
    # tighter speeds slow traffic down: delays at least the a-priori constant
    assert np.all(report.psi.k_idx_edges >= scen.k_idx)


def test_missing_limits_rejected():
    doc = diamond_dict(steps=50, constrained={"enabled": True})
    with pytest.raises(ValidationError):
        build(doc)
