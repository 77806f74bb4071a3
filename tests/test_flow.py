"""Local decision, delayed flows, conservation, integration, and the psi map."""

from __future__ import annotations

import math

import numpy as np
import pytest

from mfroute import (DegenerateSimplex, FlowField, MassBoundExceeded, MassField,
                     Policy, apply_psi, compute_flows, integrate_mass,
                     local_decision)
from mfroute.flow import injection_terms
from mfroute.oracle import audit_conservation

from conftest import (STAGE_DOCS, admissible_mass, build, diamond_dict, lattice_dict,
                      reference_flows, row, stage_inputs, zero_mass)


def all_moving_policy(ps, n_nodes):
    tau = np.minimum(np.arange(n_nodes) + 1, n_nodes - 1)
    return Policy(tau_idx=np.tile(tau, (ps.pair_count, 1)))


def test_local_decision_uniform(diamond):
    net, ps, scen, grid = diamond
    z = np.ones((3, 1))
    g = local_decision(ps, z)
    first_rows = np.flatnonzero(ps.first_mask)
    assert np.allclose(g[first_rows, 0], 1.0 / 3.0, rtol=1e-15)
    other = np.flatnonzero(~ps.first_mask)
    assert np.all(g[other] == 0.0)
    assert g[first_rows, 0].sum() == pytest.approx(1.0, rel=1e-15)


def test_local_decision_concentrated(diamond):
    net, ps, scen, grid = diamond
    z = np.array([[1.0], [0.0], [0.0]])
    g = local_decision(ps, z)
    first_rows = np.flatnonzero(ps.first_mask)
    assert np.array_equal(g[first_rows, 0], np.array([1.0, 0.0, 0.0]))


def test_local_decision_normalization_random(diamond):
    net, ps, scen, grid = diamond
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = rng.uniform(0.01, 2.0, size=(3, 4))
        g = local_decision(ps, z)
        first_rows = np.flatnonzero(ps.first_mask)
        assert np.allclose(g[first_rows].sum(axis=0), 1.0, rtol=0, atol=1e-14)


def test_local_decision_degenerate(diamond):
    net, ps, scen, grid = diamond
    with pytest.raises(DegenerateSimplex):
        local_decision(ps, np.zeros((3, 2)))


@pytest.mark.parametrize("doc", STAGE_DOCS.values(), ids=STAGE_DOCS.keys())
def test_flows_match_per_pair_reference(doc):
    net, ps, scen, mass, psi = stage_inputs(doc)
    flows = compute_flows(ps, psi.policy, psi.preference.z, scen.lam, psi.k_idx_edges)
    ref = reference_flows(ps, psi.policy, psi.preference.z, scen.lam, psi.k_idx_edges)
    assert flows.values.tobytes() == ref.values.tobytes()
    if scen.constrained.enabled:
        # pairs at one path position with different delays
        delays = psi.k_idx_edges[ps.pair_edge_idx]
        assert any(np.unique(delays[rows]).size > 1 for rows in ps.rows_by_position)


def test_flows_zero_before_delay(diamond):
    net, ps, scen, grid = diamond
    n_nodes = grid.steps + 1
    z = np.ones((3, n_nodes))
    k_idx = np.full(5, scen.k_idx, dtype=np.int64)
    f = compute_flows(ps, all_moving_policy(ps, n_nodes), z, scen.lam, k_idx)
    assert np.all(f.values[:, :scen.k_idx] == 0.0)
    assert np.any(f.values[:, scen.k_idx:] > 0.0)


def test_flow_two_stage_unroll(diamond):
    net, ps, scen, grid = diamond
    n_nodes = grid.steps + 1
    z = np.ones((3, n_nodes))
    k_idx = np.full(5, scen.k_idx, dtype=np.int64)
    f = compute_flows(ps, all_moving_policy(ps, n_nodes), z, scen.lam, k_idx)
    p = ps.paths.index(("e1", "e4"))
    r_first = row(ps, "e1", p)
    r_last = row(ps, "e4", p)
    # after one delay the origin edge emits lambda/3; the next edge one delay later
    assert np.allclose(f.values[r_first, scen.k_idx:], 1.0 / 3.0, rtol=1e-15)
    assert np.all(f.values[r_last, :2 * scen.k_idx] == 0.0)
    assert np.allclose(f.values[r_last, 2 * scen.k_idx:], 1.0 / 3.0, rtol=1e-15)


def test_stopped_edge_emits_nothing(diamond):
    net, ps, scen, grid = diamond
    n_nodes = grid.steps + 1
    z = np.ones((3, n_nodes))
    pol = all_moving_policy(ps, n_nodes)
    p = ps.paths.index(("e1", "e3", "e5"))
    r = row(ps, "e3", p)
    pol.tau_idx[r, :] = -1
    k_idx = np.full(5, scen.k_idx, dtype=np.int64)
    f = compute_flows(ps, pol, z, scen.lam, k_idx)
    assert np.all(f.values[r] == 0.0)
    # downstream of the stopped edge nothing arrives either
    assert np.all(f.values[row(ps, "e5", p)] == 0.0)


def test_flows_respect_capacity_margin(diamond):
    net, ps, scen, grid = diamond
    psi = apply_psi(net, ps, scen, zero_mass(ps, grid))
    caps = net.capacities[ps.pair_edge_idx][:, None]
    assert np.all(psi.flows.values <= scen.lam_max + 1e-12)
    assert np.all(psi.flows.values < caps)


def test_delay_causality(diamond):
    net, ps, scen, grid = diamond
    n_nodes = grid.steps + 1
    rng = np.random.default_rng(8)
    z = rng.uniform(0.1, 1.0, size=(3, n_nodes))
    pol = all_moving_policy(ps, n_nodes)
    k_idx = np.full(5, scen.k_idx, dtype=np.int64)
    f1 = compute_flows(ps, pol, z, scen.lam, k_idx)
    cut = 40
    z2 = z.copy()
    z2[:, cut:] = rng.uniform(0.1, 1.0, size=(3, n_nodes - cut))
    f2 = compute_flows(ps, pol, z2, scen.lam, k_idx)
    assert np.array_equal(f1.values[:, :cut + scen.k_idx],
                          f2.values[:, :cut + scen.k_idx])


def moved_terms(grid, flows):
    """Mass leaving each pair per step."""
    return grid.dt * flows.values[:, :grid.steps]


def increments(ps, grid, flows, z, lam):
    """Pre-clip mass increment per pair and step, the terms integrate_mass
    documents: the row's injection or its predecessor's moved mass, minus
    its own."""
    mov = moved_terms(grid, flows)
    inj = injection_terms(z[:, :grid.steps], lam[:grid.steps], grid.dt)
    plus = np.empty_like(mov)
    first_rows = np.flatnonzero(ps.first_mask)
    nonfirst = np.flatnonzero(~ps.first_mask)
    plus[first_rows] = inj[ps.pair_path_idx[first_rows]]
    plus[nonfirst] = mov[nonfirst - 1]
    return plus - mov


def test_increments_before_delay_are_pure_inflow(diamond):
    net, ps, scen, grid = diamond
    n_nodes = grid.steps + 1
    z = np.ones((3, n_nodes))
    k_idx = np.full(5, scen.k_idx, dtype=np.int64)
    f = compute_flows(ps, all_moving_policy(ps, n_nodes), z, scen.lam, k_idx)
    h = increments(ps, grid, f, z, scen.lam)[:, :scen.k_idx]
    first_rows = np.flatnonzero(ps.first_mask)
    assert np.allclose(h[first_rows], grid.dt / 3.0, rtol=1e-15)
    assert np.all(h[np.flatnonzero(~ps.first_mask)] == 0.0)
    # after the delay the first edges emit, so the increments are not pure inflow
    assert np.any(moved_terms(grid, f)[:, scen.k_idx:] > 0.0)


def test_increments_telescope_to_boundary_terms(diamond):
    net, ps, scen, grid = diamond
    psi = apply_psi(net, ps, scen, zero_mass(ps, grid))
    h = increments(ps, grid, psi.flows, psi.preference.z, scen.lam)
    last_rows = np.flatnonzero(ps.last_mask)
    outflow = psi.flows.values[last_rows, :grid.steps].sum(axis=0)
    assert np.allclose(h.sum(axis=0), grid.dt * scen.lam[:grid.steps] - grid.dt * outflow,
                       rtol=0, atol=1e-14)


def test_increments_route_concentrated_preference(diamond):
    net, ps, scen, grid = diamond
    n_nodes = grid.steps + 1
    z = np.zeros((3, n_nodes))
    z[0] = 1.0  # everything on the long path (e1, e3, e5)
    f = FlowField(values=np.zeros((ps.pair_count, n_nodes)))
    integ = integrate_mass(ps, scen, f, z, scen.lam, np.zeros(ps.pair_count))
    h = increments(ps, grid, f, z, scen.lam)
    r = row(ps, "e1", 0)
    assert np.allclose(h[r], grid.dt * scen.lam[:grid.steps], rtol=1e-15)
    assert np.all(h[row(ps, "e2", 2)] == 0.0)
    # the routed increments are what the mass accumulates
    assert np.array_equal(integ.mass.values[r, 1:], np.cumsum(h[r]))
    assert np.all(integ.mass.values[row(ps, "e2", 2)] == 0.0)


def test_injection_terms_sum_exactly_to_budget(diamond):
    net, ps, scen, grid = diamond
    rng = np.random.default_rng(12)
    z = rng.uniform(0.05, 2.0, size=(3, 32))
    lam = rng.uniform(0.5, 2.0, size=32)
    inj = injection_terms(z, lam, grid.dt)
    budget = grid.dt * lam
    total = inj[0].copy()
    for p in range(1, 3):
        total = total + inj[p]
    assert np.array_equal(total, budget)
    # a single path receives the whole budget, bit for bit
    one = injection_terms(z[:1], lam, grid.dt)
    assert one.shape == (1, 32) and one[0].tobytes() == budget.tobytes()


def test_integrate_zero_rhs_keeps_initial_mass(diamond):
    net, ps, scen, grid = diamond
    n_nodes = grid.steps + 1
    f = FlowField(values=np.zeros((ps.pair_count, n_nodes)))
    z = np.ones((3, n_nodes))
    lam = np.zeros(n_nodes)
    rho0 = np.linspace(0.0, 1.0, ps.pair_count)
    res = integrate_mass(ps, scen, f, z, lam, rho0)
    assert np.array_equal(res.mass.values, np.tile(rho0[:, None], (1, n_nodes)))


def test_integrate_constant_rhs_is_exact():
    doc = {
        "network": {"vertices": ["o", "d"],
                    "edges": [{"id": "e1", "tail": "o", "head": "d",
                               "length": 1.0, "capacity": 2.0}],
                    "origin": "o", "destination": "d"},
        "model": {"horizon": 1.0, "steps": 8, "alpha": 1.0, "beta": 1.0,
                  "eta": 1.0, "rho_max": 2.0,
                  "lambda": {"family": "constant", "value": 0.25},
                  "phi": {"default": {"family": "linear", "coeff": 0.0}}},
    }
    net, ps, scen, grid = build(doc)
    n_nodes = grid.steps + 1
    f = FlowField(values=np.zeros((1, n_nodes)))
    z = np.ones((1, n_nodes))
    res = integrate_mass(ps, scen, f, z, scen.lam, np.zeros(1))
    # dyadic rate and step: Euler accumulation is exact
    assert np.array_equal(res.mass.values[0], 0.25 * grid.nodes)


def test_integrate_clips_and_reports(diamond):
    net, ps, scen, grid = diamond
    n_nodes = grid.steps + 1
    f = np.zeros((ps.pair_count, n_nodes))
    f[0] = 0.6  # drains faster than the edge fills
    z = np.ones((3, n_nodes))
    res = integrate_mass(ps, scen, FlowField(values=f), z, scen.lam, np.zeros(ps.pair_count))
    assert res.clip_total > 0.0
    assert res.clip_count > 0
    assert np.all(res.mass.values >= 0.0)


def test_integrate_detects_mass_bound_violation(diamond):
    net, ps, scen, grid = diamond
    n_nodes = grid.steps + 1
    f = FlowField(values=np.zeros((ps.pair_count, n_nodes)))
    z = np.ones((3, n_nodes))
    lam = np.full(n_nodes, 12.0)  # pours far beyond rho_max onto first edges
    with pytest.raises(MassBoundExceeded):
        integrate_mass(ps, scen, f, z, lam, np.zeros(ps.pair_count))


def test_fast_path_matches_stepwise_loop(diamond):
    net, ps, scen, grid = diamond
    rng = np.random.default_rng(17)
    n_nodes = grid.steps + 1
    z = rng.uniform(0.2, 1.5, size=(3, n_nodes))
    f = FlowField(values=np.zeros((ps.pair_count, n_nodes)))
    res = integrate_mass(ps, scen, f, z, scen.lam, np.zeros(ps.pair_count))
    # manual stepwise replay
    inj = injection_terms(z[:, :-1], scen.lam[:-1], grid.dt)
    state = np.zeros(ps.pair_count)
    first_rows = np.flatnonzero(ps.first_mask)
    for i in range(grid.steps):
        plus = np.zeros(ps.pair_count)
        plus[first_rows] = inj[ps.pair_path_idx[first_rows], i]
        state = np.maximum(state + (plus - 0.0), 0.0)
        assert np.array_equal(res.mass.values[:, i + 1], state)


def stepwise_integration(delta, rho0):
    """The node-by-node Euler loop with clipping that integrate_mass must
    reproduce bit for bit, mass and clip statistics alike."""
    n = delta.shape[1]
    clip_total = 0.0
    clip_max = 0.0
    clip_count = 0
    mass = np.empty((delta.shape[0], n + 1))
    mass[:, 0] = rho0
    state = np.array(rho0, dtype=float)
    for i in range(n):
        pre = state + delta[:, i]
        state = np.maximum(pre, 0.0)
        clipped = state - pre
        if np.any(clipped > 0.0):
            clip_total += float(clipped.sum())
            clip_max = max(clip_max, float(clipped.max()))
            clip_count += int(np.count_nonzero(clipped))
        mass[:, i + 1] = state
    return mass, clip_total, clip_max, clip_count


def _clipping_case(name, ps, grid):
    """Flows and start mass built so that integration has to clip."""
    n_nodes = grid.steps + 1
    f = np.zeros((ps.pair_count, n_nodes))
    rho0 = np.zeros(ps.pair_count)
    # ten nodes at rest, then five that drain more than the rest filled
    pulses = np.where((np.arange(n_nodes) // 5) % 3 == 2, 2.0, 0.0)
    if name == "one-row-many-clips":
        f[0] = pulses  # drains faster than it fills, refills in between
    elif name == "rows-clip-together":
        f[np.flatnonzero(ps.first_mask)] = pulses
    elif name == "rho0-negative-zero":
        rho0 = np.linspace(0.05, 0.3, ps.pair_count)
        f[1] = pulses
        # -0.0 start plus a -0.0 increment: -0.0 before the first clip
        rho0[4] = -0.0
        f[3, 0] = -0.0
    elif name == "exact-zero-pre":
        f[1, 0] = 0.7
        f[1, 30:40] = 0.5
        rho0[1] = grid.dt * f[1, 0]  # drained to exactly +0.0, later clipped
    elif name in ("random", "random-lattice"):
        # on the lattice, seed 45 gives a clip_total that summing each step's
        # clips in another order than numpy's .sum() would change
        seed = 45 if name == "random-lattice" else 43
        f = np.random.default_rng(seed).uniform(0.0, 0.8, size=f.shape)
        rho0 = np.random.default_rng(47).uniform(0.0, 0.2, size=ps.pair_count)
    return f, rho0


@pytest.mark.parametrize("name", ["one-row-many-clips", "rows-clip-together",
                                  "rho0-negative-zero", "exact-zero-pre", "random",
                                  "random-lattice"])
def test_integrate_matches_stepwise_loop_when_clipping(name):
    # 7 pairs on the diamond; 24 on the 3x3 lattice, where numpy's .sum() of
    # a step's clipped vector adds in eight partial sums, not left to right
    doc = lattice_dict(3, steps=100) if name == "random-lattice" else diamond_dict(steps=100)
    net, ps, scen, grid = build(doc)
    z = np.random.default_rng(53).uniform(0.2, 1.5, size=(ps.n_paths, grid.steps + 1))
    f, rho0 = _clipping_case(name, ps, grid)
    flows = FlowField(values=f)
    res = integrate_mass(ps, scen, flows, z, scen.lam, rho0)
    delta = increments(ps, grid, flows, z, scen.lam)
    mass, clip_total, clip_max, clip_count = stepwise_integration(delta, rho0)
    # tobytes: signed zeros must match too
    assert res.mass.values.tobytes() == mass.tobytes()
    assert (res.clip_total, res.clip_max, res.clip_count) == (clip_total, clip_max,
                                                              clip_count)
    # the case clips where it was built to
    clips = (mass[:, :-1] + delta) < 0.0
    assert clip_count == int(clips.sum()) > 0
    if name == "one-row-many-clips":
        assert clips[0].sum() > 1 and not clips[1:].any()
    elif name == "rows-clip-together":
        assert np.any(clips.sum(axis=0) > 1)
    elif name == "random-lattice":
        assert ps.pair_count > 8 and np.any(clips.sum(axis=0) > 2)
    elif name == "rho0-negative-zero":
        assert np.signbit(mass[4, 0]) and mass[4, 0] + delta[4, 0] == 0.0
        assert np.signbit(mass[4, 0] + delta[4, 0]) and not np.signbit(mass[4, 1])
    elif name == "exact-zero-pre":
        assert mass[1, 0] + delta[1, 0] == 0.0 and not np.signbit(mass[1, 1])
        assert not clips[1, 0] and clips[1, 30:].any()


def test_integrate_detects_mass_bound_violation_after_clipping(diamond):
    net, ps, scen, grid = diamond
    n_nodes = grid.steps + 1
    f = np.zeros((ps.pair_count, n_nodes))
    f[1] = 5.0  # row (e3, path 0) clips at every step ...
    f[2] = 5.0  # ... and its successor passes on what it receives
    z = np.ones((3, n_nodes))
    lam = np.full(n_nodes, 12.0)  # pours far beyond rho_max onto first edges
    with pytest.raises(MassBoundExceeded):
        integrate_mass(ps, scen, FlowField(values=f), z, lam, np.zeros(ps.pair_count))
    integ = integrate_mass(ps, scen, FlowField(values=f), z, scen.lam,
                           np.zeros(ps.pair_count))
    assert integ.clip_count > 0


def test_clip_magnitude_negligible_under_refinement():
    # flows replay delayed inflows scaled by a 0/1 gate, so pre-clip
    # negativity can only be rounding dust; it must not grow as the grid
    # refines, in either solver mode
    tight = {"enabled": True,
             "u": {"default": {"family": "reciprocal", "coeff": 0.4}}}
    for constrained in (None, tight):
        totals = []
        for steps in (100, 200, 400):
            net, ps, scen, grid = build(diamond_dict(steps=steps,
                                                     constrained=constrained))
            report_ = apply_psi(net, ps, scen, zero_mass(ps, grid))
            for _ in range(3):
                report_ = apply_psi(net, ps, scen, report_.mass)
            totals.append(report_.integration.clip_total)
        assert all(t <= 1e-12 for t in totals)


def test_psi_from_empty_network(diamond):
    net, ps, scen, grid = diamond
    psi = apply_psi(net, ps, scen, zero_mass(ps, grid))
    assert np.all(psi.mass.values[:, 0] == 0.0)
    assert psi.integration.clip_total == 0.0
    audit = audit_conservation(ps, scen, psi, scen.rho0)
    assert audit.ok
    assert audit.balance_defect <= 1e-12


def test_psi_outputs_stay_admissible(diamond):
    net, ps, scen, grid = diamond
    rng = np.random.default_rng(23)
    for _ in range(5):
        mass = admissible_mass(rng, ps, scen)
        psi = apply_psi(net, ps, scen, mass)
        values = psi.mass.values
        totals = np.zeros((5, values.shape[1]))
        np.add.at(totals, ps.pair_edge_idx, values)
        assert totals.max() <= scen.rho_max
        quot = np.max(np.abs(np.diff(values, axis=1))) / grid.dt
        assert quot <= scen.lipschitz_bound + 1e-9


def test_psi_bitwise_deterministic(diamond):
    net, ps, scen, grid = diamond
    rng = np.random.default_rng(29)
    mass = admissible_mass(rng, ps, scen)
    a = apply_psi(net, ps, scen, mass)
    b = apply_psi(net, ps, scen, mass)
    assert np.array_equal(a.mass.values, b.mass.values)
    assert np.array_equal(a.flows.values, b.flows.values)
    assert np.array_equal(a.preference.z, b.preference.z)
