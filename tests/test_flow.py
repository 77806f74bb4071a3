"""Local decision, delayed flows, conservation, integration, and the psi map."""

from __future__ import annotations

import math

import numpy as np
import pytest

from mfroute import (DegenerateSimplex, MassBoundExceeded, ShapeMismatch, apply_psi,
                     compute_flows, integrate_mass, local_decision)
from mfroute.flow import injection_terms
from mfroute.oracle import audit_conservation

from conftest import (STAGE_DOCS, TIGHT, admissible_mass, build, diamond_dict,
                      lattice_dict, reference_flows, row, stage_inputs, zero_mass)


def all_moving_policy(ps, n_nodes):
    """Every suffix moves on at the next node: ``tau_idx`` with one row per
    path suffix."""
    tau = np.minimum(np.arange(n_nodes) + 1, n_nodes - 1)
    return np.tile(tau, (len(ps.suffix_table[0]), 1))


def injections(grid, z, lam):
    """The injections psi hands to integrate_mass for preferences ``z``."""
    n = grid.steps
    return injection_terms(local_decision(z)[:, :n], lam[:n], grid.dt)


def integrate(ps, scen, flows, z, lam, rho0):
    """integrate_mass with the injections of ``z`` and ``lam``."""
    return integrate_mass(ps, scen, flows, injections(scen.grid, z, lam), rho0)


def test_local_decision_uniform():
    g = local_decision(np.ones((3, 1)))
    assert g.shape == (3, 1)
    assert np.allclose(g[:, 0], 1.0 / 3.0, rtol=1e-15)
    assert g[:, 0].sum() == pytest.approx(1.0, rel=1e-15)


def test_local_decision_concentrated():
    g = local_decision(np.array([[1.0], [0.0], [0.0]]))
    assert np.array_equal(g[:, 0], np.array([1.0, 0.0, 0.0]))


def test_local_decision_normalization_random():
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = rng.uniform(0.01, 2.0, size=(3, 4))
        g = local_decision(z)
        assert g.tobytes() == (z / z.sum(axis=0)).tobytes()
        assert np.allclose(g.sum(axis=0), 1.0, rtol=0, atol=1e-14)


def test_local_decision_degenerate():
    with pytest.raises(DegenerateSimplex):
        local_decision(np.zeros((3, 2)))


@pytest.mark.parametrize("doc", STAGE_DOCS.values(), ids=STAGE_DOCS.keys())
def test_flows_match_per_pair_reference(doc):
    net, ps, scen, mass, psi = stage_inputs(doc)
    shares = local_decision(psi.z)
    flows = compute_flows(ps, psi.suffix_tau_idx, shares, scen.lam, psi.k_idx_edges)
    ref = reference_flows(ps, psi.policy.tau_idx, shares, scen.lam, psi.k_idx_edges)
    assert flows.tobytes() == ref.tobytes()
    if scen.constrained.enabled:
        # pairs at one path position with different delays
        delays = psi.k_idx_edges[ps.pair_edge_idx]
        assert any(np.unique(delays[rows]).size > 1 for rows in ps.rows_by_position)


def test_flows_zero_before_delay(diamond):
    net, ps, scen, grid = diamond
    n_nodes = grid.steps + 1
    z = np.ones((3, n_nodes))
    k_idx = np.full(5, scen.k_idx, dtype=np.int64)
    f = compute_flows(ps, all_moving_policy(ps, n_nodes), local_decision(z), scen.lam,
                      k_idx)
    assert np.all(f[:, :scen.k_idx] == 0.0)
    assert np.any(f[:, scen.k_idx:] > 0.0)


def test_flow_two_stage_unroll(diamond):
    net, ps, scen, grid = diamond
    n_nodes = grid.steps + 1
    z = np.ones((3, n_nodes))
    k_idx = np.full(5, scen.k_idx, dtype=np.int64)
    f = compute_flows(ps, all_moving_policy(ps, n_nodes), local_decision(z), scen.lam,
                      k_idx)
    p = ps.paths.index(("e1", "e4"))
    r_first = row(ps, "e1", p)
    r_last = row(ps, "e4", p)
    # after one delay the origin edge emits lambda/3; the next edge one delay later
    assert np.allclose(f[r_first, scen.k_idx:], 1.0 / 3.0, rtol=1e-15)
    assert np.all(f[r_last, :2 * scen.k_idx] == 0.0)
    assert np.allclose(f[r_last, 2 * scen.k_idx:], 1.0 / 3.0, rtol=1e-15)


def test_stopped_edge_emits_nothing(diamond):
    net, ps, scen, grid = diamond
    n_nodes = grid.steps + 1
    z = np.ones((3, n_nodes))
    pol = all_moving_policy(ps, n_nodes)
    p = ps.paths.index(("e1", "e3", "e5"))
    r = row(ps, "e3", p)
    pol[ps.suffix_table[1][r], :] = -1
    k_idx = np.full(5, scen.k_idx, dtype=np.int64)
    f = compute_flows(ps, pol, local_decision(z), scen.lam, k_idx)
    assert np.all(f[r] == 0.0)
    # downstream of the stopped edge nothing arrives either
    assert np.all(f[row(ps, "e5", p)] == 0.0)


def test_flows_respect_capacity_margin(diamond):
    net, ps, scen, grid = diamond
    psi = apply_psi(net, ps, scen, zero_mass(ps, grid))
    caps = net.capacities[ps.pair_edge_idx][:, None]
    assert np.all(psi.flows <= scen.lam_max + 1e-12)
    assert np.all(psi.flows < caps)


def test_delay_causality(diamond):
    net, ps, scen, grid = diamond
    n_nodes = grid.steps + 1
    rng = np.random.default_rng(8)
    z = rng.uniform(0.1, 1.0, size=(3, n_nodes))
    pol = all_moving_policy(ps, n_nodes)
    k_idx = np.full(5, scen.k_idx, dtype=np.int64)
    f1 = compute_flows(ps, pol, local_decision(z), scen.lam, k_idx)
    cut = 40
    z2 = z.copy()
    z2[:, cut:] = rng.uniform(0.1, 1.0, size=(3, n_nodes - cut))
    f2 = compute_flows(ps, pol, local_decision(z2), scen.lam, k_idx)
    assert np.array_equal(f1[:, :cut + scen.k_idx],
                          f2[:, :cut + scen.k_idx])


def moved_terms(grid, flows):
    """Mass leaving each pair per step."""
    return grid.dt * flows[:, :grid.steps]


def increments(ps, grid, flows, z, lam):
    """Pre-clip mass increment per pair and step, the terms integrate_mass
    documents: the row's injection or its predecessor's moved mass, minus
    its own."""
    mov = moved_terms(grid, flows)
    inj = injections(grid, z, lam)
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
    f = compute_flows(ps, all_moving_policy(ps, n_nodes), local_decision(z), scen.lam,
                      k_idx)
    h = increments(ps, grid, f, z, scen.lam)[:, :scen.k_idx]
    first_rows = np.flatnonzero(ps.first_mask)
    assert np.allclose(h[first_rows], grid.dt / 3.0, rtol=1e-15)
    assert np.all(h[np.flatnonzero(~ps.first_mask)] == 0.0)
    # after the delay the first edges emit, so the increments are not pure inflow
    assert np.any(moved_terms(grid, f)[:, scen.k_idx:] > 0.0)


def test_increments_telescope_to_boundary_terms(diamond):
    net, ps, scen, grid = diamond
    psi = apply_psi(net, ps, scen, zero_mass(ps, grid))
    h = increments(ps, grid, psi.flows, psi.z, scen.lam)
    last_rows = np.flatnonzero(ps.last_mask)
    outflow = psi.flows[last_rows, :grid.steps].sum(axis=0)
    assert np.allclose(h.sum(axis=0), grid.dt * scen.lam[:grid.steps] - grid.dt * outflow,
                       rtol=0, atol=1e-14)


def test_increments_route_concentrated_preference(diamond):
    net, ps, scen, grid = diamond
    n_nodes = grid.steps + 1
    z = np.zeros((3, n_nodes))
    z[0] = 1.0  # everything on the long path (e1, e3, e5)
    f = np.zeros((ps.pair_count, n_nodes))
    mass, _ = integrate(ps, scen, f, z, scen.lam, np.zeros(ps.pair_count))
    h = increments(ps, grid, f, z, scen.lam)
    r = row(ps, "e1", 0)
    assert np.allclose(h[r], grid.dt * scen.lam[:grid.steps], rtol=1e-15)
    assert np.all(h[row(ps, "e2", 2)] == 0.0)
    # the routed increments are what the mass accumulates
    assert np.array_equal(mass[r, 1:], np.cumsum(h[r]))
    assert np.all(mass[row(ps, "e2", 2)] == 0.0)


def test_injection_terms_sum_exactly_to_budget(diamond):
    net, ps, scen, grid = diamond
    rng = np.random.default_rng(12)
    z = rng.uniform(0.05, 2.0, size=(3, 32))
    lam = rng.uniform(0.5, 2.0, size=32)
    inj = injection_terms(local_decision(z), lam, grid.dt)
    budget = grid.dt * lam
    total = inj[0].copy()
    for p in range(1, 3):
        total = total + inj[p]
    assert np.array_equal(total, budget)
    # a single path receives the whole budget, bit for bit
    one = injection_terms(local_decision(z[:1]), lam, grid.dt)
    assert one.shape == (1, 32) and one[0].tobytes() == budget.tobytes()


def test_integrate_zero_rhs_keeps_initial_mass(diamond):
    net, ps, scen, grid = diamond
    n_nodes = grid.steps + 1
    f = np.zeros((ps.pair_count, n_nodes))
    z = np.ones((3, n_nodes))
    lam = np.zeros(n_nodes)
    rho0 = np.linspace(0.0, 1.0, ps.pair_count)
    mass, _ = integrate(ps, scen, f, z, lam, rho0)
    assert np.array_equal(mass, np.tile(rho0[:, None], (1, n_nodes)))


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
    f = np.zeros((1, n_nodes))
    z = np.ones((1, n_nodes))
    mass, _ = integrate(ps, scen, f, z, scen.lam, np.zeros(1))
    # dyadic rate and step: Euler accumulation is exact
    assert np.array_equal(mass[0], 0.25 * grid.nodes)


def test_integrate_clips_and_reports(diamond):
    net, ps, scen, grid = diamond
    n_nodes = grid.steps + 1
    f = np.zeros((ps.pair_count, n_nodes))
    f[0] = 0.6  # drains faster than the edge fills
    z = np.ones((3, n_nodes))
    mass, res = integrate(ps, scen, f, z, scen.lam, np.zeros(ps.pair_count))
    assert res.clip_total > 0.0
    assert res.clip_count > 0
    assert np.all(mass >= 0.0)


def test_integrate_detects_mass_bound_violation(diamond):
    net, ps, scen, grid = diamond
    n_nodes = grid.steps + 1
    f = np.zeros((ps.pair_count, n_nodes))
    z = np.ones((3, n_nodes))
    lam = np.full(n_nodes, 12.0)  # pours far beyond rho_max onto first edges
    with pytest.raises(MassBoundExceeded):
        integrate(ps, scen, f, z, lam, np.zeros(ps.pair_count))


def test_fast_path_matches_stepwise_loop(diamond):
    net, ps, scen, grid = diamond
    rng = np.random.default_rng(17)
    n_nodes = grid.steps + 1
    z = rng.uniform(0.2, 1.5, size=(3, n_nodes))
    f = np.zeros((ps.pair_count, n_nodes))
    mass, _ = integrate(ps, scen, f, z, scen.lam, np.zeros(ps.pair_count))
    # manual stepwise replay
    inj = injections(grid, z, scen.lam)
    state = np.zeros(ps.pair_count)
    first_rows = np.flatnonzero(ps.first_mask)
    for i in range(grid.steps):
        plus = np.zeros(ps.pair_count)
        plus[first_rows] = inj[ps.pair_path_idx[first_rows], i]
        state = np.maximum(state + (plus - 0.0), 0.0)
        assert np.array_equal(mass[:, i + 1], state)


def stepwise_integration(delta, rho0):
    """The node-by-node Euler loop with clipping whose mass integrate_mass
    must reproduce bit for bit, and the exact sum, maximum and count of the
    amounts it clips."""
    n = delta.shape[1]
    amounts = []
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
            amounts.extend(clipped[clipped > 0.0].tolist())
            clip_max = max(clip_max, float(clipped.max()))
            clip_count += int(np.count_nonzero(clipped))
        mass[:, i + 1] = state
    return mass, math.fsum(amounts), clip_max, clip_count


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
    elif name == "lattice-first-row-clips":
        # the first row of path 2, whose increments start from its injection
        f[ps.path_rows[2][0]] = pulses
    elif name == "lattice-last-row-clips":
        # the last row of path 2, whose increments start from its
        # predecessor's moved mass: a steady outflow that never runs dry
        rows = ps.path_rows[2]
        rho0[rows[-2]] = 2.0
        f[rows[-2]] = 0.1
        f[rows[-1]] = pulses
    elif name in ("random", "random-lattice"):
        # on the lattice, seed 45 makes more than two rows clip at one step
        seed = 45 if name == "random-lattice" else 43
        f = np.random.default_rng(seed).uniform(0.0, 0.8, size=f.shape)
        rho0 = np.random.default_rng(47).uniform(0.0, 0.2, size=ps.pair_count)
    return f, rho0


@pytest.mark.parametrize("name", ["one-row-many-clips", "rows-clip-together",
                                  "rho0-negative-zero", "exact-zero-pre", "random",
                                  "random-lattice", "lattice-first-row-clips",
                                  "lattice-last-row-clips"])
def test_integrate_matches_stepwise_loop_when_clipping(name):
    # 7 pairs on the diamond; 24 on the 3x3 lattice
    doc = lattice_dict(3, steps=100) if "lattice" in name else diamond_dict(steps=100)
    net, ps, scen, grid = build(doc)
    z = np.random.default_rng(53).uniform(0.2, 1.5, size=(ps.n_paths, grid.steps + 1))
    f, rho0 = _clipping_case(name, ps, grid)
    got, res = integrate(ps, scen, f, z, scen.lam, rho0)
    delta = increments(ps, grid, f, z, scen.lam)
    mass, clip_total, clip_max, clip_count = stepwise_integration(delta, rho0)
    # tobytes: signed zeros must match too
    assert got.tobytes() == mass.tobytes()
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
    elif name in ("lattice-first-row-clips", "lattice-last-row-clips"):
        # one row clips, more than once, so it restarts before node N
        r = ps.path_rows[2][0 if name == "lattice-first-row-clips" else -1]
        assert ps.first_mask[r] != ps.last_mask[r]
        assert clips[r].sum() > 1 and clips[r].sum() == clips.sum()
        assert np.flatnonzero(clips[r])[0] < grid.steps - 1
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
        integrate(ps, scen, f, z, lam, np.zeros(ps.pair_count))
    _, integ = integrate(ps, scen, f, z, scen.lam, np.zeros(ps.pair_count))
    assert integ.clip_count > 0


@pytest.mark.parametrize("flow_nodes, inj_nodes", [(0, 0), (1, 1)],
                         ids=["flows-a-node-short", "injections-a-node-long"])
def test_integrate_refuses_arrays_off_the_grid(diamond, flow_nodes, inj_nodes):
    # flows take one column per node, injections one per step
    net, ps, scen, grid = diamond
    n = grid.steps
    flows = np.zeros((ps.pair_count, n + flow_nodes))
    inj = np.zeros((ps.n_paths, n + inj_nodes))
    with pytest.raises(ShapeMismatch, match="do not match the grid"):
        integrate_mass(ps, scen, flows, inj, scen.rho0)


def test_clip_magnitude_negligible_under_refinement():
    # flows replay delayed inflows scaled by a 0/1 gate, so pre-clip
    # negativity can only be rounding dust; it must not grow as the grid
    # refines, in either solver mode
    for constrained in (None, TIGHT):
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


@pytest.mark.parametrize("doc", STAGE_DOCS.values(), ids=STAGE_DOCS.keys())
def test_psi_result_gathers_suffix_rows_to_pairs(doc):
    net, ps, scen, mass, psi = stage_inputs(doc)
    suffixes, pair_suffix = ps.suffix_table
    n_nodes = scen.grid.steps + 1
    assert psi.suffix_value.shape == (len(suffixes), n_nodes)
    assert psi.suffix_tau_idx.shape == (len(suffixes), n_nodes)
    value, tau = psi.value, psi.policy.tau_idx
    assert value.shape == tau.shape == (ps.pair_count, n_nodes)
    assert value.dtype == np.float64 and tau.dtype == np.int32
    assert value.tobytes() == psi.suffix_value[pair_suffix].tobytes()
    assert tau.tobytes() == psi.suffix_tau_idx[pair_suffix].tobytes()


def test_psi_bitwise_deterministic(diamond):
    net, ps, scen, grid = diamond
    rng = np.random.default_rng(29)
    mass = admissible_mass(rng, ps, scen)
    a = apply_psi(net, ps, scen, mass)
    b = apply_psi(net, ps, scen, mass)
    assert np.array_equal(a.mass.values, b.mass.values)
    assert np.array_equal(a.flows, b.flows)
    assert np.array_equal(a.z, b.z)


@pytest.mark.parametrize("steps", [1, 3])
def test_shares_computed_once_give_the_audited_injections(steps):
    # psi derives the path shares once, for the flows and the injections, from
    # totals that numpy sums over axis 0 of z one path at a time, as the
    # conservation audit does; with 252 paths a pairwise sum would differ.
    # At one step z has two columns, the fewest it can have.
    net, ps, scen, grid = build(lattice_dict(6, steps=steps))
    assert ps.n_paths == 252
    rng = np.random.default_rng(59)
    for mass in (zero_mass(ps, grid), admissible_mass(rng, ps, scen)):
        psi = apply_psi(net, ps, scen, mass)
        assert audit_conservation(ps, scen, psi, scen.rho0).ok
