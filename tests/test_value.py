"""Backward value computation, policy extraction, and the enumeration oracle."""

from __future__ import annotations

import copy

import numpy as np
import pytest

import mfroute.value as value_module
from mfroute import (MassField, ShapeMismatch, apply_psi, arrival_tables,
                     build_speed_limits, congestion_total, value_backward)
from mfroute.oracle import check_value_tables

from conftest import (DIAMOND_EDGES, ROOT, TIGHT, WORKLOADS, admissible_mass, build, by_pair,
                      diamond_dict, lattice_dict, row, speeds, value_stage, zero_mass)

# The shipped budget, also while a test patches it.
BLOCK_CELLS = value_module.BLOCK_CELLS


def unit_chain_dict(steps, horizon=1.0, alpha=1.0, coeff=0.0, n_edges=1,
                    rho_max=None):
    verts = ["o"] + [f"m{i}" for i in range(n_edges - 1)] + ["d"]
    edges = [{"id": f"e{i+1}", "tail": verts[i], "head": verts[i + 1],
              "length": 1.0, "capacity": 2.0} for i in range(n_edges)]
    return {
        "network": {"vertices": verts, "edges": edges, "origin": "o",
                    "destination": "d"},
        "model": {"horizon": horizon, "steps": steps, "alpha": alpha,
                  "beta": 1.0, "eta": 1.0,
                  "rho_max": rho_max if rho_max is not None else 2.0 * horizon + 1.0,
                  "lambda": {"family": "constant", "value": 1.0},
                  "phi": {"default": {"family": "linear", "coeff": coeff}}},
        "solver": {"gamma": 0.5},
    }


def test_congestion_total_zero_mass(diamond):
    net, ps, scen, grid = diamond
    totals, phi_prefix = congestion_total(ps, scen, zero_mass(ps, grid).values)
    assert np.array_equal(totals, np.zeros_like(totals))
    assert np.array_equal(phi_prefix, np.zeros_like(phi_prefix))


def test_congestion_total_sums_sharing_paths(diamond):
    net, ps, scen, grid = diamond
    mass = zero_mass(ps, grid).values
    r1 = row(ps, "e5", ps.paths.index(("e1", "e3", "e5")))
    r2 = row(ps, "e5", ps.paths.index(("e2", "e5")))
    mass[r1] = 0.3
    mass[r2] = 0.7
    totals, _ = congestion_total(ps, scen, mass)
    e5 = net.edge_index["e5"]
    assert np.allclose(totals[e5], 1.0, rtol=0, atol=1e-15)
    others = [e for e in range(5) if e != e5 and net.edges[e].id not in ("e5",)]
    # only the two rows above carry mass
    assert totals[net.edge_index["e1"]].max() == 0.0


def test_congestion_shape_checked(diamond):
    net, ps, scen, grid = diamond
    with pytest.raises(ShapeMismatch):
        congestion_total(ps, scen, np.zeros((2, 3)))


def test_last_edge_closed_form_no_congestion():
    net, ps, scen, grid = build(unit_chain_dict(steps=10))
    _, table, policy = value_stage(net, ps, scen, zero_mass(ps, grid))
    speed = speeds(net, ps, grid, policy)
    # analytic: min(alpha * l, l^2 / (2 (T - t))) with the moving branch only before T
    assert table[0, 0] == pytest.approx(0.5)   # 1/(2*1)
    assert policy[0, 0] == 10
    assert speed[0, 0] == pytest.approx(1.0)
    i9 = 9  # t = 0.9: moving costs 5, staying costs 1
    assert table[0, i9] == pytest.approx(1.0)
    assert policy[0, i9] == -1
    assert speed[0, i9] == 0.0


def test_switch_node_is_first_past_threshold():
    # threshold at horizon - l/(2 alpha) = 0.5; with 10 steps that is node 5
    net, ps, scen, grid = build(unit_chain_dict(steps=10))
    _, table, policy = value_stage(net, ps, scen, zero_mass(ps, grid))
    assert policy[0, 5] == 10   # exact tie resolves to moving
    assert policy[0, 6] == -1


def test_value_at_horizon_is_distance_penalty(diamond):
    net, ps, scen, grid = diamond
    _, table, policy = value_stage(net, ps, scen, zero_mass(ps, grid))
    for r in range(ps.pair_count):
        e = int(ps.pair_edge_idx[r])
        if ps.last_mask[r]:
            expected = scen.alpha * net.lengths[e]
        else:
            expected = scen.alpha * net.dist_tail[e]
        assert table[r, -1] == expected
        assert policy[r, -1] == -1


def test_two_edge_chain_matches_enumeration_exactly():
    net, ps, scen, grid = build(unit_chain_dict(steps=12, horizon=2.0,
                                                alpha=50.0, n_edges=2,
                                                rho_max=5.0))
    phi_prefix, table, policy = value_stage(net, ps, scen, zero_mass(ps, grid))
    assert check_value_tables(net, ps, scen, phi_prefix, table, policy) == []


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_diamond_matches_enumeration_on_random_masses(seed):
    net, ps, scen, grid = build(diamond_dict(steps=12))
    rng = np.random.default_rng(seed)
    phi_prefix, table, policy = value_stage(net, ps, scen, admissible_mass(rng, ps, scen))
    assert check_value_tables(net, ps, scen, phi_prefix, table, policy) == []


def test_moving_speed_bounded_below(diamond):
    net, ps, scen, grid = diamond
    rng = np.random.default_rng(5)
    _, _, policy = value_stage(net, ps, scen, admissible_mass(rng, ps, scen))
    speed = speeds(net, ps, grid, policy)
    moving = policy >= 0
    lengths = net.lengths[ps.pair_edge_idx][:, None]
    floor = (lengths / scen.grid.horizon) * np.ones_like(speed)
    assert np.all(speed[moving] >= floor[moving] - 1e-12)


def test_values_bounded_by_stay_envelope(diamond):
    net, ps, scen, grid = diamond
    rng = np.random.default_rng(15)
    phi_bar = max(c.coeff for c in scen.phi) * scen.rho_max
    for _ in range(3):
        _, table, _ = value_stage(net, ps, scen, admissible_mass(rng, ps, scen))
        for r in range(ps.pair_count):
            e = int(ps.pair_edge_idx[r])
            tail = net.lengths[e] if ps.last_mask[r] else net.dist_tail[e]
            bound = scen.alpha * tail + phi_bar * scen.grid.horizon
            assert np.all(table[r] >= 0.0)
            assert np.all(table[r] <= bound + 1e-12)


def test_equi_lipschitz_in_time_across_masses(diamond):
    net, ps, scen, grid = diamond
    rng = np.random.default_rng(9)
    # envelope: kinetic slope at the shortest admissible time-to-go plus
    # twice the congestion ceiling, doubled per nesting level
    h = float(net.lengths.min()) / (2.0 * scen.alpha)
    phi_bar = max(c.coeff for c in scen.phi) * scen.rho_max
    bound = 4.0 * (float(net.lengths.max()) ** 2 / (2.0 * h * h) + 2.0 * phi_bar)
    for _ in range(3):
        _, table, _ = value_stage(net, ps, scen, admissible_mass(rng, ps, scen))
        quot = np.max(np.abs(np.diff(table, axis=1))) / grid.dt
        assert quot <= bound


def test_value_continuity_in_mass(diamond):
    net, ps, scen, grid = diamond
    rng = np.random.default_rng(13)
    base = admissible_mass(rng, ps, scen)
    _, table0, _ = value_stage(net, ps, scen, base)
    lip = max(c.coeff for c in scen.phi)
    max_legs = max(len(p) for p in ps.paths)
    c_bound = lip * scen.grid.horizon * max_legs
    for scale in (1e-3, 1e-2, 1e-1):
        delta = rng.uniform(0.0, scale, size=base.values.shape)
        pert = MassField(values=np.clip(base.values + delta, 0.0, None))
        _, table1, _ = value_stage(net, ps, scen, pert)
        gap = float(np.max(np.abs(table1 - table0)))
        actual = float(np.max(np.abs(pert.values - base.values)))
        assert gap <= c_bound * actual + 1e-12


def test_policy_monotone_and_absorbing_on_pipeline_mass(diamond):
    net, ps, scen, grid = diamond
    from mfroute import apply_psi

    mass = zero_mass(ps, grid)
    for _ in range(3):
        psi = apply_psi(net, ps, scen, mass)
        tau = psi.policy.tau_idx
        for r in range(ps.pair_count):
            finite = np.flatnonzero(tau[r] >= 0)
            assert np.all(np.diff(tau[r, finite]) >= 0)
            if finite.size:
                # stay-forever is absorbing past the last moving node
                assert np.all(tau[r, finite[-1] + 1:] == -1)
        mass = psi.mass


def test_value_backward_bitwise_deterministic(diamond):
    net, ps, scen, grid = diamond
    rng = np.random.default_rng(21)
    _, phi_prefix = congestion_total(ps, scen, admissible_mass(rng, ps, scen).values)
    t1, p1 = value_backward(net, ps, scen, phi_prefix)
    t2, p2 = value_backward(net, ps, scen, phi_prefix)
    assert np.array_equal(t1, t2)
    assert np.array_equal(p1, p2)


def _value_inputs(doc, seed):
    net, ps, scen, grid = build(doc)
    mass = admissible_mass(np.random.default_rng(seed), ps, scen)
    totals, phi_prefix = congestion_total(ps, scen, mass.values)
    floor = None
    if scen.constrained.enabled:
        floor = arrival_tables(net, scen, totals, build_speed_limits(net, scen)).floor_idx
    return net, ps, scen, phi_prefix, floor


def detour_dict(steps):
    """Two routes, one through an edge whose head is farther from the
    destination than its tail: there the stay penalty alpha * dist_tail is
    below the successor's final value, so arriving at the final node
    continues with the stay penalty, not with the successor's table."""
    edges = [{"id": "e1", "tail": "o", "head": "a", "length": 1.0, "capacity": 2.0},
             {"id": "e2", "tail": "a", "head": "d", "length": 3.0, "capacity": 2.0},
             {"id": "e3", "tail": "o", "head": "d", "length": 1.0, "capacity": 2.0}]
    doc = diamond_dict(steps=steps, edges=edges)
    doc["network"]["vertices"] = ["o", "a", "d"]
    return doc


ROW_BLOCK_DOCS = {"diamond": diamond_dict(steps=16), "lattice-3x3": lattice_dict(3, steps=16),
                  "diamond-constrained": diamond_dict(steps=16, constrained=TIGHT),
                  "lattice-3x3-constrained": lattice_dict(3, steps=16, constrained=TIGHT)}


# Blocks at N = 16 under small cell budgets: one-row blocks narrower than
# their width (1), and uneven row counts ending in a square block (2 * 17:
# 3 x 3; 3 * 17: 6 x 6).
ROW_BLOCK_LAYOUTS = {
    1: [(i, i + 1) for i in range(8)] + [(8, 10), (10, 12), (12, 16)],
    2 * 17: [(0, 2), (2, 4), (4, 6), (6, 9), (9, 13), (13, 16)],
    3 * 17: [(0, 3), (3, 6), (6, 10), (10, 16)],
}


@pytest.mark.parametrize("cells, blocks", ROW_BLOCK_LAYOUTS.items(),
                         ids=["one-row", "two-rows", "three-rows"])
def test_row_blocks_fill_the_budget_at_their_own_width(monkeypatch, cells, blocks):
    monkeypatch.setattr(value_module, "BLOCK_CELLS", cells)
    assert value_module._row_blocks(16) == blocks


@pytest.mark.parametrize("n, count", [(250, 2), (500, 5), (1500, 38)])
def test_default_row_blocks_fill_the_budget(n, count):
    # The first block keeps the fixed-row buffer, BLOCK_CELLS // (n + 1) rows
    # at width n; every block fits it, and each but the last is one row
    # short of overflowing it at its own width.
    budget = (BLOCK_CELLS // (n + 1)) * n
    blocks = value_module._row_blocks(n)
    assert len(blocks) == count
    assert blocks[0] == (0, BLOCK_CELLS // (n + 1))
    assert [i0 for i0, _ in blocks[1:]] == [i1 for _, i1 in blocks[:-1]]
    assert blocks[-1][1] == n
    for i0, i1 in blocks:
        assert (i1 - i0) * (n - i0) <= budget
        assert i1 == n or (i1 - i0 + 1) * (n - i0) > budget


def _check_row_blocks(monkeypatch, doc, cells=3 * 17):
    monkeypatch.setattr(value_module, "BLOCK_CELLS", cells)
    net, ps, scen, phi_prefix, floor = _value_inputs(doc, seed=31)
    if floor is not None:
        # rows with no admissible arrival are part of what is checked
        assert np.any(floor > scen.grid.steps)
    table, policy = by_pair(ps, *value_backward(net, ps, scen, phi_prefix, floor))
    assert check_value_tables(net, ps, scen, phi_prefix, table, policy, floor) == []
    monkeypatch.setattr(value_module, "BLOCK_CELLS", BLOCK_CELLS)
    default_table, default_policy = by_pair(ps, *value_backward(net, ps, scen, phi_prefix,
                                                                floor))
    assert table.tobytes() == default_table.tobytes()
    assert policy.tobytes() == default_policy.tobytes()
    return policy


@pytest.mark.parametrize("doc", ROW_BLOCK_DOCS.values(), ids=ROW_BLOCK_DOCS.keys())
def test_row_blocks_match_enumeration(monkeypatch, doc):
    _check_row_blocks(monkeypatch, doc)


@pytest.mark.parametrize("cells", [1, 2 * 17], ids=["one-row", "two-rows"])
@pytest.mark.parametrize("doc", ROW_BLOCK_DOCS.values(), ids=ROW_BLOCK_DOCS.keys())
def test_uneven_row_blocks_match_enumeration(monkeypatch, doc, cells):
    _check_row_blocks(monkeypatch, doc, cells)


@pytest.mark.parametrize("eps_tie", [0.0, 1e-2, 0.3])
def test_tie_band_of_rows_with_far_apart_first_minima(eps_tie):
    # The first edge's congestion integral jumps by 100 between nodes 8 and
    # 9, so in the one block of N = 16 the rows entering before node 8
    # arrive at node 8 (block column 8), the later rows at nodes 12-16
    # (columns 4-0): each band must be scanned up to column 8, inclusive.
    doc = unit_chain_dict(steps=16, horizon=2.0, alpha=50.0, n_edges=2, rho_max=5.0)
    doc["solver"]["eps_tie"] = eps_tie
    net, ps, scen, grid = build(doc)
    phi_prefix = np.zeros((2, 17))
    phi_prefix[0, 9:] = 100.0
    assert value_module._row_blocks(16) == [(0, 16)]
    table, policy = by_pair(ps, *value_backward(net, ps, scen, phi_prefix))
    assert check_value_tables(net, ps, scen, phi_prefix, table, policy) == []
    tau = policy[row(ps, "e1", 0)]
    assert np.all(tau[:8] == 8) and np.all(tau[8:16] >= 12) and tau[15] == 16


@pytest.mark.parametrize("doc", ROW_BLOCK_DOCS.values(), ids=ROW_BLOCK_DOCS.keys())
def test_row_blocks_match_enumeration_with_wide_tie_band(monkeypatch, doc):
    # At eps_tie 1e-9 most tie bands hold one arrival node; at 1e-2 they hold
    # several, so "latest within the band" decides the policy.
    narrow = _check_row_blocks(monkeypatch, doc)
    wide = _check_row_blocks(monkeypatch, {**doc, "solver": {**doc["solver"], "eps_tie": 1e-2}})
    assert not np.array_equal(wide, narrow)


def test_final_node_continues_with_stay_penalty(monkeypatch):
    # Without congestion, entering e1 at t = 0 costs about 0.8 by the best
    # arrival and 1 by staying, while arriving at the final node costs
    # 1/20 + 1 through the stay penalty but 1/20 + 3 through e2's final
    # value.  A band of 0.3 reaches the final node only in the first case.
    doc = detour_dict(16)
    doc["solver"]["eps_tie"] = 0.3
    net, ps, scen, grid = build(doc)
    n = grid.steps
    r = row(ps, "e1", ps.paths.index(("e1", "e2")))
    monkeypatch.setattr(value_module, "BLOCK_CELLS", 3 * (n + 1))
    first_tau = []
    for mass in (zero_mass(ps, grid), admissible_mass(np.random.default_rng(43), ps, scen)):
        phi_prefix, table, policy = value_stage(net, ps, scen, mass)
        assert check_value_tables(net, ps, scen, phi_prefix, table, policy) == []
        first_tau.append(policy[r, 0])
    assert first_tau[0] == n


@pytest.mark.parametrize("doc", [diamond_dict(steps=400),
                                 diamond_dict(steps=400, constrained=TIGHT),
                                 lattice_dict(3, steps=400, constrained=TIGHT)],
                         ids=["free", "constrained", "lattice-3x3-constrained"])
def test_block_size_does_not_change_results(monkeypatch, doc):
    _check_block_sizes_agree(monkeypatch, *_value_inputs(doc, seed=37))


def _check_block_sizes_agree(monkeypatch, net, ps, scen, phi_prefix, floor):
    results = []
    # default blocks, one-row blocks first, blocks of a few rows first, one
    # block for all entry nodes
    n_nodes = scen.grid.steps + 1
    for cells in (BLOCK_CELLS, 1, 3 * n_nodes, n_nodes ** 2):
        monkeypatch.setattr(value_module, "BLOCK_CELLS", cells)
        results.append(value_backward(net, ps, scen, phi_prefix, floor))
    (t0, p0), *others = results
    for table, policy in others:
        assert np.array_equal(table, t0)
        assert np.array_equal(policy, p0)


@pytest.mark.parametrize("doc", [diamond_dict(steps=60), lattice_dict(3, steps=60)],
                         ids=["diamond", "lattice-3x3"])
def test_pairs_sharing_a_suffix_get_equal_rows(doc):
    net, ps, scen, phi_prefix, _ = _value_inputs(doc, seed=41)
    suffix_table, suffix_tau = value_backward(net, ps, scen, phi_prefix)
    # one row per distinct suffix, which every pair on it reads
    assert suffix_table.shape == (len(ps.suffix_table[0]), scen.grid.steps + 1)
    assert suffix_tau.shape == suffix_table.shape
    assert len(ps.suffix_table[0]) < ps.pair_count
    table, policy = by_pair(ps, suffix_table, suffix_tau)
    first_row = {}
    shared = 0
    for p, rows in enumerate(ps.path_rows):
        for pos, r in enumerate(rows):
            r0 = first_row.setdefault(ps.paths[p][pos:], r)
            if r0 != r:
                shared += 1
                assert np.array_equal(table[r], table[r0])
                assert np.array_equal(policy[r], policy[r0])
    assert shared > 0


def test_value_backward_restores_ufunc_buffer_size(monkeypatch, diamond):
    net, ps, scen, grid = diamond
    mass = admissible_mass(np.random.default_rng(47), ps, scen)
    _, phi_prefix = congestion_total(ps, scen, mass.values)
    seen = []

    # np.less_equal runs only in the block loop, where it marks a row's tie band
    def failing_less_equal(*args, **kwargs):
        seen.append(np.getbufsize())
        raise RuntimeError("raised inside the block loop")

    with np.errstate():
        caller = np.setbufsize(4096)
        try:
            value_backward(net, ps, scen, phi_prefix)
            assert np.getbufsize() == 4096
            monkeypatch.setattr(np, "less_equal", failing_less_equal)
            with pytest.raises(RuntimeError, match="block loop"):
                value_backward(net, ps, scen, phi_prefix)
            assert seen == [value_module._BLOCK_BUFSIZE]
            assert np.getbufsize() == 4096
        finally:
            np.setbufsize(caller)


def hand_floors(n, n_edges):
    """Arrival floors made by hand, one table per shape of admissible region.

    At N = 16 and a budget of three rows of 17 cells, the blocks are entry
    nodes 0-2, 3-5, 6-9 and 10-15; at the default block size one block holds
    them all.  Every edge gets the same floors.
    """
    i = np.arange(n + 1)
    block_past_n = i + 1
    block_past_n[6:10] = n + 1                 # no entry node of a block can move
    between = np.minimum(i + 1 + (7 * i) % 5, n)  # not monotone in the entry node
    between[[3, 10]] = n + 3                   # infeasible rows before and between
    below = i - i % 3                          # at or below the entry node
    beyond = i + 2
    beyond[[0, 5]] = 10**12                    # far past n + 1, and the last rows
    beyond[12:] = 10**9                        # of the table have no arrival
    late = i + 1
    late[:9] = n - i[:9] % 2                   # feasible rows arrive at n - 1 or n only
    late[7] = n + 1
    tables = {"block-past-n": block_past_n, "infeasible-between": between,
              "at-or-below-entry": below, "far-beyond-n": beyond, "late-floors": late}
    return {name: np.tile(f, (n_edges, 1)) for name, f in tables.items()}


HAND_FLOOR_DOCS = {"diamond": diamond_dict(steps=16), "lattice-3x3": lattice_dict(3, steps=16)}
HAND_FLOOR_CASES = [(doc, case) for doc in HAND_FLOOR_DOCS
                    for case in hand_floors(16, 1)]


def _hand_floor_inputs(doc, case, eps_tie=None):
    doc = HAND_FLOOR_DOCS[doc]
    if eps_tie is not None:
        doc = {**doc, "solver": {**doc["solver"], "eps_tie": eps_tie}}
    net, ps, scen, phi_prefix, _ = _value_inputs(doc, seed=53)
    floor = hand_floors(scen.grid.steps, len(net.edges))[case]
    return net, ps, scen, phi_prefix, floor


# At eps_tie 0 the band is the minimum itself, also for a row with no
# admissible arrival before a feasible row, whose minimum is +inf.
@pytest.mark.parametrize("cells, eps_tie", [(3 * 17, None), (BLOCK_CELLS, None),
                                            (3 * 17, 0.0), (BLOCK_CELLS, 0.0)],
                         ids=["three-rows", "default", "three-rows-eps-0", "default-eps-0"])
@pytest.mark.parametrize("doc, case", HAND_FLOOR_CASES,
                         ids=[f"{d}-{c}" for d, c in HAND_FLOOR_CASES])
def test_hand_made_floors_match_enumeration(monkeypatch, doc, case, cells, eps_tie):
    monkeypatch.setattr(value_module, "BLOCK_CELLS", cells)
    net, ps, scen, phi_prefix, floor = _hand_floor_inputs(doc, case, eps_tie)
    table, policy = by_pair(ps, *value_backward(net, ps, scen, phi_prefix, floor))
    assert check_value_tables(net, ps, scen, phi_prefix, table, policy, floor) == []


@pytest.mark.parametrize("doc, case", HAND_FLOOR_CASES,
                         ids=[f"{d}-{c}" for d, c in HAND_FLOOR_CASES])
def test_hand_made_floors_do_not_depend_on_block_size(monkeypatch, doc, case):
    _check_block_sizes_agree(monkeypatch, *_hand_floor_inputs(doc, case))


# Kinetic-block builds per row block on the seeded 4x4 benchmark lattice,
# seeds 1-10, when every depth ran its edge lengths in ascending order.
ASCENDING_BUILDS = (13, 10, 12, 12, 14, 13, 11, 11, 10, 11)


class _CountingNumpy:
    """numpy, counting the ``divide`` calls made through it."""

    def __init__(self):
        self.divides = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def divide(self, *args, **kwargs):
        self.divides += 1
        return np.divide(*args, **kwargs)


@pytest.mark.parametrize("seed", range(1, 11))
def test_interior_suffixes_follow_successors_and_share_kinetic_blocks(monkeypatch, seed):
    net, ps, scen, grid = build(WORKLOADS.WORKLOADS["lattice-4x4"](ROOT, seed))
    _, phi_prefix = congestion_total(ps, scen, zero_mass(ps, grid).values)
    counting = _CountingNumpy()
    orders, builds = [], []
    minimize = value_module._minimize_interior

    def spy(jobs, *args):
        # every block runs the suffixes of jobs[0] in that order, and the
        # only divide of the block loop builds a kinetic block
        orders.append(jobs[0])
        before = counting.divides
        minimize(jobs, *args)
        builds.append(counting.divides - before)

    monkeypatch.setattr(value_module, "np", counting)
    monkeypatch.setattr(value_module, "_minimize_interior", spy)
    value_backward(net, ps, scen, phi_prefix)
    [order], [total] = orders, builds
    suffixes = ps.suffix_table[0]
    position = {s: k for k, s in enumerate(order)}
    assert sorted(order) == [s for s, (_, succ) in enumerate(suffixes) if succ >= 0]
    for s in order:
        succ = suffixes[s][1]
        assert suffixes[succ][1] < 0 or position[succ] < position[s]
    # without arrival floors every block runs every suffix, so each block
    # builds the same kinetic blocks
    n_blocks = len(value_module._row_blocks(grid.steps))
    per_block, rest = divmod(total, n_blocks)
    assert rest == 0
    assert per_block <= ASCENDING_BUILDS[seed - 1]
    if seed == 1:
        assert per_block == 10


@pytest.mark.parametrize("edge", range(len(DIAMOND_EDGES)),
                         ids=[e["id"] for e in DIAMOND_EDGES])
def test_length_whose_square_underflows_matches_enumeration(edge):
    # 1e-170 squares to 0.  On an interior edge (e1-e3) the kinetic block's
    # clamped cells j <= i would then hold 0/0, and on a last edge (e4, e5)
    # the candidate of arriving at node N from node N would; the suite turns
    # a RuntimeWarning into a failure.
    edges = copy.deepcopy(DIAMOND_EDGES)
    edges[edge]["length"] = 1e-170
    net, ps, scen, grid = build(diamond_dict(steps=16, edges=edges))
    assert net.lengths[edge] * net.lengths[edge] == 0.0
    mass = zero_mass(ps, grid)
    for _ in range(2):
        psi = apply_psi(net, ps, scen, mass)
        assert check_value_tables(net, ps, scen, psi.phi_prefix, psi.value,
                                  psi.policy.tau_idx) == []
        mass = psi.mass
