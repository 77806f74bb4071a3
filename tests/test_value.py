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
                      detour_parallel_dict, diamond_dict, lattice_dict, row, speeds,
                      value_stage, zero_mass)
from dense_kernel import dense_value_backward


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


# The search evaluates a level's rows in row blocks, its chunks: the rows
# sorted by window width, each block as many as fit CHUNK_CELLS cells at the
# width of its widest.  Widths as at N = 16, under small budgets: one-row
# blocks, wider than the budget but for the first two (1), and uneven row
# counts ending in the widest rows (2 * 17 and 3 * 17).
ROW_WIDTHS = [1, 1, 2, 3, 3, 5, 8, 8, 9, 12, 16, 17, 17]
ROW_BLOCK_LAYOUTS = {
    1: [(p, p + 1, w) for p, w in enumerate(ROW_WIDTHS)],
    2 * 17: [(0, 6, 5), (6, 9, 9), (9, 11, 16), (11, 13, 17)],
    3 * 17: [(0, 6, 5), (6, 10, 12), (10, 13, 17)],
}


@pytest.mark.parametrize("cells, blocks", ROW_BLOCK_LAYOUTS.items(),
                         ids=["one-row", "two-rows", "three-rows"])
def test_row_blocks_fill_the_budget_at_their_own_width(monkeypatch, cells, blocks):
    monkeypatch.setattr(value_module, "CHUNK_CELLS", cells)
    assert value_module._chunks(np.array(ROW_WIDTHS)) == blocks


def _spy_search(monkeypatch):
    """Record each call of the search's row minimization: its rows, whether
    rows of earlier levels bound them and whether they cut in turn, and the
    rows it leaves uncertified."""
    calls = []
    search = value_module._search

    def spy(run, k, i, below, above, own):
        failed = search(run, k, i, below, above, own)
        # the last slot stands for no bounding row
        whole = run[6].shape[1] - 1
        calls.append((k.copy(), i.copy(), bool(np.any(below != whole)), own is not None,
                      failed))
        return failed

    monkeypatch.setattr(value_module, "_search", spy)
    return calls


@pytest.mark.parametrize("n, count", [(250, 3), (500, 3), (1500, 4)])
def test_default_row_blocks_fill_the_budget(monkeypatch, n, count):
    # A two-edge chain: one interior suffix of n rows.  The levels of the
    # search run at strides BRANCHING ** (count - 1), ..., BRANCHING, 1, and
    # together evaluate every row once; within a level every row block
    # fits the budget, and each but the last of a batch is one row short of
    # overflowing it at its own width.
    net, ps, scen, phi_prefix, _ = _value_inputs(
        unit_chain_dict(steps=n, horizon=2.0, alpha=50.0, n_edges=2, rho_max=5.0), seed=59)
    blocks = []
    chunks = value_module._chunks

    def spy_chunks(width):
        found = chunks(width)
        blocks.append((width, found))
        return found

    monkeypatch.setattr(value_module, "_chunks", spy_chunks)
    calls = _spy_search(monkeypatch)
    value_backward(net, ps, scen, phi_prefix)
    rows = np.concatenate([c[1] for c in calls])
    assert np.array_equal(np.sort(rows), np.arange(n))
    stride = value_module.BRANCHING ** (count - 1)
    assert np.array_equal(calls[0][1], np.r_[np.arange(0, n - 1, stride), n - 1])
    # rows of the last level, at stride 1, cut no window; every row is
    # certified
    assert [c[3] for c in calls] == [
        bool(np.all((c[1] % value_module.BRANCHING == 0) | (c[1] == n - 1))) for c in calls]
    assert not any(c[4][0].size for c in calls)
    for width, found in blocks:
        assert [p0 for p0, _, _ in found[1:]] == [p1 for _, p1, _ in found[:-1]]
        for p0, p1, w in found:
            assert w == width[p1 - 1]
            assert (p1 - p0) * w <= value_module.CHUNK_CELLS or p1 - p0 == 1
            assert p1 == width.size or (p1 - p0 + 1) * width[p1] > value_module.CHUNK_CELLS


def _check_row_blocks(monkeypatch, doc, cells=3 * 17, branching=2):
    net, ps, scen, phi_prefix, floor = _value_inputs(doc, seed=31)
    if floor is not None:
        # rows with no admissible arrival are part of what is checked
        assert np.any(floor > scen.grid.steps)
    default = value_backward(net, ps, scen, phi_prefix, floor)
    assert_same_bits(default, dense_value_backward(net, ps, scen, phi_prefix, floor))
    monkeypatch.setattr(value_module, "CHUNK_CELLS", cells)
    monkeypatch.setattr(value_module, "BRANCHING", branching)
    suffix_table, suffix_tau = value_backward(net, ps, scen, phi_prefix, floor)
    table, policy = by_pair(ps, suffix_table, suffix_tau)
    assert check_value_tables(net, ps, scen, phi_prefix, table, policy, floor) == []
    assert_same_bits((suffix_table, suffix_tau), default)
    return policy


def assert_same_bits(result, reference):
    """Value and policy tables equal in every bit."""
    assert result[0].tobytes() == reference[0].tobytes()
    assert result[1].tobytes() == reference[1].tobytes()


@pytest.mark.parametrize("doc", ROW_BLOCK_DOCS.values(), ids=ROW_BLOCK_DOCS.keys())
def test_row_blocks_match_enumeration(monkeypatch, doc):
    _check_row_blocks(monkeypatch, doc)


@pytest.mark.parametrize("cells", [1, 2 * 17], ids=["one-row", "two-rows"])
@pytest.mark.parametrize("doc", ROW_BLOCK_DOCS.values(), ids=ROW_BLOCK_DOCS.keys())
def test_uneven_row_blocks_match_enumeration(monkeypatch, doc, cells):
    # a binary search (one row a level) and a ternary one (two)
    _check_row_blocks(monkeypatch, doc, cells, branching=2 if cells == 1 else 3)


@pytest.mark.parametrize("eps_tie", [0.0, 1e-2, 0.3])
def test_tie_band_of_rows_with_far_apart_first_minima(eps_tie):
    # The first edge's congestion integral jumps by 100 between nodes 8 and
    # 9, so the rows entering before node 8 arrive at node 8, the later rows
    # at nodes 12-16: the rows cut at node 8 bound windows that a band
    # reaching past them must not cut short.
    doc = unit_chain_dict(steps=16, horizon=2.0, alpha=50.0, n_edges=2, rho_max=5.0)
    doc["solver"]["eps_tie"] = eps_tie
    net, ps, scen, grid = build(doc)
    phi_prefix = np.zeros((2, 17))
    phi_prefix[0, 9:] = 100.0
    result = value_backward(net, ps, scen, phi_prefix)
    assert_same_bits(result, dense_value_backward(net, ps, scen, phi_prefix))
    table, policy = by_pair(ps, *result)
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
    monkeypatch.setattr(value_module, "CHUNK_CELLS", 3 * (n + 1))
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
    # the dense reference's bits at the default search, at one-row blocks of a
    # binary search, at blocks of a few rows three rows a level, and at one
    # block per level of a search one level deep
    reference = dense_value_backward(net, ps, scen, phi_prefix, floor)
    n_nodes = scen.grid.steps + 1
    for cells, branching in ((value_module.CHUNK_CELLS, value_module.BRANCHING), (1, 2),
                             (3 * n_nodes, 4), (n_nodes ** 2, n_nodes)):
        monkeypatch.setattr(value_module, "CHUNK_CELLS", cells)
        monkeypatch.setattr(value_module, "BRANCHING", branching)
        assert_same_bits(value_backward(net, ps, scen, phi_prefix, floor), reference)


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


def test_value_backward_leaves_the_ufunc_buffer_size(monkeypatch, diamond):
    # The search changes no numpy setting: the caller's buffer size and
    # error handling hold inside it and after it, also when it raises.
    net, ps, scen, grid = diamond
    mass = admissible_mass(np.random.default_rng(47), ps, scen)
    _, phi_prefix = congestion_total(ps, scen, mass.values)
    seen = []
    search = value_module._search

    def failing_search(*args):
        seen.append((np.getbufsize(), np.geterr()))
        search(*args)
        raise RuntimeError("raised inside the search")

    with np.errstate(over="raise"):
        caller = np.setbufsize(4096)
        try:
            state = (np.getbufsize(), np.geterr())
            value_backward(net, ps, scen, phi_prefix)
            assert (np.getbufsize(), np.geterr()) == state
            monkeypatch.setattr(value_module, "_search", failing_search)
            with pytest.raises(RuntimeError, match="inside the search"):
                value_backward(net, ps, scen, phi_prefix)
            assert seen == [state]
            assert (np.getbufsize(), np.geterr()) == state
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
# admissible arrival before a feasible row, whose minimum is +inf.  Three
# rows: blocks of three rows of 17 cells, three rows a level.
@pytest.mark.parametrize("three_rows, eps_tie", [(True, None), (False, None),
                                                 (True, 0.0), (False, 0.0)],
                         ids=["three-rows", "default", "three-rows-eps-0", "default-eps-0"])
@pytest.mark.parametrize("doc, case", HAND_FLOOR_CASES,
                         ids=[f"{d}-{c}" for d, c in HAND_FLOOR_CASES])
def test_hand_made_floors_match_enumeration(monkeypatch, doc, case, three_rows, eps_tie):
    net, ps, scen, phi_prefix, floor = _hand_floor_inputs(doc, case, eps_tie)
    reference = dense_value_backward(net, ps, scen, phi_prefix, floor)
    if three_rows:
        monkeypatch.setattr(value_module, "CHUNK_CELLS", 3 * 17)
        monkeypatch.setattr(value_module, "BRANCHING", 4)
    result = value_backward(net, ps, scen, phi_prefix, floor)
    assert_same_bits(result, reference)
    table, policy = by_pair(ps, *result)
    assert check_value_tables(net, ps, scen, phi_prefix, table, policy, floor) == []


@pytest.mark.parametrize("doc, case", HAND_FLOOR_CASES,
                         ids=[f"{d}-{c}" for d, c in HAND_FLOOR_CASES])
def test_hand_made_floors_do_not_depend_on_block_size(monkeypatch, doc, case):
    _check_block_sizes_agree(monkeypatch, *_hand_floor_inputs(doc, case))


def _two_edge_tables(phi_e1, phi_e2, eps_tie, floor=None):
    """The search's and the dense reference's tables on a two-edge chain whose
    lengths square to 0, under congestion integrals made by hand: the
    interior cells are then exactly (phi_e1[j] - phi_e1[i]) plus the last
    edge's value (phi_e2[N] - phi_e2[j]), so ties can be made exact."""
    n = phi_e1.size - 1
    doc = unit_chain_dict(steps=n, horizon=2.0, alpha=50.0, n_edges=2, rho_max=5.0)
    for edge in doc["network"]["edges"]:
        edge["length"] = 1e-170
    doc["solver"]["eps_tie"] = eps_tie
    net, ps, scen, grid = build(doc)
    phi_prefix = np.empty((2, n + 1))
    phi_prefix[net.edge_index["e1"]] = phi_e1
    phi_prefix[net.edge_index["e2"]] = phi_e2
    if floor is not None:
        floor = np.tile(floor, (2, 1))
    return net, ps, scen, phi_prefix, floor


def _check_against_references(monkeypatch, net, ps, scen, phi_prefix, floor=None):
    """The search equals the dense reference and the enumeration in every bit at
    the default settings and in a binary search; returns the rows the
    certificate left to whole-row evaluation, per setting."""
    reference = dense_value_backward(net, ps, scen, phi_prefix, floor)
    uncertified = []
    for branching in (value_module.BRANCHING, 2):
        with monkeypatch.context() as mp:
            mp.setattr(value_module, "BRANCHING", branching)
            calls = _spy_search(mp)
            result = value_backward(net, ps, scen, phi_prefix, floor)
        assert_same_bits(result, reference)
        table, policy = by_pair(ps, *result)
        assert check_value_tables(net, ps, scen, phi_prefix, table, policy, floor) == []
        uncertified.append(sum(c[4][0].size for c in calls if c[2]))
    return uncertified


@pytest.mark.parametrize("eps_tie", [0.0, 1e-9])
def test_exact_ties_at_a_row_minimum_match_the_references(monkeypatch, eps_tie):
    # The cells fall by 1 a node up to node 12, stay level up to node 24 and
    # rise by 1 a node after it: every row entering before node 12 has the
    # same minimum at thirteen nodes, and later rows at fewer.
    n = 40
    j = np.arange(n + 1, dtype=float)
    phi_e1 = np.maximum(j - 24.0, 0.0)
    phi_e2 = np.minimum(j, 12.0)
    _check_against_references(monkeypatch, *_two_edge_tables(phi_e1, phi_e2, eps_tie))


def test_distant_minima_a_few_ulps_apart_match_the_references(monkeypatch):
    # Without congestion on the first edge a row's cells are the last edge's
    # values: 2 but at node 5 (1) and node 30 (one ulp above 1), so the two
    # minima compete for every row entering before node 5.
    n = 40
    cont = np.full(n + 1, 2.0)
    cont[5] = 1.0
    cont[30] = np.nextafter(1.0, 2.0)
    cont[n] = 0.0
    phi_e2 = 3.0 - cont
    uncertified = _check_against_references(
        monkeypatch, *_two_edge_tables(np.zeros(n + 1), phi_e2, 0.0))
    # the near-tie sets span both minima, so the cuts keep both in the windows
    assert uncertified == [0, 0]


@pytest.mark.parametrize("steps", [24, 120])
def test_wide_tie_band_matches_the_references(monkeypatch, steps):
    # eps_tie 0.3 on the detour: bands of many nodes, so the tie rule's
    # latest arrival lies far past the minimum and the certificate leaves
    # rows to whole-row evaluation
    doc = detour_parallel_dict(steps)
    doc["solver"]["eps_tie"] = 0.3
    net, ps, scen, grid = build(doc)
    for mass in (zero_mass(ps, grid), admissible_mass(np.random.default_rng(61), ps, scen)):
        _, phi_prefix = congestion_total(ps, scen, mass.values)
        uncertified = _check_against_references(monkeypatch, net, ps, scen, phi_prefix)
        assert max(uncertified) > 0


def test_non_monotone_congestion_integrals_match_the_references(monkeypatch):
    # A congestion integral that falls breaks the certificate's
    # preconditions: its suffix is evaluated over whole rows.
    n = 40
    rng = np.random.default_rng(67)
    phi_e1 = np.cumsum(rng.uniform(-0.5, 1.0, n + 1))
    phi_e2 = np.cumsum(rng.uniform(0.0, 1.0, n + 1))
    assert np.any(np.diff(phi_e1) < 0)
    calls = _spy_search(monkeypatch)
    _check_against_references(monkeypatch, *_two_edge_tables(phi_e1, phi_e2, 1e-9))
    assert calls and all(not c[2] and not c[3] for c in calls)


def test_floors_that_are_not_a_staircase_match_the_references(monkeypatch):
    # Arrival floors that fall from one entry node to the next, with
    # infeasible rows between feasible ones, break the preconditions too.
    n = 40
    j = np.arange(n + 1)
    floor = np.minimum(j + 1 + (11 * j) % 7, n)
    floor[[4, 17]] = n + 1
    assert np.any(np.diff(np.maximum(floor, j + 1)[:n]) < 0)
    rng = np.random.default_rng(71)
    phi_e1 = np.cumsum(rng.uniform(0.0, 1.0, n + 1))
    phi_e2 = np.cumsum(rng.uniform(0.0, 1.0, n + 1))
    _check_against_references(monkeypatch, *_two_edge_tables(phi_e1, phi_e2, 1e-9, floor))


@pytest.mark.parametrize("seed", range(1, 11))
def test_interior_suffixes_follow_successors_by_depth(monkeypatch, seed):
    net, ps, scen, grid = build(WORKLOADS.WORKLOADS["lattice-4x4"](ROOT, seed))
    _, phi_prefix = congestion_total(ps, scen, zero_mass(ps, grid).values)
    groups = []
    minimize = value_module._minimize_depth

    def spy(net, scen, suffixes, group, *args):
        groups.append(list(group))
        minimize(net, scen, suffixes, group, *args)

    monkeypatch.setattr(value_module, "_minimize_depth", spy)
    result = value_backward(net, ps, scen, phi_prefix)
    assert_same_bits(result, dense_value_backward(net, ps, scen, phi_prefix))
    suffixes = ps.suffix_table[0]
    done = {s for s, (_, succ) in enumerate(suffixes) if succ < 0}
    # one call a depth, from the suffixes one edge long up: each suffix runs
    # once, after its successor
    assert sorted(s for group in groups for s in group) == sorted(
        s for s, (_, succ) in enumerate(suffixes) if succ >= 0)
    for group in groups:
        assert all(suffixes[s][1] in done for s in group)
        assert not done & set(group)
        done |= set(group)
    assert len(groups) == max(len(p) for p in ps.paths) - 1


@pytest.mark.parametrize("edge, length",
                         [(k, 1e-170) for k in range(len(DIAMOND_EDGES))]
                         + [(k, 1e200) for k in range(len(DIAMOND_EDGES))],
                         ids=[e["id"] for e in DIAMOND_EDGES]
                         + [f"{e['id']}-1e200" for e in DIAMOND_EDGES])
def test_length_whose_square_underflows_matches_enumeration(edge, length):
    # 1e-170 squares to 0, so on a last edge (e4, e5) the candidate of
    # arriving at node N from node N would be 0/0.  1e200 squares to +inf,
    # the intended kinetic term, in the value stage and in the path costs.
    # The suite turns a RuntimeWarning into a failure.
    edges = copy.deepcopy(DIAMOND_EDGES)
    edges[edge]["length"] = length
    net, ps, scen, grid = build(diamond_dict(steps=16, edges=edges))
    with np.errstate(over="ignore"):
        assert net.lengths[edge] * net.lengths[edge] == (0.0 if length < 1 else np.inf)
    mass = zero_mass(ps, grid)
    for _ in range(2):
        psi = apply_psi(net, ps, scen, mass)
        assert check_value_tables(net, ps, scen, psi.phi_prefix, psi.value,
                                  psi.policy.tau_idx) == []
        mass = psi.mass
