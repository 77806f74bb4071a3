"""Backward value computation, policy extraction, and the enumeration oracle."""

from __future__ import annotations

import numpy as np
import pytest

import mfroute.value as value_module
from mfroute import (MassField, ShapeMismatch, arrival_tables,
                     build_speed_limits, congestion_total, value_backward)
from mfroute.oracle import check_value_tables

from conftest import (admissible_mass, build, diamond_dict, lattice_dict, row,
                      speeds, value_stage, zero_mass)


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
    cong = congestion_total(net, ps, scen, zero_mass(ps, grid))
    assert np.array_equal(cong.totals, np.zeros_like(cong.totals))
    assert np.array_equal(cong.phi_prefix, np.zeros_like(cong.phi_prefix))


def test_congestion_total_sums_sharing_paths(diamond):
    net, ps, scen, grid = diamond
    mass = zero_mass(ps, grid)
    r1 = row(ps, "e5", ps.paths.index(("e1", "e3", "e5")))
    r2 = row(ps, "e5", ps.paths.index(("e2", "e5")))
    mass.values[r1] = 0.3
    mass.values[r2] = 0.7
    cong = congestion_total(net, ps, scen, mass)
    e5 = net.edge_index["e5"]
    assert np.allclose(cong.totals[e5], 1.0, rtol=0, atol=1e-15)
    others = [e for e in range(5) if e != e5 and net.edges[e].id not in ("e5",)]
    # only the two rows above carry mass
    assert cong.totals[net.edge_index["e1"]].max() == 0.0


def test_congestion_shape_checked(diamond):
    net, ps, scen, grid = diamond
    with pytest.raises(ShapeMismatch):
        congestion_total(net, ps, scen, MassField(values=np.zeros((2, 3))))


def test_last_edge_closed_form_no_congestion():
    net, ps, scen, grid = build(unit_chain_dict(steps=10))
    _, table, policy = value_stage(net, ps, scen, zero_mass(ps, grid))
    speed = speeds(net, ps, grid, policy)
    # analytic: min(alpha * l, l^2 / (2 (T - t))) with the moving branch only before T
    assert table.values[0, 0] == pytest.approx(0.5)   # 1/(2*1)
    assert policy.tau_idx[0, 0] == 10
    assert speed[0, 0] == pytest.approx(1.0)
    i9 = 9  # t = 0.9: moving costs 5, staying costs 1
    assert table.values[0, i9] == pytest.approx(1.0)
    assert policy.tau_idx[0, i9] == -1
    assert speed[0, i9] == 0.0


def test_switch_node_is_first_past_threshold():
    # threshold at horizon - l/(2 alpha) = 0.5; with 10 steps that is node 5
    net, ps, scen, grid = build(unit_chain_dict(steps=10))
    _, table, policy = value_stage(net, ps, scen, zero_mass(ps, grid))
    assert policy.tau_idx[0, 5] == 10   # exact tie resolves to moving
    assert policy.tau_idx[0, 6] == -1


def test_value_at_horizon_is_distance_penalty(diamond):
    net, ps, scen, grid = diamond
    _, table, policy = value_stage(net, ps, scen, zero_mass(ps, grid))
    for r in range(ps.pair_count):
        e = int(ps.pair_edge_idx[r])
        if ps.last_mask[r]:
            expected = scen.alpha * net.lengths[e]
        else:
            expected = scen.alpha * net.dist_tail[e]
        assert table.values[r, -1] == expected
        assert policy.tau_idx[r, -1] == -1


def test_two_edge_chain_matches_enumeration_exactly():
    net, ps, scen, grid = build(unit_chain_dict(steps=12, horizon=2.0,
                                                alpha=50.0, n_edges=2,
                                                rho_max=5.0))
    cong, table, policy = value_stage(net, ps, scen, zero_mass(ps, grid))
    assert check_value_tables(net, ps, scen, cong, table, policy) == []


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_diamond_matches_enumeration_on_random_masses(seed):
    net, ps, scen, grid = build(diamond_dict(steps=12))
    rng = np.random.default_rng(seed)
    cong, table, policy = value_stage(net, ps, scen, admissible_mass(rng, ps, scen))
    assert check_value_tables(net, ps, scen, cong, table, policy) == []


def test_moving_speed_bounded_below(diamond):
    net, ps, scen, grid = diamond
    rng = np.random.default_rng(5)
    _, _, policy = value_stage(net, ps, scen, admissible_mass(rng, ps, scen))
    speed = speeds(net, ps, grid, policy)
    moving = policy.tau_idx >= 0
    lengths = net.lengths[ps.pair_edge_idx][:, None]
    floor = (lengths / scen.horizon) * np.ones_like(speed)
    assert np.all(speed[moving] >= floor[moving] - 1e-12)


def test_values_bounded_by_stay_envelope(diamond):
    net, ps, scen, grid = diamond
    rng = np.random.default_rng(15)
    phi_bar = max(c.bound() for c in scen.phi)
    for _ in range(3):
        _, table, _ = value_stage(net, ps, scen, admissible_mass(rng, ps, scen))
        for r in range(ps.pair_count):
            e = int(ps.pair_edge_idx[r])
            tail = net.lengths[e] if ps.last_mask[r] else net.dist_tail[e]
            bound = scen.alpha * tail + phi_bar * scen.horizon
            assert np.all(table.values[r] >= 0.0)
            assert np.all(table.values[r] <= bound + 1e-12)


def test_equi_lipschitz_in_time_across_masses(diamond):
    net, ps, scen, grid = diamond
    rng = np.random.default_rng(9)
    # envelope: kinetic slope at the shortest admissible time-to-go plus
    # twice the congestion ceiling, doubled per nesting level
    h = float(net.lengths.min()) / (2.0 * scen.alpha)
    phi_bar = max(c.bound() for c in scen.phi)
    bound = 4.0 * (float(net.lengths.max()) ** 2 / (2.0 * h * h) + 2.0 * phi_bar)
    for _ in range(3):
        _, table, _ = value_stage(net, ps, scen, admissible_mass(rng, ps, scen))
        quot = np.max(np.abs(np.diff(table.values, axis=1))) / grid.dt
        assert quot <= bound


def test_value_continuity_in_mass(diamond):
    net, ps, scen, grid = diamond
    rng = np.random.default_rng(13)
    base = admissible_mass(rng, ps, scen)
    _, table0, _ = value_stage(net, ps, scen, base)
    lip = max(c.lipschitz() for c in scen.phi)
    max_legs = max(len(p) for p in ps.paths)
    c_bound = lip * scen.horizon * max_legs
    for scale in (1e-3, 1e-2, 1e-1):
        delta = rng.uniform(0.0, scale, size=base.values.shape)
        pert = MassField(values=np.clip(base.values + delta, 0.0, None))
        _, table1, _ = value_stage(net, ps, scen, pert)
        gap = float(np.max(np.abs(table1.values - table0.values)))
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
    cong = congestion_total(net, ps, scen, admissible_mass(rng, ps, scen))
    t1, p1 = value_backward(net, ps, scen, cong)
    t2, p2 = value_backward(net, ps, scen, cong)
    assert np.array_equal(t1.values, t2.values)
    assert np.array_equal(p1.tau_idx, p2.tau_idx)


TIGHT = {"enabled": True, "u": {"default": {"family": "reciprocal", "coeff": 0.4}}}


def _value_inputs(doc, seed):
    net, ps, scen, grid = build(doc)
    mass = admissible_mass(np.random.default_rng(seed), ps, scen)
    cong = congestion_total(net, ps, scen, mass)
    floor = None
    if scen.constrained.enabled:
        floor = arrival_tables(net, scen, cong, build_speed_limits(net, scen)).floor_idx
    return net, ps, scen, cong, floor


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


def _check_row_blocks(monkeypatch, doc):
    # three entry nodes per block: N = 16 spans six blocks
    monkeypatch.setattr(value_module, "BLOCK_CELLS", 3 * 17)
    net, ps, scen, cong, floor = _value_inputs(doc, seed=31)
    if floor is not None:
        # rows with no admissible arrival are part of what is checked
        assert np.any(floor > scen.grid.steps)
    table, policy = value_backward(net, ps, scen, cong, floor)
    assert check_value_tables(net, ps, scen, cong, table, policy, floor) == []
    return policy


@pytest.mark.parametrize("doc", ROW_BLOCK_DOCS.values(), ids=ROW_BLOCK_DOCS.keys())
def test_row_blocks_match_enumeration(monkeypatch, doc):
    _check_row_blocks(monkeypatch, doc)


@pytest.mark.parametrize("doc", ROW_BLOCK_DOCS.values(), ids=ROW_BLOCK_DOCS.keys())
def test_row_blocks_match_enumeration_with_wide_tie_band(monkeypatch, doc):
    # At eps_tie 1e-9 most tie bands hold one arrival node; at 1e-2 they hold
    # several, so "latest within the band" decides the policy.
    narrow = _check_row_blocks(monkeypatch, doc)
    wide = _check_row_blocks(monkeypatch, {**doc, "solver": {**doc["solver"], "eps_tie": 1e-2}})
    assert not np.array_equal(wide.tau_idx, narrow.tau_idx)


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
        cong, table, policy = value_stage(net, ps, scen, mass)
        assert check_value_tables(net, ps, scen, cong, table, policy) == []
        first_tau.append(policy.tau_idx[r, 0])
    assert first_tau[0] == n


@pytest.mark.parametrize("doc", [diamond_dict(steps=400),
                                 diamond_dict(steps=400, constrained=TIGHT),
                                 lattice_dict(3, steps=400, constrained=TIGHT)],
                         ids=["free", "constrained", "lattice-3x3-constrained"])
def test_block_size_does_not_change_results(monkeypatch, doc):
    steps = doc["model"]["steps"]
    net, ps, scen, cong, floor = _value_inputs(doc, seed=37)
    results = []
    # default blocks, one entry node per block, one block for all entry nodes
    for cells in (value_module.BLOCK_CELLS, 1, (steps + 1) ** 2):
        monkeypatch.setattr(value_module, "BLOCK_CELLS", cells)
        results.append(value_backward(net, ps, scen, cong, floor))
    (t0, p0), *others = results
    for table, policy in others:
        assert np.array_equal(table.values, t0.values)
        assert np.array_equal(policy.tau_idx, p0.tau_idx)


@pytest.mark.parametrize("doc", [diamond_dict(steps=60), lattice_dict(3, steps=60)],
                         ids=["diamond", "lattice-3x3"])
def test_pairs_sharing_a_suffix_get_equal_rows(doc):
    net, ps, scen, cong, _ = _value_inputs(doc, seed=41)
    table, policy = value_backward(net, ps, scen, cong)
    first_row = {}
    shared = 0
    for p, rows in enumerate(ps.path_rows):
        for pos, r in enumerate(rows):
            r0 = first_row.setdefault(ps.paths[p][pos:], r)
            if r0 != r:
                shared += 1
                assert np.array_equal(table.values[r], table.values[r0])
                assert np.array_equal(policy.tau_idx[r], policy.tau_idx[r0])
    assert shared > 0


def test_value_backward_restores_ufunc_buffer_size(monkeypatch, diamond):
    net, ps, scen, grid = diamond
    mass = admissible_mass(np.random.default_rng(47), ps, scen)
    cong = congestion_total(net, ps, scen, mass)
    seen = []

    def failing_argmax(*args, **kwargs):
        seen.append(np.getbufsize())
        raise RuntimeError("raised inside the block loop")

    with np.errstate():
        caller = np.setbufsize(4096)
        try:
            value_backward(net, ps, scen, cong)
            assert np.getbufsize() == 4096
            monkeypatch.setattr(np, "argmax", failing_argmax)
            with pytest.raises(RuntimeError, match="block loop"):
                value_backward(net, ps, scen, cong)
            assert seen == [value_module._BLOCK_BUFSIZE]
            assert np.getbufsize() == 4096
        finally:
            np.setbufsize(caller)
