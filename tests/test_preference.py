"""Entry times, path costs, the logit split, and the preference dynamics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from mfroute import (SimplexViolation, apply_psi, congestion_total, logit_response,
                     path_costs, preference_evolution, value_backward)

from conftest import (DIAMOND_EDGES, STAGE_DOCS, build, by_pair, detour_parallel_dict,
                      diamond_dict, reference_path_costs, row, stage_inputs,
                      zero_mass)


def entry_times(ps, policy, path_idx: int, node: int) -> list[int]:
    """Entry node of every edge on a path for a start at ``node``, following
    the policy edge by edge (-1: never entered)."""
    entries = []
    cur = int(node)
    for r in ps.path_rows[path_idx]:
        entries.append(cur)
        if cur < 0:
            continue
        cur = int(policy[int(r), cur])
    return entries


def leg_cost(net, scen, phi_prefix, edge_id, entry, arrival):
    """Cost of traversing an edge from node ``entry`` to node ``arrival``."""
    e = net.edge_index[edge_id]
    length = float(net.lengths[e])
    t = scen.grid.nodes
    return ((length * length) / (2.0 * (t[arrival] - t[entry]))
            + (phi_prefix[e, arrival] - phi_prefix[e, entry]))


def stop_cost(net, scen, phi_prefix, edge_id, entry):
    """Cost of staying at an edge's tail from node ``entry`` on."""
    e = net.edge_index[edge_id]
    return (scen.alpha * net.dist_tail[e]) + (phi_prefix[e, -1]
                                              - phi_prefix[e, entry])


def costs_and_policy(net, ps, scen, mass):
    """Congestion, path costs along the policy, and the policy by pair."""
    _, phi_prefix = congestion_total(ps, scen, mass.values)
    table, policy = value_backward(net, ps, scen, phi_prefix)
    costs = path_costs(net, ps, scen, phi_prefix, policy, table)
    return phi_prefix, costs, by_pair(ps, table, policy)[1]


@pytest.fixture
def diamond_policy(diamond):
    net, ps, scen, grid = diamond
    phi_prefix, costs, policy = costs_and_policy(net, ps, scen, zero_mass(ps, grid))
    return net, ps, scen, grid, phi_prefix, costs, policy


def test_entry_times_follow_policy(diamond_policy):
    # the second edge is entered at the first edge's arrival node, and the
    # path cost adds the two legs from +0.0
    net, ps, scen, grid, phi_prefix, costs, policy = diamond_policy
    p = ps.paths.index(("e1", "e4"))
    entries = entry_times(ps, policy, p, 0)
    tau = int(policy[row(ps, "e4", p), entries[1]])
    assert 0 < entries[1] < tau
    expected = 0.0 + leg_cost(net, scen, phi_prefix, "e1", 0, entries[1])
    expected += leg_cost(net, scen, phi_prefix, "e4", entries[1], tau)
    assert costs[p, 0] == expected


def test_entry_times_propagate_stop(diamond_policy):
    net, ps, scen, grid, phi_prefix, costs, policy = diamond_policy
    p = ps.paths.index(("e1", "e3", "e5"))
    # near the horizon the whole path stays put: the later edges cost nothing
    assert entry_times(ps, policy, p, grid.steps) == [grid.steps, -1, -1]
    assert costs[p, grid.steps] == 0.0 + stop_cost(net, scen, phi_prefix, "e1", grid.steps)


def test_entry_times_strictly_increase_while_finite(diamond_policy):
    net, ps, scen, grid, phi_prefix, costs, policy = diamond_policy
    for p in range(ps.n_paths):
        for i in range(grid.steps + 1):
            seq = entry_times(ps, policy, p, i)
            finite = [s for s in seq if s >= 0]
            assert finite == sorted(finite)
            assert len(set(finite)) == len(finite)
            # once an edge is never reached, no later edge is either
            if -1 in seq:
                assert all(s == -1 for s in seq[seq.index(-1):])


def test_entry_at_horizon_when_arrival_is_final_node(diamond_policy):
    # arriving at the final node enters the next edge there, which then
    # stays and pays the cheaper of its distance penalty and e1's
    net, ps, scen, grid, phi_prefix, costs, policy = diamond_policy
    p = ps.paths.index(("e1", "e4"))
    r = row(ps, "e1", p)
    hits = np.flatnonzero(policy[r] == grid.steps)
    assert hits.size
    i = int(hits[0])
    assert entry_times(ps, policy, p, i) == [i, grid.steps]
    expected = 0.0 + leg_cost(net, scen, phi_prefix, "e1", i, grid.steps)
    expected += min(stop_cost(net, scen, phi_prefix, "e1", grid.steps),
                    stop_cost(net, scen, phi_prefix, "e4", grid.steps))
    assert costs[p, i] == expected


@pytest.mark.parametrize("doc", STAGE_DOCS.values(), ids=STAGE_DOCS.keys())
def test_path_costs_match_per_pair_reference(doc):
    net, ps, scen, mass, psi = stage_inputs(doc)
    table = path_costs(net, ps, scen, psi.phi_prefix, psi.suffix_tau_idx,
                       psi.suffix_value)
    costs, entry = reference_path_costs(net, ps, scen, psi.phi_prefix,
                                        psi.policy.tau_idx)
    assert table.tobytes() == costs.tobytes()
    # agents stop on some edges, so later edges are never entered
    assert np.any(entry < 0)


def test_single_edge_path_cost_is_kinetic_term():
    doc = {
        "network": {"vertices": ["o", "d"],
                    "edges": [{"id": "e1", "tail": "o", "head": "d",
                               "length": 1.0, "capacity": 2.0}],
                    "origin": "o", "destination": "d"},
        "model": {"horizon": 1.0, "steps": 10, "alpha": 1.0, "beta": 1.0,
                  "eta": 1.0, "rho_max": 3.0,
                  "lambda": {"family": "constant", "value": 1.0},
                  "phi": {"default": {"family": "linear", "coeff": 0.0}}},
    }
    net, ps, scen, grid = build(doc)
    _, table, _ = costs_and_policy(net, ps, scen, zero_mass(ps, grid))
    # while moving is optimal the cost is l^2 / (2 (T - t))
    for i in range(0, 6):
        assert table[0, i] == pytest.approx(1.0 / (2.0 * (1.0 - grid.nodes[i])))
    # once stopped it is the congestion-free distance penalty
    assert table[0, 8] == pytest.approx(1.0)


def test_stopped_first_edge_contributes_distance_and_tail_integral(diamond):
    net, ps, scen, grid = diamond
    phi_prefix, table, policy = costs_and_policy(net, ps, scen, zero_mass(ps, grid))
    p = ps.paths.index(("e1", "e4"))
    r = row(ps, "e1", p)
    stopped = np.flatnonzero(policy[r] < 0)
    i = int(stopped[0])
    e = net.edge_index["e1"]
    expected = scen.alpha * net.dist_tail[e] + (phi_prefix[e, -1]
                                                - phi_prefix[e, i])
    assert table[p, i] == pytest.approx(expected, rel=1e-12)


def test_path_cost_equals_first_edge_value_on_default(diamond):
    net, ps, scen, grid = diamond
    mass = zero_mass(ps, grid)
    for _ in range(2):
        psi = apply_psi(net, ps, scen, mass)
        first_rows = np.flatnonzero(ps.first_mask)
        gap = np.max(np.abs(psi.costs - psi.value[first_rows]))
        assert gap <= 1e-9
        mass = psi.mass


UNEQUAL_DIAMOND_EDGES = [{**edge, "length": length}
                         for edge, length in zip(DIAMOND_EDGES, (2.0, 3.0, 1.0, 2.0, 0.5))]


# Networks with a path whose last edge is longer than its tail's distance to
# the destination: e3 (length 1.2, o is 1.0 from d) on the detour, and e4
# (length 2, v1 is 1.5 from d) on the unequal diamond.
@pytest.mark.parametrize("doc", [
    detour_parallel_dict(24),
    diamond_dict(steps=24, model={"alpha": 3.0}, edges=UNEQUAL_DIAMOND_EDGES),
], ids=["detour-parallel", "unequal-diamond"])
def test_path_cost_equals_first_pair_value_without_tie_band(doc):
    # With no tie band the policy attains the value table's minimum, so
    # following it from a path's first edge costs the first pair's value:
    # both charge a stop on a last edge alpha times that edge's length.
    doc["solver"]["eps_tie"] = 0.0
    net, ps, scen, grid = build(doc)
    first_rows = np.flatnonzero(ps.first_mask)
    mass = zero_mass(ps, grid)
    for _ in range(2):
        psi = apply_psi(net, ps, scen, mass)
        np.testing.assert_allclose(psi.costs, psi.value[first_rows],
                                   rtol=1e-12, atol=0.0)
        mass = psi.mass


def test_logit_symmetric_and_degenerate_cases():
    f = logit_response(np.array([[1.0], [1.0], [1.0]]), np.array([3.0]), 1.0)
    assert np.array_equal(f.ravel(), np.array([1.0, 1.0, 1.0]))
    f = logit_response(np.array([[0.0], [math.log(2.0)]]), np.array([1.0]), 1.0)
    assert f[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert f[1, 0] == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_logit_beta_to_zero_flattens():
    rng = np.random.default_rng(2)
    costs = rng.uniform(0.0, 5.0, size=(4, 6))
    lam = rng.uniform(0.5, 2.0, size=6)
    f = logit_response(costs, lam, 1e-12)
    assert np.allclose(f, lam / 4.0, rtol=1e-9)


def test_logit_shift_invariance_bitwise_for_representable_shifts():
    costs = np.array([[0.5, 1.75], [1.25, 0.25], [2.75, 3.5]])
    lam = np.array([1.5, 2.0])
    base = logit_response(costs, lam, 2.0)
    for shift in (1.0, 64.0, -8.0, 0.03125):
        assert np.array_equal(base, logit_response(costs + shift, lam, 2.0))


def test_logit_shift_invariance_tolerance_for_random_shifts():
    rng = np.random.default_rng(4)
    costs = rng.uniform(0.0, 4.0, size=(3, 8))
    lam = np.ones(8)
    base = logit_response(costs, lam, 1.1)
    for _ in range(10):
        c = float(rng.uniform(-10.0, 10.0))
        shifted = logit_response(costs + c, lam, 1.1)
        assert np.max(np.abs(shifted - base)) <= 1e-14


def test_logit_preserves_throughput():
    rng = np.random.default_rng(6)
    costs = rng.uniform(0.0, 5.0, size=(5, 9))
    lam = rng.uniform(0.5, 3.0, size=9)
    f = logit_response(costs, lam, 0.7)
    assert np.allclose(f.sum(axis=0), lam, rtol=1e-14)
    assert np.all(f > 0.0)


def test_preference_equilibrium_is_fixed():
    nodes = np.linspace(0.0, 4.0, 17)
    response = np.vstack([np.full(17, 0.25), np.full(17, 0.75)])
    z = preference_evolution(response, np.array([0.25, 0.75]), 1.3, nodes, 1.0)
    assert np.array_equal(z, response)


def test_preference_offset_decays_exponentially():
    nodes = np.array([0.0, math.log(2.0)])
    response = np.vstack([np.full(2, 0.5), np.full(2, 0.5)])
    z = preference_evolution(response, np.array([0.9, 0.1]), 1.0, nodes, 1.0)
    assert z[0, 1] - 0.5 == pytest.approx(0.2, rel=1e-12)
    assert z[1, 1] - 0.5 == pytest.approx(-0.2, rel=1e-12)


def test_preference_simplex_preserved(diamond):
    net, ps, scen, grid = diamond
    psi = apply_psi(net, ps, scen, zero_mass(ps, grid))
    sums = psi.z.sum(axis=0)
    assert np.allclose(sums, scen.lam, rtol=1e-12, atol=0.0)
    rsums = psi.response.sum(axis=0)
    assert np.allclose(rsums, scen.lam, rtol=1e-12, atol=0.0)


def test_preference_rejects_off_simplex_start():
    nodes = np.linspace(0.0, 1.0, 5)
    response = np.vstack([np.full(5, 0.5), np.full(5, 0.5)])
    with pytest.raises(SimplexViolation):
        preference_evolution(response, np.array([0.9, 0.9]), 1.0, nodes, 1.0)


def test_euler_integration_converges_to_closed_form():
    errors = {}
    for steps in (250, 500, 1000):
        net, ps, scen, grid = build(diamond_dict(steps=steps))
        psi = apply_psi(net, ps, scen, zero_mass(ps, grid))
        response = psi.response
        z_euler = np.empty_like(response)
        z_euler[:, 0] = scen.z0
        for i in range(steps):
            z_euler[:, i + 1] = (z_euler[:, i]
                                 + (response[:, i + 1] - response[:, i])
                                 - grid.dt * scen.eta * (z_euler[:, i] - response[:, i]))
        errors[steps] = float(np.max(np.abs(z_euler - psi.z)))
    assert errors[250] > errors[500] > errors[1000] > 0.0
    assert errors[250] / errors[500] == pytest.approx(2.0, abs=0.4)
    assert errors[500] / errors[1000] == pytest.approx(2.0, abs=0.4)


def test_response_equi_lipschitz_on_default(diamond):
    net, ps, scen, grid = diamond
    psi = apply_psi(net, ps, scen, zero_mass(ps, grid))
    costs = psi.costs
    l_cost = np.max(np.abs(np.diff(costs, axis=1))) / grid.dt
    bound = 2.0 * scen.beta * scen.lam_max * l_cost + 1e-9
    quot = np.max(np.abs(np.diff(psi.response, axis=1))) / grid.dt
    assert quot <= bound
