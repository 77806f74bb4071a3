"""Property tests on random small networks, scenarios and mass fields.

Each example draws a small acyclic multigraph, a short grid, a tie band, a
random mass field below the mass bound, and speed limits or none.  One map
evaluation must then agree bit for bit with the per-pair reference loops,
the value tables must equal the exhaustive enumeration and the dense
kernel's bits at every branching factor and chunk size of the search, each
path's cost along the policy must follow its
first pair's value, the conservation audit must pass, and the network's
edges given in reverse order must give the same bits.  A solve,
with Anderson history or without, must report the residual of the mass it
returns, and parsing the scenario echo again must give the same echo.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mfroute.equilibrium as equilibrium
import mfroute.value as value_module
from mfroute import (MassField, MFRouteError, apply_psi, build_network,
                     compute_flows, enumerate_paths, local_decision, path_costs,
                     residual, scenario_to_dict, solve, value_backward)
from mfroute.network import edge_totals
from mfroute.oracle import audit_conservation, check_value_tables

from conftest import (build, detour_parallel_dict, diamond_dict, reference_edge_totals,
                      reference_flows, reference_path_costs, reference_paths, zero_mass)
from dense_kernel import dense_value_backward

# Derandomized, so every run checks the same examples; the example count
# keeps the test to a few seconds.
DERANDOMIZED = settings(derandomize=True, max_examples=60, deadline=None,
                        database=None, suppress_health_check=[HealthCheck.too_slow])

LENGTHS = (0.5, 0.8, 1.0, 1.3, 2.0)
# No band, the default, a band of several arrival nodes and a wide one.
EPS_TIES = (0.0, 1e-9, 1e-2, 0.3)


@st.composite
def scenario_docs(draw):
    """A DAG on 2-6 vertices in topological order, origin first and
    destination last.  Consecutive vertices are joined by one or two edges,
    so every vertex lies on a route; other pairs by up to two."""
    k = draw(st.integers(2, 6))
    edges = []
    for i in range(k - 1):
        for j in range(i + 1, k):
            for _ in range(draw(st.integers(1 if j == i + 1 else 0, 2))):
                edges.append({"id": f"e{len(edges)}", "tail": f"v{i}", "head": f"v{j}",
                              "length": draw(st.sampled_from(LENGTHS)),
                              "capacity": 2.0})
    constrained = None
    if draw(st.booleans()):
        constrained = {"enabled": True, "u": {"per_edge": {
            e["id"]: {"family": "reciprocal",
                      "coeff": draw(st.sampled_from((0.05, 1.0, 20.0)))}
            for e in edges}}}
    doc = diamond_dict(steps=draw(st.integers(1, 8)), edges=edges,
                       constrained=constrained,
                       solver={"eps_tie": draw(st.sampled_from(EPS_TIES))},
                       model={"horizon": draw(st.sampled_from((2.0, 5.0, 10.0))),
                              "beta": draw(st.sampled_from((0.5, 1.0, 4.0)))})
    doc["network"].update(vertices=[f"v{i}" for i in range(k)],
                          origin="v0", destination=f"v{k - 1}")
    return doc, draw(st.integers(0, 2**32 - 1))


def random_mass(ps, scen, seed):
    """Pair masses whose edge totals stay below rho_max, a third of them zero."""
    rng = np.random.default_rng(seed)
    pairs_per_edge = np.bincount(ps.pair_edge_idx)
    cap = scen.rho_max / pairs_per_edge[ps.pair_edge_idx]
    values = rng.uniform(0.0, 1.0, size=(ps.pair_count, scen.grid.steps + 1))
    values *= cap[:, None]
    values[rng.uniform(size=values.shape) < 1.0 / 3.0] = 0.0
    return values


def assert_costs_follow_values(ps, scen, costs, values):
    """A path's cost along the policy is at least its first row's value and
    exceeds it by at most the tie band per edge, up to a few ulps per edge."""
    for p, rows in enumerate(ps.path_rows):
        m = len(rows)
        w = np.maximum(1.0, np.abs(costs[p]))
        tiny = 4 * m * np.spacing(w)
        gap = costs[p] - values[rows[0]]
        assert np.all(gap >= -tiny), p
        assert np.all(gap <= m * scen.solver.eps_tie * w + tiny), p


@DERANDOMIZED
@given(scenario_docs())
def test_psi_stages_match_references_and_oracles(case):
    doc, seed = case
    net, ps, scen, grid = build(doc)
    mass = MassField(values=random_mass(ps, scen, seed))
    psi = apply_psi(net, ps, scen, mass)
    phi_prefix, policy = psi.phi_prefix, psi.policy.tau_idx

    assert list(ps.paths) == reference_paths(net)
    for values in (mass.values, psi.mass.values):
        assert edge_totals(ps, values).tobytes() == reference_edge_totals(ps, values).tobytes()
    table = path_costs(net, ps, scen, phi_prefix, psi.suffix_tau_idx, psi.suffix_value)
    costs, _ = reference_path_costs(net, ps, scen, phi_prefix, policy)
    assert table.tobytes() == costs.tobytes()
    assert_costs_follow_values(ps, scen, table, psi.value)
    shares = local_decision(psi.z)
    flows = compute_flows(ps, psi.suffix_tau_idx, shares, scen.lam, psi.k_idx_edges)
    ref = reference_flows(ps, policy, shares, scen.lam, psi.k_idx_edges)
    assert flows.tobytes() == ref.tobytes()

    floor = psi.arrival.floor_idx if psi.arrival is not None else None
    assert check_value_tables(net, ps, scen, phi_prefix, psi.value, policy, floor) == []
    dense = dense_value_backward(net, ps, scen, phi_prefix, floor)
    assert dense[0].tobytes() == psi.suffix_value.tobytes()
    assert dense[1].tobytes() == psi.suffix_tau_idx.tobytes()
    # a binary search in one-cell chunks, then three rows a level in chunks
    # of a few rows
    for branching, cells in ((2, 1), (4, 3 * (scen.grid.steps + 1))):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(value_module, "BRANCHING", branching)
            mp.setattr(value_module, "CHUNK_CELLS", cells)
            table, other = value_backward(net, ps, scen, phi_prefix, floor)
        assert table.tobytes() == psi.suffix_value.tobytes()
        assert other.tobytes() == psi.suffix_tau_idx.tobytes()
    assert audit_conservation(ps, scen, psi, scen.rho0).ok

    # the input order of edges changes nothing: the pairs are laid out
    # path-major over edge ids, so the same mass field needs no permutation
    flipped = json.loads(json.dumps(doc))
    flipped["network"]["edges"].reverse()
    net2, ps2, scen2, _ = build(flipped)
    psi2 = apply_psi(net2, ps2, scen2, mass)
    assert ps2.paths == ps.paths
    for name in ("flows", "costs", "z", "response", "suffix_value", "suffix_tau_idx"):
        assert getattr(psi2, name).tobytes() == getattr(psi, name).tobytes(), name
    assert psi2.mass.values.tobytes() == psi.mass.values.tobytes()


def test_detour_walk_at_the_horizon_settles_at_the_cheaper_final_value():
    # Path (e1, e2) from node 0 arrives at e2's tail at the horizon, the
    # latest arrival within the tie band.  There the walk, like the value
    # table, continues with the cheaper of e1's tail penalty
    # alpha * dist_tail(e1) = 1 and e2's stop cost alpha * length(e2) = 3,
    # so it costs 1.05 against a value of 0.8, inside the band of
    # 2 * 0.3 * 1.05 (3.05 when the walk paid e2's stop cost).
    doc = detour_parallel_dict(24)
    doc["solver"]["eps_tie"] = 0.3
    net, ps, scen, grid = build(doc)
    psi = apply_psi(net, ps, scen, zero_mass(ps, grid))
    costs = path_costs(net, ps, scen, psi.phi_prefix, psi.suffix_tau_idx, psi.suffix_value)
    reference, entry = reference_path_costs(net, ps, scen, psi.phi_prefix,
                                            psi.policy.tau_idx)
    assert costs.tobytes() == reference.tobytes() == psi.costs.tobytes()
    e1, e2 = ps.path_rows[1]
    assert ps.paths[1] == ("e1", "e2") and entry[e2, 0] == grid.steps
    gap = costs[1, 0] - psi.value[e1, 0]
    assert gap == 0.25 and gap <= 2 * 0.3 * costs[1, 0]
    assert_costs_follow_values(ps, scen, costs, psi.value)


@DERANDOMIZED
@given(scenario_docs())
def test_scenario_echo_is_a_fixed_point(case):
    doc, _ = case
    net, ps, scen, grid = build(doc)
    echo = json.dumps(scenario_to_dict(net, scen), sort_keys=True)
    net2, ps2, scen2, grid2 = build(json.loads(echo))
    assert json.dumps(scenario_to_dict(net2, scen2), sort_keys=True) == echo
    assert scen2.constrained == scen.constrained


@settings(derandomize=True, max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario_docs())
def test_solve_reports_the_residual_of_its_mass_whatever_the_depth(case):
    doc, _ = case
    doc["solver"].update(tol=1e-9, max_iter=20)
    raised = {}
    for depth in (0, equilibrium.ANDERSON_DEPTH):
        net, ps, scen, grid = build(doc)
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(equilibrium, "ANDERSON_DEPTH", depth)
                report = solve(net, ps, scen)
        except MFRouteError as exc:
            raised[depth] = type(exc)
            continue
        psi = apply_psi(net, ps, scen, report.mass)
        assert psi.mass.values.tobytes() == report.psi.mass.values.tobytes()
        assert residual(report.mass, psi.mass) == report.final_residual
        assert report.converged == (report.final_residual <= scen.tol)
        assert np.all(report.mass.values >= 0.0)
    # acceleration adds no failure mode of its own
    if equilibrium.ANDERSON_DEPTH in raised:
        assert raised.get(0) == raised[equilibrium.ANDERSON_DEPTH]


@st.composite
def shuffled_dags(draw):
    """A DAG on 2-8 vertices, origin first and destination last in its
    topological order, with up to two edges between any ordered pair and a
    chain of consecutive vertices so that every vertex lies on a route.  The
    vertex list and the edge list are shuffled, and edge ids are drawn so
    that their lexicographic order differs from the input order."""
    k = draw(st.integers(2, 8))
    names = draw(st.permutations([f"v{i}" for i in range(k)]))
    edges = []
    for i in range(k - 1):
        for j in range(i + 1, k):
            for _ in range(draw(st.integers(1 if j == i + 1 else 0, 2))):
                edges.append({"tail": names[i], "head": names[j],
                              "length": draw(st.sampled_from(LENGTHS)), "capacity": 2.0})
    ids = draw(st.permutations(range(len(edges))))
    for e, n in zip(edges, ids):
        e["id"] = f"e{n}"
    vertices = draw(st.permutations(names))
    return vertices, draw(st.permutations(edges)), names[0], names[-1]


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(shuffled_dags())
def test_paths_and_pair_layout_match_recursive_reference(dag):
    net = build_network(*dag)
    ps = enumerate_paths(net)
    assert list(ps.paths) == reference_paths(net)
    rows = [(net.edge_index[eid], p, pos == 0, pos == len(path) - 1)
            for p, path in enumerate(ps.paths) for pos, eid in enumerate(path)]
    edge_idx, path_idx, first, last = (list(col) for col in zip(*rows))
    assert ps.pair_count == len(rows)
    assert ps.pair_edge_idx.tolist() == edge_idx
    assert ps.pair_path_idx.tolist() == path_idx
    assert ps.first_mask.tolist() == first and ps.last_mask.tolist() == last
    assert [r.tolist() for r in ps.path_rows] == [
        [r for r, p in enumerate(path_idx) if p == q] for q in range(ps.n_paths)]
