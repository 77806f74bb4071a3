"""Property tests on random small networks, scenarios and mass fields.

Each example draws a small acyclic multigraph, a short grid, a random mass
field below the mass bound, and speed limits or none.  One map evaluation
must then agree bit for bit with the per-pair reference loops, the value
tables must equal the exhaustive enumeration, and the conservation audit
must pass.  A solve, with Anderson history or without, must report the
residual of the mass it returns.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mfroute.equilibrium as equilibrium
from mfroute import (MassField, MFRouteError, apply_psi, build_network,
                     compute_flows, enumerate_paths, path_costs, residual, solve)
from mfroute.network import edge_totals
from mfroute.oracle import audit_conservation, check_value_tables

from conftest import (build, diamond_dict, reference_edge_totals, reference_flows,
                      reference_path_costs, reference_paths)

# Derandomized, so every run checks the same examples; the example count
# keeps the test to a few seconds.
DERANDOMIZED = settings(derandomize=True, max_examples=60, deadline=None,
                        database=None, suppress_health_check=[HealthCheck.too_slow])

LENGTHS = (0.5, 0.8, 1.0, 1.3, 2.0)


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


@DERANDOMIZED
@given(scenario_docs())
def test_psi_stages_match_references_and_oracles(case):
    doc, seed = case
    net, ps, scen, grid = build(doc)
    mass = MassField(values=random_mass(ps, scen, seed))
    psi = apply_psi(net, ps, scen, mass)
    cong, policy = psi.congestion, psi.policy

    assert list(ps.paths) == reference_paths(net)
    for values in (mass.values, psi.mass.values):
        assert edge_totals(ps, values).tobytes() == reference_edge_totals(ps, values).tobytes()
    table = path_costs(net, ps, scen, cong, policy)
    costs, _ = reference_path_costs(net, ps, scen, cong, policy)
    assert table.costs.tobytes() == costs.tobytes()
    flows = compute_flows(ps, policy, psi.preference.z, scen.lam, psi.k_idx_edges)
    ref = reference_flows(ps, policy, psi.preference.z, scen.lam, psi.k_idx_edges)
    assert flows.values.tobytes() == ref.values.tobytes()

    floor = psi.arrival.floor_idx if psi.arrival is not None else None
    assert check_value_tables(net, ps, scen, cong, psi.value, policy, floor) == []
    assert audit_conservation(ps, scen, psi, scen.rho0).ok


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
