"""Graph validation, distances to the destination, and path enumeration."""

from __future__ import annotations

import numpy as np
import pytest

from mfroute import (BadEdge, CycleDetected, EdgeNotOnPath, TooManyPaths,
                     Unreachable, apply_psi, build_network, enumerate_paths)
from mfroute.network import edge_totals

from conftest import (DIAMOND_EDGES, STAGE_DOCS, build, diamond_dict, lattice_dict,
                      reference_edge_totals, stage_inputs, zero_mass)

VERTS = ["o", "v1", "v2", "d"]


def diamond_net():
    return build_network(VERTS, DIAMOND_EDGES, "o", "d")


def test_diamond_builds():
    net = diamond_net()
    assert net.origin == "o" and net.destination == "d"
    assert len(net.edges) == 5
    assert net.topo_order.index("o") == 0
    assert net.topo_order.index("d") == 3


def test_single_edge_network():
    net = build_network(["o", "d"], [("e1", "o", "d", 1.0, 2.0)], "o", "d")
    ps = enumerate_paths(net)
    assert ps.paths == (("e1",),)
    assert ps.pair_count == 1


def test_cycle_detected():
    edges = DIAMOND_EDGES + [{"id": "e6", "tail": "d", "head": "o",
                              "length": 1.0, "capacity": 2.0}]
    with pytest.raises(CycleDetected):
        build_network(VERTS, edges, "o", "d")


@pytest.mark.parametrize("bad", [
    ("e9", "o", "o", 1.0, 2.0),       # self loop
    ("e9", "v1", "v2", 0.0, 2.0),     # zero length
    ("e9", "v1", "v2", -1.0, 2.0),    # negative length
    ("e9", "v1", "v2", 1.0, 0.0),     # zero capacity
    ("e9", "v1", "w", 1.0, 2.0),      # undeclared head
    ("e1", "o", "v1", 1.0, 2.0),      # duplicate id
])
def test_bad_edges_rejected(bad):
    with pytest.raises(BadEdge):
        build_network(VERTS, DIAMOND_EDGES + [bad], "o", "d")


def test_unreachable_vertex_rejected():
    with pytest.raises(Unreachable):
        build_network(VERTS + ["w"], DIAMOND_EDGES, "o", "d")
    # w reachable from o but cannot reach d
    edges = DIAMOND_EDGES + [{"id": "e6", "tail": "o", "head": "w",
                              "length": 1.0, "capacity": 2.0}]
    with pytest.raises(Unreachable):
        build_network(VERTS + ["w"], edges, "o", "d")


def test_origin_destination_distinct():
    with pytest.raises(Unreachable):
        build_network(["o"], [], "o", "o")


def test_diamond_paths_and_incidence():
    ps = enumerate_paths(diamond_net())
    assert set(ps.paths) == {("e1", "e4"), ("e2", "e5"), ("e1", "e3", "e5")}
    # lexicographic order by edge-id sequence
    assert ps.paths == (("e1", "e3", "e5"), ("e1", "e4"), ("e2", "e5"))
    assert ps.pair_count == 7
    # e1 and e5 lie on two paths each, the other edges on one
    assert np.bincount(ps.pair_edge_idx).tolist() == [2, 1, 1, 1, 2]


def test_parallel_edges_identity_incidence():
    net = build_network(["o", "d"],
                        [("e1", "o", "d", 1.0, 2.0), ("e2", "o", "d", 1.5, 2.0)],
                        "o", "d")
    ps = enumerate_paths(net)
    assert ps.paths == (("e1",), ("e2",))
    assert ps.pair_edge_idx.tolist() == [0, 1]
    assert ps.pair_path_idx.tolist() == [0, 1]


def test_enumeration_invariant_under_edge_order(diamond):
    ps_ref = enumerate_paths(diamond_net())
    rng = np.random.default_rng(7)
    for _ in range(5):
        shuffled = [DIAMOND_EDGES[i] for i in rng.permutation(5)]
        ps = enumerate_paths(build_network(VERTS, shuffled, "o", "d"))
        assert ps.paths == ps_ref.paths


def test_path_limit_guard():
    # layered graph with 2^6 paths
    verts = ["o", "d"] + [f"a{i}" for i in range(5)]
    layer = ["o"] + [f"a{i}" for i in range(5)] + ["d"]
    edges = []
    for i in range(6):
        for j in range(2):
            edges.append((f"e{i}_{j}", layer[i], layer[i + 1], 1.0, 2.0))
    net = build_network(verts, edges, "o", "d")
    assert len(enumerate_paths(net).paths) == 64
    with pytest.raises(TooManyPaths):
        enumerate_paths(net, limit=10)


def test_shortest_remaining_lengths():
    net = diamond_net()
    assert net.dist_to_destination == {"o": 2.0, "v1": 1.0, "v2": 1.0, "d": 0.0}
    # the stay penalty reads the distance at each edge's tail
    assert net.dist_tail.tolist() == [2.0, 2.0, 1.0, 1.0, 1.0]


def test_triangle_inequality_along_edges():
    rng = np.random.default_rng(3)
    for trial in range(10):
        n_mid = int(rng.integers(2, 5))
        verts = ["o"] + [f"m{i}" for i in range(n_mid)] + ["d"]
        chain = verts
        edges = []
        for i in range(len(chain) - 1):
            edges.append((f"c{i}", chain[i], chain[i + 1],
                          float(rng.uniform(0.5, 3.0)), 2.0))
        # random forward skips keep the graph acyclic and connected
        for s in range(int(rng.integers(1, 4))):
            a, b = sorted(rng.choice(len(chain), size=2, replace=False))
            if b > a:
                edges.append((f"s{trial}_{s}", chain[a], chain[b],
                              float(rng.uniform(0.5, 3.0)), 2.0))
        net = build_network(verts, edges, "o", "d")
        for e in net.edges:
            lhs = net.dist_to_destination[e.tail]
            rhs = e.length + net.dist_to_destination[e.head]
            assert lhs <= rhs + 1e-12


def test_paths_ascend_in_topological_order():
    net = diamond_net()
    ps = enumerate_paths(net)
    rank = {v: i for i, v in enumerate(net.topo_order)}
    for path in ps.paths:
        tails = [rank[net.edge(eid).tail] for eid in path]
        assert tails == sorted(tails)


def test_adjacency_queries():
    # a path's rows hold its edges in order, so a pair's predecessor is the
    # previous row and its successor the next; only the end rows are flagged
    net = diamond_net()
    ps = enumerate_paths(net)
    for p, path in enumerate(ps.paths):
        rows = ps.path_rows[p]
        assert [net.edges[ps.pair_edge_idx[r]].id for r in rows] == list(path)
        assert [ps.row(eid, p) for eid in path] == rows.tolist()
        assert ps.first_mask[rows].tolist() == [True] + [False] * (len(path) - 1)
        assert ps.last_mask[rows].tolist() == [False] * (len(path) - 1) + [True]
    two_leg = ps.paths.index(("e1", "e4"))
    with pytest.raises(EdgeNotOnPath):
        ps.row("e3", two_leg)


def test_pairs_are_path_major():
    net = diamond_net()
    ps = enumerate_paths(net)
    labels = ps.pair_labels()
    assert labels == ["e1:p1", "e3:p1", "e5:p1", "e1:p2", "e4:p2", "e2:p3", "e5:p3"]
    # non-first rows always have their predecessor in the previous row
    for r in range(ps.pair_count):
        if not ps.first_mask[r]:
            assert ps.pair_path_idx[r] == ps.pair_path_idx[r - 1]
            path = ps.paths[ps.pair_path_idx[r]]
            pos = path.index(net.edges[ps.pair_edge_idx[r]].id)
            assert path[pos - 1] == net.edges[ps.pair_edge_idx[r - 1]].id


def test_path_groupings_are_derived_on_first_use():
    ps = enumerate_paths(diamond_net())
    groupings = ("rows_by_position", "rows_by_occurrence", "suffix_table")
    assert not any(name in vars(ps) for name in groupings)
    # longest path first; the two-edge paths keep their order
    assert [rows.tolist() for rows in ps.rows_by_position] == [[0, 3, 5], [1, 4, 6], [2]]
    # e1 and e5 (indices 0 and 4) occur twice, in rows 0, 3 and 2, 6
    assert [(edges.tolist(), rows.tolist()) for edges, rows in ps.rows_by_occurrence] == [
        ([0, 2, 4, 3, 1], [0, 1, 2, 4, 5]), ([0, 4], [3, 6])]
    # (edge, successor suffix), each after its successor; e5 ends paths 0
    # and 2, so rows 2 and 6 share suffix 0, and every other suffix is unique
    suffixes, pair_suffix = ps.suffix_table
    assert suffixes == ((4, -1), (2, 0), (0, 1), (3, -1), (0, 3), (1, 0))
    assert pair_suffix.tolist() == [2, 1, 0, 4, 3, 5, 0]
    # loading a scenario derives none of them; the first map evaluation does
    net, ps, scen, grid = build(diamond_dict(steps=4))
    assert not any(name in vars(ps) for name in groupings)
    apply_psi(net, ps, scen, zero_mass(ps, grid))
    assert all(name in vars(ps) for name in groupings)


@pytest.mark.parametrize("doc", STAGE_DOCS.values(), ids=STAGE_DOCS.keys())
def test_edge_totals_match_per_pair_reference(doc):
    net, ps, scen, mass, psi = stage_inputs(doc)
    for values in (mass.values, psi.mass.values):
        assert edge_totals(ps, values).tobytes() == reference_edge_totals(ps, values).tobytes()


def test_edge_totals_add_pairs_in_row_order():
    net, ps, scen, grid = build(lattice_dict(3, steps=2))
    e = net.edge_index["r00"]
    rows = np.flatnonzero(ps.pair_edge_idx == e)
    assert rows.size == 3
    values = np.zeros((ps.pair_count, 3))
    # in row order each column sums to +0.0; adding its first and last
    # entries first, or starting from its first entry, does not
    values[rows, 0] = [1e16, 1.0, -1e16]
    values[rows, 1] = [1.0, 1e16, -1e16]
    values[rows, 2] = -0.0
    totals = edge_totals(ps, values)
    assert totals.tobytes() == reference_edge_totals(ps, values).tobytes()
    assert totals[e].tolist() == [0.0, 0.0, 0.0]
    assert not np.signbit(totals[e]).any()
    # what adding in another order, or from the first entry, would give
    assert (1e16 + -1e16) + 1.0 == 1.0
    assert np.signbit(-0.0 + -0.0)
