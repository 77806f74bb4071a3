"""Graph validation, distances to the destination, and path enumeration."""

from __future__ import annotations

import numpy as np
import pytest

from mfroute import (BadEdge, CycleDetected, TooManyPaths, Unreachable, apply_psi,
                     build_network, enumerate_paths)
from mfroute.network import edge_totals

from conftest import (DIAMOND_EDGES, STAGE_DOCS, build, chain_dict, diamond_dict,
                      lattice_dict, reference_edge_totals, stage_inputs, zero_mass)

VERTS = ["o", "v1", "v2", "d"]


def edge(eid, tail, head, length=1.0, capacity=2.0):
    """A network edge object as a scenario file spells it."""
    return {"id": eid, "tail": tail, "head": head, "length": length, "capacity": capacity}


def diamond_net():
    return build_network(VERTS, DIAMOND_EDGES, "o", "d")


def test_diamond_builds():
    net = diamond_net()
    assert net.origin == "o" and net.destination == "d"
    assert net.vertices == tuple(VERTS)
    assert [e.id for e in net.edges] == ["e1", "e2", "e3", "e4", "e5"]
    assert net.edge_index == {"e1": 0, "e2": 1, "e3": 2, "e4": 3, "e5": 4}
    assert net.lengths.tolist() == [1.0] * 5 and net.capacities.tolist() == [2.0] * 5


def test_single_edge_network():
    net = build_network(["o", "d"], [edge("e1", "o", "d")], "o", "d")
    ps = enumerate_paths(net)
    assert ps.paths == (("e1",),)
    assert ps.pair_count == 1


def test_cycle_detected():
    edges = DIAMOND_EDGES + [edge("e6", "d", "o")]
    with pytest.raises(CycleDetected, match=r"through \['d', 'o', 'v1', 'v2'\]$"):
        build_network(VERTS, edges, "o", "d")
    # only the vertices on or behind the cycle are named
    edges = DIAMOND_EDGES + [edge("e6", "d", "v2")]
    with pytest.raises(CycleDetected, match=r"through \['d', 'v2'\]$"):
        build_network(VERTS, edges, "o", "d")


@pytest.mark.parametrize("bad", [
    edge("e9", "o", "o"),                  # self loop
    edge("e9", "v1", "v2", length=0.0),    # zero length
    edge("e9", "v1", "v2", length=-1.0),   # negative length
    edge("e9", "v1", "v2", capacity=0.0),  # zero capacity
    edge("e9", "v1", "w"),                 # undeclared head
    edge("e1", "o", "v1"),                 # duplicate id
])
def test_bad_edges_rejected(bad):
    with pytest.raises(BadEdge):
        build_network(VERTS, DIAMOND_EDGES + [bad], "o", "d")


def test_unreachable_vertex_rejected():
    with pytest.raises(Unreachable, match=r"^not reachable from origin 'o': \['w'\]$"):
        build_network(VERTS + ["w"], DIAMOND_EDGES, "o", "d")
    # w and x reachable from o but cannot reach d
    edges = DIAMOND_EDGES + [edge("e6", "o", "x"), edge("e7", "x", "w")]
    with pytest.raises(Unreachable, match=r"^destination 'd' not reachable from: \['w', 'x'\]$"):
        build_network(VERTS + ["x", "w"], edges, "o", "d")
    # a vertex that fails both is reported as unreachable from the origin
    edges = DIAMOND_EDGES + [edge("e6", "o", "x")]
    with pytest.raises(Unreachable, match=r"^not reachable from origin 'o': \['w'\]$"):
        build_network(VERTS + ["x", "w"], edges, "o", "d")


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
                        [edge("e1", "o", "d"), edge("e2", "o", "d", length=1.5)],
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


def test_long_chain_builds_and_enumerates():
    # a route far longer than the interpreter's recursion limit
    doc = chain_dict(2000, steps=1)["network"]
    net = build_network(doc["vertices"], doc["edges"], doc["origin"], doc["destination"])
    ps = enumerate_paths(net)
    assert ps.paths == (tuple(f"e{i}" for i in range(2000)),)
    assert ps.pair_edge_idx.tolist() == list(range(2000))
    assert net.dist_tail[0] == sum([0.01] * 2000) and net.dist_tail[-1] == 0.01


def test_path_limit_guard():
    # layered graph with 2^6 paths
    verts = ["o", "d"] + [f"a{i}" for i in range(5)]
    layer = ["o"] + [f"a{i}" for i in range(5)] + ["d"]
    edges = []
    for i in range(6):
        for j in range(2):
            edges.append(edge(f"e{i}_{j}", layer[i], layer[i + 1]))
    net = build_network(verts, edges, "o", "d")
    assert len(enumerate_paths(net).paths) == 64
    with pytest.raises(TooManyPaths):
        enumerate_paths(net, limit=10)


def test_shortest_remaining_lengths():
    # the stay penalty reads the distance at each edge's tail
    assert diamond_net().dist_tail.tolist() == [2.0, 2.0, 1.0, 1.0, 1.0]
    # o-v1-d is shorter than o-d, and v1-v2-d shorter than v1-d
    net = build_network(["o", "v1", "v2", "d"],
                        [edge("a", "o", "d", 5.0), edge("b", "o", "v1", 1.0),
                         edge("c", "v1", "d", 3.0), edge("x", "v1", "v2", 0.5),
                         edge("y", "v2", "d", 1.0)], "o", "d")
    assert net.dist_tail.tolist() == [2.5, 2.5, 1.5, 1.5, 1.0]


def test_triangle_inequality_along_edges():
    rng = np.random.default_rng(3)
    for trial in range(10):
        n_mid = int(rng.integers(2, 5))
        verts = ["o"] + [f"m{i}" for i in range(n_mid)] + ["d"]
        chain = verts
        edges = []
        for i in range(len(chain) - 1):
            edges.append(edge(f"c{i}", chain[i], chain[i + 1], float(rng.uniform(0.5, 3.0))))
        # random forward skips keep the graph acyclic and connected
        for s in range(int(rng.integers(1, 4))):
            a, b = sorted(rng.choice(len(chain), size=2, replace=False))
            if b > a:
                edges.append(edge(f"s{trial}_{s}", chain[a], chain[b],
                                  float(rng.uniform(0.5, 3.0))))
        net = build_network(verts, edges, "o", "d")
        dist = {e.tail: d for e, d in zip(net.edges, net.dist_tail.tolist())}
        dist["d"] = 0.0
        for e in net.edges:
            assert dist[e.tail] <= e.length + dist[e.head]
        # and the distance is attained by some out-edge
        for v in verts[:-1]:
            assert dist[v] == min(e.length + dist[e.head] for e in net.edges if e.tail == v)


def test_paths_ascend_in_topological_order():
    # each path is a chain of edges from the origin to the destination
    # that visits no vertex twice, so its tails ascend in any topological order
    net = diamond_net()
    for path in enumerate_paths(net).paths:
        edges = [net.edges[net.edge_index[eid]] for eid in path]
        visited = [e.tail for e in edges] + [edges[-1].head]
        assert visited[0] == "o" and visited[-1] == "d"
        assert [e.head for e in edges[:-1]] == [e.tail for e in edges[1:]]
        assert len(set(visited)) == len(visited)


def test_adjacency_queries():
    # a path's rows hold its edges in order, so a pair's predecessor is the
    # previous row and its successor the next; only the end rows are flagged
    net = diamond_net()
    ps = enumerate_paths(net)
    for p, path in enumerate(ps.paths):
        rows = ps.path_rows[p]
        assert [net.edges[ps.pair_edge_idx[r]].id for r in rows] == list(path)
        assert ps.pair_path_idx[rows].tolist() == [p] * len(path)
        assert ps.first_mask[rows].tolist() == [True] + [False] * (len(path) - 1)
        assert ps.last_mask[rows].tolist() == [False] * (len(path) - 1) + [True]
    assert np.concatenate(ps.path_rows).tolist() == list(range(ps.pair_count))


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
