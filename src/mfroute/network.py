"""Directed acyclic multigraph with a single origin-destination pair.

:func:`build_network` validates the routing graph and derives, in one
topological order, what the solver reads of it: reachability from the
origin, the shortest distance from every edge tail to the destination
(which sets the stay penalty), and the edge arrays.
:func:`enumerate_paths` lists every origin-destination path and lays out
the (edge, path) pairs along them.  Neither recurses, so a route of any
length builds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import BadEdge, CycleDetected, TooManyPaths, Unreachable

DEFAULT_PATH_LIMIT = 10_000


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str
    length: float
    capacity: float


@dataclass(frozen=True)
class Network:
    """Validated acyclic multigraph in which every vertex lies on a route.

    Edges keep their input order; ``edge_index`` maps an edge id to that
    order, which indexes ``lengths``, ``capacities`` and ``dist_tail``.
    ``dist_tail`` is the shortest distance from each edge's tail to the
    destination.  Built by :func:`build_network`; instances are immutable
    and safe to share between threads.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    origin: str
    destination: str
    edge_index: dict[str, int] = field(repr=False)
    lengths: np.ndarray = field(repr=False)
    capacities: np.ndarray = field(repr=False)
    dist_tail: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class PathSet:
    """All simple origin-destination paths, in lexicographic edge-id order.

    Trajectory arrays elsewhere in the package have one row per (edge, path)
    pair, laid out path-major: the pairs of path 0 come first, in edge
    order, then the pairs of path 1, and so on.  With this layout the
    predecessor pair of a non-first edge is always the previous row, which
    the flow and conservation code relies on.  ``pair_edge_idx`` and
    ``pair_path_idx`` give each row's edge index and path, ``first_mask``
    and ``last_mask`` flag the rows that start and end a path, and
    ``path_rows[p]`` lists the rows of path p.  Built by
    :func:`enumerate_paths`.
    """

    paths: tuple[tuple[str, ...], ...]
    pair_count: int
    pair_edge_idx: np.ndarray = field(repr=False)  # (pairs,)
    pair_path_idx: np.ndarray = field(repr=False)
    first_mask: np.ndarray = field(repr=False)
    last_mask: np.ndarray = field(repr=False)
    path_rows: tuple[np.ndarray, ...] = field(repr=False)

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    # The groupings below depend on the paths only.  They are derived on
    # first use, by the first map evaluation, not by enumerate_paths, so
    # loading a scenario does not pay for them.

    @cached_property
    def rows_by_position(self) -> tuple[np.ndarray, ...]:
        """Rows of the k-th pair of every path with more than k edges, per k.

        Paths are listed longest first, ties in path order, so the paths
        present at position k + 1 are a prefix of those at position k.
        """
        rows = sorted(self.path_rows, key=len, reverse=True)
        return tuple(np.array([r[k] for r in rows if len(r) > k], dtype=np.int64)
                     for k in range(len(rows[0])))

    @cached_property
    def suffix_table(self) -> tuple[tuple[tuple[int, int], ...], np.ndarray]:
        """Distinct path suffixes in dependency order, and each pair's suffix.

        A suffix is its first edge plus the suffix that follows it (-1 after
        the last edge), so it is listed after its successor.  Returns the
        (edge index, successor suffix) tuple and the suffix index of every
        pair.
        """
        index: dict[tuple[int, int], int] = {}
        pair_suffix = np.empty(self.pair_count, dtype=np.intp)
        for rows in self.path_rows:
            succ = -1
            for r in rows[::-1]:
                key = (int(self.pair_edge_idx[r]), succ)
                succ = index.setdefault(key, len(index))
                pair_suffix[r] = succ
        return tuple(index), pair_suffix


def edge_totals(ps: PathSet, pair_values: np.ndarray) -> np.ndarray:
    """Sum per-pair rows into one row per edge, adding pairs in row order.

    Each edge's total starts from +0.0 and adds its pairs' rows one at a
    time in row order, each in place into the edge's row, so the function
    allocates nothing beside its result.
    """
    totals = np.zeros((int(ps.pair_edge_idx.max()) + 1, pair_values.shape[1]))
    for e, row in zip(ps.pair_edge_idx.tolist(), pair_values):
        total = totals[e]
        total += row
    return totals


def build_network(vertices: Sequence[str], edges: Sequence[dict], origin: str,
                  destination: str) -> Network:
    """Validate the graph data and return an immutable :class:`Network`.

    ``edges`` are the scenario's edge objects, each with the keys ``id``,
    ``tail``, ``head``, ``length`` and ``capacity``.  Ids are used as
    given; the scenario parser admits only non-empty strings.  Raises
    :class:`BadEdge` for malformed edges, :class:`CycleDetected` if a
    topological order does not exist, and :class:`Unreachable` if some
    vertex is not on an origin-to-destination route.
    """
    vertices = tuple(vertices)
    if len(set(vertices)) != len(vertices):
        raise BadEdge("duplicate vertex ids")
    vset = set(vertices)
    parsed = tuple(Edge(e["id"], e["tail"], e["head"],
                        float(e["length"]), float(e["capacity"])) for e in edges)
    seen_ids: set[str] = set()
    for e in parsed:
        if e.id in seen_ids:
            raise BadEdge(f"duplicate edge id {e.id!r}")
        seen_ids.add(e.id)
        if e.tail not in vset or e.head not in vset:
            raise BadEdge(f"edge {e.id!r} references undeclared vertex")
        if e.tail == e.head:
            raise BadEdge(f"edge {e.id!r} is a self-loop")
        if not (np.isfinite(e.length) and e.length > 0.0):
            raise BadEdge(f"edge {e.id!r} has nonpositive or non-finite length")
        if not (np.isfinite(e.capacity) and e.capacity > 0.0):
            raise BadEdge(f"edge {e.id!r} has nonpositive or non-finite capacity")
    if origin not in vset or destination not in vset:
        raise BadEdge("origin or destination is not a declared vertex")
    if origin == destination:
        raise Unreachable("origin equals destination; no acyclic route exists")

    out_edges: dict[str, list[Edge]] = {v: [] for v in vertices}
    remaining = {v: 0 for v in vertices}  # in-degree not yet removed
    for e in parsed:
        out_edges[e.tail].append(e)
        remaining[e.head] += 1

    # Kahn's algorithm; a leftover vertex means a directed cycle.
    queue = deque(v for v in vertices if remaining[v] == 0)
    topo: list[str] = []
    while queue:
        v = queue.popleft()
        topo.append(v)
        for e in out_edges[v]:
            remaining[e.head] -= 1
            if remaining[e.head] == 0:
                queue.append(e.head)
    if len(topo) != len(vertices):
        stuck = sorted(v for v in vertices if remaining[v] > 0)
        raise CycleDetected(f"directed cycle through {stuck}")

    # Every predecessor of a vertex comes before it in topological order,
    # so one forward sweep settles reachability from the origin.
    reached = {origin}
    for v in topo:
        if v in reached:
            reached.update(e.head for e in out_edges[v])
    if reached != vset:
        missing = sorted(vset - reached)
        raise Unreachable(f"not reachable from origin {origin!r}: {missing}")

    # Shortest distance to the destination by relaxation in reverse
    # topological order; lengths are positive, so no negative cycles.  A
    # vertex gets a distance exactly when it reaches the destination.
    dist = {destination: 0.0}
    for v in reversed(topo):
        for e in out_edges[v]:
            if e.head in dist:
                cand = e.length + dist[e.head]
                if v not in dist or cand < dist[v]:
                    dist[v] = cand
    if len(dist) != len(vertices):
        missing = sorted(vset - dist.keys())
        raise Unreachable(f"destination {destination!r} not reachable from: {missing}")

    return Network(vertices=vertices, edges=parsed, origin=origin,
                   destination=destination,
                   edge_index={e.id: i for i, e in enumerate(parsed)},
                   lengths=np.array([e.length for e in parsed], dtype=float),
                   capacities=np.array([e.capacity for e in parsed], dtype=float),
                   dist_tail=np.array([dist[e.tail] for e in parsed], dtype=float))


def enumerate_paths(net: Network, limit: int = DEFAULT_PATH_LIMIT) -> PathSet:
    """Enumerate every origin-destination path by depth-first search.

    The walk keeps an explicit stack of out-edge iterators, one per vertex
    on the current path, and tries out-edges in edge-id order, so the path
    list is lexicographic in the edge-id sequences regardless of input edge
    order.  Raises :class:`TooManyPaths` when more than ``limit`` paths
    exist.
    """
    out_sorted: dict[str, list[Edge]] = {v: [] for v in net.vertices}
    for e in sorted(net.edges, key=lambda e: e.id):
        out_sorted[e.tail].append(e)

    paths: list[tuple[str, ...]] = []
    walk: list[str] = []  # edge ids from the origin to the top of the stack
    stack = [iter(out_sorted[net.origin])]
    while stack:
        e = next(stack[-1], None)
        if e is None:  # every way on from here is explored: back up one edge
            stack.pop()
            if walk:
                walk.pop()
        elif e.head == net.destination:
            if len(paths) >= limit:
                raise TooManyPaths(f"more than {limit} origin-destination paths")
            paths.append((*walk, e.id))
        else:
            walk.append(e.id)
            stack.append(iter(out_sorted[e.head]))

    pair_edge = np.array([net.edge_index[eid] for path in paths for eid in path],
                         dtype=np.int64)
    lengths = [len(path) for path in paths]
    pair_path = np.repeat(np.arange(len(paths), dtype=np.int64), lengths)
    offsets = np.cumsum([0] + lengths, dtype=np.int64)
    first_mask = np.zeros(len(pair_edge), dtype=bool)
    first_mask[offsets[:-1]] = True
    last_mask = np.zeros(len(pair_edge), dtype=bool)
    last_mask[offsets[1:] - 1] = True
    path_rows = tuple(np.arange(offsets[p], offsets[p + 1]) for p in range(len(paths)))

    return PathSet(paths=tuple(paths), pair_count=len(pair_edge),
                   pair_edge_idx=pair_edge, pair_path_idx=pair_path,
                   first_mask=first_mask, last_mask=last_mask,
                   path_rows=path_rows)
