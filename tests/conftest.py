"""Shared fixtures: the diamond test network and scenario builders."""

from __future__ import annotations

import copy
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from mfroute import (MassField, apply_psi, congestion_total, scenario_from_dict,
                     value_backward)

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def _perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The benchmark's scenario generators and its stage tracer (perfbench is not
# a package).
WORKLOADS = _perfbench("workloads")
SPANS = _perfbench("spans")

DIAMOND_EDGES = [
    {"id": "e1", "tail": "o", "head": "v1", "length": 1.0, "capacity": 2.0},
    {"id": "e2", "tail": "o", "head": "v2", "length": 1.0, "capacity": 2.0},
    {"id": "e3", "tail": "v1", "head": "v2", "length": 1.0, "capacity": 2.0},
    {"id": "e4", "tail": "v1", "head": "d", "length": 1.0, "capacity": 2.0},
    {"id": "e5", "tail": "v2", "head": "d", "length": 1.0, "capacity": 2.0},
]


def diamond_dict(steps: int = 500, *, model: dict | None = None,
                 solver: dict | None = None, constrained: dict | None = None,
                 edges: list | None = None) -> dict:
    """Scenario document for the two-route-plus-shortcut diamond network."""
    doc = {
        "network": {
            "vertices": ["o", "v1", "v2", "d"],
            "edges": copy.deepcopy(edges if edges is not None else DIAMOND_EDGES),
            "origin": "o",
            "destination": "d",
        },
        "model": {
            "horizon": 10.0,
            "steps": steps,
            "alpha": 1.0,
            "beta": 1.0,
            "eta": 1.0,
            "rho_max": 20.0,
            "lambda": {"family": "constant", "value": 1.0},
            "phi": {"default": {"family": "linear", "coeff": 0.1}},
        },
        "solver": {"gamma": 0.5, "max_iter": 500},
    }
    if model:
        doc["model"].update(copy.deepcopy(model))
    if solver:
        doc["solver"].update(copy.deepcopy(solver))
    if constrained is not None:
        doc["constrained"] = copy.deepcopy(constrained)
    return doc


def lattice_dict(k, steps, constrained=None):
    """k x k lattice of right and down edges, corner to corner, lengths 0.9-1.1.

    Lengths cycle with the edge index, so at k = 3 suffixes of every depth
    mix two or three lengths and the value kernel's kinetic block changes
    length within a depth as well as between depths.
    """
    lengths = (0.9, 1.0, 1.1)
    edges = []
    for i in range(k):
        for j in range(k):
            for eid, head in ((f"r{i}{j}", (i, j + 1)), (f"d{i}{j}", (i + 1, j))):
                if max(head) < k:
                    edges.append({"id": eid, "tail": f"n{i}{j}",
                                  "head": f"n{head[0]}{head[1]}",
                                  "length": lengths[len(edges) % 3], "capacity": 2.0})
    doc = diamond_dict(steps=steps, edges=edges, constrained=constrained)
    doc["network"].update(vertices=[f"n{i}{j}" for i in range(k) for j in range(k)],
                          origin="n00", destination=f"n{k - 1}{k - 1}")
    return doc


def chain_dict(n_edges, steps):
    """A single route of ``n_edges`` edges of length 0.01 each."""
    edges = [{"id": f"e{i}", "tail": f"v{i}", "head": f"v{i + 1}", "length": 0.01,
              "capacity": 2.0} for i in range(n_edges)]
    doc = diamond_dict(steps=steps, edges=edges)
    doc["network"].update(vertices=[f"v{i}" for i in range(n_edges + 1)],
                          origin="v0", destination=f"v{n_edges}")
    return doc


def detour_parallel_dict(steps, constrained=None):
    """Parallel edges on both routes, and a detour whose head is farther from
    the destination than its tail.  The paths are (e0), (e1, e2), (e1b, e2)
    and (e3): the one-edge routes come before and after the longer ones and
    drop out after the first path position."""
    edges = [{"id": "e0", "tail": "o", "head": "d", "length": 1.0, "capacity": 2.0},
             {"id": "e1", "tail": "o", "head": "a", "length": 1.0, "capacity": 2.0},
             {"id": "e1b", "tail": "o", "head": "a", "length": 0.8, "capacity": 2.0},
             {"id": "e2", "tail": "a", "head": "d", "length": 3.0, "capacity": 2.0},
             {"id": "e3", "tail": "o", "head": "d", "length": 1.2, "capacity": 2.0}]
    doc = diamond_dict(steps=steps, edges=edges, constrained=constrained)
    doc["network"]["vertices"] = ["o", "a", "d"]
    return doc


# Speed-limit presets: limits so loose that the arrival floors never bind,
# and limits that bind on the diamond's congested edges.
SLACK = {"enabled": True, "u": {"default": {"family": "reciprocal", "coeff": 1000.0}}}
TIGHT = {"enabled": True, "u": {"default": {"family": "reciprocal", "coeff": 0.4}}}


def varied_limits(edge_id: str) -> dict:
    """Speed limits under which edge ``edge_id`` is slower than the others,
    so the per-edge flow delays differ."""
    return {"enabled": True,
            "u": {"default": {"family": "reciprocal", "coeff": 0.4},
                  "per_edge": {edge_id: {"family": "reciprocal", "coeff": 0.15}}}}


# Documents on which the stages evaluated by path position or by edge
# occurrence are compared with the per-pair reference loops below: paths of
# unequal length (diamond: 3, 2 and 2 edges; detour: 1, 2, 2 and 1), parallel
# edges, an edge on three paths (lattice), and per-edge delays.
STAGE_DOCS = {
    "diamond": diamond_dict(steps=24),
    "detour-parallel": detour_parallel_dict(24),
    "lattice-3x3": lattice_dict(3, steps=24),
    "diamond-constrained": diamond_dict(steps=24, constrained=varied_limits("e1")),
    "lattice-3x3-constrained": lattice_dict(3, steps=24, constrained=varied_limits("r00")),
}


def per_cell_csv(grid, headers, tables) -> str:
    """The CSV exporter as first written, one formatted cell at a time: the
    reference for ``csvtext._write_csv``, which takes the tokens of the grid's
    times where this takes the grid, and arrival nodes where this takes
    arrival times."""
    def fmt(x):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.17g}"

    columns = [column for table in tables for column in table]
    lines = ["t," + ",".join(headers)]
    for i, t in enumerate(grid.nodes):
        lines.append(",".join([fmt(float(t))] + [fmt(float(c[i])) for c in columns]))
    return "\n".join(lines) + "\n"


def build(doc: dict):
    return scenario_from_dict(doc)


def row(ps, edge_id: str, p: int) -> int:
    """Row of the (edge, path) pair of edge ``edge_id`` on path ``p``."""
    return int(ps.path_rows[p][ps.paths[p].index(edge_id)])


def reference_paths(net) -> list[tuple[str, ...]]:
    """Origin-destination paths by a recursive depth-first walk that tries
    out-edges in edge-id order; :func:`mfroute.enumerate_paths` must list
    the same paths in the same order."""
    out_sorted = {v: sorted((e for e in net.edges if e.tail == v), key=lambda e: e.id)
                  for v in net.vertices}
    paths: list[tuple[str, ...]] = []
    stack: list[str] = []

    def walk(v: str) -> None:
        if v == net.destination:
            paths.append(tuple(stack))
            return
        for e in out_sorted[v]:
            stack.append(e.id)
            walk(e.head)
            stack.pop()

    walk(net.origin)
    return paths


def stage_inputs(doc: dict, seed: int = 5):
    """Scenario objects and one map evaluation from a random admissible mass."""
    net, ps, scen, grid = build(doc)
    mass = admissible_mass(np.random.default_rng(seed), ps, scen)
    return net, ps, scen, mass, apply_psi(net, ps, scen, mass)


def reference_path_costs(net, ps, scen, phi_prefix, tau_idx):
    """Path costs and entry nodes by the per-pair loops, path after path,
    from the policy ``tau_idx`` with one row per pair.

    Returns ``(costs, entry)``: :func:`mfroute.path_costs` must give the same
    bits as ``costs``, and ``entry[r, i]`` is the node at which an agent that
    started row r's path at node i enters row r's edge, -1 once it stopped
    on an earlier edge.
    """
    n = scen.grid.steps
    t = scen.grid.nodes
    entry = np.empty((ps.pair_count, n + 1), dtype=np.int64)
    for rows in ps.path_rows:
        cur = np.arange(n + 1)
        for r in rows:
            entry[int(r)] = cur
            nxt = tau_idx[int(r), np.maximum(cur, 0)]
            cur = np.where(cur >= 0, nxt, -1)
    costs = np.zeros((ps.n_paths, n + 1))
    for p, rows in enumerate(ps.path_rows):
        total = np.zeros(n + 1)
        for r in rows:
            r = int(r)
            e = int(ps.pair_edge_idx[r])
            length = float(net.lengths[e])
            phi = phi_prefix[e]
            s = entry[r]
            s_safe = np.maximum(s, 0)
            tau = np.where(s >= 0, tau_idx[r, s_safe], -1)
            tau_safe = np.maximum(tau, 0)
            moved = (s >= 0) & (tau >= 0)
            stopped = (s >= 0) & (tau < 0)
            with np.errstate(divide="ignore", invalid="ignore"):
                move_cost = (length * length) / (2.0 * (t[tau_safe] - t[s_safe])) \
                    + (phi[tau_safe] - phi[s_safe])
            left = length if ps.last_mask[r] else float(net.dist_tail[e])
            stop_cost = (scen.alpha * left) + (phi[n] - phi[s_safe])
            contrib = np.where(moved, move_cost, np.where(stopped, stop_cost, 0.0))
            total = total + contrib
        costs[p] = total
    return costs, entry


def reference_flows(ps, tau_idx, shares, lam, k_idx_edges) -> np.ndarray:
    """Delayed flows by the per-pair loop, path after path, from the policy
    ``tau_idx`` with one row per pair."""
    n_nodes = lam.shape[0]
    moving = tau_idx >= 0
    f = np.zeros((ps.pair_count, n_nodes))
    for rows in ps.path_rows:
        for pos, r in enumerate(rows):
            r = int(r)
            ke = int(k_idx_edges[ps.pair_edge_idx[r]])
            m = n_nodes - ke
            gate = moving[r, :m].astype(float)
            if pos == 0:
                f[r, ke:] = (lam[:m] * shares[ps.pair_path_idx[r], :m]) * gate
            else:
                f[r, ke:] = f[r - 1, :m] * gate
    return f


def reference_edge_totals(ps, pair_values):
    """Per-edge sums by unbuffered in-place addition of every pair in row order."""
    totals = np.zeros((int(ps.pair_edge_idx.max()) + 1, pair_values.shape[1]))
    np.add.at(totals, ps.pair_edge_idx, pair_values)
    return totals


def by_pair(ps, table, tau_idx):
    """Value table and policy with one row per path suffix, as
    :func:`mfroute.value_backward` returns them, gathered to one row per pair."""
    pair_suffix = ps.suffix_table[1]
    return table[pair_suffix], tau_idx[pair_suffix]


def value_stage(net, ps, scen, mass, arrival_floor=None):
    """A mass field's congestion integrals, and the value tables and policy
    ``tau_idx`` under them, one row per pair."""
    _, phi_prefix = congestion_total(ps, scen, mass.values)
    table, tau_idx = by_pair(ps, *value_backward(net, ps, scen, phi_prefix, arrival_floor))
    return phi_prefix, table, tau_idx


def arrival_times(grid, tau_idx):
    """Arrival time per pair and entry node, +inf where the policy stays."""
    return np.where(tau_idx >= 0, grid.nodes[np.maximum(tau_idx, 0)], np.inf)


def speeds(net, ps, grid, tau_idx):
    """Constant traversal speed per pair and entry node, 0 where the policy
    stays: the edge length over the travel time."""
    lengths = net.lengths[ps.pair_edge_idx][:, None]
    return np.where(tau_idx >= 0,
                    lengths / (arrival_times(grid, tau_idx) - grid.nodes[None, :]), 0.0)


def zero_mass(ps, grid) -> MassField:
    return MassField(values=np.zeros((ps.pair_count, grid.steps + 1)))


def admissible_mass(rng: np.random.Generator, ps, scen) -> MassField:
    """Random trajectory inside the admissible set: nonnegative, per-edge
    totals at most half the mass bound, per-pair difference quotients within
    the Lipschitz bound."""
    n = scen.grid.steps
    pairs_per_edge = np.bincount(ps.pair_edge_idx,
                                 minlength=int(ps.pair_edge_idx.max()) + 1)
    cap = scen.rho_max / (2.0 * pairs_per_edge[ps.pair_edge_idx])
    step = scen.lipschitz_bound * scen.grid.dt
    values = np.empty((ps.pair_count, n + 1))
    values[:, 0] = rng.uniform(0.0, cap / 2.0)
    for i in range(n):
        bump = rng.uniform(-1.0, 1.0, size=ps.pair_count) * step
        # clipping to the box shrinks increments, preserving the quotient bound
        values[:, i + 1] = np.clip(values[:, i] + bump, 0.0, cap)
    return MassField(values=values)


@pytest.fixture
def diamond():
    """Default diamond scenario at a coarse grid for fast unit tests."""
    return build(diamond_dict(steps=100))


@pytest.fixture
def write_scenario(tmp_path):
    def _write(doc: dict, name: str = "scenario.json") -> Path:
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    return _write
