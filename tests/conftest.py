"""Shared fixtures: the diamond test network and scenario builders."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from mfroute import MassField, scenario_from_dict

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


def build(doc: dict):
    return scenario_from_dict(doc)


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
