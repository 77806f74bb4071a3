"""Scenario generators for the benchmark workloads.

Each workload is a scenario document that the benchmark writes to disk, so
the solver reads it through ``load_scenario`` exactly as it reads a user
file.  The diamond workloads are fixed networks and ignore the seed; the
lattice draws its edge lengths from the seed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Lengths drawn for lattice edges.  A wider set such as {0.5, 1, 1.5}, or a
# grid of 200 steps or fewer, makes a 5x5 lattice oscillate without
# converging on some seeds, so the set stays narrow and the grid at 250 steps.
LATTICE_LENGTHS = (0.9, 1.0, 1.1)


def lattice_network(k: int, seed: int) -> dict:
    """Network section of a k x k lattice with right and down edges.

    Vertex ``n{i}_{j}`` sits in row i, column j; the origin is the top-left
    corner and the destination the bottom-right one, so every path has
    2(k - 1) edges and there are C(2(k - 1), k - 1) of them.
    """
    rng = random.Random(seed)

    def vertex(i: int, j: int) -> str:
        return f"n{i}_{j}"

    edges = []
    for i in range(k):
        for j in range(k):
            if j + 1 < k:
                edges.append({"id": f"r{i}_{j}", "tail": vertex(i, j),
                              "head": vertex(i, j + 1),
                              "length": rng.choice(LATTICE_LENGTHS), "capacity": 2.0})
            if i + 1 < k:
                edges.append({"id": f"d{i}_{j}", "tail": vertex(i, j),
                              "head": vertex(i + 1, j),
                              "length": rng.choice(LATTICE_LENGTHS), "capacity": 2.0})
    return {"vertices": [vertex(i, j) for i in range(k) for j in range(k)],
            "edges": edges, "origin": vertex(0, 0), "destination": vertex(k - 1, k - 1)}


def _diamond_fine(root: Path, seed: int) -> dict:
    # The dense (N+1)^2 value kernel at large N with only 7 pairs.
    doc = json.loads((root / "scenarios" / "diamond_default.json").read_text())
    doc["model"]["steps"] = 1500
    doc["solver"]["tol"] = 1e-6
    return doc


def _lattice_4x4(root: Path, seed: int) -> dict:
    # Many small kernels: 24 edges, 20 paths, 120 pairs, 68 distinct suffixes.
    # A 5x5 lattice (560 pairs) takes about 6 s a solve, too few solves per
    # run for a steady median on a noisy machine.
    doc = json.loads((root / "scenarios" / "diamond_default.json").read_text())
    doc["network"] = lattice_network(4, seed)
    doc["model"]["steps"] = 250
    doc["solver"]["tol"] = 1e-6
    return doc


def _diamond_constrained(root: Path, seed: int) -> dict:
    # The shipped file unchanged: speed limits, stepwise clipping, 76 iterations.
    return json.loads((root / "scenarios" / "diamond_constrained.json").read_text())


WORKLOADS = {
    "diamond-fine": _diamond_fine,
    "lattice-4x4": _lattice_4x4,
    "diamond-constrained": _diamond_constrained,
}


def write_scenario(name: str, root: Path, seed: int, path: Path) -> Path:
    """Generate workload ``name`` for ``seed`` and write it to ``path``."""
    doc = WORKLOADS[name](root, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path
