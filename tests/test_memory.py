"""Memory of a solve, counted in pair-sized arrays: (pairs, N+1) float64."""

from __future__ import annotations

import json
import tracemalloc

from mfroute import scenario_from_dict, solve

from conftest import SCENARIOS, WORKLOADS

# Across a map evaluation the solver holds 3 + 2 * (ANDERSON_DEPTH - 1) = 7
# pair-sized arrays: the pre-image, the previous pre-image and its residual,
# and two difference pairs.  psi adds its flows, its image and its per-suffix
# value and policy tables, and a stage a temporary or two; the residual takes
# none.  The solve peaks at 10.9 in integrate_mass; the bound leaves no room
# for a full-size temporary in the residual (11.4) or a copy of the tables.
PEAK_PAIR_ARRAYS = 11.25


def test_lattice_solve_peaks_below_bound():
    # 5x5 lattice: 70 paths, 560 pairs sharing 250 suffixes
    doc = json.loads((SCENARIOS / "diamond_default.json").read_text())
    doc["network"] = WORKLOADS.lattice_network(5, 1)
    doc["model"]["steps"] = 250
    doc["solver"]["tol"] = 1e-6
    net, ps, scen, grid = scenario_from_dict(doc)
    # the first solve builds the cached path groupings; the measured one
    # allocates only what a solve holds
    assert solve(net, ps, scen).converged
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        report = solve(net, ps, scen)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert report.converged
    pair_array = ps.pair_count * (grid.steps + 1) * 8
    assert peak / pair_array <= PEAK_PAIR_ARRAYS
