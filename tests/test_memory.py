"""Memory of a solve, counted in pair-sized arrays: (pairs, N+1) float64."""

from __future__ import annotations

import json
import tracemalloc

from mfroute import integrate_mass, local_decision, scenario_from_dict, solve
from mfroute.flow import injection_terms
from mfroute.network import edge_totals

from conftest import SCENARIOS, WORKLOADS

# Across a map evaluation the solver holds 3 + 2 * (ANDERSON_DEPTH - 1) = 7
# pair-sized arrays: the pre-image, the previous pre-image and its residual,
# and two difference pairs.  psi adds its flows, its image and its per-suffix
# value and int32 policy tables; no stage holds a pair-sized temporary, and
# the residual takes none.  The solve peaks at 10.40 in integrate_mass, where
# the mass bound check adds the edge totals to the image; the bound leaves no
# room for a stage temporary of a tenth of a pair array.
PEAK_PAIR_ARRAYS = 10.45


def lattice(k: int):
    """The seeded k x k benchmark lattice under the default model at 250 steps."""
    doc = json.loads((SCENARIOS / "diamond_default.json").read_text())
    doc["network"] = WORKLOADS.lattice_network(k, 1)
    doc["model"]["steps"] = 250
    doc["solver"]["tol"] = 1e-6
    return scenario_from_dict(doc)


def traced_peak(f, *args):
    """``f(*args)`` and the tracemalloc peak of the call above its entry level."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = f(*args)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return result, peak


def test_lattice_solve_peaks_below_bound():
    # 5x5 lattice: 70 paths, 560 pairs sharing 250 suffixes
    net, ps, scen, grid = lattice(5)
    # the first solve builds the cached path groupings; the measured one
    # allocates only what a solve holds
    assert solve(net, ps, scen).converged
    report, peak = traced_peak(solve, net, ps, scen)
    assert report.converged
    pair_array = ps.pair_count * (grid.steps + 1) * 8
    assert peak / pair_array <= PEAK_PAIR_ARRAYS


def test_integrate_mass_holds_its_result_and_the_edge_totals():
    # 4x4 lattice: 120 pairs on 24 edges, so the edge totals weigh 0.2
    net, ps, scen, grid = lattice(4)
    psi = solve(net, ps, scen).psi
    inj = injection_terms(local_decision(psi.z)[:, :-1], scen.lam[:-1], grid.dt)
    (mass, _), peak = traced_peak(integrate_mass, ps, scen, psi.flows, inj, scen.rho0)
    assert mass.tobytes() == psi.mass.values.tobytes()
    pair_array = ps.pair_count * (grid.steps + 1) * 8
    assert peak / pair_array <= 1.25


def test_edge_totals_allocate_their_result_and_one_block():
    net, ps, scen, grid = lattice(4)
    mass = solve(net, ps, scen).mass.values
    totals, peak = traced_peak(edge_totals, ps, mass)
    assert peak <= totals.nbytes + 4096 * 8
