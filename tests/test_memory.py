"""Memory of a solve, counted in pair-sized arrays: (pairs, N+1) float64."""

from __future__ import annotations

import json
import tracemalloc
import weakref

import numpy as np
import pytest

import mfroute.csvtext as csvtext
import mfroute.flow as flow
from mfroute import (apply_psi, congestion_total, integrate_mass, local_decision,
                     scenario_from_dict, solve, value_backward, verify_X_membership)
from mfroute.cli import _export_stages
from mfroute.flow import injection_terms
from mfroute.network import edge_totals

from conftest import (ROOT, SCENARIOS, TIGHT, WORKLOADS, admissible_mass, diamond_dict,
                      zero_mass)

# Across a map evaluation the solver holds 3 + 2 * (ANDERSON_DEPTH - 1) = 7
# pair-sized arrays: the pre-image, the previous pre-image and its residual,
# and two difference pairs.  psi adds its flows, its image, its per-suffix
# value and int32 policy tables and the congestion integrals; no stage holds
# a pair-sized temporary, and the residual takes none.  The solve peaks at
# 10.33 in integrate_mass, where the mass bound check adds the edge totals to
# the image; the bound leaves no room for a stage temporary of a tenth of a
# pair array.
PEAK_PAIR_ARRAYS = 10.35


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


@pytest.mark.parametrize("workload", ["lattice-4x4", "diamond-fine"])
def test_membership_check_holds_no_pair_array(workload):
    # the edge totals (0.2 and 0.71 pair arrays here) and the sup norm's
    # 4096-cell block; a difference array of the mass would add one more
    net, ps, scen, grid = scenario_from_dict(WORKLOADS.WORKLOADS[workload](ROOT, 1))
    report = solve(net, ps, scen)
    member, peak = traced_peak(verify_X_membership, report.mass, scen, ps)
    assert member == report.membership
    assert peak < ps.pair_count * (grid.steps + 1) * 8


def test_value_stage_holds_two_blocks_the_mask_and_interior_rows():
    # diamond-fine: 1500 steps, 6 suffixes, 3 of them interior, on e1, e2, e3
    doc = WORKLOADS.WORKLOADS["diamond-fine"](ROOT, 1)
    net, ps, scen, grid = scenario_from_dict(doc)
    _, phi_prefix = congestion_total(ps, scen, solve(net, ps, scen).mass.values)
    (values, tau_idx), peak = traced_peak(value_backward, net, ps, scen, phi_prefix)
    n = grid.steps
    row = (n + 1) * 8
    interior_edges = {e for e, succ in ps.suffix_table[0] if succ >= 0}
    assert len(interior_edges) == 3 < len(net.edges)
    # The dense kernel held, beside the outputs, a kinetic and a candidate
    # block of 21 rows of 1500 cells (31,500 cells), their mask, the
    # reversed congestion rows of the interior-suffix edges and five
    # vectors of N + 1.  The search's chunks, row batches and per-depth
    # tables stay within the same bytes.
    block_cells = (32768 // (n + 1)) * n
    assert block_cells == 31_500
    assert peak <= (values.nbytes + tau_idx.nbytes + 2 * block_cells * 8 + block_cells
                    + len(interior_edges) * row + 5 * row)


def test_export_peaks_below_the_solve(tmp_path):
    # diamond-fine: the six stage files hold the grid's time tokens, made
    # once, and one row block's tokens and text at a time, so exporting a
    # solve's result never lifts the command's peak above the solve's
    doc = WORKLOADS.WORKLOADS["diamond-fine"](ROOT, 1)
    net, ps, scen, grid = scenario_from_dict(doc)
    solve(net, ps, scen)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        report = solve(net, ps, scen)
        solve_peak = tracemalloc.get_traced_memory()[1] - start
        tracemalloc.reset_peak()
        _export_stages(tmp_path, grid, ps, report.psi, report.mass)
        export_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert export_peak < solve_peak


def test_export_of_one_block_files_holds_no_token_pair_past_them(tmp_path, monkeypatch):
    # diamond-constrained: 500 steps, so every stage file is one row block,
    # which no block after it reads; the export peaks as high as one that
    # reuses no tokens does, where a kept pair of the block's distinct bits
    # and tokens would add 16 bytes a distinct value (43 KB here)
    doc = WORKLOADS.WORKLOADS["diamond-constrained"](ROOT, 1)
    net, ps, scen, grid = scenario_from_dict(doc)
    assert grid.steps + 1 <= csvtext._BLOCK_CELLS // (1 + ps.pair_count)
    report = solve(net, ps, scen)
    args = (tmp_path, grid, ps, report.psi, report.mass)
    _export_stages(*args)  # the first export's one-off allocations
    _, peak = traced_peak(_export_stages, *args)
    real = csvtext._tokens
    monkeypatch.setattr(csvtext, "_tokens", lambda block, held=None: real(block))
    _, alone = traced_peak(_export_stages, *args)
    assert peak <= alone + 4096


def test_value_stage_of_one_edge_paths_allocates_no_block_buffers():
    # three parallel o -> d edges: every suffix is a last edge
    edges = [{"id": f"e{i}", "tail": "o", "head": "d", "length": 1.0 + 0.5 * i,
              "capacity": 2.0} for i in range(3)]
    doc = diamond_dict(steps=1500, edges=edges)
    doc["network"]["vertices"] = ["o", "d"]
    net, ps, scen, grid = scenario_from_dict(doc)
    mass = admissible_mass(np.random.default_rng(3), ps, scen)
    _, phi_prefix = congestion_total(ps, scen, mass.values)
    (values, tau_idx), peak = traced_peak(value_backward, net, ps, scen, phi_prefix)
    assert (tau_idx[:, :-1] >= 0).any()
    # the outputs, then O(N) rows only: a last edge's candidate row, its
    # congestion difference and row masks (2.11 rows measured), where one
    # value table here is three rows and one block buffer 31,500 cells
    row = (grid.steps + 1) * 8
    assert peak <= values.nbytes + tau_idx.nbytes + 2.25 * row


@pytest.mark.parametrize("constrained", [None, TIGHT], ids=["free", "speed-limited"])
def test_apply_psi_holds_no_edge_totals_in_the_value_stage(monkeypatch, constrained):
    net, ps, scen, grid = scenario_from_dict(diamond_dict(steps=60, constrained=constrained))
    totals = []
    alive = []

    def congestion(*args):
        result = congestion_total(*args)
        totals.append(weakref.ref(result[0]))
        return result

    def value_stage(*args):
        alive.append(totals[-1]() is not None)
        return value_backward(*args)

    monkeypatch.setattr(flow, "congestion_total", congestion)
    monkeypatch.setattr(flow, "value_backward", value_stage)
    for mass in (zero_mass(ps, grid), admissible_mass(np.random.default_rng(7), ps, scen)):
        apply_psi(net, ps, scen, mass)
    assert alive == [False, False]
