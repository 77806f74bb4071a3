"""Property tests on random small networks, scenarios and mass fields.

Each example draws a small acyclic multigraph, a short grid, a random mass
field below the mass bound, and speed limits or none.  One map evaluation
must then agree bit for bit with the per-pair reference loops, the value
tables must equal the exhaustive enumeration, and the conservation audit
must pass.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mfroute import MassField, apply_psi, compute_flows, path_costs
from mfroute.network import edge_totals
from mfroute.oracle import audit_conservation, check_value_tables

from conftest import (build, diamond_dict, reference_edge_totals, reference_flows,
                      reference_path_costs)

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
