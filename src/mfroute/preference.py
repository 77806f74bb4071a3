"""Path costs along the policy, the logit response, and preference dynamics.

Path costs are accumulated forward along each path by following the policy:
the entry time of the next edge is the optimal arrival time of the current
one.  The walk prices only the moves; every stop is read from the value
tables, which hold the stay cost wherever the policy stays, so the stop rule
is stated once, in :mod:`mfroute.value`.  An edge entered at the horizon
after an earlier edge settles at the cheaper final value of that edge and
the one before, as the value tables continue an arrival at the final node.
The pairs are evaluated by path position, the k-th pair of every path with
more than k edges at once, with flat gathers from the per-suffix tables and
the congestion integrals; each path still adds its edges' costs left to
right from +0.0, and a path drops out once its edges run out, so the costs
have the bits of walking the paths one pair at a time.  The entry nodes of
position k + 1 are the arrival nodes found at position k.

The noisy response splits the throughput across paths by a softmax of the
negated costs, and the preference trajectory solves the proportional-
correction dynamics in closed form, so no derivative of the response is
ever taken.
"""

from __future__ import annotations

import numpy as np

from .errors import SimplexViolation
from .network import Network, PathSet
from .scenario import Z0_SUM_TOL, Scenario


def path_costs(net: Network, ps: PathSet, scen: Scenario, phi_prefix: np.ndarray,
               tau_idx: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Accumulate edge costs along the policy for every path and start node.

    ``values`` and ``tau_idx`` are the value tables and the policy, one row
    per path suffix, as :func:`value_backward` returns them under the
    congestion integrals ``phi_prefix``.  Returns one row per path and one
    column per start node.  A traversed edge costs the kinetic term plus its
    congestion integral up to the arrival node; a stopped-on edge costs its
    value at the entry node, which is the stay cost there; an edge entered at
    the final node after an earlier edge costs the cheaper of the two edges'
    final values; edges never reached cost nothing.
    """
    n = scen.grid.steps
    t = scen.grid.nodes
    pair_suffix = ps.suffix_table[1]
    tau_flat = tau_idx.ravel()
    value_flat = values.ravel()
    phi_flat = phi_prefix.ravel()
    # Accumulators in the longest-first path order of ps.rows_by_position:
    # the paths still present at a position are a leading block of rows.
    acc = np.zeros((ps.n_paths, n + 1))
    s = np.arange(n + 1)[None, :]
    # The previous edge's final value, +inf before a path's first edge.
    settle = np.full((ps.n_paths, 1), np.inf)
    for rows in ps.rows_by_position:
        e = ps.pair_edge_idx[rows]
        row_off = (pair_suffix[rows] * (n + 1))[:, None]
        edge_off = (e * (n + 1))[:, None]
        length = net.lengths[e][:, None]
        s = s[:rows.size]
        entered = s >= 0
        s_safe = np.maximum(s, 0)
        # widened from the int32 policy once here, not cast at every use below
        tau = np.where(entered, tau_flat[row_off + s_safe], np.intp(-1))
        tau_safe = np.maximum(tau, 0)
        moved = entered & (tau >= 0)
        stopped = entered & (tau < 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            move_cost = (length * length) / (2.0 * (t[tau_safe] - t[s_safe])) \
                + (phi_flat[edge_off + tau_safe] - phi_flat[edge_off + s_safe])
        stop_cost = value_flat[row_off + s_safe]
        np.minimum(stop_cost, settle[:rows.size], out=stop_cost, where=s == n)
        contrib = np.where(moved, move_cost, np.where(stopped, stop_cost, 0.0))
        acc[:rows.size] += contrib
        # the next edge is entered at this edge's arrival node
        s = tau
        settle = value_flat[row_off + n]
    costs = np.empty_like(acc)
    costs[ps.pair_path_idx[ps.rows_by_position[0]]] = acc
    return costs


def logit_response(costs: np.ndarray, lam: np.ndarray, beta: float) -> np.ndarray:
    """Split the throughput across paths by a softmax of the negated costs.

    The per-node minimum cost is subtracted before exponentiating, so the
    result depends only on cost differences (shift invariant) and never
    overflows for large ``beta``.
    """
    costs = np.asarray(costs, dtype=float)
    shifted = costs - costs.min(axis=0)[None, :]
    weights = np.exp(-beta * shifted)
    return (lam[None, :] * weights) / weights.sum(axis=0)[None, :]


def preference_evolution(response: np.ndarray, z0: np.ndarray, eta: float,
                         nodes: np.ndarray, lam0: float) -> np.ndarray:
    """Closed-form preference trajectory for the correction dynamics.

    The offset from the response decays exponentially at rate ``eta``:
    z(t) = F(t) + (z0 - F(0)) * exp(-eta t).  Offsets sum to zero whenever
    z0 sums to the initial throughput, so the trajectory stays on the
    moving simplex.  Raises :class:`SimplexViolation` when it does not, up to
    ``Z0_SUM_TOL`` relative to the throughput (absolute below 1).
    """
    z0 = np.asarray(z0, dtype=float)
    total = float(z0.sum())
    if abs(total - lam0) > Z0_SUM_TOL * max(1.0, abs(lam0)):
        raise SimplexViolation(
            f"z0 sums to {total!r}, expected initial throughput {lam0!r}")
    offset = z0 - response[:, 0]
    return response + offset[:, None] * np.exp(-eta * nodes)[None, :]


def build_preferences(net: Network, ps: PathSet, scen: Scenario,
                      phi_prefix: np.ndarray, tau_idx: np.ndarray, values: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pipeline stage: path costs, logit response and preference trajectory
    ``z``, each one row per path and one column per grid node."""
    costs = path_costs(net, ps, scen, phi_prefix, tau_idx, values)
    response = logit_response(costs, scen.lam, scen.beta)
    z = preference_evolution(response, scen.z0, scen.eta, scen.grid.nodes,
                             float(scen.lam[0]))
    return costs, response, z
