"""Path entry times, path costs, the logit response, and preference dynamics.

Path costs are accumulated forward along each path by following the policy:
the entry time of the next edge is the optimal arrival time of the current
one, and an agent that stops pays the remaining congestion integral plus the
distance penalty.  The noisy response splits the throughput across paths by
a softmax of the negated costs, and the preference trajectory solves the
proportional-correction dynamics in closed form, so no derivative of the
response is ever taken.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SimplexViolation
from .network import Network, PathSet
from .scenario import Scenario
from .value import EdgeCongestion, Policy


@dataclass(frozen=True)
class PathCostTable:
    """Cost per path and start node, plus per-pair entry nodes.

    ``entry_idx[r, i]`` is the grid node at which an agent that started the
    row's path at node ``i`` enters the row's edge; -1 once the agent has
    stopped on an earlier edge and never arrives.
    """

    costs: np.ndarray = field(repr=False)      # (n_paths, nodes)
    entry_idx: np.ndarray = field(repr=False)  # (pairs, nodes), int


@dataclass(frozen=True)
class PreferenceTrajectory:
    """Noisy response and the resulting path-preference trajectory."""

    response: np.ndarray = field(repr=False)  # (n_paths, nodes)
    z: np.ndarray = field(repr=False)


def entry_table(ps: PathSet, policy: Policy, n_nodes: int) -> np.ndarray:
    """Vectorized entry nodes for every pair and every path start node."""
    entry = np.empty((ps.pair_count, n_nodes), dtype=np.int64)
    start = np.arange(n_nodes)
    for rows in ps.path_rows:
        cur = start
        for r in rows:
            entry[int(r)] = cur
            nxt = policy.tau_idx[int(r), np.maximum(cur, 0)]
            cur = np.where(cur >= 0, nxt, -1)
    return entry


def path_costs(net: Network, ps: PathSet, scen: Scenario, cong: EdgeCongestion,
               policy: Policy) -> PathCostTable:
    """Accumulate edge costs along the policy for every path and start node.

    A traversed edge costs the kinetic term plus its congestion integral up
    to the arrival node; a stopped-on edge costs the congestion integral to
    the horizon plus alpha times the shortest remaining distance from its
    tail; edges never reached cost nothing.
    """
    grid = scen.grid
    n = grid.steps
    t = grid.nodes
    entry = entry_table(ps, policy, n + 1)
    costs = np.zeros((ps.n_paths, n + 1))
    for p, rows in enumerate(ps.path_rows):
        total = np.zeros(n + 1)
        for r in rows:
            r = int(r)
            e = int(ps.pair_edge_idx[r])
            length = float(net.lengths[e])
            phi = cong.phi_prefix[e]
            s = entry[r]
            s_safe = np.maximum(s, 0)
            tau = np.where(s >= 0, policy.tau_idx[r, s_safe], -1)
            tau_safe = np.maximum(tau, 0)
            moved = (s >= 0) & (tau >= 0)
            stopped = (s >= 0) & (tau < 0)
            with np.errstate(divide="ignore", invalid="ignore"):
                move_cost = (length * length) / (2.0 * (t[tau_safe] - t[s_safe])) \
                    + (phi[tau_safe] - phi[s_safe])
            stop_cost = (scen.alpha * float(net.dist_tail[e])) + (phi[n] - phi[s_safe])
            contrib = np.where(moved, move_cost, np.where(stopped, stop_cost, 0.0))
            total = total + contrib
        costs[p] = total
    return PathCostTable(costs=costs, entry_idx=entry)


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
                         nodes: np.ndarray, lam0: float,
                         tol: float = 1e-9) -> np.ndarray:
    """Closed-form preference trajectory for the correction dynamics.

    The offset from the response decays exponentially at rate ``eta``:
    z(t) = F(t) + (z0 - F(0)) * exp(-eta t).  Offsets sum to zero whenever
    z0 sums to the initial throughput, so the trajectory stays on the
    moving simplex.  Raises :class:`SimplexViolation` when it does not.
    """
    z0 = np.asarray(z0, dtype=float)
    total = float(z0.sum())
    if abs(total - lam0) > tol * max(1.0, abs(lam0)):
        raise SimplexViolation(
            f"z0 sums to {total!r}, expected initial throughput {lam0!r}")
    offset = z0 - response[:, 0]
    return response + offset[:, None] * np.exp(-eta * nodes)[None, :]


def build_preferences(net: Network, ps: PathSet, scen: Scenario,
                      cong: EdgeCongestion, policy: Policy
                      ) -> tuple[PathCostTable, PreferenceTrajectory]:
    """Pipeline stage: costs, logit response, and preference trajectory."""
    table = path_costs(net, ps, scen, cong, policy)
    response = logit_response(table.costs, scen.lam, scen.beta)
    z = preference_evolution(response, scen.z0, scen.eta, scen.grid.nodes,
                             float(scen.lam[0]))
    return table, PreferenceTrajectory(response=response, z=z)
