"""Mass-dependent speed limits and the arrival-time-constrained solver mode.

When an edge is congested the admissible traversal speed drops, so an agent
entering at time t cannot arrive at the edge head before the time at which
the integrated speed limit covers the edge length.  The value minimization
then runs over arrival nodes no earlier than that minimal arrival time, and
the flow delay of each edge is enlarged to its mean constrained traverse
time when that exceeds the a-priori constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import Network
from .scenario import Scenario, SpeedLimit, TimeGrid, prefix_integral


def build_speed_limits(net: Network, scen: Scenario) -> tuple[SpeedLimit, ...]:
    """The speed limits the scenario built at load, in edge order."""
    return tuple(scen.constrained.limits[e.id] for e in net.edges)


@dataclass(frozen=True)
class ArrivalConstraint:
    """Minimal arrival times per edge under the current mass field.

    ``floor_idx[e, i]`` is the earliest admissible arrival node for an entry
    at node i, the first node not before the earliest head-arrival time
    (values past the last node mean the edge cannot be finished in time and
    the moving branch is infeasible).  ``tau_bar`` is the mean constrained
    traverse time and ``k_idx`` the per-edge flow delay in grid steps after
    combining it with the a-priori constant; the delay in time, ktilde, is
    ``k_idx * grid.dt``.
    """

    floor_idx: np.ndarray = field(repr=False)  # (n_edges, nodes), int
    tau_bar: np.ndarray = field(repr=False)    # (n_edges,)
    k_idx: np.ndarray = field(repr=False)      # (n_edges,), int


def min_arrival(grid: TimeGrid, length: float, edge_mass: np.ndarray,
                limit: SpeedLimit, eps_rho: float) -> np.ndarray:
    """Earliest head-arrival time for every entry node.

    The admissible speed is the limit applied to the total edge mass floored
    at ``eps_rho`` (the limit families are defined for positive mass only).
    Arrival is where the prefix integral of the speed gains one edge length,
    located by monotone search with linear interpolation inside the final
    step; entries whose integral falls short of the horizon extrapolate at
    the terminal speed, yielding a finite time beyond the horizon.
    """
    speeds = np.asarray(limit(np.maximum(edge_mass, eps_rho)), dtype=float)
    psi = prefix_integral(speeds, grid)
    targets = psi + length
    j = np.searchsorted(psi, targets, side="left")
    inside = j <= grid.steps
    j_hi = np.minimum(j, grid.steps)
    j_lo = np.maximum(j_hi - 1, 0)
    seg = psi[j_hi] - psi[j_lo]
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = (targets - psi[j_lo]) / seg
    tau_inside = grid.nodes[j_lo] + frac * grid.dt
    tau_beyond = grid.horizon + (targets - psi[grid.steps]) / speeds[grid.steps]
    return np.where(inside, tau_inside, tau_beyond)


def mean_traverse_and_delay(tau: np.ndarray, scen: Scenario
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Mean constrained traverse time per edge and the resulting flow delays.

    The mean is the time average of (arrival - entry) over the horizon,
    extrapolated values included.  Each edge's delay is the larger of the
    a-priori constant and that mean, capped at ``cap_frac`` of the horizon
    and rounded to a grid multiple; it is returned in grid steps, ``k_idx``,
    and is ``k_idx * grid.dt`` in time.
    """
    grid = scen.grid
    excess = tau - grid.nodes[None, :]
    tau_bar = prefix_integral(excess, grid)[:, -1] / grid.horizon
    cap = scen.constrained.cap_frac * grid.horizon
    ktilde = np.minimum(np.maximum(scen.k, tau_bar), cap)
    k_idx = np.floor(ktilde / grid.dt + 0.5).astype(np.int64)
    k_idx = np.clip(k_idx, 1, grid.steps)
    return tau_bar, k_idx


def arrival_tables(net: Network, scen: Scenario, totals: np.ndarray,
                   limits: tuple[SpeedLimit, ...]) -> ArrivalConstraint:
    """Minimal-arrival tables for every edge under its edge totals' row."""
    grid = scen.grid
    eps_rho = scen.constrained.eps_rho_rel * scen.rho_max
    n_edges = len(net.edges)
    tau = np.empty((n_edges, grid.steps + 1))
    for e in range(n_edges):
        tau[e] = min_arrival(grid, float(net.lengths[e]), totals[e],
                             limits[e], eps_rho)
    # Snap to the grid: earliest node not before tau, with a small slack so a
    # value landing on a node up to rounding does not get pushed one step out.
    floor_idx = np.ceil(tau / grid.dt - 1e-9).astype(np.int64)
    tau_bar, k_idx = mean_traverse_and_delay(tau, scen)
    return ArrivalConstraint(floor_idx=floor_idx, tau_bar=tau_bar, k_idx=k_idx)
