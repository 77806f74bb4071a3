"""Mass-dependent speed limits and the arrival-time-constrained solver mode.

When an edge is congested the admissible traversal speed drops, so an agent
entering at time t cannot arrive at the edge head before the time at which
the integrated speed limit covers the edge length.  The value minimization
then runs over arrival nodes no earlier than that minimal arrival time, and
the flow delay of each edge is enlarged to its mean constrained traverse
time when that exceeds the a-priori constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import ParseError, ValidationError
from .network import Network
from .scenario import Scenario, TimeGrid, _num, prefix_integral
from .value import EdgeCongestion


@dataclass(frozen=True)
class ReciprocalSpeedLimit:
    """Speed limit coeff / mass: unbounded on an empty edge, vanishing when crowded."""

    coeff: float

    def __call__(self, mass):
        return self.coeff / np.asarray(mass, dtype=float)


@dataclass(frozen=True)
class TabulatedSpeedLimit:
    """Strictly positive, decreasing speed samples interpolated in mass."""

    masses: np.ndarray = field(repr=False)
    speeds: np.ndarray = field(repr=False)

    def __call__(self, mass):
        return np.interp(np.asarray(mass, dtype=float), self.masses, self.speeds)


SpeedLimit = ReciprocalSpeedLimit | TabulatedSpeedLimit


def validate_limit_spec(edge_id: str, spec: dict[str, Any]) -> None:
    family = spec.get("family")
    if family == "reciprocal":
        coeff = spec.get("coeff")
        # NaN passes "<= 0" and would cast to garbage arrival floors
        if (not isinstance(coeff, (int, float)) or isinstance(coeff, bool)
                or not 0.0 < coeff < math.inf):
            raise ValidationError(f"speed limit for edge {edge_id!r}: "
                                  "coeff must be finite and > 0")
        return
    if family == "table":
        masses = spec.get("masses")
        speeds = spec.get("speeds")
        if (not isinstance(masses, list) or not isinstance(speeds, list)
                or len(masses) != len(speeds) or len(masses) < 2):
            raise ParseError(f"speed limit table for edge {edge_id!r} needs matching "
                             "masses/speeds lists of length >= 2")
        m = np.array([_num(v, f"speed limit table mass for edge {edge_id!r}") for v in masses])
        s = np.array([_num(v, f"speed limit table speed for edge {edge_id!r}") for v in speeds])
        if np.any(np.diff(m) <= 0):
            raise ValidationError(f"speed limit table for edge {edge_id!r}: "
                                  "masses must be strictly increasing")
        if np.any(s <= 0) or np.any(np.diff(s) >= 0):
            raise ValidationError(f"speed limit table for edge {edge_id!r}: "
                                  "speeds must be strictly positive and decreasing")
        return
    raise ParseError(f"unknown speed limit family {family!r} for edge {edge_id!r}")


def build_speed_limits(net: Network, scen: Scenario) -> tuple[SpeedLimit, ...]:
    limits = []
    for e in net.edges:
        spec = scen.constrained.limits.get(e.id)
        if spec is None:
            raise ValidationError(f"no speed limit configured for edge {e.id!r}")
        if spec["family"] == "reciprocal":
            limits.append(ReciprocalSpeedLimit(coeff=float(spec["coeff"])))
        else:
            limits.append(TabulatedSpeedLimit(
                masses=np.asarray(spec["masses"], dtype=float),
                speeds=np.asarray(spec["speeds"], dtype=float)))
    return tuple(limits)


@dataclass(frozen=True)
class ArrivalConstraint:
    """Minimal arrival times per edge under the current mass field.

    ``floor_idx[e, i]`` is the earliest admissible arrival node for an entry
    at node i, the first node not before the earliest head-arrival time
    (values past the last node mean the edge cannot be finished in time and
    the moving branch is infeasible).  ``tau_bar`` is the mean constrained
    traverse time and ``k_idx`` the per-edge flow delay in grid steps after
    combining it with the a-priori constant.
    """

    floor_idx: np.ndarray = field(repr=False)  # (n_edges, nodes), int
    tau_bar: np.ndarray = field(repr=False)    # (n_edges,)
    ktilde: np.ndarray = field(repr=False)     # (n_edges,)
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


def mean_traverse_and_ktilde(tau: np.ndarray, scen: Scenario
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean constrained traverse time per edge and the resulting flow delays.

    The mean is the time average of (arrival - entry) over the horizon,
    extrapolated values included.  Each edge's delay is the larger of the
    a-priori constant and that mean, capped at ``cap_frac`` of the horizon
    and rounded to a grid multiple.
    """
    grid = scen.grid
    excess = tau - grid.nodes[None, :]
    tau_bar = prefix_integral(excess, grid)[:, -1] / grid.horizon
    cap = scen.constrained.cap_frac * grid.horizon
    ktilde = np.minimum(np.maximum(scen.k, tau_bar), cap)
    k_idx = np.floor(ktilde / grid.dt + 0.5).astype(np.int64)
    k_idx = np.clip(k_idx, 1, grid.steps)
    return tau_bar, k_idx * grid.dt, k_idx


def arrival_tables(net: Network, scen: Scenario, cong: EdgeCongestion,
                   limits: tuple[SpeedLimit, ...]) -> ArrivalConstraint:
    """Minimal-arrival tables for every edge under the given congestion."""
    grid = scen.grid
    eps_rho = scen.constrained.eps_rho_rel * scen.rho_max
    n_edges = len(net.edges)
    tau = np.empty((n_edges, grid.steps + 1))
    for e in range(n_edges):
        tau[e] = min_arrival(grid, float(net.lengths[e]), cong.totals[e],
                             limits[e], eps_rho)
    # Snap to the grid: earliest node not before tau, with a small slack so a
    # value landing on a node up to rounding does not get pushed one step out.
    floor_idx = np.ceil(tau / grid.dt - 1e-9).astype(np.int64)
    tau_bar, ktilde, k_idx = mean_traverse_and_ktilde(tau, scen)
    return ArrivalConstraint(floor_idx=floor_idx, tau_bar=tau_bar, ktilde=ktilde,
                             k_idx=k_idx)
