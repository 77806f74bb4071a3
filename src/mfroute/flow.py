"""Origin split fractions, delayed flows, mass conservation, and the psi map.

Flows are the agents' own delayed estimates: the outflow of an edge at time
t replays the origin injection (or the predecessor's outflow) from one
assumed traverse time earlier, gated by whether the policy actually moves.
They are evaluated by path position, the pairs of one position that share a
delay at once, each position after the one that feeds it; every entry is
the same product as in a pair-by-pair loop.
Mass is integrated by explicit Euler with negative undershoot clipped at
zero and recorded, never silently discarded.  The recurrence runs as a row
cumulative sum that restarts from +0.0 wherever a clip falls, which performs
the same additions as stepping node by node, so it gives the same bits.

The integrator keeps the discrete balance auditable: per-step injections are
normalized so that their running sum telescopes to dt * throughput exactly,
and the moved-mass terms are computed once per pair so that every unit that
leaves a row is bit-identical to the unit entering its successor row.  The
terms are not kept: :func:`mfroute.oracle.audit_conservation` re-derives them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSimplex, MassBoundExceeded, ShapeMismatch
from .network import Network, PathSet, edge_totals
from .scenario import Scenario
from .value import (EdgeCongestion, MassField, Policy, ValueTable,
                    congestion_total, value_backward)
from .preference import (PathCostTable, PreferenceTrajectory, build_preferences)


@dataclass(frozen=True)
class FlowField:
    """Outgoing flow per (edge, path) pair, zero before the traverse delay."""

    values: np.ndarray


@dataclass(frozen=True)
class IntegrationResult:
    """Euler-integrated mass and the sum, maximum and count of clipped amounts.

    The pre-clip update is rho[r, i+1] = rho[r, i] + (plus[r, i] - moved[r, i])
    with ``moved = dt * flows`` and plus the row's :func:`injection_terms`
    share or its predecessor's moved term.
    """

    mass: MassField
    clip_total: float = 0.0
    clip_max: float = 0.0
    clip_count: int = 0


@dataclass(frozen=True)
class PsiResult:
    """One evaluation of the mass-to-mass map: its image and the stage outputs
    that the solver, the export and the conservation audit read."""

    mass: MassField
    congestion: EdgeCongestion
    value: ValueTable
    policy: Policy
    costs: PathCostTable
    preference: PreferenceTrajectory
    flows: FlowField
    integration: IntegrationResult
    k_idx_edges: np.ndarray = field(repr=False)
    arrival: object = None  # ArrivalConstraint in constrained mode


def local_decision(ps: PathSet, z: np.ndarray) -> np.ndarray:
    """Fraction of entering agents assigned to each origin-outgoing pair.

    Nonzero only on the first pair of each path, where it is that path's
    share of the current preference total.
    """
    z = np.asarray(z, dtype=float)
    totals = z.sum(axis=0)
    if np.any(totals <= 0.0):
        raise DegenerateSimplex("preference vector sums to a nonpositive value")
    g = np.zeros((ps.pair_count,) + totals.shape)
    first_rows = np.flatnonzero(ps.first_mask)
    g[first_rows] = z[ps.pair_path_idx[first_rows]] / totals
    return g


def compute_flows(ps: PathSet, policy: Policy, z: np.ndarray, lam: np.ndarray,
                  k_idx_edges: np.ndarray) -> FlowField:
    """Delayed outgoing flows, evaluated by path position.

    A first edge replays the origin inflow from ``k`` steps earlier; any
    other edge replays its predecessor's outflow.  Both are gated by the
    sign of the control chosen at the replayed entry time, so stopped
    traffic emits no flow.  The pairs at one path position that share a
    delay are evaluated together, after the position before them.
    """
    n_nodes = lam.shape[0]
    g = local_decision(ps, z)
    moving = policy.tau_idx >= 0
    f = np.zeros((ps.pair_count, n_nodes))
    delays = k_idx_edges[ps.pair_edge_idx]
    for pos, rows in enumerate(ps.rows_by_position):
        # Gated over the full width; a pair with delay k keeps the first
        # n_nodes - k entries, shifted k nodes right.
        gate = moving[rows].astype(float)
        out = (lam * g[rows]) * gate if pos == 0 else f[rows - 1] * gate
        row_delays = delays[rows]
        for ke in set(row_delays.tolist()):
            sel = row_delays == ke
            f[rows[sel], ke:] = out[sel, :n_nodes - ke]
    return FlowField(values=f)


def injection_terms(z_cols: np.ndarray, lam_cols: np.ndarray, dt: float) -> np.ndarray:
    """Per-path injected mass for each step, summing exactly to dt * throughput.

    The last path's share is computed as the residual of the step budget so
    the ascending-path running sum reproduces dt * lam bitwise; each share
    still equals budget * z_p / sum(z) up to one rounding.
    """
    budget = dt * lam_cols
    # Left-associated accumulation in ascending path order; the conservation
    # audit recomputes these shares with the same order and expects bit
    # equality, and numpy's pairwise axis sum would differ for many paths.
    totals = np.array(z_cols[0], dtype=float)
    for p in range(1, z_cols.shape[0]):
        totals = totals + z_cols[p]
    if np.any(totals <= 0.0):
        raise DegenerateSimplex("preference vector sums to a nonpositive value")
    shares = z_cols / totals
    n_paths = z_cols.shape[0]
    inj = np.empty_like(shares)
    partial = np.zeros_like(budget)
    for p in range(n_paths - 1):
        inj[p] = budget * shares[p]
        partial = partial + inj[p]
    last = budget - partial
    # one subtraction is not always enough: when the last share exceeds half
    # the budget the rounded difference can re-add one ulp off, so correct
    # until partial + last reproduces the budget exactly
    for _ in range(4):
        total = partial + last
        if np.all(total == budget):
            break
        last = last + (budget - total)
    inj[n_paths - 1] = last
    return inj


def integrate_mass(ps: PathSet, scen: Scenario, flows: FlowField, z: np.ndarray,
                   lam: np.ndarray, rho0: np.ndarray) -> IntegrationResult:
    """Explicit Euler integration of the conservation law.

    Negative undershoot (possible at Euler order with delayed flows) is
    clipped at zero and its magnitude reported.  Raises
    :class:`MassBoundExceeded` if any total edge mass exceeds the configured
    maximum, which a validated scenario should make impossible.

    The result is bitwise that of the stepwise recurrence
    ``state = np.maximum(state + delta[:, i], 0.0)`` from ``rho0``: each row
    is a left-to-right cumulative sum, and at each later node that holds a
    negative value or -0.0 it stores +0.0 and sums the rest of the row again
    from there.  The clip statistics are those the stepwise loop reports:
    per step with clips, in ascending order, the sum of that step's clipped
    amounts over all rows (zero where a row did not clip) adds to
    ``clip_total``.
    """
    grid = scen.grid
    n = grid.steps
    f = flows.values
    if f.shape != (ps.pair_count, n + 1) or z.shape[1] != n + 1:
        raise ShapeMismatch("flow/preference arrays do not match the grid")
    inj = injection_terms(z[:, :n], lam[:n], grid.dt)
    mov = grid.dt * f[:, :n]
    plus = np.empty_like(mov)
    first_rows = np.flatnonzero(ps.first_mask)
    nonfirst = np.flatnonzero(~ps.first_mask)
    plus[first_rows] = inj[ps.pair_path_idx[first_rows]]
    plus[nonfirst] = mov[nonfirst - 1]
    # In place: plus is not read again, and the mass check at the end of
    # this stage is where a solve's memory peaks.
    delta = np.subtract(plus, mov, out=plus)
    del inj, mov

    # Left-to-right cumsum performs the stepwise recurrence's additions.
    mass = np.empty((ps.pair_count, n + 1))
    mass[:, 0] = rho0
    mass[:, 1:] = delta
    np.cumsum(mass, axis=1, out=mass)
    # A row needs a fix at its first later node that is negative or -0.0,
    # where the stepwise np.maximum(pre, 0.0) would have stored +0.0; the
    # rest of the row is then re-accumulated from that +0.0.
    clips: dict[int, list[tuple[int, float]]] = {}
    for r in np.flatnonzero(_needs_fix(mass[:, 1:]).any(axis=1)):
        row = mass[r]
        bad = _needs_fix(row[1:])
        c = 0
        while True:
            c += 1 + int(np.argmax(bad))  # bad[k] flags node c + 1 + k
            pre = row[c]
            if pre < 0.0:
                clips.setdefault(c - 1, []).append((r, 0.0 - pre))
            row[c] = 0.0
            if c == n:
                break
            row[c + 1:] = delta[r, c:]
            np.cumsum(row[c:], out=row[c:])
            bad = _needs_fix(row[c + 1:])
            if not bad.any():
                break
    # Clip statistics accumulate per step in ascending order, each step's
    # clipped vector summed over all rows, as the stepwise loop did.
    clip_total = 0.0
    clip_max = 0.0
    clip_count = 0
    clipped = np.zeros(ps.pair_count)
    for i in sorted(clips):
        clipped[:] = 0.0
        for r, amount in clips[i]:
            clipped[r] = amount
        clip_total += float(clipped.sum())
        clip_max = max(clip_max, float(clipped.max()))
        clip_count += len(clips[i])
    _check_mass_bound(ps, scen, mass)
    return IntegrationResult(mass=MassField(values=mass), clip_total=clip_total,
                             clip_max=clip_max, clip_count=clip_count)


def _needs_fix(values: np.ndarray) -> np.ndarray:
    """Entries that clipping at zero would change: negatives and -0.0."""
    return np.signbit(values) & (values <= 0.0)


def _check_mass_bound(ps: PathSet, scen: Scenario, mass: np.ndarray) -> None:
    worst = float(edge_totals(ps, mass).max())
    if worst > scen.rho_max:
        raise MassBoundExceeded(
            f"total edge mass {worst:g} exceeds rho_max {scen.rho_max:g}")


def apply_psi(net: Network, ps: PathSet, scen: Scenario, mass: MassField) -> PsiResult:
    """Full pipeline: mass -> values/policy -> costs -> preferences -> flows -> mass."""
    cong = congestion_total(net, ps, scen, mass)
    arrival = None
    if scen.constrained.enabled:
        from .constrained import arrival_tables, build_speed_limits

        limits = build_speed_limits(net, scen)
        arrival = arrival_tables(net, scen, cong, limits)
        table, policy = value_backward(net, ps, scen, cong, arrival.floor_idx)
        k_idx_edges = arrival.k_idx
    else:
        table, policy = value_backward(net, ps, scen, cong)
        k_idx_edges = np.full(len(net.edges), scen.k_idx, dtype=np.int64)
    costs, pref = build_preferences(net, ps, scen, cong, policy)
    flows = compute_flows(ps, policy, pref.z, scen.lam, k_idx_edges)
    integ = integrate_mass(ps, scen, flows, pref.z, scen.lam, scen.rho0)
    return PsiResult(mass=integ.mass, congestion=cong, value=table, policy=policy,
                     costs=costs, preference=pref, flows=flows,
                     integration=integ, k_idx_edges=k_idx_edges, arrival=arrival)
