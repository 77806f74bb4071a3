"""Origin split fractions, delayed flows, mass conservation, and the psi map.

Flows are the agents' own delayed estimates: the outflow of an edge at time
t replays the origin injection (or the predecessor's outflow) from one
assumed traverse time earlier, gated by whether the policy actually moves.
They are evaluated by path position, the pairs of one position that share a
delay at once, each position after the one that feeds it; every entry is
the same product as in a pair-by-pair loop.
Mass is integrated by explicit Euler with negative undershoot clipped at
zero and recorded, never silently discarded: each clipped amount once,
reported as their exact sum (``math.fsum``), maximum and count.  The
increments are built in the mass array itself, by contiguous operations on
the flattened arrays (the moved terms in blocks of at most 4096 cells), and
the recurrence runs as a row cumulative sum that restarts from +0.0 wherever
a clip falls, from the row's increments rebuilt by the same expressions; it
performs the same additions as stepping node by node, so it gives the same
bits.  The rows that need a clip are found in blocks of rows of the same
size, so the stage allocates nothing of its result's size beside it.

The integrator keeps the discrete balance auditable: per-step injections
split the budget by the path shares the flows read, normalized so that their
running sum telescopes to dt * throughput exactly, and a pair's moved-mass
term is the same product, dt * flows, where it leaves a row and where it
enters the successor row, so the two units are bit-identical.  The terms
are not kept: :func:`mfroute.oracle.audit_conservation` re-derives them.
The stages hand over plain arrays; the records live at psi's boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import constrained
from .errors import DegenerateSimplex, MassBoundExceeded, ShapeMismatch
from .network import Network, PathSet, edge_totals
from .scenario import Scenario
from .value import congestion_total, value_backward
from .preference import build_preferences


@dataclass(frozen=True)
class MassField:
    """Per-(edge, path) mass trajectories, one row per pair, path-major: the
    input and image of :func:`apply_psi` and the solver's iterate."""

    values: np.ndarray


@dataclass(frozen=True)
class Policy:
    """The arrival-time policy gathered to pairs, as ``PsiResult.policy``.

    ``tau_idx[r, i]``, an int32, is the grid node at which an agent
    entering pair r's edge at node i arrives at its head, or -1 when it
    stays at the edge tail for the rest of the horizon.
    """

    tau_idx: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class IntegrationResult:
    """The amounts :func:`integrate_mass` clipped: their exact sum
    (``math.fsum``, independent of order), their maximum and their count."""

    clip_total: float
    clip_max: float
    clip_count: int


@dataclass(frozen=True)
class PsiResult:
    """One evaluation of the mass-to-mass map: its image and the stage outputs
    that the solver, the export and the conservation audit read.

    Per edge: ``phi_prefix``, the congestion integrals.  Per distinct path
    suffix, the rows of ``PathSet.suffix_table``: ``suffix_value``, the
    remaining cost, and ``suffix_tau_idx``, the arrival node (-1: stay) as an
    int32.  Per (edge, path) pair: ``flows``, the outgoing flow, and
    ``value`` and ``policy``, which gather the suffix rows through
    ``pair_suffix`` on every access.  Per path: ``costs``, of following the
    policy, the logit ``response`` and the preferences ``z``.  Each has one
    column per grid node.
    """

    mass: MassField
    phi_prefix: np.ndarray
    suffix_value: np.ndarray
    suffix_tau_idx: np.ndarray = field(repr=False)
    pair_suffix: np.ndarray = field(repr=False)
    costs: np.ndarray
    response: np.ndarray
    z: np.ndarray
    flows: np.ndarray
    integration: IntegrationResult
    k_idx_edges: np.ndarray = field(repr=False)
    arrival: object = None  # ArrivalConstraint in constrained mode

    @property
    def value(self) -> np.ndarray:
        return self.suffix_value[self.pair_suffix]

    @property
    def policy(self) -> Policy:
        return Policy(tau_idx=self.suffix_tau_idx[self.pair_suffix])


def local_decision(z: np.ndarray) -> np.ndarray:
    """Fraction of entering agents that choose each path: the path's share
    of the current preference total, per node.  With two or more columns
    numpy sums axis 0 of a C-ordered array one row at a time, left to right,
    as the conservation audit does; one column it would sum pairwise."""
    z = np.asarray(z, dtype=float)
    totals = z.sum(axis=0)
    if np.any(totals <= 0.0):
        raise DegenerateSimplex("preference vector sums to a nonpositive value")
    return z / totals


def compute_flows(ps: PathSet, tau_idx: np.ndarray, shares: np.ndarray,
                  lam: np.ndarray, k_idx_edges: np.ndarray) -> np.ndarray:
    """Delayed outgoing flow per (edge, path) pair, evaluated by path position.

    ``tau_idx`` has one row per path suffix, as :func:`value_backward`
    returns it, and ``shares`` are those of :func:`local_decision`.  A first
    edge replays the origin inflow from ``k`` steps earlier; any other edge
    replays its predecessor's outflow.  Both are gated by the sign of the
    control chosen at the replayed entry time, so stopped traffic emits no
    flow.  The pairs at one path position that share a delay are evaluated
    together, after the position before them.  A pair's flow is zero before
    its delay.
    """
    n_nodes = lam.shape[0]
    moving = tau_idx >= 0
    pair_suffix = ps.suffix_table[1]
    f = np.zeros((ps.pair_count, n_nodes))
    delays = k_idx_edges[ps.pair_edge_idx]
    for pos, rows in enumerate(ps.rows_by_position):
        # Gated over the full width; a pair with delay k keeps the first
        # n_nodes - k entries, shifted k nodes right.
        gate = moving[pair_suffix[rows]].astype(float)
        out = ((lam * shares[ps.pair_path_idx[rows]]) * gate if pos == 0
               else f[rows - 1] * gate)
        row_delays = delays[rows]
        for ke in set(row_delays.tolist()):
            sel = row_delays == ke
            f[rows[sel], ke:] = out[sel, :n_nodes - ke]
    return f


def injection_terms(shares: np.ndarray, lam_cols: np.ndarray, dt: float) -> np.ndarray:
    """Per-path injected mass for each step, summing exactly to dt * throughput.

    ``shares`` are the step columns of :func:`local_decision`.  The last
    path's share is computed as the residual of the step budget so the
    ascending-path running sum reproduces dt * lam bitwise; each share still
    equals budget * z_p / sum(z) up to one rounding.
    """
    budget = dt * lam_cols
    n_paths = shares.shape[0]
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


def integrate_mass(ps: PathSet, scen: Scenario, flows: np.ndarray, inj: np.ndarray,
                   rho0: np.ndarray) -> tuple[np.ndarray, IntegrationResult]:
    """Explicit Euler integration of the conservation law.

    Returns the mass, one row per pair, and the clip statistics.  The
    pre-clip update is rho[r, i+1] = rho[r, i] + (plus[r, i] - moved[r, i])
    with ``moved = dt * flows`` and plus the row's path's ``inj``, from
    :func:`injection_terms`, or its predecessor's moved term.  Negative
    undershoot (possible at Euler order with delayed flows) is clipped at
    zero and its magnitude reported.  Raises :class:`MassBoundExceeded` if
    any total edge mass exceeds the configured maximum or is NaN, which a
    validated scenario should make impossible.

    The increments are built in the mass array itself, by contiguous
    operations on the flattened arrays: every row takes its predecessor's
    moved term in one multiply, a path's first row then its injections,
    and every row loses its own moved term in blocks of at most 4096 cells.
    Beside its result the function holds one such block, or the edge
    totals of the mass bound check.

    The result is bitwise that of the stepwise recurrence
    ``state = np.maximum(state + delta[:, i], 0.0)`` from ``rho0``: each row
    is a left-to-right cumulative sum, and at each later node that holds a
    negative value or -0.0 it stores +0.0 and sums the rest of the row again
    from there.  Each clip records its amount once; ``clip_total`` is the
    exact sum of the amounts, ``clip_max`` their maximum and ``clip_count``
    their number, as in the stepwise loop.
    """
    grid = scen.grid
    n = grid.steps
    if flows.shape != (ps.pair_count, n + 1) or inj.shape[1] != n:
        raise ShapeMismatch("flow/injection arrays do not match the grid")
    dt = grid.dt
    # Flattened, mass[r, i + 1] lies one cell after flows[r, i] and n + 2
    # cells after flows[r - 1, i], so every operation here is contiguous;
    # what lands in column 0 is overwritten by rho0.
    mass = np.empty((ps.pair_count, n + 1))
    cells = mass.reshape(-1)
    flat = flows.reshape(-1)
    # plus terms: the predecessor's dt * flows, on a path's first row inj
    np.multiply(dt, flat[:-(n + 2)], out=cells[n + 2:])
    mass[ps.first_mask, 1:] = inj
    # less each row's own moved term dt * flows[r, :n], block by block
    moved = np.empty(min(4096, flat.size - 1))
    for k in range(0, flat.size - 1, moved.size):
        block = moved[:flat.size - 1 - k]
        np.multiply(dt, flat[k:k + block.size], out=block)
        own = cells[k + 1:k + 1 + block.size]
        np.subtract(own, block, out=own)
    del moved, block  # not alive when the mass bound is checked

    # Left-to-right cumsum performs the stepwise recurrence's additions.
    mass[:, 0] = rho0
    np.cumsum(mass, axis=1, out=mass)
    # A row needs a fix at its first later node that is negative or -0.0,
    # where the stepwise np.maximum(pre, 0.0) would have stored +0.0; the
    # rest of the row is then re-accumulated from that +0.0, with the
    # row's increments rebuilt once.  The rows are scanned in blocks of at
    # most 4096 cells, or of one row if a row is longer.
    amounts: list[float] = []
    scan = max(1, 4096 // (n + 1))
    fix_rows = [i + np.flatnonzero(_needs_fix(mass[i:i + scan])[:, 1:].any(axis=1))
                for i in range(0, ps.pair_count, scan)]
    for r in np.concatenate(fix_rows).tolist():
        row = mass[r]
        # the row's increments again, by the same expressions
        plus = inj[ps.pair_path_idx[r]] if ps.first_mask[r] else dt * flows[r - 1, :n]
        increments = plus - dt * flows[r, :n]
        bad = _needs_fix(row[1:])
        c = 0
        while bad.any():
            c += 1 + int(np.argmax(bad))  # bad[k] flags node c + 1 + k
            pre = float(row[c])
            if pre < 0.0:
                amounts.append(-pre)
            row[c] = 0.0
            row[c + 1:] = increments[c:]
            np.cumsum(row[c:], out=row[c:])
            bad = _needs_fix(row[c + 1:])
    worst = float(edge_totals(ps, mass).max())
    if not worst <= scen.rho_max:  # also a NaN total
        raise MassBoundExceeded(
            f"total edge mass {worst:g} exceeds rho_max {scen.rho_max:g}" if worst > scen.rho_max
            else f"total edge mass is not finite ({worst:g})")
    return mass, IntegrationResult(clip_total=math.fsum(amounts),
                                   clip_max=max(amounts, default=0.0),
                                   clip_count=len(amounts))


def _needs_fix(values: np.ndarray) -> np.ndarray:
    """Entries that clipping at zero would change: negatives and -0.0."""
    return np.signbit(values) & (values <= 0.0)


def apply_psi(net: Network, ps: PathSet, scen: Scenario, mass: MassField) -> PsiResult:
    """Full pipeline: mass -> values/policy -> costs -> preferences -> flows -> mass."""
    totals, phi_prefix = congestion_total(ps, scen, mass.values)
    arrival = floor_idx = None
    if scen.constrained.enabled:
        limits = constrained.build_speed_limits(net, scen)
        arrival = constrained.arrival_tables(net, scen, totals, limits)
        floor_idx = arrival.floor_idx
        k_idx_edges = arrival.k_idx
    else:
        k_idx_edges = np.full(len(net.edges), scen.k_idx, dtype=np.int64)
    del totals  # read only by the arrival tables, not alive in the value stage
    values, tau_idx = value_backward(net, ps, scen, phi_prefix, floor_idx)
    costs, response, z = build_preferences(net, ps, scen, phi_prefix, tau_idx, values)
    shares = local_decision(z)
    flows = compute_flows(ps, tau_idx, shares, scen.lam, k_idx_edges)
    inj = injection_terms(shares[:, :-1], scen.lam[:-1], scen.grid.dt)
    del shares  # not alive when integrate_mass allocates the mass
    new_mass, integ = integrate_mass(ps, scen, flows, inj, scen.rho0)
    return PsiResult(mass=MassField(values=new_mass), phi_prefix=phi_prefix,
                     suffix_value=values, suffix_tau_idx=tau_idx,
                     pair_suffix=ps.suffix_table[1], costs=costs, response=response,
                     z=z, flows=flows, integration=integ, k_idx_edges=k_idx_edges,
                     arrival=arrival)
