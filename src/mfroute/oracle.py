"""Independent verification: exhaustive plan enumeration and conservation audit.

The value oracle enumerates every complete traversal plan on a path (each
per-edge choice of staying forever or arriving at some later grid node),
prices each plan directly from the congestion integrals, and takes the
minimum.  No backward recursion, no memoization: on coarse grids this is
the ground truth the dynamic program must reproduce exactly, since both
sides evaluate the same per-leg float expressions and a minimum over
right-associated sums commutes with IEEE addition.  One pass per (pair,
node) gives both the value and the tie-rule arrival: the plans are grouped
by their first arrival j, and because rounding ``leg + rest`` is monotone
in ``rest``, the least ``leg + rest`` over j's plans is exactly ``leg`` plus
the least continuation, the candidate the tie rule compares.

The conservation audit re-integrates the mass trajectory step by step from
the recorded flows and preferences and checks the telescoped balance: the
per-step increment terms, summed exactly, must equal the origin injection
minus the destination outflow, term for term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flow import PsiResult
from .network import Network, PathSet
from .scenario import Scenario

# check_value_tables stops after this many mismatches.
MAX_REPORTED_MISMATCHES = 10


@dataclass(frozen=True)
class _PathContext:
    rows: list[int]
    lengths: list[float]       # per position
    tails: list[float]         # stay penalty per position (already alpha-scaled)
    phi: list[list[float]]     # congestion prefix per position
    t: list[float]
    n: int
    floors: list[list[int]] | None  # per position, per node; None: unconstrained
    eps_tie: float


def _context(net: Network, ps: PathSet, scen: Scenario, phi_prefix: np.ndarray,
             path_idx: int, arrival_floor: np.ndarray | None) -> _PathContext:
    rows = [int(r) for r in ps.path_rows[path_idx]]
    lengths, tails, phi, floors = [], [], [], []
    for pos, r in enumerate(rows):
        e = int(ps.pair_edge_idx[r])
        length = float(net.lengths[e])
        lengths.append(length)
        last = pos == len(rows) - 1
        tails.append(scen.alpha * (length if last else float(net.dist_tail[e])))
        phi.append([float(x) for x in phi_prefix[e]])
        if arrival_floor is not None:
            floors.append([int(x) for x in arrival_floor[e]])
    return _PathContext(rows=rows, lengths=lengths, tails=tails, phi=phi,
                        t=[float(x) for x in scen.grid.nodes], n=scen.grid.steps,
                        floors=floors if arrival_floor is not None else None,
                        eps_tie=scen.solver.eps_tie)


def _plan_costs(ctx: _PathContext, pos: int, i: int) -> list[float]:
    """Costs of every complete plan starting on edge ``pos`` at node ``i``."""
    phi = ctx.phi[pos]
    length = ctx.lengths[pos]
    tail = ctx.tails[pos]
    t = ctx.t
    n = ctx.n
    costs = [tail + (phi[n] - phi[i])]  # stay at the tail for good
    last = pos == len(ctx.rows) - 1
    if last:
        feasible = i < n and (ctx.floors is None or ctx.floors[pos][i] <= n)
        if feasible:
            costs.append((length * length) / (2.0 * (t[n] - t[i])) + (phi[n] - phi[i]))
        return costs
    j_min = i + 1 if ctx.floors is None else max(i + 1, ctx.floors[pos][i])
    for j in range(j_min, n + 1):
        leg = (length * length) / (2.0 * (t[j] - t[i])) + (phi[j] - phi[i])
        if j < n:
            for rest in _plan_costs(ctx, pos + 1, j):
                costs.append(leg + rest)
        else:
            # Arriving exactly at the horizon: settle at the tail penalty or
            # hand over to the successor's horizon-time plans.
            costs.append(leg + tail)
            for rest in _plan_costs(ctx, pos + 1, n):
                costs.append(leg + rest)
    return costs


def oracle_choice(ctx: _PathContext, pos: int, i: int) -> tuple[float, int]:
    """Value and tie-rule arrival node (-1: stay) on edge ``pos`` at node ``i``.

    Each admissible first arrival j is priced as its leg plus the least cost
    over every enumerated continuation plan, settling at the tail penalty
    being one more continuation at j = N.  The value is the least of these
    candidates and the cost of staying.
    """
    phi = ctx.phi[pos]
    tail = ctx.tails[pos]
    n = ctx.n
    if pos == len(ctx.rows) - 1:  # the last edge can only arrive at the horizon
        stay, *final = _plan_costs(ctx, pos, i)
        moves = {n: c for c in final}
    else:
        stay = tail + (phi[n] - phi[i])
        length = ctx.lengths[pos]
        t = ctx.t
        moves = {}
        j_min = i + 1 if ctx.floors is None else max(i + 1, ctx.floors[pos][i])
        for j in range(j_min, n + 1):
            leg = (length * length) / (2.0 * (t[j] - t[i])) + (phi[j] - phi[i])
            rests = _plan_costs(ctx, pos + 1, j)
            if j == n:
                rests.append(tail)
            moves[j] = leg + min(rests)
    if not moves:
        return stay, -1
    best = min(moves.values())
    if not best <= stay:
        return stay, -1
    threshold = best + ctx.eps_tie * max(1.0, abs(best))
    return best, max(j for j, c in moves.items() if c <= threshold)


@dataclass(frozen=True)
class ValueMismatch:
    path_idx: int
    edge_id: str
    node: int
    kind: str  # "value" or "policy"
    computed: float
    expected: float


def check_value_tables(net: Network, ps: PathSet, scen: Scenario, phi_prefix: np.ndarray,
                       values: np.ndarray, tau_idx: np.ndarray,
                       arrival_floor: np.ndarray | None = None) -> list[ValueMismatch]:
    """Compare value tables and policies against the exhaustive enumeration.

    ``values`` and ``tau_idx`` have one row per (edge, path) pair, as
    ``PsiResult.value`` and ``.policy`` gather them from the per-suffix rows
    of :func:`value_backward`; ``phi_prefix`` and ``arrival_floor`` are the
    tables' inputs.  Any deviation at all is a defect: the comparison is
    exact equality.
    """
    mismatches: list[ValueMismatch] = []
    for p in range(ps.n_paths):
        ctx = _context(net, ps, scen, phi_prefix, p, arrival_floor)
        for pos, r in enumerate(ctx.rows):
            edge_id = ps.paths[p][pos]
            for i in range(ctx.n + 1):
                value, tau = oracle_choice(ctx, pos, i)
                for kind, got, expected in (
                        ("value", float(values[r, i]), value),
                        ("policy", float(tau_idx[r, i]), float(tau))):
                    if got != expected:
                        mismatches.append(ValueMismatch(p, edge_id, i, kind, got, expected))
                        if len(mismatches) >= MAX_REPORTED_MISMATCHES:
                            return mismatches
    return mismatches


@dataclass(frozen=True)
class ConservationAudit:
    """Outcome of re-integrating the mass and checking the telescoped balance.

    ``injection_max_ulp`` measures how far the realized per-step inflow total
    strays from dt * throughput, in units of the budget's last place.  There
    are (rare) budgets whose share split admits no exactly-summing float
    representative at all, so one ulp is the strongest attainable guarantee;
    every other comparison here is plain bitwise equality.
    """

    mass_match: bool
    first_mass_mismatch: tuple[int, int] | None
    telescope_exact: bool
    injection_max_ulp: float
    balance_defect: float  # |sum(increments)/dt - (throughput - outflow)|, max over steps

    @property
    def ok(self) -> bool:
        return self.mass_match and self.telescope_exact and self.injection_max_ulp <= 1.0


def audit_conservation(ps: PathSet, scen: Scenario, psi: PsiResult,
                       rho0: np.ndarray) -> ConservationAudit:
    """Rebuild the Euler integration from recorded stages and audit the balance.

    All comparisons except ``balance_defect`` are bitwise.  The per-step
    injection shares are recomputed here with the same residual rule the
    integrator documents, the moved-mass terms from the recorded flows, and
    the mass trajectory by a plain sequential loop.
    """
    grid = scen.grid
    n = grid.steps
    dt = grid.dt
    z = psi.z
    lam = scen.lam
    f = psi.flows
    n_paths = ps.n_paths

    first = ps.first_mask.tolist()
    path_of = ps.pair_path_idx.tolist()
    last_rows = [int(r) for r in np.flatnonzero(ps.last_mask)]

    injection_max_ulp = 0.0
    telescope_exact = True
    mass_match = True
    first_mismatch = None
    balance_defect = 0.0

    state = [float(x) for x in rho0]
    mass = psi.mass.values
    for r in range(ps.pair_count):
        if mass[r, 0] != state[r]:
            return ConservationAudit(False, (r, 0), False, float("inf"), float("inf"))

    for i in range(n):
        total = float(z[0, i])
        for p in range(1, n_paths):
            total = total + float(z[p, i])
        budget = dt * float(lam[i])
        inj = [0.0] * n_paths
        partial = 0.0
        for p in range(n_paths - 1):
            inj[p] = budget * (float(z[p, i]) / total)
            partial = partial + inj[p]
        last = budget - partial
        for _ in range(4):
            if partial + last == budget:
                break
            last = last + (budget - (partial + last))
        inj[n_paths - 1] = last
        # partial + last is the shares' left-to-right sum, up to a zero's sign
        if partial + last != budget and budget != 0.0:
            injection_max_ulp = max(injection_max_ulp,
                                    abs(partial + last - budget) / math.ulp(budget))

        mov = [dt * float(f[r, i]) for r in range(ps.pair_count)]
        # a path's first pair gains its share, any other its predecessor's move
        plus = [inj[p] if is_first else mov[r - 1]
                for r, (is_first, p) in enumerate(zip(first, path_of))]

        # Telescoped balance over the increment terms: one exact sum per side,
        # the interior moved terms appearing once with each sign and cancelling.
        lhs = math.fsum(plus + [-x for x in mov])
        rhs = math.fsum(inj + [-mov[r] for r in last_rows])
        if lhs != rhs:
            telescope_exact = False
        outflow = math.fsum(float(f[r, i]) for r in last_rows)
        balance_defect = max(balance_defect,
                             abs(lhs - dt * (float(lam[i]) - outflow)))

        for r in range(ps.pair_count):
            pre = state[r] + (plus[r] - mov[r])
            state[r] = pre if pre > 0.0 else 0.0
            if mass[r, i + 1] != state[r]:
                mass_match = False
                if first_mismatch is None:
                    first_mismatch = (r, i + 1)

    return ConservationAudit(mass_match=mass_match, first_mass_mismatch=first_mismatch,
                             telescope_exact=telescope_exact,
                             injection_max_ulp=injection_max_ulp,
                             balance_defect=balance_defect)
