"""Anderson-accelerated fixed-point iteration over mass fields, and the
equilibrium report.

Existence of a fixed point follows from compactness and continuity of the
mass-to-mass map, not from a contraction, which guarantees nothing about
plain Picard iteration.  Each step is Anderson acceleration over a short
history of iterate and residual differences (Walker & Ni 2011): undamped,
from the image itself, until the first restart, and mixed with the damping
from then on.  Any rise of the residual empties the history, and with an
empty history the step is damped Picard exactly.  A non-converged outcome
is reported rather than raised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .flow import MassField, PsiResult, apply_psi
from .network import Network, PathSet, edge_totals
from .scenario import Scenario

# Absolute slack on the mass and difference-quotient bounds of X membership.
MEMBERSHIP_SLACK = 1e-9

# (iterate, residual) difference pairs one Anderson step combines.  Map
# evaluations to converge on the benchmark workloads (diamond at 1500 steps,
# seeded 4x4 lattice, speed-limited diamond) at depths 1-5: 6/4/56, 6/4/57,
# 6/4/59, 6/4/59 and 6/4/68; damped Picard takes 20/17/76.  Depth 0 keeps no
# history: every step is damped Picard, bit for bit the solver before Anderson.
ANDERSON_DEPTH = 3

# A pivot of the least-squares elimination at or below this fraction of its
# Gram diagonal entry marks the residual differences as dependent.
PIVOT_RTOL = 1e-12


@dataclass(frozen=True)
class XMembership:
    """Diagnostics for membership in the admissible trajectory set."""

    max_total_edge_mass: float
    rho_max: float
    mass_ok: bool
    max_diff_quotient: float
    lipschitz_bound: float
    lipschitz_ok: bool


@dataclass(frozen=True)
class EquilibriumReport:
    mass: MassField
    psi: PsiResult
    residuals: list[float]  # one per map evaluation
    converged: bool
    tol: float
    gamma: float
    membership: XMembership
    restarts: int  # times the Anderson history was emptied

    @property
    def iterations(self) -> int:
        return len(self.residuals)

    @property
    def residual_increases(self) -> list[int]:
        """Iterations, counted from 0, whose residual exceeds the one before."""
        r = self.residuals
        return [k for k in range(1, len(r)) if r[k] > r[k - 1]]

    @property
    def final_residual(self) -> float:
        return self.residuals[-1]

    @property
    def final_relative_residual(self) -> float | None:
        """Final residual over the largest mass of the pre-image; None if
        that mass is zero everywhere."""
        scale = float(np.max(np.abs(self.mass.values)))
        return self.final_residual / scale if scale > 0.0 else None


def residual(mass_a: MassField, mass_b: MassField) -> float:
    """Sup-norm distance between two mass fields of identical layout.

    Taken over blocks of rows of at most 4096 cells (32 KiB), or of one
    row if a row is longer, in one reused buffer, so the temporary stays
    that small on any field; the maximum of ``|b - a|`` is exact in any
    order.
    """
    a, b = mass_a.values, mass_b.values
    if a.shape != b.shape:
        raise ShapeMismatch(f"mass fields differ in shape: {a.shape} vs {b.shape}")
    rows = max(1, 4096 // max(1, a.shape[-1]))
    buf = np.empty((min(rows, len(a)),) + a.shape[1:])
    block_max = []
    for i in range(0, len(a), rows):
        diff = buf[:len(a) - i]
        np.subtract(b[i:i + rows], a[i:i + rows], out=diff)
        block_max.append(np.max(np.abs(diff, out=diff)))
    return float(np.max(block_max))


def verify_X_membership(mass: MassField, scen: Scenario, ps: PathSet) -> XMembership:
    """Check a trajectory's mass and difference-quotient bounds, up to the slack."""
    values = mass.values
    shape = (ps.pair_count, scen.grid.steps + 1)
    if values.shape != shape:
        raise ShapeMismatch(f"mass field must have shape {shape}, got {values.shape}")
    max_total = float(edge_totals(ps, values).max())
    # consecutive columns as two fields: the sup norm runs in blocks, no diff array
    quotient = residual(MassField(values[:, :-1]), MassField(values[:, 1:])) / scen.grid.dt
    bound = scen.lipschitz_bound
    return XMembership(max_total_edge_mass=max_total, rho_max=scen.rho_max,
                       mass_ok=max_total <= scen.rho_max + MEMBERSHIP_SLACK,
                       max_diff_quotient=quotient, lipschitz_bound=bound,
                       lipschitz_ok=quotient <= bound + MEMBERSHIP_SLACK)


def anderson_correction(step: np.ndarray, f: np.ndarray,
                        history: list[tuple[np.ndarray, np.ndarray]],
                        beta: float) -> bool:
    """Subtract the Anderson correction from ``step`` in place.

    The coefficients c minimise ``||f - sum_i c_i df_i||_2`` over the
    ``(dx_i, df_i)`` pairs of ``history``; ``step`` loses
    ``sum_i c_i (dx_i + beta * df_i)`` and is clipped at zero, where
    ``beta`` is the weight of the image in ``step``.  The normal equations
    are summed by numpy, one elementwise product at a time, and solved by
    elimination in Python floats, so the result does not depend on a BLAS
    library's summation order.  Returns False, leaving ``step``
    alone, when a pivot is at most :data:`PIVOT_RTOL` times its diagonal
    entry before elimination: the residual differences are then linearly
    dependent to working precision, and the coefficients would be noise.
    """
    dfs = [df for _, df in history]
    k = len(dfs)
    # augmented Gram matrix [G | b], G_ij = <df_i, df_j>, b_i = <df_i, f>
    a = [[0.0] * (k + 1) for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            a[i][j] = a[j][i] = float((dfs[i] * dfs[j]).sum())
        a[i][k] = float((dfs[i] * f).sum())
    diagonal = [a[i][i] for i in range(k)]
    for i in range(k):
        pivot = a[i][i]
        if not pivot > PIVOT_RTOL * diagonal[i]:
            return False
        for r in range(i + 1, k):
            m = a[r][i] / pivot
            for col in range(i, k + 1):
                a[r][col] -= m * a[i][col]
    coeffs = [0.0] * k
    for i in reversed(range(k)):
        acc = a[i][k]
        for j in range(i + 1, k):
            acc -= a[i][j] * coeffs[j]
        coeffs[i] = acc / a[i][i]
    for c, (dx, df) in zip(coeffs, history):
        term = np.multiply(df, beta)
        term += dx
        term *= c
        step -= term
    np.maximum(step, 0.0, out=step)
    return True


def solve(net: Network, ps: PathSet, scen: Scenario) -> EquilibriumReport:
    """Iterate the mass-to-mass map from the empty network.

    Damping, tolerance and iteration cap come from ``scen.solver``.
    Each iteration evaluates the map once at the pre-image x, giving the
    image g and the residual f = g - x; convergence is declared when the
    sup-norm of f drops to the tolerance, and the reported equilibrium is
    that pre-image together with every stage of its map evaluation.

    Otherwise the next pre-image is Anderson's step over the history of
    pre-image and residual differences (:func:`anderson_correction`),
    which combines up to :data:`ANDERSON_DEPTH` difference pairs.  A
    residual above the one before, or residual differences dependent to
    working precision, restart it: they empty the history, so the step
    after it is the damped Picard step ``(1 - gamma) * x + gamma * g``
    exactly, as is the first step.  Before the first restart the Anderson
    step is undamped, ``g - sum_i c_i (dx_i + df_i)``; from the first
    restart on it is the damped Picard step minus
    ``sum_i c_i (dx_i + gamma * df_i)``.  Both are clipped at zero.
    Non-convergence is an outcome, not an error: the report carries the
    full residual history either way, and its mass is then the last
    evaluated pre-image.
    """
    gamma = scen.solver.gamma
    tol = scen.tol
    max_iter = scen.solver.max_iter
    depth = ANDERSON_DEPTH
    # settings built by hand bypass the scenario parser's range checks
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in ]0, 1]")

    current = MassField(values=np.tile(scen.rho0[:, None], (1, scen.grid.steps + 1)))

    residuals: list[float] = []
    restarts = 0
    # Held across a map evaluation: the pre-image, the previous pre-image
    # and its residual (None right after a reset), and at most depth - 1
    # difference pairs.
    x_prev = f_prev = None
    history: list[tuple[np.ndarray, np.ndarray]] = []
    while True:
        psi = apply_psi(net, ps, scen, current)
        residuals.append(residual(current, psi.mass))
        if residuals[-1] <= tol:
            break
        # a rise restarts, also on the last evaluation a capped solve makes
        if f_prev is not None and residuals[-1] > residuals[-2]:
            x_prev = f_prev = None
            history.clear()
            restarts += 1
        if len(residuals) >= max_iter:
            break
        x, g = current.values, psi.mass.values
        psi = None  # the stage outputs are not needed past this point
        # before the first restart an Anderson step mixes undamped: it
        # starts from the image itself, so the residual takes its own array
        undamped = f_prev is not None and not restarts
        if undamped:
            step, f = g, np.subtract(g, x)
        else:
            step = (1.0 - gamma) * x + gamma * g
            f = np.subtract(g, x, out=g)
        if f_prev is not None:
            history.append((np.subtract(x, x_prev, out=x_prev),
                            np.subtract(f, f_prev, out=f_prev)))
            if not anderson_correction(step, f, history, 1.0 if undamped else gamma):
                if undamped:
                    # damped Picard from the untouched image, in place;
                    # the same bits as above, as addition commutes
                    step *= gamma
                    step += (1.0 - gamma) * x
                history.clear()
                restarts += 1
            if len(history) == depth:
                del history[0]
        if depth:
            x_prev, f_prev = x, f
        current = MassField(values=step)
        del x, g, f, step  # hold no more than the state above across psi
    del x_prev, f_prev, history  # the membership check needs none of them
    membership = verify_X_membership(current, scen, ps)
    return EquilibriumReport(mass=current, psi=psi, residuals=residuals,
                             converged=residuals[-1] <= tol, tol=tol, gamma=gamma,
                             membership=membership, restarts=restarts)
