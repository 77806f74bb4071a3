"""Anderson-accelerated fixed-point iteration over mass fields, and the
equilibrium report.

Existence of a fixed point follows from compactness and continuity of the
mass-to-mass map, not from a contraction, which guarantees nothing about
plain Picard iteration.  Each step is the damped Picard step minus an
Anderson correction over a short history of iterate and residual
differences (Walker & Ni 2011); any rise of the residual empties the
history, and with an empty history the step is damped Picard exactly.  A
non-converged outcome is reported rather than raised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .flow import PsiResult, apply_psi
from .network import Network, PathSet, edge_totals
from .scenario import Scenario
from .value import MassField

# Absolute slack on the mass and difference-quotient bounds of X membership.
MEMBERSHIP_SLACK = 1e-9

# (iterate, residual) difference pairs one Anderson step combines.  Map
# evaluations to converge on the benchmark workloads (diamond at 1500 steps,
# seeded 4x4 lattice, speed-limited diamond) at depths 1-5: 9/6/59, 10/6/58,
# 7/6/59, 9/6/61 and 9/6/62; damped Picard takes 20/17/76.  Depth 0 keeps no
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
    """Sup-norm distance between two mass fields of identical layout."""
    a, b = mass_a.values, mass_b.values
    if a.shape != b.shape:
        raise ShapeMismatch(f"mass fields differ in shape: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(b - a)))


def verify_X_membership(mass: MassField, scen: Scenario, ps: PathSet) -> XMembership:
    """Check a trajectory's mass and difference-quotient bounds, up to the slack."""
    values = mass.values
    totals = edge_totals(ps, values)
    max_total = float(totals.max()) if totals.size else 0.0
    if values.shape[1] > 1:
        quotient = float(np.max(np.abs(np.diff(values, axis=1))) / scen.grid.dt)
    else:
        quotient = 0.0
    bound = scen.lipschitz_bound
    return XMembership(max_total_edge_mass=max_total, rho_max=scen.rho_max,
                       mass_ok=max_total <= scen.rho_max + MEMBERSHIP_SLACK,
                       max_diff_quotient=quotient, lipschitz_bound=bound,
                       lipschitz_ok=quotient <= bound + MEMBERSHIP_SLACK)


def anderson_correction(step: np.ndarray, f: np.ndarray,
                        history: list[tuple[np.ndarray, np.ndarray]],
                        gamma: float) -> bool:
    """Subtract the Anderson correction from ``step`` in place.

    The coefficients c minimise ``||f - sum_i c_i df_i||_2`` over the
    ``(dx_i, df_i)`` pairs of ``history``; ``step`` loses
    ``sum_i c_i (dx_i + gamma * df_i)`` and is clipped at zero.  The normal
    equations are summed by numpy, one elementwise product at a time, and
    solved by elimination in Python floats, so the result does not depend
    on a BLAS library's summation order.  Returns False, leaving ``step``
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
        term = np.multiply(df, gamma)
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

    Otherwise the next pre-image is the damped Picard step
    ``(1 - gamma) * x + gamma * g`` minus the Anderson correction over the
    history of pre-image and residual differences
    (:func:`anderson_correction`), which combines up to
    :data:`ANDERSON_DEPTH` difference pairs.  A residual above the one
    before, or residual differences dependent to working precision, empty
    the history, so the step after it is damped Picard exactly.
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
    converged = False
    restarts = 0
    # Held across a map evaluation: the pre-image, the previous pre-image
    # and its residual (None right after a reset), and at most depth - 1
    # difference pairs.
    x_prev = f_prev = None
    history: list[tuple[np.ndarray, np.ndarray]] = []
    psi = None
    for _ in range(max_iter):
        # stepped only when another evaluation follows: mass and psi stay a pair
        if psi is not None:
            x, g = current.values, psi.mass.values
            psi = None  # the stage outputs are not needed past this point
            step = (1.0 - gamma) * x + gamma * g
            f = np.subtract(g, x, out=g)
            if f_prev is not None:
                history.append((np.subtract(x, x_prev, out=x_prev),
                                np.subtract(f, f_prev, out=f_prev)))
                if not anderson_correction(step, f, history, gamma):
                    history.clear()
                    restarts += 1
                if len(history) == depth:
                    del history[0]
            if depth:
                x_prev, f_prev = x, f
            current = MassField(values=step)
            del x, g, f, step  # hold no more than the state above across psi
        psi = apply_psi(net, ps, scen, current)
        residuals.append(residual(current, psi.mass))
        if residuals[-1] <= tol:
            converged = True
            break
        if f_prev is not None and residuals[-1] > residuals[-2]:
            x_prev = f_prev = None
            history.clear()
            restarts += 1
    membership = verify_X_membership(current, scen, ps)
    return EquilibriumReport(mass=current, psi=psi, residuals=residuals,
                             converged=converged, tol=tol, gamma=gamma,
                             membership=membership, restarts=restarts)
