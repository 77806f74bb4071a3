"""Damped fixed-point iteration over mass fields and the equilibrium report.

Existence of a fixed point follows from compactness and continuity of the
mass-to-mass map, which guarantees nothing about plain Picard iteration;
the solver therefore relaxes each update by a damping factor and reports a
non-converged outcome rather than failing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatch
from .flow import PsiResult, apply_psi
from .network import Network, PathSet, edge_totals
from .scenario import Scenario
from .value import MassField

# Absolute slack on the mass and difference-quotient bounds of X membership.
MEMBERSHIP_SLACK = 1e-9


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
    residuals: list[float]
    iterations: int
    converged: bool
    tol: float
    gamma: float
    membership: XMembership
    residual_increases: list[int] = field(default_factory=list)

    @property
    def final_residual(self) -> float:
        return self.residuals[-1]


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


def solve(net: Network, ps: PathSet, scen: Scenario) -> EquilibriumReport:
    """Iterate the damped mass-to-mass map from the empty network.

    Damping, tolerance and iteration cap come from ``scen.solver``.  Each
    iteration evaluates the map once; convergence is declared when the
    sup-norm residual between a mass field and its image drops to the
    tolerance, and the reported equilibrium is that pre-image together with
    every stage of its map evaluation.  Non-convergence is an outcome, not
    an error: the report carries the full residual history either way, and
    its mass is then the last evaluated pre-image.
    """
    gamma = scen.solver.gamma
    tol = scen.tol
    max_iter = scen.solver.max_iter
    # settings built by hand bypass the scenario parser's range checks
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in ]0, 1]")

    current = MassField(values=np.tile(scen.rho0[:, None], (1, scen.grid.steps + 1)))

    residuals: list[float] = []
    increases: list[int] = []
    converged = False
    psi = None
    for _ in range(max_iter):
        # damped only when another evaluation follows: mass and psi stay a pair
        if psi is not None:
            current = MassField(values=(1.0 - gamma) * current.values
                                + gamma * psi.mass.values)
        psi = apply_psi(net, ps, scen, current)
        r = residual(current, psi.mass)
        if residuals and r > residuals[-1]:
            increases.append(len(residuals))
        residuals.append(r)
        if r <= tol:
            converged = True
            break
    membership = verify_X_membership(current, scen, ps)
    return EquilibriumReport(mass=current, psi=psi, residuals=residuals,
                             iterations=len(residuals), converged=converged,
                             tol=tol, gamma=gamma, membership=membership,
                             residual_increases=increases)
