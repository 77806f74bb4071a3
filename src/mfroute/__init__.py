"""Mean-field route-choice equilibria for agent flows on acyclic networks.

The library computes, for a time-varying inflow of agents entering a small
directed acyclic network, the self-consistent mass distribution in which
optimal constant-speed edge traversal, noisy path choice, and delayed flow
estimates reproduce the very congestion pattern the agents planned against.
"""

from .constrained import (ArrivalConstraint, arrival_tables, build_speed_limits,
                          mean_traverse_and_delay, min_arrival)
from .equilibrium import (EquilibriumReport, XMembership, residual, solve,
                          verify_X_membership)
from .errors import (BadEdge, CycleDetected, DegenerateSimplex, MassBoundExceeded,
                     MFRouteError, ParseError, ShapeMismatch, SimplexViolation,
                     TooManyPaths, Unreachable, ValidationError)
from .flow import (IntegrationResult, MassField, Policy, PsiResult, apply_psi,
                   compute_flows, integrate_mass, local_decision)
from .network import Edge, Network, PathSet, build_network, enumerate_paths
from .preference import logit_response, path_costs, preference_evolution
from .scenario import (CongestionCost, LambdaSpec, ReciprocalSpeedLimit, Scenario,
                       SolverSettings, TabulatedSpeedLimit, TimeGrid, load_scenario,
                       make_grid, prefix_integral, scenario_checks, scenario_from_dict,
                       scenario_to_dict)
from .value import congestion_total, value_backward

__version__ = "0.1.0"
