"""Scenario loading, validation, the time grid, and quadrature helpers.

A scenario file is a single JSON document with four sections::

    network      vertices, edges (id/tail/head/length/capacity), origin, destination
    model        horizon, steps, alpha, beta, eta, rho_max, lambda, phi, z0, rho0
    solver       gamma, tol, max_iter, eps_tie, path_limit
    constrained  enabled, u (speed-limit specs), eps_rho_rel, cap_frac

All keys are lowercase snake_case and all numbers are plain decimals.
Model assumptions are checked at load time and reported by name, e.g.
"assumption 2.1.4" for the capacity margins rho_max > max(lambda) * horizon
and capacity > max(lambda) on every edge.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ParseError, ShapeMismatch, ValidationError
from .network import (DEFAULT_PATH_LIMIT, Network, PathSet, build_network,
                      enumerate_paths)

# Largest relative gap between sum(z0) and the initial throughput (absolute
# below a throughput of 1).
Z0_SUM_TOL = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, horizon] with ``steps`` intervals."""

    horizon: float
    steps: int
    dt: float
    nodes: np.ndarray = field(repr=False)


def make_grid(horizon: float, steps: int) -> TimeGrid:
    dt = horizon / steps
    nodes = np.arange(steps + 1, dtype=float) * dt
    nodes[steps] = horizon  # pin the endpoint exactly
    return TimeGrid(horizon=float(horizon), steps=int(steps), dt=dt, nodes=nodes)


@dataclass(frozen=True)
class LambdaSpec:
    """Closed-form throughput family sampled onto the grid."""

    family: str
    params: dict[str, Any]

    def sample(self, grid: TimeGrid) -> np.ndarray:
        t = grid.nodes
        params = self.params

        def num(key):
            return _num(_req(params, key, "model.lambda"), f"lambda.{key}")

        if self.family == "constant":
            return np.full(t.shape, num("value"))
        if self.family == "sinusoidal":
            base = num("base")
            amp = num("amplitude")
            period = num("period")
            phase = _num(params.get("phase", 0.0), "lambda.phase")
            if period <= 0.0:
                raise ParseError("lambda.period must be positive")
            return base + amp * np.sin(2.0 * np.pi * t / period + phase)
        if self.family == "piecewise_linear":
            pts = _req(params, "points", "model.lambda")
            if not isinstance(pts, list) or not all(
                    isinstance(p, list) and len(p) == 2 for p in pts):
                raise ParseError("lambda.points must be a list of [time, value] pairs")
            ts = np.array([_num(p[0], "lambda.points time") for p in pts])
            vs = np.array([_num(p[1], "lambda.points value") for p in pts])
            if ts.size < 2 or np.any(np.diff(ts) <= 0):
                raise ParseError("lambda.points must list two or more strictly increasing times")
            return np.interp(t, ts, vs)
        raise ParseError(f"unknown lambda family {self.family!r}")


@dataclass(frozen=True)
class CongestionCost:
    """Per-edge running congestion cost as a function of total edge mass.

    Both families are nonnegative and Lipschitz on [0, rho_max]:
    ``linear`` is coeff * m, ``affine_saturating`` is coeff * min(m, rho_max).
    """

    family: str
    coeff: float
    rho_cap: float

    def __call__(self, mass):
        if self.family == "linear":
            return self.coeff * np.asarray(mass, dtype=float)
        return self.coeff * np.minimum(np.asarray(mass, dtype=float), self.rho_cap)

    def bound(self) -> float:
        """Maximum value on the admissible mass range."""
        return self.coeff * self.rho_cap

    def lipschitz(self) -> float:
        return self.coeff


@dataclass(frozen=True)
class SolverSettings:
    gamma: float = 0.5
    tol: float | None = None  # absolute; None means 1e-3 * rho_max
    max_iter: int = 500
    eps_tie: float = 1e-9
    path_limit: int = DEFAULT_PATH_LIMIT


@dataclass(frozen=True)
class ConstrainedConfig:
    enabled: bool = False
    limits: dict[str, dict[str, Any]] = field(default_factory=dict)  # edge id -> spec
    eps_rho_rel: float = 1e-6
    cap_frac: float = 0.5


@dataclass(frozen=True, eq=False)
class Scenario:
    """Validated model parameters sampled on the time grid."""

    grid: TimeGrid
    alpha: float
    beta: float
    eta: float
    rho_max: float
    lambda_spec: LambdaSpec
    lam: np.ndarray = field(repr=False)       # throughput samples on the grid
    phi: tuple[CongestionCost, ...] = field(repr=False, default=())  # by edge index
    z0: np.ndarray = field(repr=False, default=None)   # per path
    rho0: np.ndarray = field(repr=False, default=None)  # per (edge, path) pair
    z0_rule: str = "uniform"
    rho0_rule: str = "zero"
    solver: SolverSettings = SolverSettings()
    constrained: ConstrainedConfig = ConstrainedConfig()
    k: float = 0.0       # a-priori traverse-time constant, a positive grid multiple
    k_idx: int = 0

    @property
    def horizon(self) -> float:
        return self.grid.horizon

    @property
    def steps(self) -> int:
        return self.grid.steps

    @property
    def lam_max(self) -> float:
        return float(self.lam.max())

    @property
    def lam_min(self) -> float:
        return float(self.lam.min())

    @property
    def tol(self) -> float:
        return self.solver.tol if self.solver.tol is not None else 1e-3 * self.rho_max

    @property
    def lipschitz_bound(self) -> float:
        """Difference-quotient bound for admissible mass trajectories."""
        return 3.0 * self.lam_max


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


def prefix_integral(samples: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Cumulative trapezoidal integral of grid samples along the last axis.

    Returns a table Phi with Phi[..., 0] = 0 so that the integral over
    [t_a, t_b] is Phi[..., b] - Phi[..., a].  Exact for linear integrands.
    """
    g = np.asarray(samples, dtype=float)
    if g.shape[-1] != grid.steps + 1:
        raise ShapeMismatch("sample array does not match the grid")
    inc = (0.5 * grid.dt) * (g[..., 1:] + g[..., :-1])
    out = np.zeros(g.shape, dtype=float)
    np.cumsum(inc, axis=-1, out=out[..., 1:])
    return out


def _k_and_index(net: Network, grid: TimeGrid, alpha: float) -> tuple[float, int]:
    """A-priori constant traverse time used by the delayed flow estimates.

    On any edge, moving costs at least length^2 / (2 * (horizon - t)), so with
    less than length / (2 * alpha) of horizon left the stay option is always
    cheaper and the control is null.  The smallest such threshold over edges,
    rounded down to a grid multiple and clamped to [dt, horizon], is the delay;
    it is returned with its index in grid steps.
    """
    raw = float(net.lengths.min() / (2.0 * alpha))
    idx = int(math.floor(raw / grid.dt + 1e-9))
    idx = max(1, min(grid.steps, idx))
    return idx * grid.dt, idx


# ---------------------------------------------------------------------------
# Parsing


def _section(value, section: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{section} must be an object")
    return value


def _req(mapping: dict, key: str, section: str):
    if not isinstance(mapping, dict):
        raise ParseError(f"{section} must be an object")
    if key not in mapping:
        raise ParseError(f"missing key {key!r} in section {section!r}")
    return mapping[key]


def _list(mapping: dict, key: str, section: str) -> list:
    value = _req(mapping, key, section)
    if not isinstance(value, list):
        raise ParseError(f"{section}.{key} must be a list")
    return value


def _num(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where} must be a number")
    # NaN slips through the "<= 0" range checks, and JSON has no NaN or inf
    if not math.isfinite(value):
        raise ParseError(f"{where} must be a finite number")
    return float(value)


def _per_edge_specs(spec, section: str, net: Network) -> dict[str, dict]:
    """Per-edge specs of a ``default`` / ``per_edge`` section, by edge id.

    Edges with neither a ``per_edge`` entry nor a ``default`` are left out.
    """
    if not isinstance(spec, dict):
        raise ParseError(f"{section} must be an object")
    default = spec.get("default")
    per_edge = spec.get("per_edge", {})
    if not isinstance(per_edge, dict):
        raise ParseError(f"{section}.per_edge must be an object")
    specs = {}
    for e in net.edges:
        raw = per_edge.get(e.id, default)
        if raw is not None:
            if not isinstance(raw, dict):
                raise ParseError(f"{section} spec for edge {e.id!r} must be an object")
            specs[e.id] = raw
    return specs


def _explicit_vector(raw: dict, name: str, size: int, layout: str) -> np.ndarray:
    """The ``values`` list of an explicit ``z0`` or ``rho0`` rule: ``size``
    finite, nonnegative numbers."""
    values = np.array([_num(v, f"{name} value") for v in _list(raw, "values", f"model.{name}")])
    if values.shape != (size,):
        raise ParseError(f"{name}.values must list {size} entries, {layout}")
    if np.any(values < 0.0):
        raise ValidationError(f"{name} values must be >= 0")
    return values


_EDGE_KEYS = frozenset({"id", "tail", "head", "length", "capacity"})


def _network_fields(raw: dict) -> tuple[list, list[dict], str, str]:
    """Vertices, edges, origin and destination of the network section.

    Vertex and edge ids are non-empty strings; ``build_network`` takes them
    as given.
    """
    vertices = _list(raw, "vertices", "network")
    if not all(isinstance(v, str) and v for v in vertices):
        raise ParseError("network vertex ids must be non-empty strings")
    edges = _list(raw, "edges", "network")
    for e in edges:
        if not isinstance(e, dict) or not _EDGE_KEYS <= e.keys():
            raise ParseError("each network edge must be an object with keys "
                             "id, tail, head, length and capacity")
        for key in ("id", "tail", "head"):
            if not (isinstance(e[key], str) and e[key]):
                raise ParseError(f"edge {key} must be a non-empty string")
        _num(e["length"], "edge length")
        _num(e["capacity"], "edge capacity")
    ends = [_req(raw, key, "network") for key in ("origin", "destination")]
    if not all(isinstance(v, str) and v for v in ends):
        raise ParseError("network.origin and network.destination must be vertex ids")
    return vertices, edges, *ends


def _parse_phi(model: dict, net: Network, rho_max: float) -> tuple[CongestionCost, ...]:
    specs = _per_edge_specs(model.get("phi", {"default": {"family": "linear", "coeff": 0.0}}),
                            "model.phi", net)
    costs = []
    for e in net.edges:
        raw = specs.get(e.id)
        if raw is None:
            raise ParseError(f"no congestion cost for edge {e.id!r} and no default")
        family = str(_req(raw, "family", "model.phi"))
        if family not in ("linear", "affine_saturating"):
            raise ParseError(f"unknown congestion family {family!r}")
        coeff = _num(_req(raw, "coeff", "model.phi"), "phi coeff")
        if coeff < 0.0:
            raise ValidationError("assumption 2.1.3: congestion coefficients must be >= 0")
        costs.append(CongestionCost(family=family, coeff=coeff, rho_cap=rho_max))
    return tuple(costs)


def _parse_solver(data: dict) -> SolverSettings:
    raw = _section(data.get("solver", {}), "solver")
    gamma = _num(raw.get("gamma", 0.5), "solver.gamma")
    tol = raw.get("tol")
    tol = None if tol is None else _num(tol, "solver.tol")
    max_iter = raw.get("max_iter", 500)
    if isinstance(max_iter, bool) or not isinstance(max_iter, int) or max_iter < 1:
        raise ParseError("solver.max_iter must be a positive integer")
    eps_tie = _num(raw.get("eps_tie", 1e-9), "solver.eps_tie")
    path_limit = raw.get("path_limit", DEFAULT_PATH_LIMIT)
    if isinstance(path_limit, bool) or not isinstance(path_limit, int) or path_limit < 1:
        raise ParseError("solver.path_limit must be a positive integer")
    if not (0.0 < gamma <= 1.0):
        raise ValidationError("solver.gamma must lie in ]0, 1]")
    if tol is not None and tol <= 0.0:
        raise ValidationError("solver.tol must be positive")
    if eps_tie < 0.0:
        raise ValidationError("solver.eps_tie must be >= 0")
    return SolverSettings(gamma=gamma, tol=tol, max_iter=max_iter,
                          eps_tie=eps_tie, path_limit=path_limit)


def _parse_constrained(data: dict, net: Network) -> ConstrainedConfig:
    raw = _section(data.get("constrained", {}), "constrained")
    enabled = raw.get("enabled", False)
    if not isinstance(enabled, bool):
        raise ParseError("constrained.enabled must be a boolean")
    eps_rho_rel = _num(raw.get("eps_rho_rel", 1e-6), "constrained.eps_rho_rel")
    cap_frac = _num(raw.get("cap_frac", 0.5), "constrained.cap_frac")
    u = raw.get("u")
    limits = ({} if u is None else
              {eid: dict(spec) for eid, spec in _per_edge_specs(u, "constrained.u", net).items()})
    if enabled:
        missing = [e.id for e in net.edges if e.id not in limits]
        if missing:
            raise ValidationError(f"constrained mode enabled but no speed limit for edges {missing}")
        from .constrained import validate_limit_spec  # deferred: avoids an import cycle

        for eid, spec in limits.items():
            validate_limit_spec(eid, spec)
    if not (eps_rho_rel > 0.0):
        raise ValidationError("constrained.eps_rho_rel must be positive")
    if not (0.0 < cap_frac <= 1.0):
        raise ValidationError("constrained.cap_frac must lie in ]0, 1]")
    return ConstrainedConfig(enabled=enabled, limits=limits,
                             eps_rho_rel=eps_rho_rel, cap_frac=cap_frac)


def scenario_from_dict(data: dict) -> tuple[Network, PathSet, Scenario, TimeGrid]:
    """Build and validate all model objects from a parsed scenario document."""
    objs, checks = _build(data)
    for check in checks:
        if not check.passed:
            raise ValidationError(f"{check.name}: {check.detail}")
    return objs


def load_scenario(path: str | Path) -> tuple[Network, PathSet, Scenario, TimeGrid]:
    """Load a scenario file; raises ParseError / ValidationError on bad input."""
    return scenario_from_dict(_read_json(path))


def scenario_checks(data: dict) -> list[Check]:
    """All validation checks with pass/fail status, for reporting."""
    try:
        _, checks = _build(data)
    except ValidationError as exc:
        return [Check(name="structure", passed=False, detail=str(exc))]
    return checks


def _read_json(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
        data = json.loads(text)
    except OSError as exc:
        raise ParseError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"scenario file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("scenario document must be a JSON object")
    return data


def _build(data: dict) -> tuple[tuple[Network, PathSet, Scenario, TimeGrid], list[Check]]:
    if not isinstance(data, dict):
        raise ParseError("scenario document must be a JSON object")
    net_raw = _req(data, "network", "scenario")
    model = _req(data, "model", "scenario")
    if not isinstance(net_raw, dict) or not isinstance(model, dict):
        raise ParseError("network and model sections must be objects")

    solver = _parse_solver(data)
    net = build_network(*_network_fields(net_raw))
    ps = enumerate_paths(net, limit=solver.path_limit)

    horizon = _num(_req(model, "horizon", "model"), "model.horizon")
    steps = _req(model, "steps", "model")
    if isinstance(steps, bool) or not isinstance(steps, int) or steps < 1:
        raise ParseError("model.steps must be a positive integer")
    if horizon <= 0.0:
        raise ValidationError("model.horizon must be positive")
    grid = make_grid(horizon, steps)

    alpha = _num(_req(model, "alpha", "model"), "model.alpha")
    beta = _num(_req(model, "beta", "model"), "model.beta")
    eta = _num(_req(model, "eta", "model"), "model.eta")
    rho_max = _num(_req(model, "rho_max", "model"), "model.rho_max")
    for name, val in (("alpha", alpha), ("beta", beta), ("eta", eta), ("rho_max", rho_max)):
        if val <= 0.0:
            raise ValidationError(f"model.{name} must be positive")

    lam_raw = _req(model, "lambda", "model")
    if not isinstance(lam_raw, dict) or "family" not in lam_raw:
        raise ParseError("model.lambda must be an object with a 'family' key")
    lambda_spec = LambdaSpec(family=str(lam_raw["family"]),
                             params={k: v for k, v in lam_raw.items() if k != "family"})
    lam = lambda_spec.sample(grid)

    phi = _parse_phi(model, net, rho_max)
    constrained = _parse_constrained(data, net)

    z0_raw = model.get("z0", {"rule": "uniform"})
    z0_rule = str(_section(z0_raw, "model.z0").get("rule", "uniform"))
    if z0_rule == "uniform":
        z0 = np.full(ps.n_paths, lam[0] / ps.n_paths)
    elif z0_rule == "explicit":
        z0 = _explicit_vector(z0_raw, "z0", ps.n_paths, "one per path")
        total, lam0 = float(z0.sum()), float(lam[0])
        if abs(total - lam0) > Z0_SUM_TOL * max(1.0, abs(lam0)):
            raise ValidationError(
                f"z0 values sum to {total!r}, expected initial throughput {lam0!r}")
    else:
        raise ParseError(f"unknown z0 rule {z0_rule!r}")

    rho0_raw = model.get("rho0", {"rule": "zero"})
    rho0_rule = str(_section(rho0_raw, "model.rho0").get("rule", "zero"))
    if rho0_rule == "zero":
        rho0 = np.zeros(ps.pair_count)
    elif rho0_rule == "explicit":
        rho0 = _explicit_vector(rho0_raw, "rho0", ps.pair_count,
                                "one per (edge, path) pair in path-major order")
    else:
        raise ParseError(f"unknown rho0 rule {rho0_rule!r}")

    k, k_idx = _k_and_index(net, grid, alpha)
    scen = Scenario(grid=grid, alpha=alpha, beta=beta, eta=eta, rho_max=rho_max,
                    lambda_spec=lambda_spec, lam=lam, phi=phi, z0=z0, rho0=rho0,
                    z0_rule=z0_rule, rho0_rule=rho0_rule, solver=solver,
                    constrained=constrained, k=k, k_idx=k_idx)

    checks = _assumption_checks(net, scen)
    return (net, ps, scen, grid), checks


def _assumption_checks(net: Network, scen: Scenario) -> list[Check]:
    checks = []
    lam_min = scen.lam_min
    checks.append(Check(
        name="assumption 2.1.1",
        passed=lam_min > 0.0,
        detail=(f"throughput positive on the whole horizon (min sample {lam_min:g})"
                if lam_min > 0.0 else
                f"throughput must satisfy lambda(t) > 0 for all t in [0, horizon]; "
                f"min sample is {lam_min:g}")))
    rho0_zero = not np.any(scen.rho0)
    checks.append(Check(
        name="assumption 2.1.2",
        passed=True,
        detail="initial mass is zero" if rho0_zero
        else "initial mass explicitly overridden (nonzero rho0)"))
    checks.append(Check(
        name="assumption 2.1.3",
        passed=True,
        detail="congestion costs are nonnegative and Lipschitz in total edge mass"))
    lam_bar = scen.lam_max
    mass_margin = scen.rho_max > lam_bar * scen.horizon
    slack_edges = net.capacities > lam_bar
    cap_margin = bool(slack_edges.all())
    if mass_margin and cap_margin:
        detail = (f"rho_max {scen.rho_max:g} > max(lambda)*horizon "
                  f"{lam_bar * scen.horizon:g} and every capacity > {lam_bar:g}")
    elif not mass_margin:
        detail = (f"rho_max {scen.rho_max:g} <= max(lambda)*horizon "
                  f"{lam_bar * scen.horizon:g}")
    else:
        bad = [net.edges[i].id for i in np.flatnonzero(~slack_edges)]
        detail = f"edge capacity must exceed max(lambda) {lam_bar:g}; violated by {bad}"
    checks.append(Check(name="assumption 2.1.4",
                        passed=mass_margin and cap_margin, detail=detail))
    return checks


# ---------------------------------------------------------------------------
# Serialization


def scenario_to_dict(net: Network, scen: Scenario) -> dict:
    """Canonical JSON-ready echo of every resolved parameter."""
    return {
        "network": {
            "vertices": list(net.vertices),
            "edges": [{"id": e.id, "tail": e.tail, "head": e.head,
                       "length": e.length, "capacity": e.capacity}
                      for e in net.edges],
            "origin": net.origin,
            "destination": net.destination,
        },
        "model": {
            "horizon": scen.horizon,
            "steps": scen.steps,
            "alpha": scen.alpha,
            "beta": scen.beta,
            "eta": scen.eta,
            "rho_max": scen.rho_max,
            "lambda": {"family": scen.lambda_spec.family, **scen.lambda_spec.params},
            "phi": {"per_edge": {e.id: {"family": c.family, "coeff": c.coeff}
                                 for e, c in zip(net.edges, scen.phi)}},
            "z0": ({"rule": "uniform"} if scen.z0_rule == "uniform"
                   else {"rule": "explicit", "values": [float(v) for v in scen.z0]}),
            "rho0": ({"rule": "zero"} if scen.rho0_rule == "zero"
                     else {"rule": "explicit", "values": [float(v) for v in scen.rho0]}),
        },
        "solver": {
            "gamma": scen.solver.gamma,
            "tol": scen.solver.tol,
            "max_iter": scen.solver.max_iter,
            "eps_tie": scen.solver.eps_tie,
            "path_limit": scen.solver.path_limit,
        },
        "constrained": {
            "enabled": scen.constrained.enabled,
            "u": {"per_edge": scen.constrained.limits},
            "eps_rho_rel": scen.constrained.eps_rho_rel,
            "cap_frac": scen.constrained.cap_frac,
        },
    }
