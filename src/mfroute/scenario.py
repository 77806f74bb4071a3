"""Scenario loading, validation, the time grid, and quadrature helpers.

A scenario file is a single JSON document with four sections::

    network      vertices, edges (id/tail/head/length/capacity), origin, destination
    model        horizon, steps, alpha, beta, eta, rho_max, lambda, phi, z0, rho0
    solver       gamma, tol, max_iter, eps_tie, path_limit
    constrained  enabled, u (speed-limit specs), eps_rho_rel, cap_frac

All keys are lowercase snake_case and all numbers are plain decimals.  Each
object of the document is read once, by :func:`_fields`, which states each
key's default and refuses a key it does not know, so a misspelt key is a
parse error rather than a silent default.  Every spec is built at load into
the object the solver evaluates: throughput samples, :class:`CongestionCost`
and speed limits (those of a disabled ``constrained`` section too), and
:func:`scenario_to_dict` echoes the parsed values.  Model assumptions are
checked at load time and reported by name, e.g. "assumption 2.1.4" for the
capacity margins rho_max > max(lambda) * horizon and capacity > max(lambda)
on every edge.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

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
    """Closed-form throughput family with its parameters parsed at load.

    ``params`` holds floats, and for ``piecewise_linear`` the ``points`` as
    [time, value] lists, exactly as the scenario echo writes them.
    """

    family: str
    params: dict[str, Any]

    def sample(self, grid: TimeGrid) -> np.ndarray:
        t = grid.nodes
        p = self.params
        if self.family == "constant":
            return np.full(t.shape, p["value"])
        if self.family == "sinusoidal":
            return p["base"] + p["amplitude"] * np.sin(2.0 * np.pi * t / p["period"]
                                                       + p["phase"])
        times, values = np.array(p["points"]).T
        return np.interp(t, times, values)


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


@dataclass(frozen=True)
class ReciprocalSpeedLimit:
    """Speed limit coeff / mass: unbounded on an empty edge, vanishing when crowded."""

    coeff: float

    def __call__(self, mass):
        return self.coeff / np.asarray(mass, dtype=float)


@dataclass(frozen=True)
class TabulatedSpeedLimit:
    """Strictly positive, decreasing speed samples interpolated in mass."""

    masses: tuple[float, ...]
    speeds: tuple[float, ...]

    def __call__(self, mass):
        return np.interp(np.asarray(mass, dtype=float), self.masses, self.speeds)


SpeedLimit = ReciprocalSpeedLimit | TabulatedSpeedLimit


@dataclass(frozen=True)
class SolverSettings:
    gamma: float
    tol: float | None  # absolute; None means 1e-3 * rho_max
    max_iter: int
    eps_tie: float
    path_limit: int


@dataclass(frozen=True)
class ConstrainedConfig:
    enabled: bool
    limits: dict[str, SpeedLimit]  # by edge id, in edge order; every edge when enabled
    eps_rho_rel: float
    cap_frac: float


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
    phi: tuple[CongestionCost, ...] = field(repr=False)  # by edge index
    z0: np.ndarray = field(repr=False)        # per path
    rho0: np.ndarray = field(repr=False)      # per (edge, path) pair
    z0_rule: str
    rho0_rule: str
    solver: SolverSettings
    constrained: ConstrainedConfig
    k: float       # a-priori traverse-time constant, a positive grid multiple
    k_idx: int

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
    raw = float(net.lengths.min()) / (2.0 * alpha)  # +inf past the float range
    idx = max(1, math.floor(min(raw / grid.dt + 1e-9, grid.steps)))
    return idx * grid.dt, idx


# ---------------------------------------------------------------------------
# Parsing

_REQUIRED = object()  # the default of a key that must be given

# Every key of each scenario object, with its default.
_SCENARIO_KEYS = {"network": _REQUIRED, "model": _REQUIRED, "solver": {}, "constrained": {}}
_NETWORK_KEYS = dict.fromkeys(("vertices", "edges", "origin", "destination"), _REQUIRED)
_EDGE_KEYS = dict.fromkeys(("id", "tail", "head", "length", "capacity"), _REQUIRED)
_MODEL_KEYS = {**dict.fromkeys(("horizon", "steps", "alpha", "beta", "eta", "rho_max",
                                "lambda"), _REQUIRED),
               "phi": {"default": {"family": "linear", "coeff": 0.0}}, "z0": {}, "rho0": {}}
_SOLVER_KEYS = {"gamma": 0.5, "tol": None, "max_iter": 500, "eps_tie": 1e-9,
                "path_limit": DEFAULT_PATH_LIMIT}
_CONSTRAINED_KEYS = {"enabled": False, "u": None, "eps_rho_rel": 1e-6, "cap_frac": 0.5}
_PER_EDGE_KEYS = {"default": None, "per_edge": {}}  # model.phi and constrained.u
# The keys of each family, besides ``family`` itself.
_LAMBDA_FAMILIES = {
    "constant": {"value": _REQUIRED},
    "sinusoidal": {"base": _REQUIRED, "amplitude": _REQUIRED, "period": _REQUIRED,
                   "phase": 0.0},
    "piecewise_linear": {"points": _REQUIRED}}
_PHI_FAMILIES = {"linear": {"coeff": _REQUIRED}, "affine_saturating": {"coeff": _REQUIRED}}
_LIMIT_FAMILIES = {"reciprocal": {"coeff": _REQUIRED},
                   "table": {"masses": _REQUIRED, "speeds": _REQUIRED}}


def _fields(raw, where: str, keys: dict[str, Any]) -> dict[str, Any]:
    """The keys of the scenario object ``raw`` at ``where``, each with its default.

    ``keys`` maps every key the object may hold to its default, or to
    ``_REQUIRED``.  Any other key is a parse error that names ``where.key``.
    """
    if not isinstance(raw, dict):
        raise ParseError(f"{where} must be an object")
    out = {**keys, **raw}
    if len(out) > len(keys):
        unknown = next(key for key in raw if key not in keys)
        raise ParseError(f"unknown key {where}.{unknown}")
    for key, value in out.items():
        if value is _REQUIRED:
            raise ParseError(f"missing key {key!r} in section {where!r}")
    return out


def _variant(raw, where: str, key: str, variants: dict[str, dict[str, Any]],
             default: Any = _REQUIRED) -> tuple[str, dict[str, Any]]:
    """The variant that ``raw[key]`` names (a family or a rule) and its
    parameters, read by :func:`_fields` against the keys of that variant."""
    if not isinstance(raw, dict):
        raise ParseError(f"{where} must be an object")
    name = raw.get(key, default)
    if name is _REQUIRED:
        raise ParseError(f"missing key {key!r} in section {where!r}")
    if not isinstance(name, str) or name not in variants:
        raise ParseError(f"unknown {where}.{key} {name!r}")
    params = _fields(raw, where, {key: default, **variants[name]})
    del params[key]
    return name, params


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where} must be a list")
    return value


def _num(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where} must be a number")
    # NaN slips through the "<= 0" range checks, JSON has no NaN or inf, and
    # an integer beyond float range has no float to stand for it
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ParseError(f"{where} must be a finite number")
    return value


def _positive(value, where: str) -> float:
    value = _num(value, where)
    if value <= 0.0:
        raise ValidationError(f"{where} must be positive")
    return value


def _numbers(value, where: str) -> list[float]:
    return [_num(v, f"{where} entry") for v in _list(value, where)]


def _positive_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ParseError(f"{where} must be a positive integer")
    return value


def _name(value, where: str) -> str:
    """A vertex or edge id: a non-empty string, which ``build_network``
    takes as given."""
    if not (isinstance(value, str) and value):
        raise ParseError(f"{where} must be a non-empty string")
    return value


def _parse_network(raw) -> Network:
    f = _fields(raw, "network", _NETWORK_KEYS)
    vertices = [_name(v, "network vertex id") for v in _list(f["vertices"], "network.vertices")]
    edges = []
    for i, e in enumerate(_list(f["edges"], "network.edges")):
        e = _fields(e, f"network.edges[{i}]", _EDGE_KEYS)
        _name(e["id"], "edge id")
        _name(e["tail"], "edge tail")
        _name(e["head"], "edge head")
        _num(e["length"], "edge length")
        _num(e["capacity"], "edge capacity")
        edges.append(e)
    return build_network(vertices, edges, _name(f["origin"], "network.origin"),
                         _name(f["destination"], "network.destination"))


def _per_edge(raw, where: str, net: Network, build: Callable[[Any, str], Any]) -> dict:
    """The objects of a ``default`` / ``per_edge`` section, by edge id in edge order.

    ``build(spec, where)`` turns one spec into its object.  Every spec given
    is built, also one that no edge uses; edges with neither a ``per_edge``
    entry nor a ``default`` are left out.  A ``per_edge`` key that is no edge
    id is a parse error, so a misspelt id never falls back to the default.
    """
    f = _fields(raw, where, _PER_EDGE_KEYS)
    if not isinstance(f["per_edge"], dict):
        raise ParseError(f"{where}.per_edge must be an object")
    for eid in f["per_edge"]:
        if eid not in net.edge_index:
            raise ParseError(f"{where}.per_edge.{eid} names no edge")
    default = None if f["default"] is None else build(f["default"], f"{where}.default")
    given = {eid: build(spec, f"{where}.per_edge.{eid}") for eid, spec in f["per_edge"].items()}
    built = {e.id: given.get(e.id, default) for e in net.edges}
    return {eid: obj for eid, obj in built.items() if obj is not None}


def _parse_lambda(raw) -> LambdaSpec:
    where = "model.lambda"
    family, p = _variant(raw, where, "family", _LAMBDA_FAMILIES)
    if family != "piecewise_linear":
        params = {key: _num(value, f"{where}.{key}") for key, value in p.items()}
        if family == "sinusoidal" and params["period"] <= 0.0:
            raise ParseError(f"{where}.period must be positive")
        return LambdaSpec(family=family, params=params)
    pts = _list(p["points"], f"{where}.points")
    if not all(isinstance(q, list) and len(q) == 2 for q in pts):
        raise ParseError(f"{where}.points must be a list of [time, value] pairs")
    points = [[_num(t, f"{where}.points time"), _num(v, f"{where}.points value")]
              for t, v in pts]
    if len(points) < 2 or any(b[0] <= a[0] for a, b in zip(points, points[1:])):
        raise ParseError(f"{where}.points must list two or more strictly increasing times")
    return LambdaSpec(family=family, params={"points": points})


def _congestion_cost(raw, where: str, rho_max: float) -> CongestionCost:
    family, p = _variant(raw, where, "family", _PHI_FAMILIES)
    coeff = _num(p["coeff"], f"{where}.coeff")
    if coeff < 0.0:
        raise ValidationError("assumption 2.1.3: congestion coefficients must be >= 0")
    return CongestionCost(family=family, coeff=coeff, rho_cap=rho_max)


def _speed_limit(raw, where: str) -> SpeedLimit:
    family, p = _variant(raw, where, "family", _LIMIT_FAMILIES)
    if family == "reciprocal":
        return ReciprocalSpeedLimit(coeff=_positive(p["coeff"], f"{where}.coeff"))
    masses = _numbers(p["masses"], f"{where}.masses")
    speeds = _numbers(p["speeds"], f"{where}.speeds")
    if len(masses) != len(speeds) or len(masses) < 2:
        raise ParseError(f"{where} needs masses and speeds lists of one length >= 2")
    if np.any(np.diff(masses) <= 0):
        raise ValidationError(f"{where}: masses must be strictly increasing")
    if min(speeds) <= 0 or np.any(np.diff(speeds) >= 0):
        raise ValidationError(f"{where}: speeds must be strictly positive and decreasing")
    return TabulatedSpeedLimit(masses=tuple(masses), speeds=tuple(speeds))


def _initial(raw, name: str, default: str, size: int,
             layout: str) -> tuple[str, np.ndarray | None]:
    """Rule of a ``z0`` or ``rho0`` object, and the ``values`` of an explicit
    rule: ``size`` finite, nonnegative numbers."""
    rule, p = _variant(raw, f"model.{name}", "rule",
                       {default: {}, "explicit": {"values": _REQUIRED}}, default)
    if rule == default:
        return rule, None
    values = np.array(_numbers(p["values"], f"{name} values"))
    if values.shape != (size,):
        raise ParseError(f"{name}.values must list {size} entries, {layout}")
    if np.any(values < 0.0):
        raise ValidationError(f"{name} values must be >= 0")
    return rule, values


def _parse_solver(raw) -> SolverSettings:
    f = _fields(raw, "solver", _SOLVER_KEYS)
    gamma = _num(f["gamma"], "solver.gamma")
    tol = None if f["tol"] is None else _positive(f["tol"], "solver.tol")
    max_iter = _positive_int(f["max_iter"], "solver.max_iter")
    eps_tie = _num(f["eps_tie"], "solver.eps_tie")
    path_limit = _positive_int(f["path_limit"], "solver.path_limit")
    if not (0.0 < gamma <= 1.0):
        raise ValidationError("solver.gamma must lie in ]0, 1]")
    if eps_tie < 0.0:
        raise ValidationError("solver.eps_tie must be >= 0")
    return SolverSettings(gamma=gamma, tol=tol, max_iter=max_iter,
                          eps_tie=eps_tie, path_limit=path_limit)


def _parse_constrained(raw, net: Network) -> ConstrainedConfig:
    f = _fields(raw, "constrained", _CONSTRAINED_KEYS)
    enabled = f["enabled"]
    if not isinstance(enabled, bool):
        raise ParseError("constrained.enabled must be a boolean")
    eps_rho_rel = _positive(f["eps_rho_rel"], "constrained.eps_rho_rel")
    cap_frac = _num(f["cap_frac"], "constrained.cap_frac")
    # parsed whether or not the mode is on, so --constrained finds them valid
    limits = {} if f["u"] is None else _per_edge(f["u"], "constrained.u", net, _speed_limit)
    if enabled:
        missing = [e.id for e in net.edges if e.id not in limits]
        if missing:
            raise ValidationError(f"constrained mode enabled but no speed limit for edges {missing}")
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
    except ValueError as exc:  # also bad UTF-8, or an integer of too many digits
        raise ParseError(f"scenario file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("scenario document must be a JSON object")
    return data


def _build(data: dict) -> tuple[tuple[Network, PathSet, Scenario, TimeGrid], list[Check]]:
    doc = _fields(data, "scenario", _SCENARIO_KEYS)
    model = _fields(doc["model"], "model", _MODEL_KEYS)

    solver = _parse_solver(doc["solver"])
    net = _parse_network(doc["network"])
    ps = enumerate_paths(net, limit=solver.path_limit)

    horizon, alpha, beta, eta, rho_max = (
        _positive(model[name], f"model.{name}")
        for name in ("horizon", "alpha", "beta", "eta", "rho_max"))
    half_max = float(np.finfo(float).max) / 2  # twice a grid time must stay finite
    if horizon > half_max:
        raise ValidationError(f"model.horizon must be at most {half_max!r}")
    grid = make_grid(horizon, _positive_int(model["steps"], "model.steps"))

    lambda_spec = _parse_lambda(model["lambda"])
    lam = lambda_spec.sample(grid)

    costs = _per_edge(model["phi"], "model.phi", net,
                      lambda raw, where: _congestion_cost(raw, where, rho_max))
    missing = [e.id for e in net.edges if e.id not in costs]
    if missing:
        raise ParseError(f"no congestion cost for edges {missing} and no default")
    constrained = _parse_constrained(doc["constrained"], net)

    z0_rule, z0 = _initial(model["z0"], "z0", "uniform", ps.n_paths, "one per path")
    if z0 is None:
        z0 = np.full(ps.n_paths, lam[0] / ps.n_paths)
    else:
        total, lam0 = float(z0.sum()), float(lam[0])
        if abs(total - lam0) > Z0_SUM_TOL * max(1.0, abs(lam0)):
            raise ValidationError(
                f"z0 values sum to {total!r}, expected initial throughput {lam0!r}")
    rho0_rule, rho0 = _initial(model["rho0"], "rho0", "zero", ps.pair_count,
                               "one per (edge, path) pair in path-major order")
    if rho0 is None:
        rho0 = np.zeros(ps.pair_count)

    k, k_idx = _k_and_index(net, grid, alpha)
    scen = Scenario(grid=grid, alpha=alpha, beta=beta, eta=eta, rho_max=rho_max,
                    lambda_spec=lambda_spec, lam=lam, phi=tuple(costs.values()),
                    z0=z0, rho0=rho0, z0_rule=z0_rule, rho0_rule=rho0_rule,
                    solver=solver, constrained=constrained, k=k, k_idx=k_idx)

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
    mass_margin = scen.rho_max > lam_bar * scen.grid.horizon
    slack_edges = net.capacities > lam_bar
    cap_margin = bool(slack_edges.all())
    if mass_margin and cap_margin:
        detail = (f"rho_max {scen.rho_max:g} > max(lambda)*horizon "
                  f"{lam_bar * scen.grid.horizon:g} and every capacity > {lam_bar:g}")
    elif not mass_margin:
        detail = (f"rho_max {scen.rho_max:g} <= max(lambda)*horizon "
                  f"{lam_bar * scen.grid.horizon:g}")
    else:
        bad = [net.edges[i].id for i in np.flatnonzero(~slack_edges)]
        detail = f"edge capacity must exceed max(lambda) {lam_bar:g}; violated by {bad}"
    checks.append(Check(name="assumption 2.1.4",
                        passed=mass_margin and cap_margin, detail=detail))
    return checks


# ---------------------------------------------------------------------------
# Serialization


def _limit_spec(limit: SpeedLimit) -> dict:
    if isinstance(limit, ReciprocalSpeedLimit):
        return {"family": "reciprocal", "coeff": limit.coeff}
    return {"family": "table", "masses": list(limit.masses), "speeds": list(limit.speeds)}


def _initial_spec(rule: str, values: np.ndarray) -> dict:
    return {"rule": rule, "values": values.tolist()} if rule == "explicit" else {"rule": rule}


def scenario_to_dict(net: Network, scen: Scenario) -> dict:
    """Canonical JSON-ready echo of every resolved parameter.

    Written from the parsed values, defaults included; parsing the echo
    again gives the same scenario.
    """
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
            "horizon": scen.grid.horizon,
            "steps": scen.grid.steps,
            "alpha": scen.alpha,
            "beta": scen.beta,
            "eta": scen.eta,
            "rho_max": scen.rho_max,
            "lambda": {"family": scen.lambda_spec.family, **scen.lambda_spec.params},
            "phi": {"per_edge": {e.id: {"family": c.family, "coeff": c.coeff}
                                 for e, c in zip(net.edges, scen.phi)}},
            "z0": _initial_spec(scen.z0_rule, scen.z0),
            "rho0": _initial_spec(scen.rho0_rule, scen.rho0),
        },
        "solver": dataclasses.asdict(scen.solver),
        "constrained": {
            "enabled": scen.constrained.enabled,
            "u": {"per_edge": {eid: _limit_spec(limit)
                               for eid, limit in scen.constrained.limits.items()}},
            "eps_rho_rel": scen.constrained.eps_rho_rel,
            "cap_frac": scen.constrained.cap_frac,
        },
    }
