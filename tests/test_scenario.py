"""Scenario parsing, assumption checks, quadrature, and the delay constant."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from mfroute import (ParseError, ShapeMismatch, ValidationError, apply_psi,
                     load_scenario, make_grid, prefix_integral, scenario_checks,
                     scenario_from_dict, scenario_to_dict)

from conftest import (ROOT, SCENARIOS, WORKLOADS, admissible_mass, build, diamond_dict,
                      zero_mass)


def test_default_scenario_valid():
    net, ps, scen, grid = build(diamond_dict(steps=100))
    assert scen.grid.horizon == 10.0 and scen.grid.steps == 100
    assert scen.lam_max == 1.0 and scen.lam_min == 1.0
    assert scen.rho_max == 20.0
    assert scen.tol == pytest.approx(0.02)
    assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 10.0


def test_rho_max_margin_violation_names_assumption():
    doc = diamond_dict(steps=100, model={"rho_max": 5.0})
    with pytest.raises(ValidationError, match="assumption 2.1.4"):
        build(doc)
    checks = {c.name: c for c in scenario_checks(doc)}
    assert not checks["assumption 2.1.4"].passed


def test_capacity_margin_violation_names_assumption():
    edges = [dict(e) for e in diamond_dict()["network"]["edges"]]
    edges[2]["capacity"] = 0.5  # below max lambda
    doc = diamond_dict(steps=100, edges=edges)
    with pytest.raises(ValidationError, match="assumption 2.1.4"):
        build(doc)


def test_zero_throughput_names_assumption():
    doc = diamond_dict(steps=100, model={
        "lambda": {"family": "piecewise_linear", "points": [[0.0, 0.0], [10.0, 1.0]]}})
    with pytest.raises(ValidationError, match="assumption 2.1.1"):
        build(doc)


def test_malformed_documents_raise_parse_error(write_scenario, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        load_scenario(bad)
    with pytest.raises(ParseError):
        scenario_from_dict({"model": {}})
    doc = diamond_dict(steps=100)
    del doc["model"]["alpha"]
    with pytest.raises(ParseError):
        scenario_from_dict(doc)
    doc = diamond_dict(steps=100)
    doc["model"]["steps"] = 2.5
    with pytest.raises(ParseError):
        scenario_from_dict(doc)
    for section, key in (("solver", "tol"), ("model", "alpha")):
        doc = diamond_dict(steps=100)
        doc[section][key] = float("nan")
        with pytest.raises(ParseError, match="finite"):
            scenario_from_dict(doc)


RECIPROCAL = {"family": "reciprocal", "coeff": 1.0}


def _with(path, value, constrained=None):
    """Diamond document with the entry at ``path`` (a key tuple) set to ``value``."""
    doc = diamond_dict(steps=50, constrained=constrained)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


MALFORMED_SPECS = {
    "lambda-value-not-a-number": _with(("model", "lambda", "value"), "abc"),
    "lambda-value-missing": _with(("model", "lambda"), {"family": "constant"}),
    "lambda-sinusoidal-base": _with(("model", "lambda"), {
        "family": "sinusoidal", "base": "abc", "amplitude": 0.1, "period": 5.0}),
    "lambda-sinusoidal-period-missing": _with(("model", "lambda"), {
        "family": "sinusoidal", "base": 1.0, "amplitude": 0.1}),
    "lambda-points-value": _with(("model", "lambda"), {
        "family": "piecewise_linear", "points": [[0.0, 1.0], [10.0, "x"]]}),
    "lambda-points-not-pairs": _with(("model", "lambda"), {
        "family": "piecewise_linear", "points": [0.0, 10.0]}),
    "lambda-sinusoidal-period-zero": _with(("model", "lambda"), {
        "family": "sinusoidal", "base": 1.0, "amplitude": 0.1, "period": 0.0}),
    "lambda-points-not-increasing": _with(("model", "lambda"), {
        "family": "piecewise_linear", "points": [[0.0, 1.0], [5.0, 1.2], [5.0, 1.0]]}),
    "lambda-points-single": _with(("model", "lambda"), {
        "family": "piecewise_linear", "points": [[0.0, 1.0]]}),
    "lambda-family-missing": _with(("model", "lambda"), {"value": 1.0}),
    "phi-per-edge-only": _with(("model", "phi"), {
        "per_edge": {"e1": {"family": "linear", "coeff": 0.1}}}),
    "phi-default-number": _with(("model", "phi"), {"default": 5}),
    "phi-per-edge-number": _with(("model", "phi", "per_edge"), 5),
    "u-default-number": _with(("constrained", "u"), {"default": 5},
                              constrained={"enabled": True}),
    "u-default-number-disabled": _with(("constrained", "u"), {"default": 5},
                                       constrained={"enabled": False}),
    "u-unknown-family-disabled": _with(("constrained", "u"), {"default": {"family": "nope"}},
                                       constrained={"enabled": False}),
    "u-per-edge-string": _with(("constrained", "u"), {
        "default": RECIPROCAL, "per_edge": {"e1": "fast"}}, constrained={"enabled": True}),
    "u-table-masses": _with(("constrained", "u"), {"default": {
        "family": "table", "masses": ["a", "b"], "speeds": [2.0, 1.0]}},
        constrained={"enabled": True}),
    "u-table-lengths-differ": _with(("constrained", "u"), {"default": {
        "family": "table", "masses": [0.1, 1.0, 5.0], "speeds": [2.0, 1.0]}},
        constrained={"enabled": True}),
    "constrained-enabled-not-boolean": _with(("constrained", "enabled"), 1,
                                             constrained={"enabled": False}),
    "z0-number": _with(("model", "z0"), 5),
    "rho0-values-number": _with(("model", "rho0"), {"rule": "explicit", "values": 0.0}),
    "edge-length-not-a-number": _with(("network", "edges", 0, "length"), "abc"),
    "horizon-beyond-float-range": _with(("model", "horizon"), 10**400),
    "edge-length-beyond-float-range": _with(("network", "edges", 0, "length"), -10**400),
    "edge-not-an-object": _with(("network", "edges", 0), 5),
    "origin-list": _with(("network", "origin"), []),
    "origin-empty": _with(("network", "origin"), ""),
    "vertex-null": _with(("network", "vertices", 3), None),
    "vertex-number": _with(("network", "vertices", 0), 7),
    "vertex-empty": _with(("network", "vertices", 1), ""),
    "edge-id-null": _with(("network", "edges", 2, "id"), None),
    "edge-id-list": _with(("network", "edges", 4, "id"), ["x"]),
    "edge-id-empty": _with(("network", "edges", 0, "id"), ""),
    "edge-id-number": _with(("network", "edges", 0, "id"), 1),
    "edge-tail-list": _with(("network", "edges", 1, "tail"), ["o"]),
    "edge-head-null": _with(("network", "edges", 3, "head"), None),
}


@pytest.mark.parametrize("doc", MALFORMED_SPECS.values(), ids=MALFORMED_SPECS.keys())
def test_malformed_nested_specs_raise_parse_error(doc):
    with pytest.raises(ParseError):
        scenario_from_dict(doc)
    # validate reports the same error rather than a list of checks
    with pytest.raises(ParseError):
        scenario_checks(doc)


# (path to an object of the document, a key it does not know, how the error names it)
UNKNOWN_KEYS = [
    ((), "extra", "scenario.extra"),
    (("network",), "vertex", "network.vertex"),
    (("network", "edges", 0), "len", "network.edges[0].len"),
    (("model",), "rho_mx", "model.rho_mx"),
    (("model", "lambda"), "phase", "model.lambda.phase"),  # constant takes only value
    (("model", "phi"), "defaults", "model.phi.defaults"),
    (("model", "phi", "default"), "coef", "model.phi.default.coef"),
    (("model", "z0"), "values", "model.z0.values"),  # uniform takes no values
    (("model", "rho0"), "value", "model.rho0.value"),
    (("solver",), "max_iters", "solver.max_iters"),
    (("constrained",), "enable", "constrained.enable"),
    (("constrained", "u"), "defaults", "constrained.u.defaults"),
    (("constrained", "u", "default"), "coef", "constrained.u.default.coef"),
]


@pytest.mark.parametrize("path, key, where", UNKNOWN_KEYS,
                         ids=[where for _, _, where in UNKNOWN_KEYS])
def test_unknown_key_is_parse_error(path, key, where):
    doc = diamond_dict(steps=20, model={"z0": {"rule": "uniform"}, "rho0": {"rule": "zero"}},
                       constrained={"enabled": False, "u": {"default": dict(RECIPROCAL)}})
    build(doc)
    node = doc
    for step in path:
        node = node[step]
    node[key] = 3
    with pytest.raises(ParseError, match=rf"^unknown key {re.escape(where)}$"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("section, key", [("model", "phi"), ("constrained", "u")])
def test_per_edge_key_that_is_no_edge_is_parse_error(section, key):
    # a misspelt edge id must not leave its edge on the default spec
    doc = diamond_dict(steps=20, constrained={"enabled": False,
                                              "u": {"default": dict(RECIPROCAL)}})
    spec = {"family": "linear", "coeff": 5.0} if key == "phi" else dict(RECIPROCAL)
    doc[section][key]["per_edge"] = {"e3": spec, "e9": spec}
    where = f"{section}.{key}.per_edge.e9"
    with pytest.raises(ParseError, match=rf"^{re.escape(where)} names no edge$"):
        scenario_from_dict(doc)
    with pytest.raises(ParseError, match=re.escape(where)):
        scenario_checks(doc)
    del doc[section][key]["per_edge"]["e9"]
    net, ps, scen, grid = build(doc)
    assert scenario_to_dict(net, scen)[section][key]["per_edge"]["e3"] == spec


def test_omitted_keys_take_their_defaults():
    doc = diamond_dict(steps=20)
    del doc["model"]["phi"]
    doc["solver"] = {}
    net, ps, scen, grid = build(doc)
    echo = scenario_to_dict(net, scen)
    assert echo["model"]["phi"] == {"per_edge": {e.id: {"family": "linear", "coeff": 0.0}
                                                 for e in net.edges}}
    assert (echo["model"]["z0"], echo["model"]["rho0"]) == ({"rule": "uniform"},
                                                             {"rule": "zero"})
    assert echo["solver"] == {"gamma": 0.5, "tol": None, "max_iter": 500, "eps_tie": 1e-9,
                              "path_limit": 10000}
    assert echo["constrained"] == {"enabled": False, "u": {"per_edge": {}},
                                   "eps_rho_rel": 1e-6, "cap_frac": 0.5}
    doc["model"]["lambda"] = {"family": "sinusoidal", "base": 1.0, "amplitude": 0.1,
                              "period": 5.0}
    assert build(doc)[2].lambda_spec.params["phase"] == 0.0


def test_load_from_file(write_scenario):
    path = write_scenario(diamond_dict(steps=50))
    net, ps, scen, grid = load_scenario(path)
    assert scen.grid.steps == 50


def test_lambda_families():
    doc = diamond_dict(steps=100, model={
        "rho_max": 30.0,
        "lambda": {"family": "sinusoidal", "base": 2.0, "amplitude": 0.5,
                   "period": 5.0, "phase": 0.25}})
    edges = doc["network"]["edges"]
    for e in edges:
        e["capacity"] = 3.0
    _, _, scen, grid = build(doc)
    expected = 2.0 + 0.5 * np.sin(2 * np.pi * grid.nodes / 5.0 + 0.25)
    assert np.array_equal(scen.lam, expected)

    doc = diamond_dict(steps=100, model={
        "rho_max": 30.0,
        "lambda": {"family": "piecewise_linear",
                   "points": [[0.0, 1.0], [5.0, 2.0], [10.0, 1.5]]}})
    for e in doc["network"]["edges"]:
        e["capacity"] = 3.0
    _, _, scen, grid = build(doc)
    assert np.array_equal(scen.lam,
                          np.interp(grid.nodes, [0.0, 5.0, 10.0], [1.0, 2.0, 1.5]))

    with pytest.raises(ParseError):
        build(diamond_dict(model={"lambda": {"family": "mystery"}}))


def test_prefix_integral_constant_is_time():
    grid = make_grid(1.0, 8)  # dyadic step, sums exact
    phi = prefix_integral(np.ones(9), grid)
    assert np.array_equal(phi, grid.nodes)
    grid10 = make_grid(1.0, 10)
    phi10 = prefix_integral(np.ones(11), grid10)
    assert np.allclose(phi10, grid10.nodes, rtol=0, atol=1e-15)


def test_prefix_integral_linear_exact():
    grid = make_grid(1.0, 8)
    phi = prefix_integral(grid.nodes.copy(), grid)
    assert phi[-1] == 0.5


def test_prefix_integral_quadratic_accuracy():
    grid = make_grid(1.0, 100)
    phi = prefix_integral(grid.nodes**2, grid)
    assert abs(phi[-1] - 1.0 / 3.0) <= 1e-4


def test_prefix_integral_monotone_for_nonnegative():
    rng = np.random.default_rng(11)
    grid = make_grid(3.0, 64)
    g = rng.uniform(0.0, 5.0, size=65)
    phi = prefix_integral(g, grid)
    assert np.all(np.diff(phi) >= 0.0)


@pytest.mark.parametrize("shape", [(8,), (2, 10)], ids=["a-node-short", "a-node-long"])
def test_prefix_integral_refuses_samples_off_the_grid(shape):
    with pytest.raises(ShapeMismatch, match="does not match the grid"):
        prefix_integral(np.ones(shape), make_grid(1.0, 8))


def test_integral_difference_matches_subinterval():
    grid = make_grid(2.0, 40)
    g = np.cos(grid.nodes)
    phi = prefix_integral(g, grid)
    a, b = 7, 31
    direct = prefix_integral(g[a:b + 1], make_grid(grid.dt * (b - a), b - a))
    assert phi[b] - phi[a] == pytest.approx(direct[-1], rel=1e-12)


def test_compute_k_threshold_and_rounding():
    net, ps, scen, grid = build(diamond_dict(steps=1000))
    assert scen.k == pytest.approx(0.5)
    assert scen.k_idx == 50
    assert scen.k == scen.k_idx * grid.dt


def test_compute_k_clamps_to_horizon():
    edges = [dict(e) for e in diamond_dict()["network"]["edges"]]
    for e in edges:
        e["length"] = 2.0
    doc = diamond_dict(steps=10, edges=edges,
                       model={"horizon": 5.0, "alpha": 0.1, "rho_max": 60.0})
    net, ps, scen, grid = build(doc)
    # raw threshold 2 / 0.2 = 10 exceeds the horizon
    assert scen.k == 5.0 and scen.k_idx == 10


def test_compute_k_floor_is_one_step():
    doc = diamond_dict(steps=100, model={"alpha": 1e9})
    net, ps, scen, grid = build(doc)
    assert scen.k_idx == 1 and scen.k == grid.dt


def test_k_independent_of_mass_state():
    net, ps, scen, grid = build(diamond_dict(steps=100))
    assert scen.k_idx * grid.dt == scen.k
    assert scen.k > 0.0
    # the unconstrained map delays every edge by k, whatever the mass
    rng = np.random.default_rng(5)
    for mass in (zero_mass(ps, grid), admissible_mass(rng, ps, scen)):
        assert apply_psi(net, ps, scen, mass).k_idx_edges.tolist() == [scen.k_idx] * 5


def test_scenario_round_trips_through_serialization():
    doc = diamond_dict(steps=40, model={
        "beta": 2.5,
        "z0": {"rule": "explicit", "values": [0.5, 0.25, 0.25]},
        "phi": {"default": {"family": "linear", "coeff": 0.1},
                "per_edge": {"e3": {"family": "affine_saturating", "coeff": 0.2}}}})
    net, ps, scen, grid = build(doc)
    echo = scenario_to_dict(net, scen)
    echo2 = json.loads(json.dumps(echo))
    net2, ps2, scen2, grid2 = scenario_from_dict(echo2)
    assert scenario_to_dict(net2, scen2) == echo
    assert np.array_equal(scen2.lam, scen.lam)
    assert np.array_equal(scen2.z0, scen.z0)
    assert scen2.phi == scen.phi


ECHO_DOCS = {
    "sinusoidal-explicit-rho0": diamond_dict(steps=30, model={
        "rho_max": 30.0,
        "lambda": {"family": "sinusoidal", "base": 1.0, "amplitude": 0.5, "period": 4.0,
                   "phase": 0.3},
        "rho0": {"rule": "explicit", "values": [0.5, 0.0, 0.25, 0.0, 0.0, 0.0, 0.0]}}),
    "piecewise-linear": diamond_dict(steps=30, model={
        "lambda": {"family": "piecewise_linear", "points": [[0.0, 1.0], [4.0, 1.5],
                                                            [10.0, 0.5]]}}),
    "table-limits-disabled": diamond_dict(steps=30, constrained={
        "enabled": False, "cap_frac": 0.25,
        "u": {"per_edge": {"e2": {"family": "table", "masses": [0.0, 1.5, 20.0],
                                  "speeds": [3.0, 1.0, 0.25]}}}}),
    "table-limits-enabled": diamond_dict(steps=30, solver={"tol": 0.5, "eps_tie": 0.0},
                                         constrained={
        "enabled": True,
        "u": {"default": RECIPROCAL,
              "per_edge": {"e3": {"family": "table", "masses": [0.5, 2.0],
                                  "speeds": [2.0, 0.125]}}}}),
}


@pytest.mark.parametrize("doc", ECHO_DOCS.values(), ids=ECHO_DOCS.keys())
def test_echo_is_a_fixed_point(doc):
    net, ps, scen, grid = build(doc)
    echo = json.dumps(scenario_to_dict(net, scen), sort_keys=True)
    net2, ps2, scen2, grid2 = build(json.loads(echo))
    assert json.dumps(scenario_to_dict(net2, scen2), sort_keys=True) == echo
    assert scen2.constrained == scen.constrained and scen2.lambda_spec == scen.lambda_spec
    for attr in ("lam", "z0", "rho0"):
        assert getattr(scen2, attr).tobytes() == getattr(scen, attr).tobytes()


ECHO_GOLDEN = json.loads((ROOT / "tests" / "data" / "scenario_echo.json").read_text())


def echo_golden_doc(name: str) -> dict:
    """The shipped scenario ``name``, or the benchmark workload ``name`` at seed 1."""
    if name in WORKLOADS.WORKLOADS:
        return WORKLOADS.WORKLOADS[name](ROOT, 1)
    return json.loads((SCENARIOS / f"{name}.json").read_text())


@pytest.mark.parametrize("name", sorted(ECHO_GOLDEN))
def test_echo_equals_the_pinned_echo(name):
    net, ps, scen, grid = build(echo_golden_doc(name))
    assert (json.dumps(scenario_to_dict(net, scen), sort_keys=True)
            == json.dumps(ECHO_GOLDEN[name], sort_keys=True))


@pytest.mark.parametrize("name", ["diamond_coarse", "diamond_default",
                                  "diamond_constrained"])
def test_shipped_scenario_round_trips_exactly(name):
    # CLI flags are applied by parsing the echo again, so it must rebuild
    # the same settings, samples and map bit for bit
    net, ps, scen, grid = load_scenario(SCENARIOS / f"{name}.json")
    net2, ps2, scen2, grid2 = scenario_from_dict(scenario_to_dict(net, scen))
    assert scenario_to_dict(net2, scen2) == scenario_to_dict(net, scen)
    assert scen2.solver == scen.solver and scen2.constrained == scen.constrained
    for attr in ("lam", "z0", "rho0"):
        assert getattr(scen2, attr).tobytes() == getattr(scen, attr).tobytes()
    mass = zero_mass(ps, grid)
    psi = apply_psi(net, ps, scen, mass)
    psi2 = apply_psi(net2, ps2, scen2, mass)
    assert psi2.mass.values.tobytes() == psi.mass.values.tobytes()
    assert psi2.value.tobytes() == psi.value.tobytes()


def test_explicit_z0_must_match_path_count():
    with pytest.raises(ParseError):
        build(diamond_dict(model={"z0": {"rule": "explicit", "values": [1.0]}}))


def test_explicit_z0_must_be_nonnegative():
    # sums to lambda(0) = 1, but a negative preference is no split of it
    with pytest.raises(ValidationError, match=r"^z0 values must be >= 0$"):
        build(diamond_dict(model={"z0": {"rule": "explicit", "values": [-1.0, 1.0, 1.0]}}))


def test_explicit_z0_must_sum_to_initial_throughput():
    with pytest.raises(ValidationError, match=r"^z0 values sum to 1\.25, expected "
                                              r"initial throughput 1\.0$"):
        build(diamond_dict(model={"z0": {"rule": "explicit", "values": [0.5, 0.5, 0.25]}}))
    with pytest.raises(ValidationError, match="z0 values sum to"):
        build(diamond_dict(model={"z0": {"rule": "explicit",
                                         "values": [0.5, 0.25, 0.25 + 1e-8]}}))
    # within the tolerance the preference stage accepts the vector as it is
    net, ps, scen, grid = build(diamond_dict(steps=4, model={
        "z0": {"rule": "explicit", "values": [0.5, 0.25, 0.25 + 1e-12]}}))
    assert scen.z0.tolist() == [0.5, 0.25, 0.25 + 1e-12]
    apply_psi(net, ps, scen, zero_mass(ps, grid))


def test_rho0_explicit_shape_and_sign():
    with pytest.raises(ParseError):
        build(diamond_dict(model={"rho0": {"rule": "explicit", "values": [0.0] * 3}}))
    with pytest.raises(ValidationError):
        build(diamond_dict(model={"rho0": {"rule": "explicit", "values": [-1.0] + [0.0] * 6}}))


def test_validation_check_listing_passes_default():
    checks = scenario_checks(diamond_dict(steps=100))
    names = [c.name for c in checks]
    assert names == ["assumption 2.1.1", "assumption 2.1.2",
                     "assumption 2.1.3", "assumption 2.1.4"]
    assert all(c.passed for c in checks)


def test_affine_saturating_phi():
    doc = diamond_dict(steps=50, model={
        "phi": {"default": {"family": "affine_saturating", "coeff": 0.3}}})
    _, _, scen, _ = build(doc)
    cost = scen.phi[0]
    assert cost(10.0) == pytest.approx(3.0)
    assert cost(25.0) == pytest.approx(0.3 * 20.0)  # saturates at rho_max
    assert cost(scen.rho_max) == pytest.approx(6.0)  # its bound on [0, rho_max]


# (document with a setting out of its range, how the error names it)
OUT_OF_RANGE = {
    "gamma-0": (_with(("solver", "gamma"), 0.0), "solver.gamma"),
    "gamma-1.5": (_with(("solver", "gamma"), 1.5), "solver.gamma"),
    "phi-coeff-negative": (_with(("model", "phi", "default", "coeff"), -0.1),
                           "assumption 2.1.3"),
    "eps-tie-negative": (_with(("solver", "eps_tie"), -1e-9), "solver.eps_tie"),
    "cap-frac-0": (_with(("constrained", "cap_frac"), 0.0, constrained={"enabled": False}),
                   "constrained.cap_frac"),
    "cap-frac-1.5": (_with(("constrained", "cap_frac"), 1.5,
                           constrained={"enabled": False}), "constrained.cap_frac"),
    # every other check passes: the throughput keeps the mass margin
    "horizon-beyond-half-max": (diamond_dict(steps=50, model={
        "horizon": 1.7e308, "lambda": {"family": "constant", "value": 1e-308}}),
        "model.horizon"),
}


@pytest.mark.parametrize("doc, where", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
def test_setting_out_of_range_is_validation_error(doc, where):
    with pytest.raises(ValidationError, match=re.escape(where)):
        scenario_from_dict(doc)


def test_horizon_of_half_the_largest_float_loads_and_maps():
    # the largest horizon whose doubled grid times stay finite; the test
    # settings turn an overflow warning in psi into an error
    half_max = float(np.finfo(float).max) / 2
    net, ps, scen, grid = build(diamond_dict(steps=50, model={
        "horizon": half_max, "lambda": {"family": "constant", "value": 1e-308}}))
    assert grid.horizon == half_max
    psi = apply_psi(net, ps, scen, zero_mass(ps, grid))
    assert np.all(np.isfinite(psi.value))
