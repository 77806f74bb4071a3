"""Command-line behavior: exit codes, exports, round-trips, determinism."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from mfroute import MassField, ParseError, Policy, load_scenario, solve
from mfroute.cli import main, read_mass_csv, write_mass_csv

from conftest import arrival_times, build, chain_dict, diamond_dict


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_pass(write_scenario, capsys):
    path = write_scenario(diamond_dict(steps=50))
    code, out = run(capsys, "validate", str(path))
    assert code == 0
    assert "assumption 2.1.4: PASS" in out
    assert "assumption 2.1.1: PASS" in out


def test_validate_names_failed_assumption(write_scenario, capsys):
    path = write_scenario(diamond_dict(steps=50, model={"rho_max": 5.0}))
    code, out = run(capsys, "validate", str(path))
    assert code == 1
    assert "assumption 2.1.4: FAIL" in out


def test_validate_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{", encoding="utf-8")
    code, out = run(capsys, "validate", str(path))
    assert code == 2


def test_long_chain_validates_and_solves(write_scenario, tmp_path, capsys):
    # a route of more edges than the interpreter's recursion limit
    scenario = write_scenario(chain_dict(1000, steps=16))
    code, out = run(capsys, "validate", str(scenario))
    assert code == 0 and "assumption 2.1.4: PASS" in out
    out_dir = tmp_path / "run"
    code, _ = run(capsys, "solve", str(scenario), "--out", str(out_dir))
    assert code in (0, 3)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["exit_status"] == code
    assert (out_dir / "masses.csv").exists()


def test_solve_writes_outputs(write_scenario, tmp_path, capsys):
    scenario = write_scenario(diamond_dict(steps=100))
    out_dir = tmp_path / "run"
    code, _ = run(capsys, "solve", str(scenario), "--out", str(out_dir))
    assert code == 0
    for name in ("manifest.json", "report.json", "masses.csv", "flows.csv",
                 "values.csv", "policy.csv", "preferences.csv", "costs.csv"):
        assert (out_dir / name).exists()
    report = json.loads((out_dir / "report.json").read_text())
    assert report["converged"] is True
    assert report["residuals"][-1] <= report["tol"]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["exit_status"] == 0
    assert manifest["parameters"]["model"]["steps"] == 100


def test_solve_mass_csv_round_trips(write_scenario, tmp_path, capsys):
    scenario = write_scenario(diamond_dict(steps=60))
    out_dir = tmp_path / "run"
    run(capsys, "solve", str(scenario), "--out", str(out_dir))
    net, ps, scen, grid = load_scenario(scenario)
    mass = read_mass_csv(out_dir / "masses.csv", ps, grid)
    report = solve(net, ps, scen)
    assert np.array_equal(mass.values, report.mass.values)


def per_cell_csv(grid, headers, columns) -> str:
    """The exporter as it was, one formatted cell at a time: the reference."""
    def fmt(x):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.17g}"

    lines = ["t," + ",".join(headers)]
    for i, t in enumerate(grid.nodes):
        lines.append(",".join([fmt(float(t))] + [fmt(float(c[i])) for c in columns]))
    return "\n".join(lines) + "\n"


def test_mass_csv_matches_per_cell_formatting(tmp_path):
    net, ps, scen, grid = build(diamond_dict(steps=9))
    values = np.random.default_rng(3).uniform(-1e3, 1e3, (ps.pair_count, grid.steps + 1))
    special = [np.inf, -np.inf, -0.0, 0.0, np.nan, 5e-324, -5e-324,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1]
    values.flat[:7 * len(special):7] = special
    assert np.isnan(values).sum() == 1 and np.isinf(values).sum() == 2
    path = tmp_path / "masses.csv"
    write_mass_csv(path, grid, ps, MassField(values=values))
    headers = [f"rho[{label}]" for label in ps.pair_labels()]
    assert path.read_bytes() == per_cell_csv(grid, headers, list(values)).encode()
    # the reader takes only masses in psi's domain, and those round-trip,
    # -0.0 and the subnormals included
    with pytest.raises(ParseError, match="non-finite"):
        read_mass_csv(path, ps, grid)
    domain = np.where(np.isfinite(values), np.where(values < 0.0, -values, values), 1.0)
    assert np.signbit(domain).sum() == 1
    write_mass_csv(path, grid, ps, MassField(values=domain))
    back = read_mass_csv(path, ps, grid)
    assert back.values.tobytes() == domain.tobytes()


def test_solve_exit_three_on_iteration_cap(write_scenario, tmp_path, capsys):
    scenario = write_scenario(diamond_dict(steps=100))
    out_dir = tmp_path / "run"
    code, _ = run(capsys, "solve", str(scenario), "--out", str(out_dir),
                  "--max-iter", "1")
    assert code == 3
    report = json.loads((out_dir / "report.json").read_text())
    assert report["converged"] is False
    assert len(report["residuals"]) == 1
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["exit_status"] == 3
    # the parameter echo shows the effective settings, flag included
    assert manifest["parameters"]["solver"]["max_iter"] == 1
    assert report["manifest"]["parameters"] == manifest["parameters"]


@pytest.mark.parametrize("flag, value, code", [
    ("--gamma", "1.5", 1), ("--gamma", "0", 1), ("--tol", "-1", 1),
    ("--tol", "nan", 2), ("--max-iter", "0", 2)])
def test_bad_solver_flag_gets_scenario_checks(write_scenario, tmp_path, capsys,
                                              flag, value, code):
    scenario = write_scenario(diamond_dict(steps=50))
    out_dir = tmp_path / "run"
    assert main(["solve", str(scenario), "--out", str(out_dir), flag, value]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and "solver." in err
    assert sorted(p.name for p in out_dir.iterdir()) == ["manifest.json"]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["exit_status"] == code
    assert "solver." in manifest["error"]
    assert manifest["parameters"] is None


@pytest.mark.parametrize("command, extra", [("solve", []), ("psi-once", ["--zero"])])
def test_unparsable_scenario_writes_error_manifest(tmp_path, capsys, command, extra):
    scenario = tmp_path / "bad.json"
    scenario.write_text("{", encoding="utf-8")
    out_dir = tmp_path / "run"
    code, _ = run(capsys, command, str(scenario), "--out", str(out_dir), *extra)
    assert code == 2
    assert sorted(p.name for p in out_dir.iterdir()) == ["manifest.json"]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["exit_status"] == 2
    assert "not valid JSON" in manifest["error"]
    assert manifest["parameters"] is None


MALFORMED_SPECS = {
    "lambda-value": {"model": {"lambda": {"family": "constant", "value": "abc"}}},
    "lambda-missing-value": {"model": {"lambda": {"family": "constant"}}},
    "phi-default": {"model": {"phi": {"default": 5}}},
    "u-default": {"constrained": {"enabled": True, "u": {"default": 5}}},
    "u-disabled-unknown-family": {"constrained": {"enabled": False,
                                                  "u": {"default": {"family": "nope"}}}},
    "vertex-null": {"network": {"vertices": ["o", "v1", "v2", None]}},
}


@pytest.mark.parametrize("edit", MALFORMED_SPECS.values(), ids=MALFORMED_SPECS.keys())
def test_malformed_nested_spec_is_parse_error(write_scenario, tmp_path, capsys, edit):
    doc = diamond_dict(steps=50)
    for section, entries in edit.items():
        doc.setdefault(section, {}).update(entries)
    scenario = write_scenario(doc)
    assert main(["validate", str(scenario)]) == 2
    out_dir = tmp_path / "run"
    assert main(["solve", str(scenario), "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.count("parse error:") == 2
    assert sorted(p.name for p in out_dir.iterdir()) == ["manifest.json"]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["exit_status"] == 2
    assert manifest["error"] and manifest["parameters"] is None


@pytest.mark.parametrize("section, key", [("solver", "max_iters"), ("model", "rho_mx")])
def test_unknown_key_is_parse_error(write_scenario, tmp_path, capsys, section, key):
    doc = diamond_dict(steps=50)
    doc[section][key] = 3
    scenario = write_scenario(doc)
    assert main(["validate", str(scenario)]) == 2
    out_dir = tmp_path / "run"
    assert main(["solve", str(scenario), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count(f"unknown key {section}.{key}") == 2
    assert sorted(p.name for p in out_dir.iterdir()) == ["manifest.json"]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["exit_status"] == 2 and manifest["parameters"] is None
    assert manifest["error"] == f"unknown key {section}.{key}"


@pytest.mark.parametrize("key, value", [("id", None), ("id", ["x"]), ("id", ""),
                                        ("tail", None), ("head", ["d"])])
def test_non_string_edge_id_is_parse_error(write_scenario, tmp_path, capsys, key, value):
    doc = diamond_dict(steps=50)
    doc["network"]["edges"][2][key] = value
    scenario = write_scenario(doc)
    assert main(["validate", str(scenario)]) == 2
    out_dir = tmp_path / "run"
    assert main(["solve", str(scenario), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and f"edge {key} must be a non-empty string" in err
    assert sorted(p.name for p in out_dir.iterdir()) == ["manifest.json"]


def test_solve_deterministic_outputs(write_scenario, tmp_path, capsys):
    scenario = write_scenario(diamond_dict(steps=80))
    a = tmp_path / "a"
    b = tmp_path / "b"
    run(capsys, "solve", str(scenario), "--out", str(a))
    run(capsys, "solve", str(scenario), "--out", str(b))
    for name in ("masses.csv", "flows.csv", "values.csv", "policy.csv",
                 "preferences.csv", "costs.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    ra = json.loads((a / "report.json").read_text())
    rb = json.loads((b / "report.json").read_text())
    del ra["manifest"]["duration_seconds"], rb["manifest"]["duration_seconds"]
    assert ra == rb
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    del ma["duration_seconds"], mb["duration_seconds"]
    assert ma == mb


def test_report_gives_restarts_and_relative_residual(write_scenario, tmp_path, capsys):
    scenario = write_scenario(diamond_dict(steps=80))
    out_dir = tmp_path / "run"
    code, _ = run(capsys, "solve", str(scenario), "--out", str(out_dir))
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["restarts"] == 0
    net, ps, scen, grid = load_scenario(scenario)
    mass = read_mass_csv(out_dir / "masses.csv", ps, grid)
    assert report["final_relative_residual"] == report["residuals"][-1] / mass.values.max()


@pytest.mark.parametrize("command, extra", [("solve", []), ("psi-once", ["--zero"])])
def test_report_echoes_the_manifest_file(write_scenario, tmp_path, capsys,
                                         command, extra):
    scenario = write_scenario(diamond_dict(steps=40))
    out_dir = tmp_path / "run"
    run(capsys, command, str(scenario), "--out", str(out_dir), *extra)
    report = json.loads((out_dir / "report.json").read_text())
    manifest = json.loads((out_dir / "manifest.json").read_text())
    # one manifest, duration included
    assert report["manifest"] == manifest


@pytest.mark.parametrize("values, message", [
    ([-1.0, 1.0, 1.0], "z0 values must be >= 0"),
    ([0.5, 0.5, 0.25], "z0 values sum to 1.25"),
], ids=["negative", "sum"])
def test_explicit_z0_is_checked_on_load(write_scenario, tmp_path, capsys, values, message):
    scenario = write_scenario(diamond_dict(steps=16, model={
        "z0": {"rule": "explicit", "values": values}}))
    code, out = run(capsys, "validate", str(scenario))
    assert code == 1 and message in out
    out_dir = tmp_path / "run"
    code, _ = run(capsys, "solve", str(scenario), "--out", str(out_dir))
    assert code == 1
    assert sorted(p.name for p in out_dir.iterdir()) == ["manifest.json"]
    assert message in json.loads((out_dir / "manifest.json").read_text())["error"]


def test_validation_failure_exit_one(write_scenario, tmp_path, capsys):
    scenario = write_scenario(diamond_dict(steps=50, model={"rho_max": 5.0}))
    code, _ = run(capsys, "solve", str(scenario), "--out", str(tmp_path / "x"))
    assert code == 1
    manifest = json.loads((tmp_path / "x" / "manifest.json").read_text())
    assert manifest["exit_status"] == 1 and "error" in manifest


def test_psi_once_zero(write_scenario, tmp_path, capsys):
    scenario = write_scenario(diamond_dict(steps=60))
    out_dir = tmp_path / "psi"
    code, _ = run(capsys, "psi-once", str(scenario), "--out", str(out_dir), "--zero")
    assert code == 0
    net, ps, scen, grid = load_scenario(scenario)
    mass = read_mass_csv(out_dir / "masses.csv", ps, grid)
    assert np.all(mass.values[:, 0] == 0.0)
    for name in ("values.csv", "policy.csv", "costs.csv", "preferences.csv",
                 "flows.csv"):
        assert (out_dir / name).exists()


def test_psi_once_repeats_bitwise(write_scenario, tmp_path, capsys):
    scenario = write_scenario(diamond_dict(steps=60))
    a, b = tmp_path / "a", tmp_path / "b"
    run(capsys, "psi-once", str(scenario), "--out", str(a), "--zero")
    run(capsys, "psi-once", str(scenario), "--out", str(b), "--zero")
    for name in ("masses.csv", "values.csv", "policy.csv", "costs.csv",
                 "preferences.csv", "flows.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_psi_once_reproduces_solve_residual(write_scenario, tmp_path, capsys):
    scenario = write_scenario(diamond_dict(steps=100))
    solve_dir = tmp_path / "solve"
    run(capsys, "solve", str(scenario), "--out", str(solve_dir))
    report = json.loads((solve_dir / "report.json").read_text())
    psi_dir = tmp_path / "psi"
    code, _ = run(capsys, "psi-once", str(scenario), "--out", str(psi_dir),
                  "--mass", str(solve_dir / "masses.csv"))
    assert code == 0
    psi_report = json.loads((psi_dir / "report.json").read_text())
    assert psi_report["residual_vs_input"] == report["residuals"][-1]


def test_psi_once_shape_mismatch_exit_one(write_scenario, tmp_path, capsys):
    scenario = write_scenario(diamond_dict(steps=60))
    other = write_scenario(diamond_dict(steps=40), name="other.json")
    out_a = tmp_path / "a"
    run(capsys, "psi-once", str(other), "--out", str(out_a), "--zero")
    code, _ = run(capsys, "psi-once", str(scenario), "--out", str(tmp_path / "b"),
                  "--mass", str(out_a / "masses.csv"))
    assert code == 1
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["exit_status"] == 1 and "rows" in manifest["error"]


def test_psi_once_non_numeric_mass_field_is_parse_error(write_scenario, tmp_path,
                                                        capsys):
    scenario = write_scenario(diamond_dict(steps=20))
    out_a = tmp_path / "a"
    run(capsys, "psi-once", str(scenario), "--out", str(out_a), "--zero")
    lines = (out_a / "masses.csv").read_text().splitlines()
    fields = lines[4].split(",")
    fields[2] = "abc"
    lines[4] = ",".join(fields)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    net, ps, scen, grid = load_scenario(scenario)
    with pytest.raises(ParseError, match="row 3"):
        read_mass_csv(bad, ps, grid)
    out_b = tmp_path / "b"
    code, _ = run(capsys, "psi-once", str(scenario), "--out", str(out_b),
                  "--mass", str(bad))
    assert code == 2
    assert sorted(p.name for p in out_b.iterdir()) == ["manifest.json"]
    manifest = json.loads((out_b / "manifest.json").read_text())
    assert manifest["exit_status"] == 2 and "row 3" in manifest["error"]


@pytest.mark.parametrize("field, code", [("nan", 2), ("inf", 2), ("-inf", 2), ("-5", 1)])
def test_psi_once_mass_outside_psi_domain_is_rejected(write_scenario, tmp_path, capsys,
                                                      field, code):
    scenario = write_scenario(diamond_dict(steps=20))
    out_a = tmp_path / "a"
    run(capsys, "psi-once", str(scenario), "--out", str(out_a), "--zero")
    lines = (out_a / "masses.csv").read_text().splitlines()
    fields = lines[4].split(",")
    fields[2] = field
    lines[4] = ",".join(fields)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out_b = tmp_path / "b"
    got, _ = run(capsys, "psi-once", str(scenario), "--out", str(out_b), "--mass", str(bad))
    assert got == code
    assert sorted(p.name for p in out_b.iterdir()) == ["manifest.json"]
    manifest = json.loads((out_b / "manifest.json").read_text())
    assert manifest["exit_status"] == code and "row 3" in manifest["error"]


def test_policy_csv_uses_inf_token(write_scenario, tmp_path, capsys):
    scenario = write_scenario(diamond_dict(steps=60))
    out_dir = tmp_path / "run"
    run(capsys, "solve", str(scenario), "--out", str(out_dir))
    text = (out_dir / "policy.csv").read_text()
    assert "inf" in text.split("\n")[-2]  # stay-forever at the final node
    last = text.strip().splitlines()[-1]
    assert float(last.split(",")[1]) == float("inf")
    # one column per pair: the arrival times of the equilibrium's policy
    net, ps, scen, grid = load_scenario(scenario)
    tau = arrival_times(grid, solve(net, ps, scen).psi.policy)
    table = np.loadtxt(out_dir / "policy.csv", delimiter=",", skiprows=1)
    assert table[:, 1:].T.tobytes() == tau.tobytes()


def test_solve_constrained_flag_with_slack_limits_matches_plain(write_scenario,
                                                                tmp_path, capsys):
    doc = diamond_dict(steps=80)
    doc["constrained"] = {"enabled": False,
                          "u": {"default": {"family": "reciprocal", "coeff": 1000.0}}}
    scenario = write_scenario(doc)
    plain = tmp_path / "plain"
    limited = tmp_path / "limited"
    assert run(capsys, "solve", str(scenario), "--out", str(plain))[0] == 0
    assert run(capsys, "solve", str(scenario), "--out", str(limited),
               "--constrained")[0] == 0
    net, ps, scen, grid = load_scenario(scenario)
    a = read_mass_csv(plain / "masses.csv", ps, grid)
    b = read_mass_csv(limited / "masses.csv", ps, grid)
    assert np.max(np.abs(a.values - b.values)) <= 1e-12


def test_constrained_flag_without_limits_fails(write_scenario, tmp_path, capsys):
    scenario = write_scenario(diamond_dict(steps=50))
    code, _ = run(capsys, "solve", str(scenario), "--out", str(tmp_path / "x"),
                  "--constrained")
    assert code == 1


def test_oracle_passes_on_coarse_grid(write_scenario, capsys):
    scenario = write_scenario(diamond_dict(steps=8))
    code, out = run(capsys, "oracle", str(scenario))
    assert code == 0
    assert "match enumeration exactly" in out
    assert "conservation identity exact" in out
    assert "oracle: OK" in out


def test_oracle_constrained_mode(write_scenario, capsys):
    doc = diamond_dict(steps=8, constrained={
        "enabled": True, "u": {"default": {"family": "reciprocal", "coeff": 0.4}}})
    scenario = write_scenario(doc)
    code, out = run(capsys, "oracle", str(scenario))
    assert code == 0


def test_oracle_refuses_fine_grids(write_scenario, capsys):
    scenario = write_scenario(diamond_dict(steps=32))
    code, out = run(capsys, "oracle", str(scenario), "--max-N", "16")
    assert code == 1
    assert "refusing" in out


def test_oracle_detects_injected_policy_fault(write_scenario, capsys, monkeypatch):
    import mfroute.flow as flow_mod
    real = flow_mod.value_backward

    def crooked(net, ps, scen, cong, *args):
        table, policy = real(net, ps, scen, cong, *args)
        n = scen.grid.steps
        shifted = np.where((policy.tau_idx >= 0) & (policy.tau_idx < n),
                           policy.tau_idx + 1, policy.tau_idx)
        return table, Policy(tau_idx=shifted)

    monkeypatch.setattr(flow_mod, "value_backward", crooked)
    scenario = write_scenario(diamond_dict(steps=8))
    code, out = run(capsys, "oracle", str(scenario))
    assert code == 1
    assert "mismatch" in out
    assert "node" in out  # offending location printed


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
