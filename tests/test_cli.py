"""Command-line behavior: exit codes, exports, round-trips, determinism."""

from __future__ import annotations

import json
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfroute.cli as cli
import mfroute.csvtext as csvtext
from mfroute import MassField, ParseError, load_scenario, scenario_from_dict, solve
from mfroute.cli import _export_stages, main, read_mass_csv, write_mass_csv

from conftest import (ROOT, SLACK, STAGE_DOCS, TIGHT, WORKLOADS, arrival_times, build,
                      chain_dict, diamond_dict, per_cell_csv)


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
    (tmp_path / "bad.json").write_text("{", encoding="utf-8")
    (tmp_path / "list.json").write_text("[]", encoding="utf-8")
    for name, message in [("bad.json", "scenario file is not valid JSON"),
                          ("missing.json", "cannot read scenario file"),
                          ("list.json", "scenario document must be a JSON object")]:
        path = tmp_path / name
        with pytest.raises(ParseError, match=message):
            load_scenario(path)
        assert main(["validate", str(path)]) == 2
        assert f"parse error: {message}" in capsys.readouterr().err


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


def test_mass_csv_matches_per_cell_formatting(tmp_path):
    net, ps, scen, grid = build(diamond_dict(steps=9))
    values = np.random.default_rng(3).uniform(-1e3, 1e3, (ps.pair_count, grid.steps + 1))
    special = [np.inf, -np.inf, -0.0, 0.0, np.nan, 5e-324, -5e-324,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1]
    values.flat[:7 * len(special):7] = special
    assert np.isnan(values).sum() == 1 and np.isinf(values).sum() == 2
    path = tmp_path / "masses.csv"
    times = csvtext._grid_tokens(grid)
    write_mass_csv(path, times, ps, MassField(values=values))
    headers = ["rho[e1:p1]", "rho[e3:p1]", "rho[e5:p1]", "rho[e1:p2]", "rho[e4:p2]",
               "rho[e2:p3]", "rho[e5:p3]"]
    assert path.read_bytes() == per_cell_csv(grid, headers, [values]).encode()
    # the reader takes only masses in psi's domain, and those round-trip,
    # -0.0 and the subnormals included
    with pytest.raises(ParseError, match="non-finite"):
        read_mass_csv(path, ps, grid)
    domain = np.where(np.isfinite(values), np.where(values < 0.0, -values, values), 1.0)
    assert np.signbit(domain).sum() == 1
    write_mass_csv(path, times, ps, MassField(values=domain))
    back = read_mass_csv(path, ps, grid)
    assert back.values.tobytes() == domain.tobytes()


# Bit patterns the exporter must print as "%.17g" does: NaNs of either sign
# and several payloads (all print "nan"), both zeros, both infinities, the
# least and greatest subnormals, the least normal and the greatest doubles.
SPECIAL_BITS = (0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                0xFFF4000000000123, 0x7FFFFFFFFFFFFFFF, 0x0000000000000000,
                0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
                0x0000000000000001, 0x8000000000000001, 0x000FFFFFFFFFFFFF,
                0x0010000000000000, 0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF)
BLOCK = csvtext._BLOCK_CELLS
# (rows, columns with t): one row; one column after t; cells one below, at and
# one above a block's; rows one below, at and one above a block's; one row
# wider than a block.
CSV_SHAPES = ((1, 2), (1, 9), (5, 2), (40, 2), (63, 65), (64, 64), (17, 241), (241, 17),
              (BLOCK // 2 - 1, 2), (BLOCK // 2, 2), (BLOCK // 2 + 1, 2), (2, BLOCK + 3))


@st.composite
def csv_tables(draw):
    """Node times and tables of random float64 bit patterns, with heavy
    repetition: each cell is drawn from a small pool of special and random
    patterns, or is fresh random bits."""
    rows, width = draw(st.sampled_from(CSV_SHAPES))
    specials = draw(st.permutations(SPECIAL_BITS))[:draw(st.integers(0, len(SPECIAL_BITS)))]
    randoms = draw(st.lists(st.integers(0, 2**64 - 1), min_size=0 if specials else 1,
                            max_size=6))
    pool = np.array(specials + randoms, dtype=np.uint64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = pool[rng.integers(len(pool), size=(width, rows))]
    fresh = rng.random((width, rows)) < draw(st.sampled_from((0.0, 0.1, 1.0)))
    bits[fresh] = rng.integers(0, 2**64, size=int(fresh.sum()), dtype=np.uint64)
    values = bits.view(np.float64)
    split = draw(st.integers(1, width - 1))  # a file may take more than one table
    return values[0], [values[1:split], values[split:]]


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(csv_tables())
def test_write_csv_matches_per_cell_formatting(tmp_path_factory, drawn):
    nodes, tables = drawn
    grid = SimpleNamespace(nodes=nodes)
    headers = [f"c{i}" for i in range(sum(len(table) for table in tables))]
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    csvtext._write_csv(path, csvtext._grid_tokens(grid), headers, tables)
    assert path.read_bytes() == per_cell_csv(grid, headers, tables).encode()


def test_arrival_nodes_print_as_grid_times_and_stay_as_inf(tmp_path):
    # an integer table holds arrival nodes: -1 (stay) prints inf and node N
    # the grid's last time, as per-cell formatting of the arrival times does
    net, ps, scen, grid = build(diamond_dict(steps=9))
    n = grid.steps
    tau = np.random.default_rng(5).integers(-1, n + 1, (3, n + 1)).astype(np.int32)
    tau[0, :2] = -1, n
    path = tmp_path / "policy.csv"
    csvtext._write_csv(path, csvtext._grid_tokens(grid), ["a", "b", "c"], [tau])
    times = arrival_times(grid, tau)
    assert times[0, 0] == np.inf and times[0, 1] == grid.nodes[-1]
    assert path.read_bytes() == per_cell_csv(grid, ["a", "b", "c"], [times]).encode()


def test_export_formats_only_values_the_block_before_lacks(tmp_path, monkeypatch):
    # lattice-4x4 seed 1: 36,095 data values, against 50,256 with each row
    # block formatted on its own and 36,093 with each file formatted whole;
    # the grid's N + 1 times and inf come on top
    net, ps, scen, grid = scenario_from_dict(WORKLOADS.WORKLOADS["lattice-4x4"](ROOT, 1))
    report = solve(net, ps, scen)
    formatted = []

    def counting_tuple(values):
        formatted.append(len(values))
        return tuple(values)

    # the values a block formats are the tuple that "%" reads
    monkeypatch.setattr(csvtext, "tuple", counting_tuple, raising=False)
    _export_stages(tmp_path, grid, ps, report.psi, report.mass)
    assert sum(formatted) == 36_095 + grid.steps + 2


@pytest.mark.parametrize("doc", STAGE_DOCS.values(), ids=STAGE_DOCS.keys())
def test_stage_files_match_per_cell_formatting(doc, write_scenario, tmp_path, capsys,
                                               monkeypatch):
    written = {}
    arrivals = set()
    real = cli._write_csv
    scenario = write_scenario(doc)
    grid = load_scenario(scenario)[3]

    def recording(path, times, headers, tables):
        real(path, times, headers, tables)
        # the reference formats every cell, t from the grid itself; policy.csv
        # passes arrival nodes, which it formats as arrival times
        for table in tables:
            if table.dtype.kind == "i":
                arrivals.update(np.unique(table).tolist())
        tables = [arrival_times(grid, table) if table.dtype.kind == "i" else table
                  for table in tables]
        written[path] = per_cell_csv(grid, headers, tables).encode()

    monkeypatch.setattr(cli, "_write_csv", recording)
    solve_dir, psi_dir = tmp_path / "solve", tmp_path / "psi"
    assert main(["solve", str(scenario), "--out", str(solve_dir)]) in (0, 3)
    assert main(["psi-once", str(scenario), "--out", str(psi_dir),
                 "--mass", str(solve_dir / "masses.csv")]) == 0
    assert sorted(p.name for p in written) == sorted(2 * [
        "masses.csv", "flows.csv", "values.csv", "policy.csv", "preferences.csv",
        "costs.csv"])
    for path, want in written.items():
        assert path.read_bytes() == want, path
    # the policies both stay (inf) and arrive at the last node
    assert {-1, grid.steps} <= arrivals


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


def test_non_finite_image_is_an_error(write_scenario, tmp_path, capsys):
    # congestion integrals past the float range make the second image NaN;
    # the mass bound check stops the solve there, not after max_iter
    # evaluations of NaN
    doc = json.loads((ROOT / "scenarios" / "diamond_coarse.json").read_text())
    doc["model"]["phi"]["default"]["coeff"] = 1e308
    scenario = write_scenario(doc)
    out_dir = tmp_path / "run"
    with warnings.catch_warnings():
        # numpy's notices of the overflow that the bound check reports
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(["solve", str(scenario), "--out", str(out_dir)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: total edge mass is not finite (nan)\n"
    assert sorted(p.name for p in out_dir.iterdir()) == ["manifest.json"]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["exit_status"] == 1
    assert manifest["error"] == captured.err[len("error: "):-1]


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
    "horizon-beyond-float-range": {"model": {"horizon": 10**400}},
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


@pytest.mark.parametrize("horizon", [b"1" + b"0" * 5000, b"1\xff"],
                         ids=["too-many-digits", "not-utf-8"])
def test_scenario_json_cannot_read_is_parse_error(write_scenario, tmp_path, capsys,
                                                  horizon):
    # 5001 digits are more than Python reads as an int, and a byte that is
    # not UTF-8 makes no JSON text
    scenario = write_scenario(diamond_dict(steps=50))
    text = scenario.read_bytes()
    scenario.write_bytes(text.replace(b'"horizon": 10.0', b'"horizon": ' + horizon))
    assert scenario.read_bytes() != text
    assert main(["validate", str(scenario)]) == 2
    out_dir = tmp_path / "run"
    assert main(["solve", str(scenario), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("parse error: scenario file is not valid JSON") == 2
    assert sorted(p.name for p in out_dir.iterdir()) == ["manifest.json"]


@pytest.mark.parametrize("command, extra", [("solve", []), ("psi-once", ["--zero"])])
def test_out_that_cannot_be_a_directory_is_an_error(write_scenario, tmp_path, capsys,
                                                    command, extra):
    scenario = write_scenario(diamond_dict(steps=20))
    taken = tmp_path / "taken"
    taken.write_text("keep\n", encoding="utf-8")
    before = sorted(tmp_path.iterdir())
    for out in (taken, taken / "run"):
        assert main([command, str(scenario), "--out", str(out), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("error: cannot create output directory: ")
        assert captured.err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before
    assert taken.read_text(encoding="utf-8") == "keep\n"


@pytest.mark.parametrize("blocked", ["masses.csv", "flows.csv", "report.json",
                                     "manifest.json"])
@pytest.mark.parametrize("command, extra", [("solve", []), ("psi-once", ["--zero"])])
def test_output_file_that_cannot_be_written_is_an_error(write_scenario, tmp_path, capsys,
                                                        command, extra, blocked):
    scenario = write_scenario(diamond_dict(steps=20))
    out_dir = tmp_path / "out"
    (out_dir / blocked).mkdir(parents=True)
    assert main([command, str(scenario), "--out", str(out_dir), *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err == f"error: cannot write {out_dir / blocked}: Is a directory\n"
    # the files written before the failure stay, and none after it is made
    order = ["masses.csv", "flows.csv", "values.csv", "policy.csv", "preferences.csv",
             "costs.csv", "manifest.json", "report.json"]
    written = order[:order.index(blocked)]
    # a failed command leaves no report.json; the error manifest replaces
    # the success one
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(
        set(written + [blocked, "manifest.json"]))
    assert (out_dir / blocked).is_dir()
    if blocked != "manifest.json":
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == command and manifest["exit_status"] == 1
        assert manifest["error"] == captured.err[len("error: "):-1]
        assert manifest["parameters"] is None


@pytest.mark.parametrize("linked", ["flows.csv", "manifest.json"])
def test_symlinked_output_file_is_written_through(write_scenario, tmp_path, capsys,
                                                  linked):
    # a rerun removes the regular files it rewrites, but a symlink stays and
    # its target gets the new text
    scenario = write_scenario(diamond_dict(steps=20))
    plain, out_dir, target = tmp_path / "plain", tmp_path / "out", tmp_path / "target"
    assert run(capsys, "psi-once", str(scenario), "--out", str(plain), "--zero")[0] == 0
    target.write_text("stale\n")
    out_dir.mkdir()
    (out_dir / linked).symlink_to(target)
    for _ in range(2):
        assert run(capsys, "psi-once", str(scenario), "--out", str(out_dir), "--zero")[0] == 0
        assert (out_dir / linked).is_symlink()
        for path in plain.iterdir():
            want, got = path.read_bytes(), (out_dir / path.name).read_bytes()
            if path.suffix == ".json":
                want, got = (json.loads(text) for text in (want, got))
                for doc in (want, got):
                    doc.get("manifest", doc).pop("duration_seconds")
            assert got == want, path.name
    assert target.read_bytes() == (out_dir / linked).read_bytes()


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


# (steps of the scenario that reads the mass file, model settings of the one
# that wrote it, an edit of its lines, the error's text): a file that does not
# fit the scenario's pairs or grid
MASS_FILE_MISFITS = {
    "empty": (20, {}, lambda lines: [], "mass file is empty"),
    "header": (20, {}, lambda lines: [lines[0].replace("rho[", "mu[", 1)] + lines[1:],
               "columns"),
    "field-count": (20, {}, lambda lines: lines[:4] + [lines[4].rsplit(",", 1)[0]]
                    + lines[5:], "row 3 has 7 fields"),
    # same step count, other horizon: only the t column tells the grids apart
    "t-other-grid": (20, {"horizon": 5.0}, lambda lines: lines,
                     "row 1 of the mass file has t = 0.25, grid node 1 is 0.5"),
    "row-count": (60, {"steps": 40}, lambda lines: lines,
                  "mass file has 41 rows, grid needs 61"),
}


@pytest.mark.parametrize("steps, source_model, edit, message", MASS_FILE_MISFITS.values(),
                         ids=MASS_FILE_MISFITS.keys())
def test_psi_once_mass_file_that_misfits_is_rejected(write_scenario, tmp_path, capsys,
                                                     steps, source_model, edit, message):
    scenario = write_scenario(diamond_dict(steps=steps))
    source = write_scenario(diamond_dict(steps=20, model=source_model),
                            name="source.json")
    out_a = tmp_path / "a"
    run(capsys, "psi-once", str(source), "--out", str(out_a), "--zero")
    lines = edit((out_a / "masses.csv").read_text().splitlines())
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    out_b = tmp_path / "b"
    code = main(["psi-once", str(scenario), "--out", str(out_b), "--mass", str(bad)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert sorted(p.name for p in out_b.iterdir()) == ["manifest.json"]
    manifest = json.loads((out_b / "manifest.json").read_text())
    assert manifest["exit_status"] == 1 and message in manifest["error"]


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


def test_psi_once_mass_file_not_utf8_is_parse_error(write_scenario, tmp_path, capsys):
    scenario = write_scenario(diamond_dict(steps=20))
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"t,\xff\n")
    out_dir = tmp_path / "run"
    code, _ = run(capsys, "psi-once", str(scenario), "--out", str(out_dir),
                  "--mass", str(bad))
    assert code == 2
    assert sorted(p.name for p in out_dir.iterdir()) == ["manifest.json"]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert "cannot read mass file" in manifest["error"]


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
    tau = arrival_times(grid, solve(net, ps, scen).psi.policy.tau_idx)
    table = np.loadtxt(out_dir / "policy.csv", delimiter=",", skiprows=1)
    assert table[:, 1:].T.tobytes() == tau.tobytes()


def test_solve_constrained_flag_with_slack_limits_matches_plain(write_scenario,
                                                                tmp_path, capsys):
    doc = diamond_dict(steps=80)
    doc["constrained"] = {**SLACK, "enabled": False}
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
    doc = diamond_dict(steps=8, constrained=TIGHT)
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

    def crooked(net, ps, scen, phi_prefix, *args):
        table, tau = real(net, ps, scen, phi_prefix, *args)
        n = scen.grid.steps
        return table, np.where((tau >= 0) & (tau < n), tau + 1, tau)

    monkeypatch.setattr(flow_mod, "value_backward", crooked)
    scenario = write_scenario(diamond_dict(steps=8))
    code, out = run(capsys, "oracle", str(scenario))
    assert code == 1
    assert "mismatch" in out
    assert "node" in out  # offending location printed


def test_oracle_detects_injected_mass_fault(write_scenario, capsys, monkeypatch):
    import mfroute.flow as flow_mod
    real = flow_mod.integrate_mass

    def leaky(*args):
        mass, integ = real(*args)
        mass[0, -1] += 1e-9
        return mass, integ

    monkeypatch.setattr(flow_mod, "integrate_mass", leaky)
    scenario = write_scenario(diamond_dict(steps=8))
    code, out = run(capsys, "oracle", str(scenario))
    assert code == 1
    assert "value tables match enumeration exactly [empty mass field]" in out
    assert "conservation audit FAILED [empty mass field]: mass_match=False at (0, 8)" in out
    assert out.rstrip().endswith("oracle: MISMATCH")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
