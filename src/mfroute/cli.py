"""Command-line front end.

Subcommands::

    mfroute validate SCENARIO            check a scenario file, print each check
    mfroute solve SCENARIO --out DIR     run the fixed-point solver, export CSVs
    mfroute psi-once SCENARIO --out DIR  evaluate the mass map once, export stages
    mfroute oracle SCENARIO [--max-N K]  exhaustive verification on a coarse grid

Exit codes: 0 success, 1 validation failure or verification mismatch,
2 parse error, 3 solver did not converge (outputs still written).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .equilibrium import XMembership, residual, solve, verify_X_membership
from .errors import MFRouteError, ParseError, ShapeMismatch
from .flow import PsiResult, apply_psi
from .network import Network, PathSet
from .oracle import audit_conservation, check_value_tables
from .scenario import (Scenario, TimeGrid, load_scenario, scenario_checks,
                       scenario_from_dict, scenario_to_dict, _read_json)
from .value import MassField


def _write_csv(path: Path, grid: TimeGrid, headers: list[str],
               columns: list[np.ndarray]) -> None:
    # One node per row; "%.17g" round-trips every double and prints inf,
    # -inf and nan as float() reads them back.  Rows become Python floats
    # one at a time, so export needs little beyond the numpy table.
    table = np.column_stack([grid.nodes, *columns])
    fmt = ",".join(["%.17g"] * table.shape[1])
    lines = ["t," + ",".join(headers)]
    lines.extend(fmt % tuple(row.tolist()) for row in table)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _pair_columns(ps: PathSet, prefix: str) -> list[str]:
    return [f"{prefix}[{label}]" for label in ps.pair_labels()]


def _path_columns(ps: PathSet, prefix: str) -> list[str]:
    return [f"{prefix}[p{p + 1}]" for p in range(ps.n_paths)]


def write_mass_csv(path: Path, grid: TimeGrid, ps: PathSet, mass: MassField) -> None:
    _write_csv(path, grid, _pair_columns(ps, "rho"), list(mass.values))


def read_mass_csv(path: Path, ps: PathSet, grid: TimeGrid) -> MassField:
    """Parse a masses.csv produced by this tool back into a mass field."""
    try:
        lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read mass file: {exc}") from exc
    if not lines:
        raise ShapeMismatch("mass file is empty")
    header = lines[0].split(",")
    expected = ["t"] + _pair_columns(ps, "rho")
    if header != expected:
        raise ShapeMismatch(f"mass file columns {header} do not match the "
                            f"scenario's (edge, path) pairs {expected}")
    rows = lines[1:]
    if len(rows) != grid.steps + 1:
        raise ShapeMismatch(f"mass file has {len(rows)} rows, grid needs {grid.steps + 1}")
    data = np.empty((ps.pair_count, grid.steps + 1))
    for i, line in enumerate(rows):
        parts = line.split(",")
        if len(parts) != ps.pair_count + 1:
            raise ShapeMismatch(f"row {i} has {len(parts)} fields")
        try:
            data[:, i] = [float(v) for v in parts[1:]]
        except ValueError as exc:
            raise ParseError(f"row {i} of the mass file: {exc}") from None
    return MassField(values=data)


def _export_stages(out: Path, grid: TimeGrid, ps: PathSet, psi: PsiResult,
                   mass: MassField | None = None) -> None:
    # masses.csv carries the field of record: the equilibrium for a solve,
    # the map's output for a single evaluation
    write_mass_csv(out / "masses.csv", grid, ps, mass if mass is not None else psi.mass)
    _write_csv(out / "flows.csv", grid, _pair_columns(ps, "f"),
               list(psi.flows.values))
    _write_csv(out / "values.csv", grid, _pair_columns(ps, "V"),
               list(psi.value.values))
    tau_idx = psi.policy.tau_idx  # exported as arrival times, inf for staying
    tau_time = np.where(tau_idx >= 0, grid.nodes[np.maximum(tau_idx, 0)], np.inf)
    _write_csv(out / "policy.csv", grid, _pair_columns(ps, "tau"), list(tau_time))
    _write_csv(out / "preferences.csv", grid,
               _path_columns(ps, "z") + _path_columns(ps, "F_beta"),
               list(psi.preference.z) + list(psi.preference.response))
    _write_csv(out / "costs.csv", grid, _path_columns(ps, "J"),
               list(psi.costs.costs))


def _diagnostics(scen: Scenario, psi: PsiResult, member: XMembership) -> dict:
    diag = {
        "membership": dataclasses.asdict(member),
        "clip": {"total": psi.integration.clip_total,
                 "max": psi.integration.clip_max,
                 "count": psi.integration.clip_count},
        "constrained": scen.constrained.enabled,
        "k": scen.k,
        "k_idx_edges": [int(v) for v in psi.k_idx_edges],
    }
    if psi.arrival is not None:
        diag["mean_traverse_time"] = [float(v) for v in psi.arrival.tau_bar]
        diag["ktilde"] = [float(v) for v in psi.arrival.ktilde]
    return diag


def _manifest(command: str, scenario_path: str, net, scen, duration: float,
              exit_status: int, error: str | None = None) -> dict:
    doc = {
        "command": command,
        "scenario": str(scenario_path),
        "parameters": scenario_to_dict(net, scen) if net is not None else None,
        "tool_version": __version__,
        "duration_seconds": duration,
        "exit_status": exit_status,
    }
    if error is not None:
        doc["error"] = error
    return doc


def _write_json_file(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _exit_status(exc: MFRouteError) -> int:
    """Print a package error; its exit status is 2 for a parse error, else 1."""
    if isinstance(exc, ParseError):
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    print(f"error: {exc}", file=sys.stderr)
    return 1


def _load(args) -> tuple[Network, PathSet, Scenario, TimeGrid]:
    """Load the scenario with the command's flags applied.

    Flags are written into the resolved scenario document, which is parsed
    again, so a flag gets exactly the checks of the scenario key it sets.
    """
    net, ps, scen, grid = load_scenario(args.scenario)
    solver = {key: getattr(args, key, None) for key in ("gamma", "tol", "max_iter")}
    solver = {key: value for key, value in solver.items() if value is not None}
    if not solver and not args.constrained:
        return net, ps, scen, grid
    doc = scenario_to_dict(net, scen)
    doc["solver"].update(solver)
    if args.constrained:
        doc["constrained"]["enabled"] = True
    return scenario_from_dict(doc)


def _run(args, command: str, body) -> int:
    """Frame shared by the commands that write an output directory.

    ``body(args, out, net, ps, scen, grid)`` writes the stage files and
    returns the exit status, the report document and a one-line summary.
    The frame writes ``manifest.json`` and ``report.json``, which echoes the
    same manifest; on a package error it writes only ``manifest.json``, with
    the error and no parameters.
    """
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    try:
        net, ps, scen, grid = _load(args)
        code, doc, summary = body(args, out, net, ps, scen, grid)
    except MFRouteError as exc:
        code = _exit_status(exc)
        _write_json_file(out / "manifest.json",
                         _manifest(command, args.scenario, None, None,
                                   time.monotonic() - start, code, str(exc)))
        return code
    doc["manifest"] = _manifest(command, args.scenario, net, scen,
                                time.monotonic() - start, code)
    _write_json_file(out / "report.json", doc)
    _write_json_file(out / "manifest.json", doc["manifest"])
    print(summary)
    return code


def cmd_validate(args) -> int:
    try:
        checks = scenario_checks(_read_json(args.scenario))
    except MFRouteError as exc:
        return _exit_status(exc)
    failed = False
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{check.name}: {status} ({check.detail})")
        failed = failed or not check.passed
    return 1 if failed else 0


def _solve_body(args, out: Path, net: Network, ps: PathSet, scen: Scenario,
                grid: TimeGrid):
    report = solve(net, ps, scen)
    _export_stages(out, grid, ps, report.psi, mass=report.mass)
    doc = {
        "residuals": report.residuals,
        "iterations": report.iterations,
        "converged": report.converged,
        "tol": report.tol,
        "gamma": report.gamma,
        "diagnostics": {**_diagnostics(scen, report.psi, report.membership),
                        "residual_increases": report.residual_increases},
    }
    if report.converged:
        return 0, doc, (f"converged in {report.iterations} iterations; "
                        f"final residual {report.final_residual:g}")
    return 3, doc, (f"not converged after {report.iterations} iterations; "
                    f"final residual {report.final_residual:g}")


def cmd_solve(args) -> int:
    return _run(args, "solve", _solve_body)


def _psi_once_body(args, out: Path, net: Network, ps: PathSet,
                   scen: Scenario, grid: TimeGrid):
    if args.zero:
        mass = MassField(values=np.zeros((ps.pair_count, grid.steps + 1)))
    else:
        mass = read_mass_csv(Path(args.mass), ps, grid)
    psi = apply_psi(net, ps, scen, mass)
    r = residual(mass, psi.mass)
    _export_stages(out, grid, ps, psi)
    doc = {
        "residual_vs_input": r,
        "diagnostics": _diagnostics(scen, psi,
                                    verify_X_membership(psi.mass, scen, ps)),
    }
    return 0, doc, f"psi evaluated; residual vs input {r:g}"


def cmd_psi_once(args) -> int:
    return _run(args, "psi-once", _psi_once_body)


def cmd_oracle(args) -> int:
    try:
        net, ps, scen, grid = _load(args)
    except MFRouteError as exc:
        return _exit_status(exc)
    if grid.steps > args.max_n:
        print(f"refusing to enumerate: steps {grid.steps} exceeds --max-N {args.max_n}")
        return 1

    ok = True
    mass = MassField(values=np.zeros((ps.pair_count, grid.steps + 1)))
    for label in ("empty mass field", "one pipeline iterate"):
        psi = apply_psi(net, ps, scen, mass)
        floor = psi.arrival.floor_idx if psi.arrival is not None else None
        mismatches = check_value_tables(net, ps, scen, psi.congestion, psi.value,
                                        psi.policy, floor)
        if mismatches:
            ok = False
            for m in mismatches:
                print(f"value mismatch [{label}] path p{m.path_idx + 1} edge "
                      f"{m.edge_id} node {m.node} ({m.kind}): computed "
                      f"{m.computed!r}, enumeration {m.expected!r}")
        else:
            print(f"value tables match enumeration exactly [{label}]")
        audit = audit_conservation(ps, scen, psi, scen.rho0)
        if audit.ok:
            print(f"conservation identity exact [{label}] "
                  f"(balance defect {audit.balance_defect:.3e})")
        else:
            ok = False
            print(f"conservation audit FAILED [{label}]: mass_match="
                  f"{audit.mass_match} at {audit.first_mass_mismatch}, "
                  f"telescope_exact={audit.telescope_exact}, "
                  f"injection_max_ulp={audit.injection_max_ulp}")
        mass = psi.mass
    print("oracle: OK" if ok else "oracle: MISMATCH")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfroute",
        description="Mean-field route-choice equilibria on acyclic networks")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario file")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="compute an equilibrium")
    p.add_argument("scenario")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--gamma", type=float, default=None, help="damping factor")
    p.add_argument("--tol", type=float, default=None, help="absolute residual tolerance")
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--constrained", action="store_true",
                   help="force the speed-limited mode")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("psi-once", help="evaluate the mass map once")
    p.add_argument("scenario")
    p.add_argument("--out", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--mass", help="input mass trajectory CSV")
    group.add_argument("--zero", action="store_true", help="start from zero mass")
    p.add_argument("--constrained", action="store_true")
    p.set_defaults(func=cmd_psi_once)

    p = sub.add_parser("oracle", help="exhaustive verification on a coarse grid")
    p.add_argument("scenario")
    p.add_argument("--max-N", "--max-n", dest="max_n", type=int, default=16)
    p.add_argument("--constrained", action="store_true")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
