"""Command-line front end.

Subcommands::

    mfroute validate SCENARIO            check a scenario file, print each check
    mfroute solve SCENARIO --out DIR     run the fixed-point solver, export CSVs
    mfroute psi-once SCENARIO --out DIR  evaluate the mass map once, export stages
    mfroute oracle SCENARIO [--max-N K]  exhaustive verification on a coarse grid

Exit codes: 0 success, 1 validation failure, verification mismatch or an
unusable output directory, 2 parse error, 3 solver did not converge (outputs
still written).
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
from .csvtext import _tokens, _write_csv
from .equilibrium import XMembership, residual, solve, verify_X_membership
from .errors import MFRouteError, ParseError, ShapeMismatch, ValidationError
from .flow import MassField, PsiResult, apply_psi
from .network import Network, PathSet
from .oracle import audit_conservation, check_value_tables
from .scenario import (Scenario, TimeGrid, load_scenario, scenario_checks,
                       scenario_from_dict, scenario_to_dict, _read_json)


def _pair_columns(ps: PathSet, prefix: str) -> list[str]:
    return [f"{prefix}[{label}]" for label in ps.pair_labels()]


def _path_columns(ps: PathSet, prefix: str) -> list[str]:
    return [f"{prefix}[p{p + 1}]" for p in range(ps.n_paths)]


def write_mass_csv(path: Path, grid: TimeGrid, ps: PathSet, mass: MassField,
                   times: np.ndarray | None = None) -> None:
    # times: the grid's tokens (see _write_csv), when made already
    _write_csv(path, _tokens(np.append(grid.nodes, np.inf)) if times is None else times,
               _pair_columns(ps, "rho"), [mass.values])


def read_mass_csv(path: Path, ps: PathSet, grid: TimeGrid) -> MassField:
    """Parse a masses.csv produced by this tool back into a mass field.

    The ``t`` column must equal the grid's nodes bit for bit, else
    :class:`ShapeMismatch`; the tool writes them round-trip exact.  Every
    mass must be a finite number (else :class:`ParseError`) and
    nonnegative (else :class:`ValidationError`), as psi's domain requires.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8
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
    data = np.empty((ps.pair_count + 1, grid.steps + 1))
    for i, line in enumerate(rows):
        parts = line.split(",")
        if len(parts) != ps.pair_count + 1:
            raise ShapeMismatch(f"row {i} has {len(parts)} fields")
        try:
            data[:, i] = [float(v) for v in parts]
        except ValueError as exc:
            raise ParseError(f"row {i} of the mass file: {exc}") from None
    # data holds the file's rows as columns, t first; -0.0 is not negative
    t, data = data[0], data[1:]
    off_grid = t.view(np.uint64) != grid.nodes.view(np.uint64)
    if off_grid.any():
        i = int(np.argmax(off_grid))
        raise ShapeMismatch(f"row {i} of the mass file has t = {float(t[i])!r}, "
                            f"grid node {i} is {float(grid.nodes[i])!r}")
    finite = np.isfinite(data).all(axis=0)
    if not finite.all():
        raise ParseError(f"row {int(np.argmin(finite))} of the mass file holds a "
                         "non-finite mass")
    negative = (data < 0.0).any(axis=0)
    if negative.any():
        raise ValidationError(f"row {int(np.argmax(negative))} of the mass file "
                              "holds a negative mass")
    return MassField(values=data)


def _export_stages(out: Path, grid: TimeGrid, ps: PathSet, psi: PsiResult,
                   mass: MassField | None = None) -> None:
    # masses.csv carries the field of record: the equilibrium for a solve,
    # the map's output for a single evaluation.  The grid is formatted once.
    times = _tokens(np.append(grid.nodes, np.inf))
    write_mass_csv(out / "masses.csv", grid, ps, psi.mass if mass is None else mass, times)
    _write_csv(out / "flows.csv", times, _pair_columns(ps, "f"), [psi.flows])
    _write_csv(out / "values.csv", times, _pair_columns(ps, "V"), [psi.value])
    _write_csv(out / "policy.csv", times, _pair_columns(ps, "tau"), [psi.policy.tau_idx])
    _write_csv(out / "preferences.csv", times,
               _path_columns(ps, "z") + _path_columns(ps, "F_beta"),
               [psi.z, psi.response])
    _write_csv(out / "costs.csv", times, _path_columns(ps, "J"), [psi.costs])


def _diagnostics(scen: Scenario, psi: PsiResult, member: XMembership) -> dict:
    diag = {
        "membership": dataclasses.asdict(member),
        "clip": {"total": psi.integration.clip_total,
                 "max": psi.integration.clip_max,
                 "count": psi.integration.clip_count},
        "constrained": scen.constrained.enabled,
        "k": scen.k,
        "k_idx_edges": psi.k_idx_edges.tolist(),
    }
    if psi.arrival is not None:
        diag["mean_traverse_time"] = psi.arrival.tau_bar.tolist()
        diag["ktilde"] = (psi.k_idx_edges * scen.grid.dt).tolist()
    return diag


def _manifest(args, net, scen, start: float, exit_status: int,
              error: str | None = None) -> dict:
    doc = {
        "command": args.command,
        "scenario": args.scenario,
        "parameters": scenario_to_dict(net, scen) if net is not None else None,
        "tool_version": __version__,
        "duration_seconds": time.monotonic() - start,
        "exit_status": exit_status,
    }
    if error is not None:
        doc["error"] = error
    return doc


def _write_json_file(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _exit_status(exc: MFRouteError) -> int:
    """A package error's exit status: 2 for a parse error, else 1."""
    return 2 if isinstance(exc, ParseError) else 1


def _load(args) -> tuple[Network, PathSet, Scenario, TimeGrid]:
    """Load the scenario with the command's flags applied.

    Flags are written into the resolved scenario document, which is parsed
    again, so a flag gets exactly the checks of the scenario key it sets.
    """
    net, ps, scen, grid = load_scenario(args.scenario)
    solver = {key: value for key in ("gamma", "tol", "max_iter")
              if (value := getattr(args, key, None)) is not None}
    if not solver and not args.constrained:
        return net, ps, scen, grid
    doc = scenario_to_dict(net, scen)
    doc["solver"].update(solver)
    if args.constrained:
        doc["constrained"]["enabled"] = True
    return scenario_from_dict(doc)


def _run(args) -> int:
    """Frame shared by the commands that write an output directory.

    ``args.body(args, out, net, ps, scen, grid)`` writes the stage files and
    returns the exit status, the report document and a one-line summary.
    The frame writes ``manifest.json`` and ``report.json``, which echoes the
    same manifest.  On a package error it writes only ``manifest.json``, with
    the error and no parameters, and passes the error on to ``main``.
    """
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise MFRouteError(f"cannot create output directory: {exc}") from None
    start = time.monotonic()
    try:
        net, ps, scen, grid = _load(args)
        code, doc, summary = args.body(args, out, net, ps, scen, grid)
    except MFRouteError as exc:
        _write_json_file(out / "manifest.json",
                         _manifest(args, None, None, start, _exit_status(exc), str(exc)))
        raise
    doc["manifest"] = _manifest(args, net, scen, start, code)
    _write_json_file(out / "report.json", doc)
    _write_json_file(out / "manifest.json", doc["manifest"])
    print(summary)
    return code


def cmd_validate(args) -> int:
    failed = False
    for check in scenario_checks(_read_json(args.scenario)):
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
        "final_relative_residual": report.final_relative_residual,
        "restarts": report.restarts,
        "gamma": report.gamma,
        "diagnostics": {**_diagnostics(scen, report.psi, report.membership),
                        "residual_increases": report.residual_increases},
    }
    status = "converged in" if report.converged else "not converged after"
    return 0 if report.converged else 3, doc, (
        f"{status} {report.iterations} iterations; final residual {report.final_residual:g}")


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


def cmd_oracle(args) -> int:
    net, ps, scen, grid = _load(args)
    if grid.steps > args.max_n:
        print(f"refusing to enumerate: steps {grid.steps} exceeds --max-N {args.max_n}")
        return 1

    ok = True
    mass = MassField(values=np.zeros((ps.pair_count, grid.steps + 1)))
    for label in ("empty mass field", "one pipeline iterate"):
        psi = apply_psi(net, ps, scen, mass)
        floor = psi.arrival.floor_idx if psi.arrival is not None else None
        mismatches = check_value_tables(net, ps, scen, psi.phi_prefix, psi.value,
                                        psi.policy.tau_idx, floor)
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
    # Arguments shared by several commands, each declared once: every command
    # reads a scenario, all but validate may force the speed-limited mode,
    # and solve and psi-once write an output directory.
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("scenario")
    constrained = argparse.ArgumentParser(add_help=False, parents=[scenario])
    constrained.add_argument("--constrained", action="store_true",
                             help="force the speed-limited mode")
    output = argparse.ArgumentParser(add_help=False, parents=[constrained])
    output.add_argument("--out", required=True, help="output directory")

    sub.add_parser("validate", parents=[scenario],
                   help="check a scenario file").set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", parents=[output], help="compute an equilibrium")
    p.add_argument("--gamma", type=float, help="damping factor")
    p.add_argument("--tol", type=float, help="absolute residual tolerance")
    p.add_argument("--max-iter", type=int)
    p.set_defaults(func=_run, body=_solve_body)

    p = sub.add_parser("psi-once", parents=[output], help="evaluate the mass map once")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--mass", help="input mass trajectory CSV")
    group.add_argument("--zero", action="store_true", help="start from zero mass")
    p.set_defaults(func=_run, body=_psi_once_body)

    p = sub.add_parser("oracle", parents=[constrained],
                       help="exhaustive verification on a coarse grid")
    p.add_argument("--max-N", "--max-n", dest="max_n", type=int, default=16)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command.  A package error, from any command, is printed here
    and mapped to its exit status by :func:`_exit_status`."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MFRouteError as exc:
        code = _exit_status(exc)
        print(f"{'parse error' if code == 2 else 'error'}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
