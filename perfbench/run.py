"""Benchmark of the mfroute solver: time to solution and per-stage cost.

Run from the root of a checkout::

    python3 perfbench/run.py --workload lattice-4x4 --seed 1 --seconds 30 --trace 0

Each solve goes through ``mfroute solve`` (``mfroute.cli.main``) on a
scenario file generated from the seed, in one process and one thread.  With
``--trace 0`` the end-to-end metrics are measured with tracing off; with
``--trace 1`` a separate traced run reports per-stage metrics.  Every solve
is checked before it is counted; a failed check makes the run exit with
status 1.  The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record of the
run, the machine and the spans goes to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# One thread: pin any threaded numpy backend before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import sys
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_SETUP_CALLS = 20
SETUP_SHARE = 0.05  # share of the run spent on extra set-up calls
MAX_FAILURES = 3    # stop a run early once this many solves have failed
PERCENTILES = (99, 95, 90, 75)
# Printed and recorded, but kept out of the result line: export_s moved by
# 10-30% between runs of unchanged code, more than any bound a regression
# check could use (time_to_solution_s includes it), and the constrained
# times read exactly zero on the unconstrained workloads.
REPORT_ONLY = {"export_s", "constrained.arrival_ms", "constrained.limits_ms"}


def _import_package():
    """Import mfroute from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mfroute" / "__init__.py").is_file():
        sys.exit(f"error: no mfroute package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import mfroute

    if src.resolve() not in Path(mfroute.__file__).resolve().parents:
        sys.exit(f"error: mfroute imported from {mfroute.__file__}, not from {src}")
    return mfroute


# ---------------------------------------------------------------------------
# One solve through the CLI, and its correctness gate


@dataclass
class Solve:
    setup_s: float
    solve_s: float
    export_s: float
    total_s: float
    code: int
    out_dir: Path
    loaded: tuple | None = None   # (net, ps, scen, grid) as the CLI loaded them
    report: object = None         # EquilibriumReport returned to the CLI
    spans: list = field(default_factory=list)
    read_s: float = float("nan")
    export_bytes: int = 0
    peak_bytes: int = 0
    missing: list[str] = field(default_factory=list)  # trace targets not found
    digest: str = ""
    problems: list[str] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return self.report.iterations


def solve_once(scenario_path: Path, out_dir: Path, targets, on_return=None) -> Solve:
    """Run ``mfroute solve`` in-process and split its wall time by stage.

    Set-up and solve time come from spans around the CLI's calls to
    ``load_scenario`` and ``solve``; export time is the rest of the command,
    which writes the stage CSVs, ``report.json`` and ``manifest.json``.
    """
    import mfroute.cli as cli
    from spans import Tracer, span_total

    captured: dict = {}
    hooks = {"scenario.load_scenario": lambda r: captured.setdefault("loaded", r),
             "equilibrium.solve": lambda r: captured.setdefault("report", r),
             **(on_return or {})}
    tracer = Tracer(targets, hooks)
    with tracer, contextlib.redirect_stdout(io.StringIO()), tracer.span("cli.main"):
        code = cli.main(["solve", str(scenario_path), "--out", str(out_dir)])
    total = span_total(tracer.spans, "cli.main")
    setup = span_total(tracer.spans, "scenario.load_scenario")
    solve = span_total(tracer.spans, "equilibrium.solve")
    return Solve(setup_s=setup, solve_s=solve, export_s=total - setup - solve,
                 total_s=total, code=code, out_dir=out_dir,
                 loaded=captured.get("loaded"), report=captured.get("report"),
                 spans=tracer.spans, missing=tracer.missing)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def check(mfroute, run: Solve) -> None:
    """Untimed correctness gate; appends to ``run.problems``."""
    from mfroute.cli import read_mass_csv
    from mfroute.oracle import audit_conservation

    if run.code != 0:
        run.problems.append(f"mfroute solve exited with status {run.code}")
    if run.loaded is None or run.report is None:
        run.problems.append("the CLI did not return a scenario and a report")
        return
    net, ps, scen, grid = run.loaded
    report = run.report
    if not report.converged:
        run.problems.append(f"not converged after {report.iterations} iterations, "
                            f"residual {report.final_residual:g}")
    again = mfroute.apply_psi(net, ps, scen, report.mass)
    if not same_bits(again.mass.values, report.psi.mass.values):
        run.problems.append("psi of the returned mass differs from report.psi.mass")
    r = mfroute.residual(report.mass, again.mass)
    if not r <= report.tol:
        run.problems.append(f"residual {r:g} of the returned mass exceeds tol {report.tol:g}")
    if not audit_conservation(ps, scen, report.psi, scen.rho0).ok:
        run.problems.append("conservation audit failed")
    if not report.membership.mass_ok:
        run.problems.append("total edge mass exceeds rho_max")
    start = perf_counter()
    back = read_mass_csv(run.out_dir / "masses.csv", ps, grid)
    run.read_s = perf_counter() - start
    if not same_bits(back.values, report.mass.values):
        run.problems.append("masses.csv does not round-trip bit for bit")
    run.digest = hashlib.sha256(report.mass.values.tobytes()).hexdigest()


class Ledger:
    """Counts attempted and failed solves; only passing solves are timed."""

    def __init__(self, mfroute):
        self.mfroute = mfroute
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()

    def run(self, label: str, fn) -> Solve | None:
        self.attempted += 1
        try:
            result = fn()
            check(self.mfroute, result)
        except Exception:  # a crash in one solve is recorded as a failed solve
            self.failed += 1
            self.problems.append(f"{label}: {traceback.format_exc(limit=3)}")
            return None
        if result.digest:
            self.digests.add(result.digest)
            if len(self.digests) > 1:
                result.problems.append("equilibrium mass differs between solves")
        if result.problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in result.problems)
            return None
        return result


# ---------------------------------------------------------------------------
# Counts computed from the network and the grid, not by the program


def suffixes(ps) -> int:
    """Distinct path suffixes starting at a pair's edge.

    A pair's value table and policy depend only on that suffix, so this is
    the number of distinct value kernels one psi evaluation needs.
    """
    return len({path[pos:] for path in ps.paths for pos in range(len(path))})


def kernel_cells(ps, grid) -> tuple[int, int]:
    """Value-kernel cells per psi: (interior, last) over all pairs.

    An interior edge minimises over (N+1)^2 entry/arrival candidates; a last
    edge has one candidate per entry node.
    """
    n1 = grid.steps + 1
    last = int(ps.last_mask.sum())
    return (ps.pair_count - last) * n1 * n1, last * n1


# Bytes of temporaries the dense kernel writes per cell: for an interior
# edge, five float64 (N+1)^2 arrays (kinetic term, congestion difference,
# two partial sums, masked candidates) and two bool ones (validity, tie
# band); for a last edge, four float64 vectors and two bool ones.
INTERIOR_CELL_BYTES = 5 * 8 + 2
LAST_CELL_BYTES = 4 * 8 + 2


def network_counts(loaded) -> dict[str, float]:
    _, ps, _, grid = loaded
    interior, last = kernel_cells(ps, grid)
    distinct = suffixes(ps)
    return {"network.paths": ps.n_paths, "network.pairs": ps.pair_count,
            "network.suffixes": distinct,
            "value.unique_ratio": distinct / ps.pair_count,
            "value.cells": interior + last,
            "value.bytes_computed": interior * INTERIOR_CELL_BYTES + last * LAST_CELL_BYTES}


def k_capped(loaded, psi) -> int:
    """Edges whose constrained flow delay sits at its cap_frac * horizon cap."""
    if psi.arrival is None:
        return 0
    scen = loaded[2]
    cap = scen.constrained.cap_frac * scen.grid.horizon
    return sum(1 for tau_bar in psi.arrival.tau_bar if max(scen.k, tau_bar) >= cap)


# ---------------------------------------------------------------------------
# Statistics


def percentile(samples, p: float) -> float:
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(-(-p * len(ordered) // 100)) - 1))
    return ordered[rank]


def describe(samples) -> str:
    """Median, sample count and the highest percentile with ten samples beyond it."""
    text = f"median {median(samples):.6g} of {len(samples)}"
    for p in PERCENTILES:
        if len(samples) * (100 - p) / 100 >= 10:
            return f"{text}, p{p} {percentile(samples, p):.6g}"
    return text


# ---------------------------------------------------------------------------
# Measurements


@dataclass
class Measurement:
    ledger: Ledger
    units: dict[str, str]
    metrics: dict[str, float] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)
    samples: dict[str, list] = field(default_factory=dict)
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)

    def summarise(self, samples: dict[str, list], least=frozenset()) -> None:
        """Report each sample list as its median, or its least value if in ``least``.

        The note always gives the median, the count and the tail.
        """
        self.samples.update(samples)
        for name, values in samples.items():
            if values:
                self.metrics[name] = min(values) if name in least else median(values)
                self.notes[name] = ("least; " if name in least else "") + describe(values)


def repeat_for(seconds: float, fn) -> None:
    """Call ``fn`` repeatedly for about ``seconds``, at least once."""
    end = perf_counter() + seconds
    fn()
    while perf_counter() < end:
        fn()


def measure_loop(ledger: Ledger, seconds: float, solve_fns, setup_fn) -> list[list[Solve]]:
    """Alternate the given solves until ``seconds`` have passed.

    After each round, set-up calls run for SETUP_SHARE of the round's time,
    so set-up samples are spread over the whole run rather than bunched at
    its start.  Returns the passing solves of each kind.
    """
    passed: list[list[Solve]] = [[] for _ in solve_fns]
    start = perf_counter()
    while not all(passed) or perf_counter() - start < seconds:
        round_start = perf_counter()
        for (label, fn), runs in zip(solve_fns, passed):
            run = ledger.run(f"{label} {ledger.attempted}", fn)
            if run is not None:
                runs.append(run)
        if ledger.failed >= MAX_FAILURES:
            break
        repeat_for(SETUP_SHARE * (perf_counter() - round_start), setup_fn)
    return passed


# ---------------------------------------------------------------------------
# End-to-end run (tracing off)


E2E_UNITS = {"setup_s": "s", "solve_s": "s", "export_s": "s",
             "time_to_solution_s": "s", "iterations": "count", "psi_per_s": "1/s",
             "peak_mib": "MiB"}

# Set-up is reported as the least time of the run: thousands of calls of
# well under a millisecond, whose median moved by 15-40% between runs with
# the speed of the shared 2-CPU host while the least time moved by under 10%.
E2E_LEAST = frozenset({"setup_s"})


def end_to_end(mfroute, scenario_path: Path, out_dir: Path, seconds: float) -> Measurement:
    from spans import LIGHT_TARGETS

    def memory_pass() -> Solve:
        tracemalloc.start()
        try:
            run = solve_once(scenario_path, out_dir, LIGHT_TARGETS)
            run.peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return run

    setup: list[float] = []

    def setup_call() -> None:
        t0 = perf_counter()
        mfroute.load_scenario(scenario_path)
        setup.append(perf_counter() - t0)

    ledger = Ledger(mfroute)
    # The memory pass comes first: it also warms up every code path.
    peak = ledger.run("memory pass", memory_pass)
    [solves] = measure_loop(ledger, seconds, [
        ("solve", lambda: solve_once(scenario_path, out_dir, LIGHT_TARGETS))], setup_call)
    while len(setup) < MIN_SETUP_CALLS:
        setup_call()

    m = Measurement(ledger, E2E_UNITS)
    m.summarise(least=E2E_LEAST, samples={
        "setup_s": setup,
        "solve_s": [s.solve_s for s in solves],
        "export_s": [s.export_s for s in solves],
        "time_to_solution_s": [s.total_s for s in solves],
        "iterations": [s.iterations for s in solves],
        "psi_per_s": [s.iterations / s.solve_s for s in solves],
        "peak_mib": [peak.peak_bytes / 2**20] if peak else [],
    })
    m.extra["fail_rate"] = (ledger.failed / ledger.attempted, "ratio")
    return m


# ---------------------------------------------------------------------------
# Traced run


LAYER_UNITS = {
    "value.backward_ms": "ms", "value.backward_share": "ratio",
    "value.cells": "count", "value.bytes_computed": "bytes",
    "value.peak_mib": "MiB", "value.unique_ratio": "ratio",
    "value.congestion_ms": "ms",
    "constrained.arrival_ms": "ms", "constrained.limits_ms": "ms",
    "constrained.k_capped": "count",
    "preference.ms": "ms", "preference.path_costs_ms": "ms",
    "flow.flows_ms": "ms", "flow.integrate_ms": "ms", "flow.clip_count": "count",
    "flow.local_decision_calls": "count",
    "equilibrium.psi_ms": "ms", "equilibrium.psi_accounted_share": "ratio",
    "equilibrium.overhead_ms": "ms", "equilibrium.residual_increases": "count",
    "equilibrium.policy_flips": "count",
    "cli.export_ms": "ms", "cli.export_bytes": "bytes", "cli.read_ms": "ms",
    "scenario.load_ms": "ms", "network.enumerate_ms": "ms",
    "network.paths": "count", "network.pairs": "count", "network.suffixes": "count",
    "trace.overhead_share": "ratio",
}

# Per-psi metric -> (span name, field): 0 summed duration, 1 self time, 2 calls.
PSI_FIELDS = {
    "equilibrium.psi_ms": ("equilibrium.apply_psi", 0),
    "value.backward_ms": ("value.value_backward", 1),
    "value.congestion_ms": ("value.congestion_total", 1),
    "constrained.arrival_ms": ("constrained.arrival_tables", 1),
    "constrained.limits_ms": ("constrained.build_speed_limits", 1),
    "preference.ms": ("preference.build_preferences", 0),
    "preference.path_costs_ms": ("preference.path_costs", 0),
    "flow.flows_ms": ("flow.compute_flows", 0),
    "flow.integrate_ms": ("flow.integrate_mass", 0),
    "flow.local_decision_calls": ("flow.local_decision", 2),
}


class PsiWatcher:
    """Reads each psi result as it is returned: policy flips and clip counts."""

    def __init__(self):
        self.previous = None
        self.flips = 0
        self.clips: list[int] = []

    def __call__(self, psi) -> None:
        tau = psi.policy.tau_idx
        if self.previous is not None:
            self.flips += int((tau != self.previous).sum())
        self.previous = tau
        self.clips.append(psi.integration.clip_count)


def value_peak_mib(mfroute, loaded, mass) -> float:
    """tracemalloc peak above the entry level inside one ``value_backward`` call."""
    import mfroute.flow as flow

    original = flow.value_backward
    peaks: list[int] = []

    def measured(*args, **kwargs):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return original(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - base)

    net, ps, scen, _ = loaded
    flow.value_backward = measured
    tracemalloc.start()
    try:
        mfroute.apply_psi(net, ps, scen, mass)
    finally:
        tracemalloc.stop()
        flow.value_backward = original
    return max(peaks, default=0) / 2**20


def traced(mfroute, scenario_path: Path, out_dir: Path, seconds: float) -> Measurement:
    """Per-layer metrics from traced solves, alternated with untraced ones.

    The ledger requires every solve of the run, traced or not, to return the
    same mass bit for bit, so tracing cannot change the result unnoticed.
    """
    from spans import LIGHT_TARGETS, STAGE_TARGETS, Tracer, per_ancestor, span_total

    ledger = Ledger(mfroute)
    ledger.run("warm-up", lambda: solve_once(scenario_path, out_dir, LIGHT_TARGETS))

    load_ms: list[float] = []
    enumerate_ms: list[float] = []
    missing: set[str] = set()

    def setup_call() -> None:
        with Tracer(STAGE_TARGETS) as tracer, tracer.span("scenario.load_scenario"):
            mfroute.load_scenario(scenario_path)
        load_ms.append(1e3 * span_total(tracer.spans, "scenario.load_scenario"))
        enumerate_ms.append(1e3 * span_total(tracer.spans, "network.enumerate_paths"))

    watchers: dict[int, PsiWatcher] = {}

    def traced_solve() -> Solve:
        watcher = PsiWatcher()
        run = solve_once(scenario_path, out_dir, LIGHT_TARGETS + STAGE_TARGETS,
                         {"equilibrium.apply_psi": watcher})
        watchers[id(run)] = watcher
        run.export_bytes = sum(p.stat().st_size for p in out_dir.iterdir())
        return run

    traced_runs, plain = measure_loop(ledger, seconds, [
        ("traced solve", traced_solve),
        ("untraced solve", lambda: solve_once(scenario_path, out_dir, LIGHT_TARGETS)),
    ], setup_call)
    while len(load_ms) < MIN_SETUP_CALLS:
        setup_call()

    psi: dict[str, list[float]] = {name: [] for name in PSI_FIELDS}
    psi.update({"value.backward_share": [], "equilibrium.psi_accounted_share": [],
                "flow.clip_count": []})
    per_solve: dict[str, list[float]] = {
        "equilibrium.overhead_ms": [], "equilibrium.policy_flips": [],
        "equilibrium.residual_increases": [], "cli.export_ms": [],
        "cli.export_bytes": [], "constrained.k_capped": []}
    for run in traced_runs:
        watcher = watchers[id(run)]
        missing.update(run.missing)
        groups = per_ancestor(run.spans, "equilibrium.apply_psi")
        for g in groups:
            for name, (span, col) in PSI_FIELDS.items():
                psi[name].append(g[span][col] * (1 if col == 2 else 1e3))
            psi_s = g["equilibrium.apply_psi"][0]
            psi["value.backward_share"].append(g["value.value_backward"][1] / psi_s)
            stages = sum(v[1] for k, v in g.items() if k != "equilibrium.apply_psi")
            psi["equilibrium.psi_accounted_share"].append(stages / psi_s)
        psi["flow.clip_count"].extend(watcher.clips)
        psi_total = sum(g["equilibrium.apply_psi"][0] for g in groups)
        per_solve["equilibrium.overhead_ms"].append(
            1e3 * (run.solve_s - psi_total) / run.iterations)
        per_solve["equilibrium.policy_flips"].append(watcher.flips)
        per_solve["equilibrium.residual_increases"].append(
            len(run.report.residual_increases))
        per_solve["cli.export_ms"].append(
            1e3 * (span_total(run.spans, "cli.export_stages")
                   + span_total(run.spans, "cli.write_json_file")))
        per_solve["cli.export_bytes"].append(run.export_bytes)
        per_solve["constrained.k_capped"].append(k_capped(run.loaded, run.report.psi))

    m = Measurement(ledger, LAYER_UNITS, missing=sorted(missing))
    m.summarise({**psi, **per_solve,
                 "cli.read_ms": [1e3 * s.read_s for s in traced_runs + plain],
                 "scenario.load_ms": load_ms, "network.enumerate_ms": enumerate_ms})
    if traced_runs and plain:
        first = traced_runs[0]
        counts = network_counts(first.loaded)
        m.metrics.update(counts)
        m.notes.update(dict.fromkeys(counts, "computed from the paths and the grid"))
        m.metrics["value.peak_mib"] = value_peak_mib(mfroute, first.loaded, first.report.mass)
        t_traced = median(s.solve_s for s in traced_runs)
        t_plain = median(s.solve_s for s in plain)
        m.metrics["trace.overhead_share"] = (t_traced - t_plain) / t_plain
        m.notes["trace.overhead_share"] = (
            f"traced solve_s {t_traced:.4f} s over {len(traced_runs)}, "
            f"untraced {t_plain:.4f} s over {len(plain)}")
    m.spans = [{"solve": i, "id": s[0], "name": s[1], "parent": s[2],
                "start": s[3], "end": s[4]}
               for i, run in enumerate(traced_runs) for s in run.spans]
    return m


# ---------------------------------------------------------------------------
# Reporting


def machine_info() -> dict:
    info = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": platform.processor() or platform.machine()}
    import numpy

    info["numpy"] = numpy.__version__
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    with contextlib.suppress(OSError):
        for index in sorted(caches.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                info[f"L{level}"] = (index / "size").read_text().strip()
    return info


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS, write_scenario

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    mfroute = _import_package()

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / label
    scenario_path = write_scenario(args.workload, ROOT, args.seed, work / "scenario.json")
    out_dir = work / "solve"
    out_dir.mkdir(parents=True, exist_ok=True)

    measure = traced if args.trace else end_to_end
    m = measure(mfroute, scenario_path, out_dir, args.seconds)
    ledger = m.ledger

    correct = ledger.failed == 0 and ledger.attempted > 0
    print(f"mfroute benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {ledger.attempted} solves, {ledger.failed} failed")
    for name, unit in m.units.items():
        value = m.metrics.get(name, float("nan"))
        print(f"  {name:34s} {value:14.6g} {unit:6s} {m.notes.get(name, '')}")
    for name, (value, unit) in m.extra.items():
        print(f"  {name:34s} {value:14.6g} {unit:6s}")
    if len(ledger.digests) == 1:
        print(f"  every checked solve returned one mass, sha256 {min(ledger.digests)}")
    if m.missing:
        print(f"  not traced, absent from the package: {', '.join(m.missing)}")
    for problem in ledger.problems:
        print(f"  FAILED {problem}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine_info(),
              "correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
              "problems": ledger.problems, "mass_digests": sorted(ledger.digests),
              "not_traced": m.missing,
              "metrics": {k: {"value": m.metrics.get(k), "unit": u}
                          for k, u in m.units.items()},
              "extra": {k: {"value": v, "unit": u} for k, (v, u) in m.extra.items()},
              "samples": m.samples}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{label}.json").write_text(json.dumps(record, indent=1) + "\n")
    if m.spans:
        (OUT / "results" / f"{label}-spans.json").write_text(json.dumps(m.spans) + "\n")

    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed,
                      "metrics": {k: {"value": m.metrics[k], "unit": u}
                                  for k, u in m.units.items()
                                  if k in m.metrics and k not in REPORT_ONLY}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
