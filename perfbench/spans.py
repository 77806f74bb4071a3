"""In-memory spans around the package's stage functions.

The tracer replaces a function in the namespace of the module that calls it
(``mfroute.flow.value_backward``, not ``mfroute.value.value_backward``,
because ``apply_psi`` looks the name up in ``mfroute.flow``) and puts the
original back on exit.  Each call records its name, start, end and parent
span.  Spans stay in memory; the benchmark writes them out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import defaultdict
from time import perf_counter

# (module the caller looks the name up in, attribute, span name).  The CLI's
# calls to load_scenario and solve are wrapped both where it imports them and
# where they are defined, so either way of calling them is seen.
LIGHT_TARGETS = (
    ("mfroute.cli", "load_scenario", "scenario.load_scenario"),
    ("mfroute.scenario", "load_scenario", "scenario.load_scenario"),
    ("mfroute.cli", "solve", "equilibrium.solve"),
    ("mfroute.equilibrium", "solve", "equilibrium.solve"),
)

STAGE_TARGETS = (
    ("mfroute.scenario", "build_network", "network.build_network"),
    ("mfroute.scenario", "enumerate_paths", "network.enumerate_paths"),
    ("mfroute.equilibrium", "apply_psi", "equilibrium.apply_psi"),
    ("mfroute.flow", "congestion_total", "value.congestion_total"),
    ("mfroute.flow", "value_backward", "value.value_backward"),
    ("mfroute.constrained", "build_speed_limits", "constrained.build_speed_limits"),
    ("mfroute.constrained", "arrival_tables", "constrained.arrival_tables"),
    ("mfroute.flow", "build_preferences", "preference.build_preferences"),
    ("mfroute.preference", "path_costs", "preference.path_costs"),
    ("mfroute.flow", "local_decision", "flow.local_decision"),
    ("mfroute.flow", "compute_flows", "flow.compute_flows"),
    ("mfroute.flow", "integrate_mass", "flow.integrate_mass"),
    ("mfroute.cli", "_export_stages", "cli.export_stages"),
    ("mfroute.cli", "write_mass_csv", "cli.write_mass_csv"),
    ("mfroute.cli", "_write_csv", "cli.write_csv"),
    ("mfroute.cli", "_write_json_file", "cli.write_json_file"),
)


class Tracer:
    """Records spans from wrapped functions and restores them on exit.

    ``on_return`` maps a span name to a callback that receives the wrapped
    call's return value, so results can be inspected without being kept.
    A target missing from the package is skipped and listed in ``missing``.
    """

    def __init__(self, targets, on_return=None):
        self.spans: list[list] = []  # [id, name, parent, start, end]
        self.missing: list[str] = []
        self._targets = targets
        self._on_return = on_return or {}
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, name in self._targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name))
            self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        record = [span_id, name, self._stack[-1] if self._stack else None, 0.0, 0.0]
        self.spans.append(record)
        self._stack.append(span_id)
        record[3] = perf_counter()
        try:
            yield
        finally:
            record[4] = perf_counter()
            self._stack.pop()

    def _wrap(self, original, name):
        callback = self._on_return.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if callback is not None:
                callback(result)
            return result

        return traced


def span_total(spans, name: str) -> float:
    """Summed duration in seconds of every span called ``name``."""
    return sum(s[4] - s[3] for s in spans if s[1] == name)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Spans are recorded in one thread, so children never overlap and their
    durations can simply be summed.
    """
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[2] is not None:
            own[s[2]] -= s[4] - s[3]
    return own


def per_ancestor(spans, ancestor: str):
    """Group spans under their nearest ancestor named ``ancestor``.

    Returns, for each such ancestor span in call order, a mapping from span
    name to (summed duration, summed self time, call count) over its
    descendants, the ancestor itself included.
    """
    own = self_times(spans)
    owner: list[int | None] = []
    groups: dict[int, dict] = {}
    for s in spans:
        if s[1] == ancestor:
            owner.append(s[0])
            groups[s[0]] = defaultdict(lambda: [0.0, 0.0, 0])
        else:
            owner.append(owner[s[2]] if s[2] is not None else None)
        if owner[-1] is not None:
            entry = groups[owner[-1]][s[1]]
            entry[0] += s[4] - s[3]
            entry[1] += own[s[0]]
            entry[2] += 1
    return [groups[k] for k in sorted(groups)]
