"""Every stage the benchmark traces is still called where it is looked up,
and every package name the benchmark reads directly still resolves.

The tracer in ``perfbench/spans.py`` wraps each stage function in the module
that calls it.  A refactor that calls a stage some other way leaves the name
in place, so the benchmark still finds it, but its span never fires and its
per-stage metrics read zero without an error.  ``perfbench/run.py`` also
reads names from the package directly, for its correctness gate; a move
that drops one stops the benchmark, where no tracer check would see it.
"""

from __future__ import annotations

import ast
import importlib

import pytest

from mfroute.cli import main

from conftest import ROOT, SPANS, diamond_dict, varied_limits


@pytest.mark.parametrize("constrained", [None, varied_limits("e1")],
                         ids=["plain", "speed-limited"])
def test_every_traced_stage_fires(write_scenario, tmp_path, capsys, constrained):
    # a few iterations call every stage; exit 3 still exports them
    scenario = write_scenario(diamond_dict(steps=16, solver={"max_iter": 4},
                                           constrained=constrained))
    targets = SPANS.LIGHT_TARGETS + SPANS.STAGE_TARGETS
    with SPANS.Tracer(targets) as tracer:
        code = main(["solve", str(scenario), "--out", str(tmp_path / "run")])
    assert code in (0, 3)
    assert tracer.missing == []
    expected = {name for _, _, name in targets}
    if constrained is None:
        # the speed-limit stages run only in the speed-limited mode
        expected = {name for name in expected if not name.startswith("constrained.")}
    assert {span[1] for span in tracer.spans} == expected


def harness_names() -> set[str]:
    """The dotted package names ``perfbench/run.py`` reads: what it imports
    from a package module, and the attributes it takes from ``mfroute`` or
    from a package module it imports under another name."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    modules = {"mfroute": "mfroute"}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mfroute"):
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.update((alias.asname, alias.name) for alias in node.names
                           if alias.asname and alias.name.startswith("mfroute"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add(f"{modules[node.value.id]}.{node.attr}")
    return names


def test_every_name_the_harness_reads_resolves():
    names = harness_names()
    assert {"mfroute.cli.read_mass_csv", "mfroute.oracle.audit_conservation",
            "mfroute.apply_psi", "mfroute.residual", "mfroute.load_scenario",
            "mfroute.cli.main", "mfroute.flow.value_backward"} <= names
    missing = []
    for name in sorted(names):
        module, attr = name.rsplit(".", 1)
        if not hasattr(importlib.import_module(module), attr):
            missing.append(name)
    assert missing == []
