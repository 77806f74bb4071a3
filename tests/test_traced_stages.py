"""Every stage the benchmark traces is still called where it is looked up.

The tracer in ``perfbench/spans.py`` wraps each stage function in the module
that calls it.  A refactor that calls a stage some other way leaves the name
in place, so the benchmark still finds it, but its span never fires and its
per-stage metrics read zero without an error.
"""

from __future__ import annotations

import pytest

from mfroute.cli import main

from conftest import SPANS, diamond_dict, varied_limits


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
