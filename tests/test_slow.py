"""Solver checks too slow for the default run, under the ``slow`` marker.

``pyproject.toml`` deselects them; run them with ``python -m pytest -q -m
slow`` (about 90 s on a 2-CPU machine).  CI runs them after the tests.
"""

from __future__ import annotations

import pytest

import mfroute.flow as flow
from mfroute import scenario_from_dict, solve
from mfroute.cli import main

from conftest import ROOT, SCENARIOS, WORKLOADS, diamond_dict
from dense_kernel import dense_value_backward

pytestmark = pytest.mark.slow


def test_value_search_equals_the_reference_at_4000_steps(monkeypatch):
    # every map evaluation of a solve of the diamond at 4000 steps also runs
    # the plain minimization of tests/dense_kernel.py, and the value and
    # policy tables must be equal in every bit
    search = flow.value_backward
    equal = []

    def checked(net, ps, scen, phi_prefix, arrival_floor=None):
        result = search(net, ps, scen, phi_prefix, arrival_floor)
        reference = dense_value_backward(net, ps, scen, phi_prefix, arrival_floor)
        equal.append(all(a.tobytes() == b.tobytes() for a, b in zip(result, reference)))
        return result

    monkeypatch.setattr(flow, "value_backward", checked)
    solve(*scenario_from_dict(diamond_dict(steps=4000, solver={"tol": 1e-6}))[:3])
    assert equal and all(equal)


def test_slow_lattice_converges():
    # The seeded 4x4 lattice at 2000 steps and tol 1e-9: 77 map evaluations,
    # 297 when every Anderson step was damped.  It pins one solver
    # trajectory: any change in the bits of a value, a cost or a mass can
    # move it (a kinetic term that changes values by 1.5e-15 relative takes
    # it to 500 unconverged), so it stays the gate for changes that keep
    # every bit, and a change of bits re-measures it.
    doc = WORKLOADS.WORKLOADS["lattice-4x4"](ROOT, 1)
    doc["model"]["steps"] = 2000
    doc["solver"]["tol"] = 1e-9
    report = solve(*scenario_from_dict(doc)[:3])
    assert report.converged and report.iterations <= 100


@pytest.mark.parametrize("name", ["diamond_constrained", "diamond_default"])
def test_oracle_at_full_size(capsys, name):
    # Exact enumeration over all 500 steps, over arrival floors on the
    # speed-limited diamond.  diamond_default is the only full-size
    # enumeration of the value search without floors: at 500 steps its
    # levels run at strides 64, 8 and 1, the last in row batches.
    assert main(["oracle", str(SCENARIOS / f"{name}.json"), "--max-N", "500"]) == 0
    assert capsys.readouterr().out.endswith("oracle: OK\n")
