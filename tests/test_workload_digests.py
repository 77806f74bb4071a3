"""The benchmark workloads solve to the pinned equilibrium masses.

Each workload document comes from ``perfbench/workloads.py`` at seed 1.
Without Anderson history (``ANDERSON_DEPTH`` 0: damped Picard iteration) the
mass digests must equal the ones recorded in ``perfbench/baseline.json``,
which damped Picard iteration has reproduced since the first baseline; with
the default depth they must equal the ones pinned in
``tests/data/anderson_digests.json``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import mfroute.equilibrium as equilibrium
from mfroute import scenario_from_dict, solve
from mfroute.cli import _export_stages

from conftest import ROOT, WORKLOADS

BASELINE = json.loads((ROOT / "perfbench" / "baseline.json").read_text())["end_to_end"]
ANDERSON = json.loads((ROOT / "tests" / "data" / "anderson_digests.json").read_text())
CSV = json.loads((ROOT / "tests" / "data" / "csv_digests.json").read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def workload_solve(name: str, tmp_path: Path):
    """The workload's grid, path set and converged solve at seed 1."""
    path = WORKLOADS.write_scenario(name, ROOT, 1, tmp_path / f"{name}.json")
    net, ps, scen, grid = scenario_from_dict(json.loads(path.read_text()))
    report = solve(net, ps, scen)
    assert report.converged
    return grid, ps, report


@pytest.mark.parametrize("name", sorted(BASELINE))
def test_picard_reproduces_the_baseline_digest(name, tmp_path, monkeypatch):
    monkeypatch.setattr(equilibrium, "ANDERSON_DEPTH", 0)
    want = BASELINE[name]["mass_digest_by_seed"]["1"]
    report = workload_solve(name, tmp_path)[2]
    assert sha256(report.mass.values.tobytes()) == want


@pytest.mark.parametrize("name", sorted(BASELINE))
def test_default_depth_reproduces_the_pinned_digest(name, tmp_path):
    grid, ps, report = workload_solve(name, tmp_path)
    assert sha256(report.mass.values.tobytes()) == ANDERSON[name]
    # the stage files as the command exports this solve
    _export_stages(tmp_path, grid, ps, report.psi, mass=report.mass)
    assert {f: sha256((tmp_path / f).read_bytes()) for f in CSV[name]} == CSV[name]
