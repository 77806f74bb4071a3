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

from conftest import ROOT, WORKLOADS

BASELINE = json.loads((ROOT / "perfbench" / "baseline.json").read_text())["end_to_end"]
ANDERSON = json.loads((ROOT / "tests" / "data" / "anderson_digests.json").read_text())


def mass_digest(name: str, tmp_path: Path) -> str:
    path = WORKLOADS.write_scenario(name, ROOT, 1, tmp_path / f"{name}.json")
    net, ps, scen, grid = scenario_from_dict(json.loads(path.read_text()))
    report = solve(net, ps, scen)
    assert report.converged
    return hashlib.sha256(report.mass.values.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(BASELINE))
def test_picard_reproduces_the_baseline_digest(name, tmp_path, monkeypatch):
    monkeypatch.setattr(equilibrium, "ANDERSON_DEPTH", 0)
    want = BASELINE[name]["mass_digest_by_seed"]["1"]
    assert mass_digest(name, tmp_path) == want


@pytest.mark.parametrize("name", sorted(BASELINE))
def test_default_depth_reproduces_the_pinned_digest(name, tmp_path):
    assert mass_digest(name, tmp_path) == ANDERSON[name]
