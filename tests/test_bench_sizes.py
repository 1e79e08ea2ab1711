"""The benchmark's size gate: the tower workloads' basis sizes.

perfbench/workloads.TOWERS records the residue (S_i) and level (R_i) basis
sizes that the benchmark's warm-up child must reproduce before a run counts
as correct.  This test reads those figures and compares them with
len(monomial_basis()) on the tower of each canonical input, and with the
basis sizes that verify_tilt counts, so a change to how bases are built or
counted that moves them fails here, before the benchmark runs.
It only reads perfbench/.
"""

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

from ptlab.logreg import LogRegPresentation, build_tower, verify_tilt

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


@pytest.mark.parametrize("name", sorted(workloads.TOWERS))
def test_tower_workload_basis_sizes(name, tmp_path):
    spec = workloads.TOWERS[name]
    setup = workloads.build(name, 1, tmp_path, canonical=True)["setup"]
    P = LogRegPresentation.from_descriptor(json.loads(Path(setup["input"]).read_text()))
    T = build_tower(P, setup["depth"], Fraction(setup["cutoff"]), setup["precision"])
    assert [len(T.residue(i).monomial_basis()) for i in range(T.depth + 1)] == spec["S"]
    # the tilt counts them without the walk
    rows = verify_tilt(P, T)["checks"]
    assert [r["basis_size"] for r in rows if r["check"] == "basis_match"] == spec["S"]
    assert [len(T.levels[i].monomial_basis()) for i in range(T.depth + 1)] == spec["R"]
