"""The benchmark's calls into the package, at the benchmark's tiny sizes.

Runs every workload that ``BENCHMARK.json`` names through its set-up, unit
and traced unit from ``perfbench/workloads.py``, seed 0, so that a change
which removes or renames something the benchmark reads fails here rather
than in a benchmark run.  Reads ``perfbench/`` and changes nothing there.
"""

import json
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = {metric["name"] for metric in SPEC["per_layer"]}


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return workloads


def _no_span(name):
    return nullcontext()


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_at_tiny_sizes(workloads, name):
    wl = workloads.WORKLOADS[name]
    state = wl.setup(0, wl.tiny_sizes)
    for out in (wl.unit(state, 0), wl.traced_unit(state, 1, _no_span)):
        assert workloads.problems(out) == []
        assert set(workloads.counts(out)) <= PER_LAYER
