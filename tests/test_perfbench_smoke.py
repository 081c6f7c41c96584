"""The benchmark's calls into the package, at the benchmark's tiny sizes.

Runs every workload that ``BENCHMARK.json`` names through its set-up, unit
and traced unit from ``perfbench/workloads.py``, seed 0, so that a change
which removes or renames something the benchmark reads fails here rather
than in a benchmark run, and that the benchmark's copies of the minor and
report writers write the bytes ``sprkit run`` writes, so its digests measure
the CLI's output.  Reads ``perfbench/`` and changes nothing there.
"""

import json
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

from sprkit import SprParams, run_and_contract
from sprkit.cli import main
from sprkit.graph import parse_graph_text

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


def test_writers_match_the_cli(workloads, tmp_path):
    gpath = tmp_path / "g.txt"
    assert main(["gen", "--family", "random-weighted", "--n", "40", "--k", "5",
                 "--seed", "11", "--out", str(gpath)]) == 0
    assert main(["run", "--graph", str(gpath), "--seed", "6", "--out", str(tmp_path / "t.json")]) == 0
    graph = parse_graph_text(gpath.read_text())
    minor, report, _ = run_and_contract(graph, SprParams.for_graph(graph, seed=6))
    assert workloads.minor_text(minor).encode() == (tmp_path / "t.minor.txt").read_bytes()
    assert workloads.report_json(report).encode() == (tmp_path / "t.report.json").read_bytes()
