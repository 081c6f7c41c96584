"""Golden hashes: byte-identical run artefacts against a recorded build.

Each case generates a graph, runs the clustering and hashes the three files
``sprkit run`` writes for it (trace JSON, minor text, report JSON), plus the
covering check's flags when the case has at least two terminals.  The guard
case hashes the partial trace carried by ``RoundsGuardError``.  The ledger
entries hash the charging ledgers of one terminal-free pair per graph, at
two run seeds each, and the interval partition they replay against.  The
analyze entry hashes the three files ``sprkit analyze --format csv`` writes
for a pair that splits at an interior terminal, and the oracle entry the
JSON that ``sprkit oracle --seeds 3`` writes for a small grid.  The
expected digests live in ``tests/golden/hashes.json``; see the README there
before touching them.  Run this file as a script to print the digests of the
current build.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import coarse_subdivided_random, fine_pair_graph
from sprkit import (
    RoundsGuardError,
    SprParams,
    build_interval_partition,
    check_covering,
    preprocess_subdivide,
    reconstruct_ledger,
    run_and_contract,
    run_spr,
)
from sprkit.cli import main
from sprkit.generators import generate
from sprkit.graph import format_graph_text

HASHES_PATH = Path(__file__).resolve().parent / "golden" / "hashes.json"

# id -> (family, generator params, generator seed, run options)
CASES = {
    "path-n9": ("path", {"n": 9}, 0, {"seed": 3}),
    "cycle-n14-k3": ("cycle", {"n": 14, "k": 3}, 0, {"seed": 5}),
    "star-k6": ("star", {"k": 6}, 0, {"seed": 2}),
    "tree-depth4": ("complete-binary-tree", {"depth": 4}, 0, {"seed": 1}),
    "grid-corner-6x6-tied": ("grid", {"width": 6, "height": 6}, 0, {"seed": 4}),
    "grid-random-9x8-k7-tied": (
        "grid", {"width": 9, "height": 8, "terminals": "random", "k": 7}, 7, {"seed": 8},
    ),
    "random-n40-k5": ("random-weighted", {"n": 40, "edge_prob": 0.15, "k": 5}, 11, {"seed": 6}),
    "random-n70-k12-delta0.3": (
        "random-weighted", {"n": 70, "edge_prob": 0.08, "k": 12}, 4, {"seed": 21, "delta": 0.3},
    ),
    "random-unit-weights-n50-k6": (
        "random-weighted",
        {"n": 50, "edge_prob": 0.1, "k": 6, "weight_range": (1.0, 1.0)},
        9,
        {"seed": 13},
    ),
    "random-k1": ("random-weighted", {"n": 15, "edge_prob": 0.3, "k": 1}, 2, {"seed": 0}),
    "random-subdivided-n10-k3": (
        "random-weighted",
        {"n": 10, "edge_prob": 0.3, "k": 3},
        5,
        {"seed": 17, "delta": 1.0, "subdivide": True},
    ),
    "random-guard-trip": (
        "random-weighted", {"n": 30, "edge_prob": 0.15, "k": 4}, 3, {"seed": 1, "max_rounds": 2},
    ),
}

# ledger entry id -> (graph builder, analysed pair, run seeds)
LEDGER_CASES = {
    "ledger-fine-pair-k8": (lambda: fine_pair_graph(8, seed=5, fineness=0.6), (0, 8), (0, 1)),
    "ledger-fine-pair-k8-g3": (lambda: fine_pair_graph(8, seed=3), (0, 8), (0, 1)),
    "ledger-fine-pair-k8-g7": (lambda: fine_pair_graph(8, seed=7), (0, 8), (2, 3)),
    "ledger-coarse-k6-g3": (
        lambda: coarse_subdivided_random(6, seed=3, threshold=0.05)[0], (2, 5), (0, 1),
    ),
}

# the chain of test_cli.test_analyze_splits_interior_terminal_pairs: terminals
# 0, 7 and 3 on one unit-weight path, so the pair (0, 7) splits at 3
ANALYZE_CASE = "analyze-split-chain-csv"

# the exhaustive floor and three seeded runs compared against it
ORACLE_CASE = "oracle-grid-3x3-seeds3"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def artefact_hashes(case_id: str) -> dict[str, str]:
    family, gen_params, gen_seed, opts = CASES[case_id]
    graph = generate(family, gen_params, seed=gen_seed)
    params = SprParams.for_graph(
        graph,
        delta=opts.get("delta", 0.05),
        seed=opts["seed"],
        max_rounds=opts.get("max_rounds"),
    )
    if opts.get("subdivide"):
        graph = preprocess_subdivide(graph, params).graph
    if opts.get("max_rounds") is not None:
        with pytest.raises(RoundsGuardError) as exc:
            run_spr(graph, params)
        return {"partial_trace": _sha(exc.value.partial_trace.to_json())}
    minor, report, trace = run_and_contract(graph, params)
    out = {
        "trace": _sha(trace.to_json()),
        "minor": _sha(format_graph_text(minor.graph)),
        "report": _sha(json.dumps(report.to_json_dict(), indent=2)),
    }
    if graph.k >= 2:
        # the covering flags, formatted as the benchmark's digests are
        cov = check_covering(trace, graph, params)
        flags = [f"{r.vertex} {r.round} {int(r.covered_late)} {int(r.covered_early)}"
                 for r in cov.records]
        flags += [f"g {g.terminal} {g.round} {int(g.ok)}" for g in cov.groups]
        out["covering"] = _sha("\n".join(flags))
    return out


def ledger_hashes(case_id: str) -> dict[str, str]:
    """Steps, final charges and cost of each replayed ledger, as the benchmark
    hashes them, and the path, positions and intervals of the partition."""
    build, (t, t_prime), seeds = LEDGER_CASES[case_id]
    graph = build()
    partition = build_interval_partition(graph, t, t_prime, SprParams.for_graph(graph))
    out = {"partition": _sha("\n".join(
        map(repr, (partition.path, partition.positions, partition.intervals))))}
    for seed in seeds:
        params = SprParams.for_graph(graph, seed=seed)
        _, trace = run_spr(graph, params)
        led = reconstruct_ledger(trace, graph, partition, params)
        lines = [repr(s) for s in led.steps]
        lines += [repr(led.final_charges), repr(led.cost)]
        out[f"seed{seed}"] = _sha("\n".join(lines))
    return out


def analyze_csv_hashes(work: Path) -> dict[str, str]:
    """The report JSON and the interval and step tables of ``sprkit analyze
    --format csv`` on the split chain, over two run seeds; ``work`` is an
    empty working directory."""
    gpath = work / "chain.txt"
    gpath.write_text("\n".join([*(f"v {i}" for i in range(8)), "t 0", "t 7", "t 3",
                                *(f"e {i} {i + 1} 1.0" for i in range(7))]) + "\n")
    tdir = work / "traces"
    tdir.mkdir()
    with contextlib.redirect_stdout(io.StringIO()):  # the runs' one-line summaries
        for seed in range(2):
            assert main(["run", "--graph", str(gpath), "--seed", str(seed),
                         "--out", str(tdir / f"t{seed}.json")]) == 0
    assert main(["analyze", "--graph", str(gpath), "--pair", "0", "7", "--traces", str(tdir),
                 "--format", "csv", "--out", str(work / "report.json")]) == 0
    return {name: _sha((work / f"report.{name}").read_text())
            for name in ("json", "intervals.csv", "steps.csv")}


def oracle_json_hash(work: Path) -> dict[str, str]:
    """The JSON of ``sprkit oracle --seeds 3`` on a 3x3 grid with its four
    corners as terminals; ``work`` is an empty working directory."""
    gpath, out = work / "grid.txt", work / "oracle.json"
    assert main(["gen", "--family", "grid", "--width", "3", "--height", "3",
                 "--out", str(gpath)]) == 0
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["oracle", "--graph", str(gpath), "--seeds", "3", "--out", str(out)]) == 0
    return {"json": _sha(out.read_text())}


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_golden_artefacts_unchanged(case_id):
    expected = json.loads(HASHES_PATH.read_text())
    assert artefact_hashes(case_id) == expected[case_id]


def test_golden_ledger_unchanged():
    expected = json.loads(HASHES_PATH.read_text())
    for case_id in sorted(LEDGER_CASES):
        assert ledger_hashes(case_id) == expected[case_id], case_id


def test_golden_analyze_csv_unchanged(tmp_path):
    expected = json.loads(HASHES_PATH.read_text())
    assert analyze_csv_hashes(tmp_path) == expected[ANALYZE_CASE]


def test_golden_oracle_json_unchanged(tmp_path):
    expected = json.loads(HASHES_PATH.read_text())
    assert oracle_json_hash(tmp_path) == expected[ORACLE_CASE]


def test_golden_file_covers_every_case():
    assert sorted(json.loads(HASHES_PATH.read_text())) == sorted(
        [*CASES, *LEDGER_CASES, ANALYZE_CASE, ORACLE_CASE])


if __name__ == "__main__":
    doc = {case_id: artefact_hashes(case_id) for case_id in sorted(CASES)}
    doc.update((case_id, ledger_hashes(case_id)) for case_id in sorted(LEDGER_CASES))
    with tempfile.TemporaryDirectory() as work:
        doc[ANALYZE_CASE] = analyze_csv_hashes(Path(work))
    with tempfile.TemporaryDirectory() as work:
        doc[ORACLE_CASE] = oracle_json_hash(Path(work))
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
