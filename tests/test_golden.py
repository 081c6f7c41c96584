"""Golden hashes: byte-identical run artefacts against a recorded build.

Each case generates a graph, runs the clustering and hashes the three files
``sprkit run`` writes for it (trace JSON, minor text, report JSON).  The
guard case hashes the partial trace carried by ``RoundsGuardError``.  The
expected digests live in ``tests/golden/hashes.json``; see the README there
before touching them.  Run this file as a script to print the digests of the
current build.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from sprkit import RoundsGuardError, SprParams, preprocess_subdivide, run_and_contract, run_spr
from sprkit.cli import _minor_to_text
from sprkit.generators import generate

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
    return {
        "trace": _sha(trace.to_json()),
        "minor": _sha(_minor_to_text(minor)),
        "report": _sha(json.dumps(report.to_json_dict(), indent=2)),
    }


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_golden_artefacts_unchanged(case_id):
    expected = json.loads(HASHES_PATH.read_text())
    assert artefact_hashes(case_id) == expected[case_id]


def test_golden_file_covers_every_case():
    assert sorted(json.loads(HASHES_PATH.read_text())) == sorted(CASES)


if __name__ == "__main__":
    doc = {case_id: artefact_hashes(case_id) for case_id in sorted(CASES)}
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
