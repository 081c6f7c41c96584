import csv
import io
import json
from unittest import mock

import pytest

from sprkit import engine, experiment
from sprkit import graph as graph_module
from sprkit.cli import main
from sprkit.experiment import (
    CSV_COLUMNS,
    ExperimentRow,
    ExperimentSpec,
    config_graph,
    derive_seed,
    rows_to_csv,
    rows_to_json,
    run_experiment,
)
from sprkit.graph import GraphError


def _spec(**kw):
    base = dict(
        configs=({"family": "star", "k": 4},),
        seeds_per_config=3,
        base_seed=7,
    )
    base.update(kw)
    return ExperimentSpec(**base)


def test_single_config_single_seed_single_row():
    spec = _spec(seeds_per_config=1)
    rows = run_experiment(spec)
    assert len(rows) == 1
    assert rows[0].status == "ok"
    assert rows[0].max_distortion == pytest.approx(2.0)


def test_rows_ordered_and_reproducible():
    spec = _spec(
        configs=(
            {"family": "star", "k": 4},
            {"family": "random-weighted", "n": 25, "edge_prob": 0.2, "k": 4},
        ),
        seeds_per_config=4,
    )
    rows1 = run_experiment(spec)
    rows2 = run_experiment(spec)
    assert rows_to_csv(rows1) == rows_to_csv(rows2)
    assert [r.seed for r in rows1] == [
        derive_seed(7, ci, ri) for ci in range(2) for ri in range(4)
    ]


def test_csv_schema_fixed():
    rows = run_experiment(_spec(seeds_per_config=2))
    text = rows_to_csv(rows)
    header = text.splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    assert len(text.splitlines()) == 3


def test_csv_parse_roundtrip_lossless():
    import csv
    import io

    rows = run_experiment(
        _spec(
            configs=(
                {"family": "star", "k": 4},
                {"family": "random-weighted", "n": 25, "edge_prob": 0.2, "k": 3},
            ),
            seeds_per_config=2,
        )
    )
    text = rows_to_csv(rows)
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == list(CSV_COLUMNS)
    for row, values in zip(rows, parsed[1:]):
        assert values == row.csv_values()
        assert float(values[6]) == row.max_distortion  # repr() round-trips


def test_seed_derivation_distinct():
    seeds = {derive_seed(1, c, r) for c in range(10) for r in range(50)}
    assert len(seeds) == 500


def test_json_sidecar_contains_timing_but_csv_does_not():
    spec = _spec(seeds_per_config=2)
    rows = run_experiment(spec)
    doc = json.loads(rows_to_json(rows, spec))
    assert all("wall_ms" in r for r in doc["rows"])
    assert "wall_ms" not in rows_to_csv(rows)


def test_bad_config_produces_error_rows():
    spec = _spec(
        configs=(
            {"family": "star", "k": 4},
            {"family": "path", "n": 1, "allow_single_terminal": True},
        ),
        seeds_per_config=2,
    )
    rows = run_experiment(spec)
    assert len(rows) == 4
    statuses = [r.status for r in rows]
    assert statuses[:2] == ["ok", "ok"]
    assert all(s.startswith("error:") for s in statuses[2:])


def test_spec_validation():
    with pytest.raises(GraphError):
        ExperimentSpec(configs=(), seeds_per_config=1)
    with pytest.raises(GraphError):
        ExperimentSpec(configs=({"family": "star", "k": 1},), seeds_per_config=1)
    # explicit opt-in for single-terminal configs
    ExperimentSpec(
        configs=({"family": "star", "k": 1, "allow_single_terminal": True},),
        seeds_per_config=1,
    )


def test_spec_json_roundtrip():
    text = json.dumps(
        {
            "configs": [{"family": "star", "k": 5}],
            "seeds_per_config": 2,
            "base_seed": 3,
            "delta": 0.05,
            "subdivide": False,
        }
    )
    spec = ExperimentSpec.from_json(text)
    assert spec.configs[0]["k"] == 5
    assert spec.seeds_per_config == 2


def test_subdivide_option_inflates_graph():
    plain = config_graph(_spec(), 0)
    fine = config_graph(_spec(subdivide=True), 0)
    assert fine.n > plain.n
    assert fine.terminals == plain.terminals


def test_parallel_jobs_match_serial():
    spec = _spec(
        configs=(
            {"family": "star", "k": 4},
            {"family": "complete-binary-tree", "depth": 3},
        ),
        seeds_per_config=3,
    )
    serial = rows_to_csv(run_experiment(spec, jobs=1))
    parallel = rows_to_csv(run_experiment(spec, jobs=2))
    assert serial == parallel


ROWS_JSON = """{
  "spec": {
    "configs": [
      {
        "family": "star",
        "k": 4
      }
    ],
    "seeds_per_config": 2,
    "base_seed": 7,
    "delta": 0.05,
    "subdivide": false,
    "max_rounds": null
  },
  "rows": [
    {
      "family": "star",
      "n": 5,
      "k": 4,
      "seed": 11,
      "subdivided": false,
      "status": "ok",
      "max_distortion": 1.5,
      "mean_distortion": 1.25,
      "rounds": 3,
      "late_coverage": true,
      "early_coverage": false,
      "wall_ms": 2.0
    },
    {
      "family": "star",
      "n": 5,
      "k": 4,
      "seed": 12,
      "subdivided": false,
      "status": "error:GraphError",
      "max_distortion": null,
      "mean_distortion": null,
      "rounds": null,
      "late_coverage": null,
      "early_coverage": null,
      "wall_ms": null
    }
  ]
}"""


def test_rows_json_text_is_fixed():
    spec = ExperimentSpec(configs=({"family": "star", "k": 4},), seeds_per_config=2, base_seed=7)
    rows = [
        ExperimentRow("star", 5, 4, 11, False, "ok", 1.5, 1.25, 3, True, False, wall_ms=2.0),
        ExperimentRow("star", 5, 4, 12, False, "error:GraphError", None, None, None, None, None),
    ]
    assert rows_to_json(rows, spec) == ROWS_JSON


# `sprkit experiment --analyze` on ANALYZE_SPEC: one summary per k >= 2 config;
# the k = 1 config is left out
ANALYZE_SPEC = {
    "configs": [
        {"family": "grid", "width": 5, "height": 5, "k": 4, "weight": 0.2},
        {"family": "star", "k": 1, "allow_single_terminal": True},
        {"family": "random-weighted", "n": 16, "edge_prob": 0.3, "k": 3,
         "weight_range": [0.05, 2.0]},
    ],
    "seeds_per_config": 3,
    "base_seed": 5,
}

ANALYSIS_JSON = """[
  {
    "config": {
      "family": "grid",
      "width": 5,
      "height": 5,
      "k": 4,
      "weight": 0.2
    },
    "n": 25,
    "k": 4,
    "covering": {
      "runs": 3,
      "late_run_rate": 1.0,
      "early_run_rate": 0.0,
      "late_run_rate_restricted": null,
      "d_floor": null,
      "late_vertex_rate": 0.4444444444444444,
      "early_vertex_rate": 0.0,
      "spread_violation_runs": 0
    }
  },
  {
    "config": {
      "family": "random-weighted",
      "n": 16,
      "edge_prob": 0.3,
      "k": 3,
      "weight_range": [
        0.05,
        2.0
      ]
    },
    "n": 16,
    "k": 3,
    "covering": {
      "runs": 3,
      "late_run_rate": 1.0,
      "early_run_rate": 0.0,
      "late_run_rate_restricted": null,
      "d_floor": null,
      "late_vertex_rate": 0.15384615384615385,
      "early_vertex_rate": 0.0,
      "spread_violation_runs": 0
    }
  }
]"""


def _experiment(tmp_path, spec, name, *flags):
    """Run ``sprkit experiment`` on ``spec``; the output directory."""
    spec_path = tmp_path / f"{name}.spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / name
    assert main(["experiment", "--spec", str(spec_path), "--out", str(out), *flags]) == 0
    return out


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_analysis_json_text_is_fixed(tmp_path, jobs):
    out = _experiment(tmp_path, ANALYZE_SPEC, "out", "--analyze", "--jobs", jobs)
    assert (out / "analysis.json").read_text() == ANALYSIS_JSON


def test_analyze_runs_each_seed_once(tmp_path):
    spy = mock.Mock(wraps=engine.run_spr)
    with mock.patch.object(engine, "run_spr", spy):
        _experiment(tmp_path, ANALYZE_SPEC, "out", "--analyze")
    assert spy.call_count == len(ANALYZE_SPEC["configs"]) * ANALYZE_SPEC["seeds_per_config"]


@pytest.mark.parametrize(
    "spec",
    [
        {"configs": [{"family": "star", "k": 4}], "max_rounds": 1},
        {"configs": [{"family": "star", "k": 4},
                     {"family": "grid", "width": "x", "height": 4, "k": 2}]},
    ],
    ids=["round-guard", "bad-config"],
)
def test_analyze_leaves_failed_configs_out(tmp_path, capsys, spec):
    spec = dict(spec, seeds_per_config=2, base_seed=3)
    plain = _experiment(tmp_path, spec, "plain")
    out = _experiment(tmp_path, spec, "out", "--analyze")
    assert "Traceback" not in capsys.readouterr().err
    assert (out / "rows.csv").read_bytes() == (plain / "rows.csv").read_bytes()
    rows = list(csv.DictReader(io.StringIO((out / "rows.csv").read_text())))
    assert any(r["status"].startswith("error:") for r in rows)
    ok_configs = [
        cfg for ci, cfg in enumerate(spec["configs"])
        if rows[ci * spec["seeds_per_config"]]["status"] == "ok"
    ]
    summaries = json.loads((out / "analysis.json").read_text())
    assert [s["config"] for s in summaries] == ok_configs


def test_analysis_covers_only_ok_rows(tmp_path):
    # a round guard between the seeds' round counts fails some rows of the
    # config; its summary counts the others
    spec = {"configs": [{"family": "star", "k": 4}], "seeds_per_config": 3, "base_seed": 5}
    rounds = [r.rounds for r in run_experiment(ExperimentSpec.from_json(json.dumps(spec)))]
    guard = sorted(rounds)[1]
    out = _experiment(tmp_path, dict(spec, max_rounds=guard), "out", "--analyze")
    rows = list(csv.DictReader(io.StringIO((out / "rows.csv").read_text())))
    statuses = [r["status"] for r in rows]
    assert statuses == ["ok" if n <= guard else "error:RoundsGuardError" for n in rounds]
    [summary] = json.loads((out / "analysis.json").read_text())
    assert summary["covering"]["runs"] == statuses.count("ok") < len(rounds)


def test_config_computes_its_terminal_distances_once():
    # the rows are warmed before the first seed, so every seed's terminal
    # block is sliced from them, not computed a second time
    real_kernel, real_graph = graph_module._distance_columns, experiment.config_graph
    graphs, calls = [], []

    def graph_spy(spec, config_index):
        graphs.append(real_graph(spec, config_index))
        return graphs[-1]

    def spy(chains, columns):
        columns = list(columns)
        # each seed's minor runs its own all-pairs columns on its own graph
        if chains is graphs[0].__dict__.get("_chains"):
            calls.append(len(columns))
        return real_kernel(chains, columns)

    spec = _spec()
    with mock.patch.object(graph_module, "_distance_columns", spy), \
            mock.patch.object(experiment, "config_graph", graph_spy):
        rows, _ = experiment._run_config(spec, 0)
    assert [r.status for r in rows] == ["ok"] * spec.seeds_per_config
    k = rows[0].k
    # the k terminal rows once, and the nearest-terminal column once
    assert sorted(calls) == sorted([k, 1])


def test_pool_capped_at_config_count():
    class StubPool:
        workers = []

        def __init__(self, max_workers):
            self.workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    spec = _spec(
        configs=({"family": "star", "k": 4}, {"family": "star", "k": 3}),
        seeds_per_config=1,
    )
    with mock.patch.object(experiment, "ProcessPoolExecutor", StubPool):
        rows = run_experiment(spec, jobs=64)
    assert StubPool.workers == [2]
    assert rows_to_csv(rows) == rows_to_csv(run_experiment(spec))
