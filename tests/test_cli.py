import json
from pathlib import Path

import pytest

from sprkit import RunTrace, SprParams, verify_trace
from sprkit.cli import main
from sprkit.graph import parse_graph_text


def _gen(tmp_path: Path, name: str = "g.txt", family: str = "path", n: int = 6) -> Path:
    path = tmp_path / name
    assert main(["gen", "--family", family, "--n", str(n), "--out", str(path)]) == 0
    return path


def test_gen_writes_parseable_graph(tmp_path):
    path = _gen(tmp_path)
    g = parse_graph_text(path.read_text())
    assert g.n == 6
    assert g.terminals == (0, 5)


def test_gen_stdout(capsys):
    assert main(["gen", "--family", "star", "--k", "3"]) == 0
    g = parse_graph_text(capsys.readouterr().out)
    assert g.k == 3


def test_run_writes_trace_minor_report(tmp_path, capsys):
    gpath = _gen(tmp_path)
    out = tmp_path / "trace.json"
    assert main(["run", "--graph", str(gpath), "--seed", "1", "--out", str(out)]) == 0
    assert out.exists()
    assert (tmp_path / "trace.minor.txt").exists()
    report = json.loads((tmp_path / "trace.report.json").read_text())
    assert report["max"]["ratio"] >= 1.0
    doc = json.loads(out.read_text())
    assert doc["params"]["seed"] == 1
    assert doc["rounds"] >= 1


def test_run_determinism_byte_identical(tmp_path):
    gpath = _gen(tmp_path)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["run", "--graph", str(gpath), "--seed", "9", "--out", str(out1)])
    main(["run", "--graph", str(gpath), "--seed", "9", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_accepts_real_trace_and_rejects_tampered(tmp_path, capsys):
    gpath = _gen(tmp_path)
    out = tmp_path / "trace.json"
    main(["run", "--graph", str(gpath), "--seed", "2", "--out", str(out)])
    assert main(["verify", "--graph", str(gpath), "--trace", str(out)]) == 0

    doc = json.loads(out.read_text())
    for ev in doc["events"]:
        if ev["type"] == "cover":
            ev["vertex"] = 99
            break
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", "--graph", str(gpath), "--trace", str(bad)]) == 1


def _malformed_trace(tmp_path: Path, case: str) -> Path:
    gpath = _gen(tmp_path)
    out = tmp_path / "trace.json"
    main(["run", "--graph", str(gpath), "--seed", "2", "--out", str(out)])
    text = out.read_text()
    doc = json.loads(text)
    if case == "unknown-event":
        doc["events"][0]["type"] = "shrink"
        text = json.dumps(doc)
    elif case == "missing-terminals":
        del doc["params"]["terminals"]
        text = json.dumps(doc)
    elif case == "string-increment":
        doc["events"][0]["q"] = "0.5"
        text = json.dumps(doc)
    elif case == "deep-nesting":
        text = "[" * 100000 + "]" * 100000
    else:
        text = text[: len(text) // 2]
    bad = tmp_path / f"{case}.json"
    bad.write_text(text)
    return bad


@pytest.mark.parametrize(
    "case",
    ["unknown-event", "missing-terminals", "string-increment", "invalid-json", "deep-nesting"],
)
def test_verify_malformed_trace_is_usage_error(tmp_path, capsys, case):
    bad = _malformed_trace(tmp_path, case)
    gpath = tmp_path / "g.txt"
    assert main(["verify", "--graph", str(gpath), "--trace", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_run_guard_trip_writes_partial_trace(tmp_path, capsys):
    gpath = _gen(tmp_path, family="random-weighted", n=30)
    out = tmp_path / "trace.json"
    rc = main(["run", "--graph", str(gpath), "--max-rounds", "1", "--out", str(out)])
    assert rc == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "round guard 1 exceeded" in err[0]
    assert not (tmp_path / "trace.minor.txt").exists()
    graph = parse_graph_text(gpath.read_text())
    trace = RunTrace.from_json(out.read_text())
    assert trace.rounds == 1 and len(trace.radius_events) == graph.k
    # radius accumulation, the seeded stream and every step's ball replay
    # hold; only completeness fails on a partial trace
    result = verify_trace(graph, trace, SprParams(k=trace.k, delta=trace.delta, seed=trace.seed))
    assert result.violations
    assert all(v.endswith("never covered") for v in result.violations)


def test_distort_roundtrip(tmp_path, capsys):
    gpath = _gen(tmp_path)
    out = tmp_path / "trace.json"
    main(["run", "--graph", str(gpath), "--seed", "3", "--out", str(out)])
    report = tmp_path / "d.json"
    assert main([
        "distort", "--graph", str(gpath),
        "--minor", str(tmp_path / "trace.minor.txt"),
        "--out", str(report),
    ]) == 0
    doc = json.loads(report.read_text())
    assert doc["max"]["ratio"] == pytest.approx(1.0)  # path distortion is 1


def test_distort_non_integer_orig_label_is_usage_error(tmp_path, capsys):
    gpath = _gen(tmp_path, n=4)
    out = tmp_path / "trace.json"
    assert main(["run", "--graph", str(gpath), "--seed", "3", "--out", str(out)]) == 0
    minor = tmp_path / "trace.minor.txt"
    minor.write_text(minor.read_text().replace("v 1 orig=0\n", "v 1 orig=abc\n"))
    capsys.readouterr()
    assert main(["distort", "--graph", str(gpath), "--minor", str(minor)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: minor vertex 1: label 'orig=abc' is not orig=<integer>"]


@pytest.mark.parametrize(
    "lines",
    [
        # ids 0..k-1
        ["v 0 orig=1", "v 1 orig=2", "v 2 orig=3", "t 0", "t 1", "t 2",
         "e 0 1 2.0", "e 0 2 2.0"],
        # an id above k
        ["v 1 orig=1", "v 2 orig=2", "v 4 orig=3", "t 1", "t 2", "t 4",
         "e 1 2 2.0", "e 1 4 2.0"],
        # terminals listed out of order
        ["v 1 orig=1", "v 2 orig=2", "v 3 orig=3", "t 2", "t 1", "t 3",
         "e 1 2 2.0", "e 1 3 2.0"],
    ],
    ids=["zero-based", "id-above-k", "terminals-out-of-order"],
)
def test_distort_minor_with_wrong_ids_is_usage_error(tmp_path, capsys, lines):
    gpath = tmp_path / "star.txt"
    assert main(["gen", "--family", "star", "--k", "3", "--out", str(gpath)]) == 0
    minor = tmp_path / "bad.minor.txt"
    minor.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["distort", "--graph", str(gpath), "--minor", str(minor)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: a minor's vertices must be 1..k, listed as terminals in order"]


@pytest.mark.parametrize("field", ["rounds", "k"])
def test_verify_and_analyze_do_not_size_memory_by_trace_counts(tmp_path, capsys, field):
    # a count field far beyond the events is reported at once, without
    # building a list or dict of that size: verify finds a violation, and the
    # charging ledger of analyze refuses the trace
    gpath = _gen(tmp_path, n=8)
    tdir = tmp_path / "traces"
    tdir.mkdir()
    out = tdir / "trace.json"
    assert main(["run", "--graph", str(gpath), "--seed", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    if field == "rounds":
        doc["rounds"] = 10**12
    else:
        doc["params"]["k"] = 10**12
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--graph", str(gpath), "--trace", str(out)]) == 1
    expected = {
        "rounds": "radius events do not enumerate every (round, step) in order",
        "k": f"trace terminal count {10**12} does not match the graph's 2",
    }[field]
    assert capsys.readouterr().err.splitlines() == [f"violation: {expected}"]
    if field == "rounds":
        events = sum(ev["type"] == "radius" for ev in doc["events"])
        expected = f"trace has {events} radius events for {10**12} rounds of 2 steps"
    assert main([
        "analyze", "--graph", str(gpath), "--pair", "0", "7", "--traces", str(tdir),
    ]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {expected}"]


def test_oracle_with_comparison(tmp_path):
    gpath = _gen(tmp_path, family="star", n=0)

    # star family needs --k not --n; regenerate properly
    gpath = tmp_path / "star.txt"
    assert main(["gen", "--family", "star", "--k", "3", "--out", str(gpath)]) == 0
    out = tmp_path / "oracle.json"
    assert main([
        "oracle", "--graph", str(gpath), "--seeds", "5", "--out", str(out)
    ]) == 0
    doc = json.loads(out.read_text())
    assert doc["best_distortion"] == pytest.approx(2.0)
    assert all(r["ratio"] == pytest.approx(1.0) for r in doc["comparison"])


def test_analyze_over_trace_directory(tmp_path):
    gpath = _gen(tmp_path, n=8)
    tdir = tmp_path / "traces"
    tdir.mkdir()
    for seed in range(4):
        main([
            "run", "--graph", str(gpath), "--seed", str(seed),
            "--out", str(tdir / f"t{seed}.json"),
        ])
    out = tmp_path / "analysis.json"
    assert main([
        "analyze", "--graph", str(gpath), "--pair", "0", "7",
        "--traces", str(tdir), "--out", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    assert doc["runs"] == 4
    assert len(doc["segments"]) == 1
    seg = doc["segments"][0]
    assert seg["intervals"] >= 1
    assert seg["failure_rate"]["qualifying_steps"] > 0
    assert seg["cost_bound"]["structural_ok"]
    for entry in seg["checks"] + doc["checks"]:
        assert {"name", "statistic", "bound", "slack", "pass", "n_trials", "seed"} == set(entry)
    assert all(e["pass"] for e in seg["checks"])


def test_analyze_refuses_traces_of_different_deltas(tmp_path, capsys):
    gpath = tmp_path / "grid.txt"
    assert main(["gen", "--family", "grid", "--width", "6", "--height", "6",
                 "--out", str(gpath)]) == 0
    tdir = tmp_path / "traces"
    tdir.mkdir()
    for delta in ("0.05", "0.5"):
        assert main(["run", "--graph", str(gpath), "--seed", "1", "--delta", delta,
                     "--out", str(tdir / f"d{delta}.json")]) == 0
    capsys.readouterr()
    assert main(["analyze", "--graph", str(gpath), "--pair", "0", "35",
                 "--traces", str(tdir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: traces were run with different deltas [0.05, 0.5]; analyze one at a time"
    ]


def test_analyze_splits_interior_terminal_pairs(tmp_path):
    # terminals at 0, 3 and 7 on one path: the 0..7 pair must reduce to the
    # consecutive terminal-free pairs (0, 3) and (3, 7)
    text = "\n".join(
        [f"v {i}" for i in range(8)]
        + ["t 0", "t 7", "t 3"]
        + [f"e {i} {i + 1} 1.0" for i in range(7)]
    )
    gpath = tmp_path / "chain.txt"
    gpath.write_text(text + "\n")
    tdir = tmp_path / "traces"
    tdir.mkdir()
    for seed in range(2):
        main([
            "run", "--graph", str(gpath), "--seed", str(seed),
            "--out", str(tdir / f"t{seed}.json"),
        ])
    out = tmp_path / "split.json"
    assert main([
        "analyze", "--graph", str(gpath), "--pair", "0", "7",
        "--traces", str(tdir), "--out", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    assert [seg["pair"] for seg in doc["segments"]] == [[0, 3], [3, 7]]
    assert all(seg["cost_bound"]["structural_ok"] for seg in doc["segments"])


@pytest.mark.parametrize("pair", [("0", "2"), ("0", "99"), ("99", "7"), ("3", "3")])
def test_analyze_bad_pair_is_usage_error(tmp_path, capsys, pair):
    # a non-terminal vertex, an id not in the graph (either end), the same
    # terminal twice: the chain of the test above, terminals 0, 7 and 3
    gpath = tmp_path / "chain.txt"
    gpath.write_text("\n".join([*(f"v {i}" for i in range(8)), "t 0", "t 7", "t 3",
                                *(f"e {i} {i + 1} 1.0" for i in range(7))]) + "\n")
    tpath = tmp_path / "t.json"
    assert main(["run", "--graph", str(gpath), "--seed", "0", "--out", str(tpath)]) == 0
    capsys.readouterr()
    assert main(["analyze", "--graph", str(gpath), "--pair", *pair,
                 "--traces", str(tpath)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ")


def test_analyze_csv_tables(tmp_path):
    gpath = _gen(tmp_path, n=8)
    tdir = tmp_path / "traces"
    tdir.mkdir()
    main(["run", "--graph", str(gpath), "--seed", "0", "--out", str(tdir / "t.json")])
    out = tmp_path / "report.json"
    assert main([
        "analyze", "--graph", str(gpath), "--pair", "0", "7",
        "--traces", str(tdir), "--format", "csv", "--out", str(out),
    ]) == 0
    assert (tmp_path / "report.intervals.csv").exists()
    assert (tmp_path / "report.steps.csv").exists()


def test_experiment_end_to_end(tmp_path):
    spec = {
        "configs": [{"family": "star", "k": 4}],
        "seeds_per_config": 3,
        "base_seed": 1,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_dir = tmp_path / "out"
    assert main([
        "experiment", "--spec", str(spec_path), "--out", str(out_dir),
    ]) == 0
    csv_text = (out_dir / "rows.csv").read_text()
    assert len(csv_text.splitlines()) == 4

    out2 = tmp_path / "out2"
    main(["experiment", "--spec", str(spec_path), "--out", str(out2)])
    assert (out2 / "rows.csv").read_bytes() == (out_dir / "rows.csv").read_bytes()

    out3 = tmp_path / "out3"
    assert main([
        "experiment", "--spec", str(spec_path), "--out", str(out3), "--analyze",
    ]) == 0
    summaries = json.loads((out3 / "analysis.json").read_text())
    assert summaries and "covering" in summaries[0]


@pytest.mark.parametrize(
    "text",
    [
        '{"configs": [',
        '[{"family": "star", "k": 4}]',
        '{"seeds_per_config": 2}',
        '{"configs": [{"family": "star", "k": 4}], "seeds_per_config": "x"}',
        "[" * 100000 + "]" * 100000,
        '{"configs": {"family": "star", "k": 4}}',
        '{"configs": ["star"]}',
        '{"configs": [{"family": "star", "k": "x"}]}',
        '{"configs": [{"family": "star", "k": 4}], "max_rounds": [3]}',
    ],
    ids=["invalid-json", "top-level-array", "missing-configs", "string-seeds", "deep-nesting",
         "configs-object", "config-not-object", "string-k", "list-max-rounds"],
)
def test_experiment_malformed_spec_is_usage_error(tmp_path, capsys, text):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(text)
    assert main(["experiment", "--spec", str(spec_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_run_subdivide_writes_graph_and_analyze_catches_mismatch(tmp_path):
    gpath = tmp_path / "g.txt"
    # two far terminals with a heavy edge so subdivision actually happens
    gpath.write_text("v 0\nv 1\nv 2\nt 0\nt 2\ne 0 1 1.0\ne 1 2 1.0\n")
    out = tmp_path / "trace.json"
    assert main([
        "run", "--graph", str(gpath), "--seed", "1", "--subdivide",
        "--out", str(out),
    ]) == 0
    sub_path = tmp_path / "trace.subdivided.txt"
    assert sub_path.exists()
    fine = parse_graph_text(sub_path.read_text())
    assert fine.n > 3

    # analyzing against the original graph is an input error, not garbage
    assert main([
        "analyze", "--graph", str(gpath), "--pair", "0", "2",
        "--traces", str(out),
    ]) == 2
    report = tmp_path / "ok.json"
    assert main([
        "analyze", "--graph", str(sub_path), "--pair", "0", "2",
        "--traces", str(out), "--out", str(report),
    ]) == 0
    doc = json.loads(report.read_text())
    assert doc["segments"][0]["cost_bound"]["structural_ok"]


def test_analyze_cover_event_for_terminal_is_usage_error(tmp_path, capsys):
    gpath = tmp_path / "grid.txt"
    assert main([
        "gen", "--family", "grid", "--width", "6", "--height", "6", "--k", "4",
        "--out", str(gpath),
    ]) == 0
    out = tmp_path / "trace.json"
    assert main(["run", "--graph", str(gpath), "--seed", "3", "--out", str(out)]) == 0
    # terminal 35 claimed by terminal 0, right after the first real claim
    doc = json.loads(out.read_text())
    first = next(i for i, ev in enumerate(doc["events"]) if ev["type"] == "cover")
    doc["events"].insert(first + 1, dict(doc["events"][first], vertex=35, terminal=0))
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([
        "analyze", "--graph", str(gpath), "--pair", "0", "5", "--traces", str(out),
    ]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: trace covers terminal 35; terminals are never claimed"]


def test_missing_file_is_io_error(tmp_path):
    assert main(["run", "--graph", str(tmp_path / "no.txt"), "--out", "x.json"]) == 3


def test_bad_input_is_usage_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("v 0\nv 1\ne 0 1 -4\n")
    assert main(["run", "--graph", str(bad), "--out", str(tmp_path / "t.json")]) == 2


def test_env_seed_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SPR_SEED", "77")
    gpath = _gen(tmp_path)
    out = tmp_path / "trace.json"
    assert main(["run", "--graph", str(gpath), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["params"]["seed"] == 77
