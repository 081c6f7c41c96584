"""Command-line surface.

Subcommands: gen, run, distort, verify, oracle, analyze, experiment.
Exit codes: 0 success, 1 invariant violation found by verify, 2 usage or
input error (a malformed trace, or in analyze any trace verify rejects), 3
I/O error, 4 round guard exceeded by run (the partial trace is still written
to --out).  SPR_SEED provides the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .charging import (
    InteriorTerminalError,
    IntervalPartition,
    build_interval_partition,
    charge_steps,
    cost_bound_check,
    failure_rate,
)
from .covering import check_covering, summarize_covering
from .engine import (
    DEFAULT_DELTA,
    RoundsGuardError,
    RunTrace,
    SprParams,
    preprocess_subdivide,
    run_and_contract,
)
from .experiment import (
    ExperimentSpec,
    _run_sweep,
    rows_to_csv,
    rows_to_json,
)
from .generators import FAMILIES, generate
from .graph import GraphError, WeightedGraph, format_graph_text, parse_graph_text
from .minor import distortion, parse_minor_text
from .oracle import best_partition, compare_to_spr
from .verify import replay_trace, verify_trace


def _default_seed() -> int:
    env = os.environ.get("SPR_SEED")
    return int(env) if env else 0


def _read_graph(path: str) -> WeightedGraph:
    return parse_graph_text(Path(path).read_text())


def _write(path: str | None, text: str) -> None:
    """Write ``text`` to ``path``, or print it when there is no path."""
    if path:
        Path(path).write_text(text)
    else:
        print(text)


def cmd_gen(args) -> int:
    names = ("n", "k", "depth", "width", "height", "edge_prob", "terminals", "weight")
    params = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    graph = generate(args.family, params, seed=args.seed)
    text = format_graph_text(graph)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_run(args) -> int:
    graph = _read_graph(args.graph)
    params = SprParams.for_graph(
        graph, delta=args.delta, seed=args.seed, max_rounds=args.max_rounds
    )
    out = Path(args.out)
    stem = out.with_suffix("")
    if args.subdivide:
        graph = preprocess_subdivide(graph, params).graph
        # later analysis must replay against the graph the run actually used
        _write(f"{stem}.subdivided.txt", format_graph_text(graph))
    try:
        minor, report, trace = run_and_contract(graph, params)
    except RoundsGuardError as exc:
        _write(str(out), exc.partial_trace.to_json())
        print(f"error: {exc}; partial trace written to {out}", file=sys.stderr)
        return 4
    _write(str(out), trace.to_json())
    _write(f"{stem}.minor.txt", format_graph_text(minor.graph))
    _write(f"{stem}.report.json", report.to_json())
    print(
        f"run complete: n={graph.n} k={graph.k} rounds={trace.rounds} "
        f"max_distortion={report.max_ratio:.6g}"
    )
    return 0


def cmd_distort(args) -> int:
    graph = _read_graph(args.graph)
    minor = parse_minor_text(Path(args.minor).read_text())
    _write(args.out, distortion(graph, minor).to_json())
    return 0


def cmd_verify(args) -> int:
    graph = _read_graph(args.graph)
    trace = RunTrace.from_json(Path(args.trace).read_text())
    params = SprParams(k=trace.k, delta=trace.delta, seed=trace.seed)
    result = verify_trace(graph, trace, params)
    if result.ok:
        print("all invariant checks pass")
        return 0
    for v in result.violations:
        print(f"violation: {v}", file=sys.stderr)
    return 1


def cmd_oracle(args) -> int:
    graph = _read_graph(args.graph)
    result = best_partition(graph, cap=args.cap)
    doc = {
        "best_distortion": result.best_distortion,
        "valid_partitions": result.candidates_valid,
        "assignment": {str(v): j for v, j in sorted(result.best_partition.assignment.items())},
    }
    if args.seeds:
        rows = compare_to_spr(graph, result, range(args.seeds), delta=args.delta)
        doc["comparison"] = [asdict(r) for r in rows]
    text = json.dumps(doc, indent=2)
    _write(args.out, text)
    return 0


def _trace_paths(arg: str) -> list[Path]:
    p = Path(arg)
    if p.is_dir():
        return sorted(
            f for f in p.glob("*.json") if not f.name.endswith(".report.json")
        )
    return [p]


def _terminal_free_partitions(
    graph: WeightedGraph, t: int, t_prime: int, params: SprParams
) -> list[IntervalPartition]:
    """The interval partitions of a pair, split at the terminals inside its
    canonical path, recursively, into consecutive terminal-free pairs;
    distances chain by the triangle inequality."""
    try:
        return [build_interval_partition(graph, t, t_prime, params)]
    except InteriorTerminalError as exc:
        stops = [t, *exc.terminals, t_prime]
        return [part for a, b in zip(stops, stops[1:])
                for part in _terminal_free_partitions(graph, a, b, params)]


def _check_entry(name, statistic, bound, slack, n_trials, seed=None):
    passed = None
    if statistic is not None:
        passed = bool(statistic <= bound + slack)
    return {
        "name": name,
        "statistic": statistic,
        "bound": bound,
        "slack": slack,
        "pass": passed,
        "n_trials": n_trials,
        "seed": seed,
    }


def _analyze_segment(graph, partition, replays, params):
    import math

    ledgers = [charge_steps(steps, graph, partition, params) for _, steps in replays]
    fail = failure_rate(ledgers)
    cost = cost_bound_check(ledgers)
    k = graph.k
    checks = [
        _check_entry(
            "charging-step-failure-rate",
            fail.fraction,
            0.2,
            3 * math.sqrt(0.2 * 0.8 / fail.qualifying_steps) if fail.qualifying_steps else 0.0,
            fail.qualifying_steps,
        ),
        _check_entry(
            "cost-exceedance-rate",
            cost.rate,
            2.0 * k**-3,
            max(0.05 - 2.0 * k**-3, 0.0),  # small-k slack up to an absolute 0.05
            cost.runs,
        ),
        _check_entry(
            "external-length-identity",
            cost.sum_external / cost.pair_distance,
            2.0,
            1e-9,
            1,
        ),
    ]
    doc = {
        "pair": list(partition.pair),
        "path_vertices": len(partition.path),
        "intervals": partition.phi,
        "pair_distance": partition.total_length,
        "failure_rate": fail.to_json_dict(),
        "cost_bound": cost.to_json_dict(),
        "checks": checks,
    }
    return doc, partition, ledgers


def cmd_analyze(args) -> int:
    graph = _read_graph(args.graph)
    t, t_prime = args.pair
    paths = _trace_paths(args.traces)
    if not paths:
        raise GraphError(f"no trace files under {args.traces}")
    traces = [RunTrace.from_json(p.read_text()) for p in paths]
    deltas = sorted({tr.delta for tr in traces})
    if len(deltas) > 1:
        raise GraphError(f"traces were run with different deltas {deltas}; analyze one at a time")
    [delta] = deltas
    params = SprParams(k=graph.k, delta=delta)
    partitions = _terminal_free_partitions(graph, t, t_prime, params)
    # covering before the replays and the ledgers: a claimed terminal is named as such
    checks = [check_covering(tr, graph, SprParams(k=graph.k, delta=delta, seed=tr.seed))
              for tr in traces]
    replays = [replay_trace(graph, tr, SprParams(k=tr.k, delta=tr.delta, seed=tr.seed))
               for tr in traces]  # one per trace, charged on every segment
    for violations, _ in replays:  # the charging argument holds only for runs it can make
        if violations:
            raise GraphError(violations[0])
    results = [_analyze_segment(graph, part, replays, params) for part in partitions]
    covering = summarize_covering(checks)
    k = graph.k
    covering_checks = [
        _check_entry(
            "early-coverage-run-rate",
            covering.early_run_rate,
            k**-3,
            max(0.05 - k**-3, 0.0),
            covering.runs,
        ),
        _check_entry(
            "late-coverage-run-rate-raw",
            covering.late_run_rate,
            1.0 / k,
            (5.0 - 1.0) / k,
            covering.runs,
        ),
    ]
    doc = {
        "pair": [t, t_prime],
        "runs": len(traces),
        "segments": [doc for doc, _, _ in results],
        "covering": covering.to_json_dict(),
        "checks": covering_checks,
    }
    if args.format == "csv":
        base = Path(args.out).with_suffix("") if args.out else Path("analysis")
        interval_lines = ["segment,interval,start,end,anchor,length_in,length_out,bound"]
        step_lines = ["segment,run,round,step,a,b,trigger,interval,q_step,q_trigger,q_slice,qualifies,success"]
        for si, (_, partition, ledgers) in enumerate(results):
            for qi, q in enumerate(partition.intervals):
                interval_lines.append(
                    f"{si},{qi},{q.start},{q.end},{q.anchor},"
                    f"{q.length_in!r},{q.length_out!r},{q.bound!r}"
                )
            for ri, led in enumerate(ledgers):
                for s in led.steps:
                    step_lines.append(
                        f"{si},{ri},{s.round},{s.step},{s.a},{s.b},{s.trigger_vertex},"
                        f"{s.trigger_interval},{s.q_step!r},{s.q_trigger!r},{s.q_slice!r},"
                        f"{int(s.qualifies)},{int(s.success)}"
                    )
        _write(f"{base}.intervals.csv", "\n".join(interval_lines) + "\n")
        _write(f"{base}.steps.csv", "\n".join(step_lines) + "\n")
    text = json.dumps(doc, indent=2)
    _write(args.out, text)
    return 0


def cmd_experiment(args) -> int:
    spec = ExperimentSpec.from_json(Path(args.spec).read_text())
    if args.analyze:
        spec = replace(spec, analyze=True)
    rows, summaries = _run_sweep(spec, jobs=args.jobs)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_text = rows_to_csv(rows)
    _write(str(out_dir / "rows.csv"), csv_text)
    if args.format == "json":
        _write(str(out_dir / "rows.json"), rows_to_json(rows, spec))
    if spec.analyze:
        _write(str(out_dir / "analysis.json"), json.dumps(summaries, indent=2))
    ok = sum(1 for r in rows if r.status == "ok")
    print(f"{len(rows)} rows ({ok} ok) -> {out_dir / 'rows.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sprkit",
        description="Terminal-centered minors by randomized ball growing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph from a named family")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--edge-prob", type=float, dest="edge_prob")
    p.add_argument("--terminals", choices=("corner", "random"))
    p.add_argument("--weight", type=float)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("run", help="cluster a graph and write trace/minor/report")
    p.add_argument("--graph", required=True)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.add_argument("--subdivide", action="store_true")
    p.add_argument("--max-rounds", type=int, dest="max_rounds")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("distort", help="distortion report of a minor against its graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--minor", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_distort)

    p = sub.add_parser("verify", help="replay a trace and check every invariant")
    p.add_argument("--graph", required=True)
    p.add_argument("--trace", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive minimum distortion on a small graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--cap", type=int, default=12)
    p.add_argument("--seeds", type=int, default=0,
                   help="also compare this many seeded runs against the floor")
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("analyze", help="charging ledger analysis for one terminal pair")
    p.add_argument("--graph", required=True)
    p.add_argument("--pair", nargs=2, type=int, required=True, metavar=("T", "T2"))
    p.add_argument("--traces", required=True, help="trace file or directory of *.json")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("experiment", help="run a sweep from a spec file")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--analyze", action="store_true",
                   help="attach covering-event summaries per config")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
