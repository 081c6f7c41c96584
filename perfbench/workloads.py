"""The three benchmark workloads, each putting a different layer on top.

A workload has a set-up that builds a pool of unit inputs from the workload
seed, and a unit that runs the package on one pool entry.  ``unit`` calls
the public pipeline exactly as a user would; ``traced_unit`` does the same
work with every call, and every first access of a cached property, in its
own span, so spans never nest inside a unit.

Units return their raw outputs; digests, checks and counts are taken from
those outputs after the unit's clock has stopped.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

from sprkit import (
    RunTrace,
    SprParams,
    build_interval_partition,
    check_covering,
    contract,
    distortion,
    parse_graph_text,
    reconstruct_ledger,
    run_and_contract,
    run_spr,
    subdivide_edges,
    verify_trace,
)
from sprkit.generators import grid_graph

from inputs import fine_pair_base, fine_pair_threshold, run_seeds, sparse_graph_text


def _no_span(name: str):
    return nullcontext()


def minor_text(minor) -> str:
    """The minor in the text format ``sprkit run`` writes."""
    lines = [f"v {i} orig={minor.terminal_ids[i - 1]}" for i in range(1, minor.k + 1)]
    lines += [f"t {i}" for i in range(1, minor.k + 1)]
    lines += [f"e {i} {j} {w!r}" for i, j, w in minor.edges]
    return "\n".join(lines) + "\n"


def report_json(report) -> str:
    """The distortion report as ``sprkit run`` writes it."""
    return json.dumps(report.to_json_dict(), indent=2)


def _outputs(graph, trace, trace_json: str, **more) -> dict:
    return {"n": graph.n, "m": len(graph.edges), "trace": trace, "trace_json": trace_json,
            **more}


# ---------------------------------------------------------------------------
# compress-cold: one `sprkit run` per unit on a fresh graph
# ---------------------------------------------------------------------------

def compress_setup(seed: int, sizes: dict, span=_no_span) -> dict:
    seeds = run_seeds(seed, sizes["pool"])
    with span("inputs.sparse_graph_text"):
        texts = [sparse_graph_text(sizes["n"], sizes["k"], s) for s in seeds]
    return {"texts": texts, "seeds": seeds}


def compress_unit(state: dict, i: int) -> dict:
    graph = parse_graph_text(state["texts"][i])
    params = SprParams.for_graph(graph, seed=state["seeds"][i])
    minor, report, trace = run_and_contract(graph, params)
    return _outputs(graph, trace, trace.to_json(), minor=minor, minor_text=minor_text(minor),
                    report=report, report_json=report_json(report))


def compress_traced_unit(state: dict, i: int, span) -> dict:
    with span("graph.parse"):
        graph = parse_graph_text(state["texts"][i])
    params = SprParams.for_graph(graph, seed=state["seeds"][i])
    with span("graph.build"):
        graph.adjacency
    with span("graph.nearest_terminal"):
        graph.nearest_terminal_distance
    with span("engine.run_spr"):
        partition, trace = run_spr(graph, params)
    with span("graph.terminal_distances"):
        graph.terminal_distance_maps
    with span("minor.contract"):
        minor = contract(graph, partition)
    with span("minor.apsp"):
        minor.distance_matrix
    with span("minor.distortion"):
        report = distortion(graph, minor)
    with span("engine.trace_to_json"):
        trace_json = trace.to_json()
    with span("minor.report_json"):
        text = report_json(report)
    return _outputs(graph, trace, trace_json, minor=minor, minor_text=minor_text(minor),
                    report=report, report_json=text)


# ---------------------------------------------------------------------------
# sweep-warm: one experiment row per unit, seed after seed on one warm graph
# ---------------------------------------------------------------------------

def sweep_setup(seed: int, sizes: dict, span=_no_span) -> dict:
    with span("generators.grid"):
        graph = grid_graph(sizes["width"], sizes["height"], "random", k=sizes["k"],
                           seed=sizes["graph_seed"])
    with span("graph.build"):
        graph.adjacency
    with span("graph.nearest_terminal"):
        graph.nearest_terminal_distance
    with span("graph.terminal_distances"):
        graph.terminal_distance_maps
    return {"graph": graph, "seeds": run_seeds(seed, sizes["pool"])}


def sweep_unit(state: dict, i: int) -> dict:
    graph = state["graph"]
    params = SprParams.for_graph(graph, seed=state["seeds"][i])
    minor, report, trace = run_and_contract(graph, params)
    covering = check_covering(trace, graph, params)
    return _outputs(graph, trace, trace.to_json(), minor=minor, report=report,
                    covering=covering)


def sweep_traced_unit(state: dict, i: int, span) -> dict:
    graph = state["graph"]
    params = SprParams.for_graph(graph, seed=state["seeds"][i])
    with span("engine.run_spr"):
        partition, trace = run_spr(graph, params)
    with span("minor.contract"):
        minor = contract(graph, partition)
    with span("minor.apsp"):
        minor.distance_matrix
    with span("minor.distortion"):
        report = distortion(graph, minor)
    with span("covering.check_covering"):
        covering = check_covering(trace, graph, params)
    with span("engine.trace_to_json"):
        trace_json = trace.to_json()
    return _outputs(graph, trace, trace_json, minor=minor, report=report, covering=covering)


# ---------------------------------------------------------------------------
# analyze-pair: one recorded trace analysed per unit, as `sprkit analyze` does
# ---------------------------------------------------------------------------

PAIR = (0, 8)


def pair_setup(seed: int, sizes: dict, span=_no_span) -> dict:
    k = sizes["k"]
    with span("graph.build"):
        base = fine_pair_base(k, sizes["graph_seed"])
    with span("graph.subdivide"):
        graph = subdivide_edges(base, fine_pair_threshold(k, sizes["fineness"])).graph
    with span("graph.build"):
        graph.adjacency
    with span("graph.nearest_terminal"):
        graph.nearest_terminal_distance
    with span("graph.terminal_distances"):
        graph.terminal_distance_maps
    with span("charging.partition"):
        partition = build_interval_partition(graph, *PAIR, SprParams.for_graph(graph))
    texts = []
    for s in run_seeds(seed, sizes["pool"]):
        with span("engine.run_spr"):
            _, trace = run_spr(graph, SprParams.for_graph(graph, seed=s))
        with span("engine.trace_to_json"):
            texts.append(trace.to_json())
    return {"graph": graph, "partition": partition, "texts": texts}


def pair_unit(state: dict, i: int, span=_no_span) -> dict:
    graph, partition = state["graph"], state["partition"]
    text = state["texts"][i]
    with span("engine.trace_from_json"):
        trace = RunTrace.from_json(text)
    params = SprParams(k=trace.k, delta=trace.delta, seed=trace.seed)
    with span("verify.verify_trace"):
        verified = verify_trace(graph, trace, params)
    with span("covering.check_covering"):
        covering = check_covering(trace, graph, params)
    with span("charging.ledger"):
        ledger = reconstruct_ledger(trace, graph, partition, params)
    return _outputs(graph, trace, text, verify=verified, covering=covering,
                    partition=partition, ledger=ledger)


# ---------------------------------------------------------------------------
# registry, digests, checks and counts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict
    tiny_sizes: dict
    setup: Callable
    unit: Callable
    traced_unit: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "compress-cold",
            sizes={"n": 5000, "k": 256, "pool": 5},
            tiny_sizes={"n": 300, "k": 16, "pool": 2},
            setup=compress_setup, unit=compress_unit, traced_unit=compress_traced_unit,
        ),
        Workload(
            "sweep-warm",
            sizes={"width": 100, "height": 100, "k": 16, "graph_seed": 0, "pool": 8},
            tiny_sizes={"width": 12, "height": 12, "k": 4, "graph_seed": 0, "pool": 2},
            setup=sweep_setup, unit=sweep_unit, traced_unit=sweep_traced_unit,
        ),
        Workload(
            "analyze-pair",
            sizes={"k": 64, "fineness": 0.5, "graph_seed": 1, "pool": 10},
            tiny_sizes={"k": 8, "fineness": 1.0, "graph_seed": 1, "pool": 2},
            setup=pair_setup, unit=pair_unit, traced_unit=pair_unit,
        ),
    )
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(out: dict) -> dict[str, str]:
    """SHA-256 of every byte-identity output the unit produced."""
    d = {"trace": _sha(out["trace_json"])}
    if "minor" in out:
        d["minor"] = _sha(out.get("minor_text") or minor_text(out["minor"]))
    if "report" in out:
        d["report"] = _sha(out.get("report_json") or report_json(out["report"]))
    if "covering" in out:
        cov = out["covering"]
        flags = [f"{r.vertex} {r.round} {int(r.covered_late)} {int(r.covered_early)}"
                 for r in cov.records]
        flags += [f"g {g.terminal} {g.round} {int(g.ok)}" for g in cov.groups]
        d["covering"] = _sha("\n".join(flags))
    if "ledger" in out:
        led = out["ledger"]
        lines = [repr(s) for s in led.steps]
        lines += [repr(led.final_charges), repr(led.cost)]
        d["ledger"] = _sha("\n".join(lines))
    return d


def problems(out: dict) -> list[str]:
    """Checks that hold on every seed, reference or not."""
    found = []
    trace = out["trace"]
    if len(trace.cover_events) != out["n"] - trace.k:
        found.append(f"{len(trace.cover_events)} cover events for {out['n'] - trace.k} vertices")
    if "report" in out and len(out["report"].pairs) != trace.k * (trace.k - 1) // 2:
        found.append("distortion report misses terminal pairs")
    if "verify" in out:
        found += [f"verify: {v}" for v in out["verify"].violations]
    if "ledger" in out and not out["ledger"].tiles_interior():
        found.append("surviving detours do not tile the path interior")
    return found


def counts(out: dict) -> dict[str, float]:
    """Exact work counts of one unit, keyed by per-layer metric name."""
    trace = out["trace"]
    steps = len(trace.radius_events)
    claiming = len({(ev.round, ev.step) for ev in trace.cover_events})
    c = {
        "graph.vertices": out["n"],
        "graph.edges": out["m"],
        "engine.rounds": trace.rounds,
        "engine.steps": steps,
        "engine.claiming_steps": claiming,
        "engine.claim_ratio": claiming / steps if steps else 0.0,
        "engine.cover_events": len(trace.cover_events),
        "engine.trace_bytes": len(out["trace_json"].encode()),
    }
    if "minor" in out:
        c["minor.edges"] = len(out["minor"].edges)
    if "covering" in out:
        c["covering.records"] = len(out["covering"].records)
    if "verify" in out:
        c["verify.steps_replayed"] = steps
        c["verify.violations"] = len(out["verify"].violations)
    if "ledger" in out:
        part = out["partition"]
        charging = len(out["ledger"].steps)
        c["charging.path_vertices"] = len(part.path)
        c["charging.intervals"] = part.phi
        c["charging.steps"] = charging
        c["charging.step_ratio"] = charging / steps if steps else 0.0
    return c
