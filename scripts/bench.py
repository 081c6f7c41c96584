#!/usr/bin/env python3
"""Per-layer timings of the `sprkit run` pipeline at fixed sizes, in a BENCH file.

Usage, from the repository root:

    python3 scripts/bench.py --out BENCH_6.json --label change
    python3 scripts/bench.py --out BENCH_6.json --label parent --src PARENT/src

For each size (n=2k k=16, n=20k k=64, n=50k k=256) a fresh child process
builds the sparse graph of ``perfbench/inputs.sparse_graph_text`` (graph
seed 0) and runs the traced ``compress-cold`` unit of
``perfbench/workloads.py`` on it with run seed 0, then the covering check
and ``verify_trace`` of its trace, three times.  The traced unit warms
every terminal row and the covering check reads them, so a second child
per size runs the untraced unit
(``workloads.compress_unit``, which keeps only the terminal block) once and
records its peak RSS as ``run_peak_rss_mb``.  A third child per size
calls only ``parse_graph_text`` on the size's text, which its own child
makes, and records its peak RSS as ``parse_peak_rss_mb``: the imports, the
text and the parse.  One more child builds the
``analyze-pair`` graph and one trace (run seed 0) with that workload's
set-up, then verifies the trace, checks its covering and replays its
charging ledger, the workload's unit, three times.  Each layer is timed in
wall seconds under the benchmark's span name, the set-up's under
``setup.``.  The file keeps the median per layer, the exact work counts and
the child's peak RSS.  A last child times the distance kernel alone on
three shapes (``SHAPES``): the k terminal rows (``terminal_distance_maps``)
and the nearest-terminal column (``_nearest_row``), each on a fresh graph,
so each timing includes the position adjacency and chain table it builds,
median of three.  At each size a further child times the set-up that
`sprkit run` does around the kernel (``time_setup``): the parse, the
position rows, the chain table, the connectivity check, the nearest
column, ``contract`` and the minor's build, each on a fresh graph, median
of three, under ``setup_s``.  The run also records the machine, the host speed
from the benchmark's calibration kernel (``perfbench/calibrate.py``) before
and after the sizes, and the wall time of the checkout's tier-1 tests.

``--src`` names the ``src`` directory of the checkout to time, so the same
script times a parent commit; the tier-1 tests are those beside it.  The
counts read the trace's columns (``radius_round``, ``cover_vertex``), so a
checkout whose ``RunTrace`` holds per-event records is timed with that
checkout's own copy of this script.  Each run replaces the entry ``--label``
in ``--out`` and keeps the others, so the parent and change figures sit in
one file.  The entry names the checkout's commit only when ``--src`` is
unchanged from it; otherwise ``git_commit`` is null and ``source_sha256``
alone names the timed sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SIZES = ((2000, 16), (20000, 64), (50000, 256))
GRAPH_SEED = 0
RUN_SEED = 0
REPEATS = 3
CALIBRATION_RUNS = 15
# trees and stars whose terminals are their leaves (many columns, few sweeps
# each), and a thin strip with few terminals and no chains to fold (one sweep
# per hop along it)
SHAPES = (
    ("complete_binary_tree(10)", "complete_binary_tree", (10,), {}),
    ("star_graph(2000)", "star_graph", (2000,), {}),
    ("grid_graph(20000, 2, 'random', k=2, seed=1)", "grid_graph", (20000, 2, "random"),
     {"k": 2, "seed": 1}),
)


def time_size(n: int, k: int) -> dict:
    """One size, in this process: per-layer medians, counts and peak RSS."""
    import workloads
    from inputs import sparse_graph_text
    from sprkit import SprParams, check_covering, parse_graph_text, verify_trace

    seconds: dict[str, list[float]] = {}

    @contextmanager
    def span(name):
        start = time.perf_counter()
        yield
        seconds.setdefault(name, []).append(time.perf_counter() - start)

    # the covering check reads the rows the unit cached on its graph, so
    # keep the graph the unit parses
    graphs = []

    def parse(text):
        graphs.append(parse_graph_text(text))
        return graphs[-1]

    workloads.parse_graph_text = parse
    for _ in range(REPEATS):
        with span("inputs.sparse_graph_text"):
            text = sparse_graph_text(n, k, GRAPH_SEED)
        out = workloads.compress_traced_unit({"texts": [text], "seeds": [RUN_SEED]}, 0, span)
        graph, trace = graphs.pop(), out["trace"]
        params = SprParams.for_graph(graph, seed=RUN_SEED)
        with span("covering.check_covering"):
            check_covering(trace, graph, params)
        with span("verify.verify_trace"):
            verified = verify_trace(graph, trace, params)
        counts = {
            "graph.edges": out["m"],
            "engine.rounds": trace.rounds,
            "engine.steps": len(trace.radius_round),
            "engine.cover_events": len(trace.cover_vertex),
            "minor.edges": len(out["minor"].edges),
            "verify.violations": len(verified.violations),
        }
        del text, out, graph, trace, verified
    return {
        "n": n,
        "k": k,
        "graph_seed": GRAPH_SEED,
        "run_seed": RUN_SEED,
        "repeats": REPEATS,
        "layers_s": {name: statistics.median(v) for name, v in seconds.items()},
        "counts": counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_size(n: int, k: int) -> dict:
    """One untraced ``compress-cold`` unit, as ``sprkit run`` runs, in this
    process: its peak RSS."""
    import workloads
    from inputs import sparse_graph_text

    state = {"texts": [sparse_graph_text(n, k, GRAPH_SEED)], "seeds": [RUN_SEED]}
    workloads.compress_unit(state, 0)
    return {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def parse_size(n: int, k: int) -> dict:
    """``parse_graph_text`` alone on the size's text, in this process: its
    peak RSS.  A child of this process makes the text, so the generator's
    peak stays out of the figure."""
    text = subprocess.run(
        [sys.executable, __file__, "--child", "text", str(n), str(k)],
        capture_output=True, text=True, check=True,
    ).stdout
    from sprkit import parse_graph_text

    parse_graph_text(text)
    return {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def time_setup(n: int, k: int) -> dict:
    """The set-up layers of `sprkit run` at one size, in this process: wall
    seconds, median of ``REPEATS``, each repeat on a fresh graph parsed from
    the size's text.  The rows, chain table, connectivity and nearest column
    are timed in the order the run builds them; ``contract`` gets the
    terminal block of the first graph, so it times the partition check, the
    crossing scan and the minor's build; ``minor.build`` is
    ``InducedMinor`` on that minor's edges plus its chain table, all its
    APSP needs before the kernel runs."""
    from inputs import sparse_graph_text
    from sprkit import SprParams, contract, parse_graph_text, run_spr
    from sprkit.minor import InducedMinor

    text = sparse_graph_text(n, k, GRAPH_SEED)
    first = parse_graph_text(text)
    partition, _ = run_spr(first, SprParams.for_graph(first, seed=RUN_SEED))
    block = first.terminal_block
    seconds: dict[str, list[float]] = {}

    def timed(name, call):
        start = time.perf_counter()
        result = call()
        seconds.setdefault(name, []).append(time.perf_counter() - start)
        return result

    for _ in range(REPEATS):
        graph = timed("parse_graph_text", lambda: parse_graph_text(text))
        for attr in ("_index_adjacency", "_chains", "_connected", "_nearest_row"):
            timed(attr, lambda: getattr(graph, attr))
        graph.__dict__["terminal_block"] = block  # computed once, above
        minor = timed("contract", lambda: contract(graph, partition))
        timed("minor.build",
              lambda: InducedMinor(minor.terminal_ids, minor.edges).graph._chains)
    return {"setup_s": {name: statistics.median(v) for name, v in seconds.items()}}


def time_pair() -> dict:
    """The analyze-pair unit on one trace, in this process: per-layer medians,
    counts and peak RSS."""
    import workloads

    seconds: dict[str, list[float]] = {}

    @contextmanager
    def span(name):
        start = time.perf_counter()
        yield
        seconds.setdefault(name, []).append(time.perf_counter() - start)

    wl = workloads.WORKLOADS["analyze-pair"]
    sizes = {**wl.sizes, "pool": 1}
    state = wl.setup(RUN_SEED, sizes, span)
    # the set-up runs once and may enter a span twice: keep each span's sum
    layers = {f"setup.{name}": sum(v) for name, v in seconds.items()}
    seconds.clear()
    for _ in range(REPEATS):
        out = wl.unit(state, 0, span)
    layers.update((name, statistics.median(v)) for name, v in seconds.items())
    return {
        "sizes": sizes,
        "run_seed": RUN_SEED,
        "repeats": REPEATS,
        "layers_s": layers,
        "counts": workloads.counts(out),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def time_shapes() -> dict:
    """The terminal rows and the nearest-terminal column of each shape, in
    this process: wall seconds, median of ``REPEATS`` fresh graphs each."""
    from sprkit import generators

    out = {}
    for name, family, args, kwargs in SHAPES:
        times: dict[str, list[float]] = {"terminal_distance_maps": [], "_nearest_row": []}
        for _ in range(REPEATS):
            for attr, runs in times.items():
                graph = getattr(generators, family)(*args, **kwargs)
                start = time.perf_counter()
                getattr(graph, attr)
                runs.append(time.perf_counter() - start)
        out[name] = {
            "n": graph.n,
            "k": graph.k,
            **{f"{attr}_s": statistics.median(runs) for attr, runs in times.items()},
        }
    return out


def host_speed() -> dict:
    """The calibration kernel's median over a few runs, as a speed ratio."""
    import calibrate

    runs = [calibrate.kernel_seconds() for _ in range(CALIBRATION_RUNS)]
    median = statistics.median(runs)
    return {"kernel_s": median, "speed": calibrate.REFERENCE_SECONDS / median}


def child(src: Path, *args: str) -> dict:
    """Run this script's ``--child`` mode against ``src``; return its JSON."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(PERFBENCH)])}
    out = subprocess.run(
        [sys.executable, __file__, "--child", *args], env=env, capture_output=True, text=True,
    )
    if out.returncode:
        raise SystemExit(f"bench: child {' '.join(args)} failed:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def tier1(src: Path) -> dict:
    """Wall time and summary line of the tier-1 tests beside ``src``."""
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p",
         "no:cacheprovider"],
        cwd=src.parent, env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True,
    )
    lines = out.stdout.strip().splitlines()
    return {"wall_s": time.perf_counter() - start, "summary": lines[-1] if lines else ""}


def machine() -> dict:
    import numpy

    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
    }


def git_commit(src: Path) -> str | None:
    """The checkout's HEAD, or None when ``src`` differs from it: then only
    ``source_sha256`` names the timed tree."""
    def git(*args):
        return subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True)

    head, dirty = git("rev-parse", "HEAD"), git("status", "--porcelain", "--", ".")
    if head.returncode or dirty.returncode or dirty.stdout.strip():
        return None
    return head.stdout.strip()


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "sprkit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="BENCH file to update")
    parser.add_argument("--label", default="change")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--child", nargs=3, metavar=("WHAT", "N", "K"), help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.child:
        what, n, k = args.child
        if what == "speed":
            result = host_speed()
        elif what == "pair":
            result = time_pair()
        elif what == "run":
            result = run_size(int(n), int(k))
        elif what == "parse":
            result = parse_size(int(n), int(k))
        elif what == "text":
            from inputs import sparse_graph_text

            sys.stdout.write(sparse_graph_text(int(n), int(k), GRAPH_SEED))
            return 0
        elif what == "shapes":
            result = time_shapes()
        elif what == "setup":
            result = time_setup(int(n), int(k))
        else:
            result = time_size(int(n), int(k))
        print(json.dumps(result))
        return 0

    if args.out is None:
        parser.error("--out is required")
    src = args.src.resolve()
    if not (src / "sprkit" / "__init__.py").exists():
        parser.error(f"{src} holds no sprkit package")
    speed_before = child(src, "speed", "0", "0")
    results = []
    for n, k in SIZES:
        print(f"bench: n={n} k={k}, {REPEATS} repeats", file=sys.stderr, flush=True)
        results.append(child(src, "size", str(n), str(k)))
        untraced = child(src, "run", str(n), str(k))
        results[-1]["run_peak_rss_mb"] = untraced["peak_rss_mb"]
        parsed = child(src, "parse", str(n), str(k))
        results[-1]["parse_peak_rss_mb"] = parsed["peak_rss_mb"]
        results[-1].update(child(src, "setup", str(n), str(k)))
        layers = results[-1]["layers_s"]
        print("  " + "  ".join(f"{name}={s:.3f}" for name, s in layers.items())
              + f"  run_peak_rss_mb={untraced['peak_rss_mb']:.1f}"
              + f"  parse_peak_rss_mb={parsed['peak_rss_mb']:.1f}", file=sys.stderr, flush=True)
        print("  set-up: " + "  ".join(f"{name}={s:.3f}"
                                       for name, s in results[-1]["setup_s"].items()),
              file=sys.stderr, flush=True)
    print(f"bench: analyze-pair, {REPEATS} repeats", file=sys.stderr, flush=True)
    pair = child(src, "pair", "0", "0")
    print("  " + "  ".join(f"{name}={s:.3f}" for name, s in pair["layers_s"].items()),
          file=sys.stderr, flush=True)
    print(f"bench: kernel shapes, {REPEATS} repeats", file=sys.stderr, flush=True)
    shapes = child(src, "shapes", "0", "0")
    for name, shape in shapes.items():
        print(f"  {name}: rows={shape['terminal_distance_maps_s']:.3f}"
              f"  nearest={shape['_nearest_row_s']:.3f}", file=sys.stderr, flush=True)
    speed_after = child(src, "speed", "0", "0")
    run = {
        "git_commit": git_commit(src),
        "source_sha256": source_digest(src),
        "host_speed": {"before": speed_before, "after": speed_after},
        "tier1": tier1(src),
        "sizes": results,
        "analyze_pair": pair,
        "shapes": shapes,
    }

    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    bench["machine"] = machine()
    bench.setdefault("runs", {})[args.label] = run
    args.out.write_text(json.dumps(bench, indent=2) + "\n")
    print(f"bench: wrote {args.label} to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
