"""sprkit benchmark: end-to-end metrics per workload, or a traced per-layer run.

Usage, from the repository root:

    python3 perfbench/run.py --workload compress-cold --seed 0 --seconds 30 --trace 0

One process, one thread, closed loop: each unit starts when the previous
one has ended.  Units cycle through the workload's input pool until
``--seconds`` of unit time have passed.  With ``--trace 0`` the last line holds
the end-to-end metrics, with every time scaled to a reference host speed by
a calibration kernel timed on a timer through set-up and units (see
calibrate.py); with ``--trace 1`` it holds the per-layer metrics of a traced
run, in plain wall seconds (see README.md).  Every run also writes a result
file with provenance, digests, unit times and, when traced, all spans,
under ``perfbench/out/``.

The package is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from importlib import metadata
from contextlib import contextmanager
from pathlib import Path

import calibrate  # this directory, which is first on the path of a script

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 0
DEFAULT_REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 3      # set-ups per run: at least this many,
SETUP_SECONDS = 2.0    # and at least this much set-up time

# Per-layer times: the median over traced units of the seconds spent in the
# span; a "setup." name, and the three layers that only ever run in set-up,
# take their seconds from the traced set-up instead.
UNIT_SPANS = (
    "graph.parse", "graph.build", "graph.nearest_terminal", "graph.terminal_distances",
    "engine.run_spr", "engine.trace_to_json", "engine.trace_from_json",
    "minor.contract", "minor.apsp", "minor.distortion", "minor.report_json",
    "covering.check_covering", "verify.verify_trace", "charging.ledger",
)
SETUP_ONLY_SPANS = ("generators.grid", "graph.subdivide", "charging.partition")
SETUP_SPANS = (
    "graph.build", "graph.nearest_terminal", "graph.terminal_distances",
    "engine.run_spr", "engine.trace_to_json",
)
COUNTS = {
    "graph.vertices": "count", "graph.edges": "count",
    "engine.rounds": "count", "engine.steps": "count",
    "engine.claiming_steps": "count", "engine.claim_ratio": "ratio",
    "engine.cover_events": "count", "engine.trace_bytes": "bytes",
    "minor.edges": "count", "covering.records": "count",
    "verify.steps_replayed": "count", "verify.violations": "count",
    "charging.path_vertices": "count", "charging.intervals": "count",
    "charging.steps": "count", "charging.step_ratio": "ratio",
}


def import_package():
    """Put the checkout's ``src`` first on the path and insist on using it."""
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import sprkit
    except ImportError as exc:
        print(f"perfbench: cannot import sprkit from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if Path(sprkit.__file__).resolve().parent != (SRC / "sprkit").resolve():
        print(f"perfbench: sprkit came from {sprkit.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


class Tracer:
    """Spans kept in memory: (name, start, end, parent span id, unit id)."""

    def __init__(self):
        self.spans: list[dict | None] = []
        self.stack: list[int] = []
        self.unit: int | str = "setup"

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append(None)
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[sid] = {"id": sid, "name": name, "start": start, "end": end,
                               "parent": parent, "unit": self.unit}

    def seconds(self, unit) -> dict[str, float]:
        """Seconds per span name among the spans of one unit (or "setup")."""
        out: dict[str, float] = {}
        for s in self.spans:
            if s["unit"] == unit and s["parent"] is not None:
                out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out


class Checker:
    """Counts a unit as failed on an exception, a failed check, or a digest
    that differs from the reference (or, without one, from the digest the
    same input gave earlier in this run)."""

    def __init__(self, reference: list[dict] | None):
        self.reference = reference
        self.seen: dict[int, dict] = {}
        self.attempted = 0
        self.failed = 0

    def record(self, i: int, out: dict | None, workloads) -> tuple | None:
        """Check one unit's outputs; return its (digests, counts)."""
        self.attempted += 1
        if out is None:
            self.failed += 1
            return None
        found = workloads.problems(out)
        got = workloads.digests(out)
        expect = self.reference[i] if self.reference else self.seen.get(i, got)
        if got != expect:
            found.append(f"input {i}: digests {got} differ from {expect}")
        self.seen.setdefault(i, got)
        for p in found:
            print(f"perfbench: FAIL {p}", file=sys.stderr)
        self.failed += bool(found)
        return got, workloads.counts(out)


def run_unit(fn, *args) -> dict | None:
    try:
        return fn(*args)
    except Exception:  # a failing unit is counted, and the run goes on
        traceback.print_exc()
        return None


def measure(unit, state, pool: int, seconds: float, checker: Checker, workloads,
            full_pass: bool, tracer: Tracer | None = None,
            speed: calibrate.Speedometer | None = None):
    """Units in pool order until ``seconds`` of unit time have passed, and
    with ``full_pass`` until every pool input has run at least once.  With a
    running ``speed``, its kernel time is left out of the unit times.

    Returns per-unit wall times, with a ``speed`` the factor that takes each
    to reference seconds, and the (digests, counts) of the first pass."""
    times: list[float] = []
    samples: list[tuple[int, int]] = []   # the kernel samples taken during each unit
    first: list[tuple | None] = []
    while not times or sum(times) < seconds or (full_pass and len(times) < pool):
        i = len(times) % pool
        if tracer is not None:
            tracer.unit = len(times)
            with tracer.span("unit"):
                start = time.perf_counter()
                out = run_unit(unit, state, i, tracer.span)
                end = time.perf_counter()
        elif speed is not None:
            busy, sample = speed.busy, len(speed.samples)
            start = time.perf_counter()
            out = run_unit(unit, state, i)
            end = time.perf_counter() - (speed.busy - busy)
            samples.append((sample, len(speed.samples)))
        else:
            start = time.perf_counter()
            out = run_unit(unit, state, i)
            end = time.perf_counter()
        times.append(end - start)
        checked = checker.record(i, out, workloads)
        del out  # outputs do not outlive their unit
        if len(first) < pool:
            first.append(checked)
    floor = samples[0][0] if samples else 0
    scales = [speed.scale(a, b, floor) for a, b in samples]
    return times, scales, first


def provenance(args, sizes: dict) -> dict:
    import numpy

    def scipy_version():
        try:
            return metadata.version("scipy")
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "llc": _last_level_cache(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": sizes,
    }


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _last_level_cache() -> str | None:
    best = None
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if best is None or level >= best[0]:
            best = (level, f"L{level} {size}")
    return best[1] if best else None


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sprkit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_reference(path: Path, workload: str, seed: int, sizes: dict):
    if not path.exists():
        return None
    entry = json.loads(path.read_text()).get(workload)
    if entry and entry["seed"] == seed and entry["sizes"] == sizes:
        return entry["digests"]
    return None


def write_reference(path: Path, workload: str, seed: int, sizes: dict, digests: list):
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc[workload] = {"seed": seed, "sizes": sizes, "digests": digests}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def untraced_run(args, wl, sizes, checker, workloads) -> dict:
    """End-to-end metrics, with times in reference seconds (calibrate.py)."""
    setups: list[float] = []
    state = None
    with calibrate.Speedometer() as speed:
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
            state = None  # release the previous set-up before building the next
            gc.collect()
            busy = speed.busy
            start = time.perf_counter()
            state = wl.setup(args.seed, sizes)
            setups.append(time.perf_counter() - start - (speed.busy - busy))
        setup_samples = len(speed.samples)
        times, scales, first = measure(wl.unit, state, sizes["pool"], args.seconds, checker,
                                       workloads, full_pass=args.write_reference, speed=speed)
    wall = {
        "setup_s": (statistics.median(setups), "s"),
        "units_per_s": (len(times) / sum(times), "1/s"),
        "unit_p50_s": (statistics.median(times), "s"),
    }
    setup_scale = speed.scale(0, setup_samples)
    scaled = [t * f for t, f in zip(times, scales)]
    metrics = {
        "setup_s": (wall["setup_s"][0] * setup_scale, "s"),
        "units_per_s": (len(scaled) / sum(scaled), "1/s"),
        "unit_p50_s": (statistics.median(scaled), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    scale = speed.scale(setup_samples, len(speed.samples))
    failed_frac = checker.failed / checker.attempted
    print(
        f"{args.workload}: " + " ".join(f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items())
        + f" failed_frac={failed_frac:.6g} ratio ({checker.failed}/{checker.attempted})"
        + f" over {len(times)} units; setup repeats {[round(s, 4) for s in setups]}"
    )
    print("unscaled wall: " + " ".join(f"{k}={v:.6g} {u}" for k, (v, u) in wall.items())
          + f"; host speed {setup_scale:.4g} of reference in set-up and {scale:.4g} in units,"
          + f" from {len(speed.samples)} kernel samples")
    return {"metrics": metrics, "wall_metrics": wall, "host_speed": scale,
            "setup_host_speed": setup_scale, "kernel_times": speed.samples,
            "unit_times": times, "unit_scales": scales, "setup_times": setups,
            "failed_frac": failed_frac, "first": first}


def traced_run(args, wl, sizes, checker, workloads) -> dict:
    """One traced set-up, one untraced pass, then traced units.

    ``tracing.overhead_s`` is the traced minus the untraced wall of the
    same pool inputs, per unit."""
    tracer = Tracer()
    with tracer.span("setup"):
        state = wl.setup(args.seed, sizes, tracer.span)
    pool = sizes["pool"]
    plain, _, _ = measure(wl.unit, state, pool, 0, checker, workloads, full_pass=True)
    times, _, first = measure(wl.traced_unit, state, pool, args.seconds, checker, workloads,
                           full_pass=True, tracer=tracer)
    per_unit = [tracer.seconds(u) for u in range(len(times))]
    setup = tracer.seconds("setup")
    metrics = {}
    for name in UNIT_SPANS:
        metrics[f"{name}_s"] = (statistics.median(u.get(name, 0.0) for u in per_unit), "s")
    for name in SETUP_ONLY_SPANS:
        metrics[f"{name}_s"] = (setup.get(name, 0.0), "s")
    for name in SETUP_SPANS:
        metrics[f"setup.{name}_s"] = (setup.get(name, 0.0), "s")
    unit_counts = [checked[1] for checked in first if checked is not None]
    for name, unit in COUNTS.items():
        values = [c.get(name, 0) for c in unit_counts]
        metrics[name] = (sum(values) / len(values) if values else 0.0, unit)
    metrics["tracing.unit_s"] = (statistics.median(times), "s")
    metrics["tracing.overhead_s"] = ((sum(times[:pool]) - sum(plain)) / pool, "s")
    return {"metrics": metrics, "unit_times": times, "untraced_times": plain,
            "spans": tracer.spans, "first": first}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("compress-cold", "sweep-warm", "analyze-pair"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes, for self-checks")
    parser.add_argument("--reference", type=Path, default=DEFAULT_REFERENCE,
                        help="reference digests file")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's first-pass digests in --reference")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    import_package()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    sizes = wl.tiny_sizes if args.tiny else wl.sizes
    reference = None
    if not args.write_reference:
        reference = load_reference(args.reference, args.workload, args.seed, sizes)
    checker = Checker(reference)
    prov = provenance(args, sizes)
    run = (traced_run if args.trace else untraced_run)(args, wl, sizes, checker, workloads)
    first = run.pop("first")
    digests = [checked[0] if checked is not None else None for checked in first]
    if args.write_reference:
        if checker.failed or None in digests:
            raise SystemExit("perfbench: not writing a reference from a failing run")
        write_reference(args.reference, args.workload, args.seed, sizes, digests)

    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(
        {"provenance": prov, "reference_checked": reference is not None,
         "digests": digests, "attempted": checker.attempted, "failed": checker.failed,
         **run}, indent=1))
    print("provenance " + json.dumps(prov))
    print("digests " + json.dumps(digests))
    print(f"reference {'checked' if reference is not None else 'not available for this seed'};"
          f" result file {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
