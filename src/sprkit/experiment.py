"""Batch experiment runner: sweeps of seeded runs with CSV/JSON artifacts.

Seeds derive from (base_seed, config_index, run_index) through numpy's
SeedSequence, so sweeps are reproducible while individual runs stay
independent.  Output rows are ordered by (config, run) regardless of
completion order, and the CSV schema is fixed; timing is recorded in the
JSON sidecar only, keeping the CSV byte-reproducible.
"""

from __future__ import annotations

import csv
import io
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .covering import check_covering, summarize_covering
from .engine import (
    DEFAULT_DELTA,
    SprParams,
    check_delta,
    check_max_rounds,
    preprocess_subdivide,
    run_and_contract,
)
from .generators import check_size, generate
from .graph import GraphError, WeightedGraph

CSV_COLUMNS = (
    "family",
    "n",
    "k",
    "seed",
    "subdivided",
    "status",
    "max_distortion",
    "mean_distortion",
    "rounds",
    "late_coverage",
    "early_coverage",
)


# the spec's optional fields, defaulted as in ``ExperimentSpec``: the Python
# types a JSON value of the right kind decodes to, and that kind
_SPEC_FIELDS = {
    "seeds_per_config": ((int,), "an integer"),
    "base_seed": ((int,), "an integer"),
    "delta": ((int, float), "a number"),
    "subdivide": ((bool,), "a boolean"),
    "max_rounds": ((int, type(None)), "an integer or null"),
    "analyze": ((bool,), "a boolean"),
}


# the most runs a config may ask for; with each config's graph capped at
# ``graph.MAX_GRAPH_SIZE``, a mistyped spec fails at once
MAX_SEEDS_PER_CONFIG = 100_000


@dataclass(frozen=True)
class ExperimentSpec:
    configs: tuple[dict, ...]
    seeds_per_config: int = 10
    base_seed: int = 0
    delta: float = DEFAULT_DELTA
    subdivide: bool = False
    max_rounds: int | None = None
    analyze: bool = False

    def __post_init__(self):
        if self.seeds_per_config < 1:
            raise GraphError("seeds_per_config must be positive")
        if self.seeds_per_config > MAX_SEEDS_PER_CONFIG:
            raise GraphError(f"seeds_per_config over the cap of {MAX_SEEDS_PER_CONFIG}")
        if self.base_seed < 0:
            raise GraphError("base_seed must be nonnegative")
        check_delta(self.delta)
        check_max_rounds(self.max_rounds)
        if not self.configs:
            raise GraphError("at least one config required")
        for cfg in self.configs:
            if "family" not in cfg:
                raise GraphError(f"config missing 'family': {cfg}")
            params = {key: value for key, value in cfg.items()
                      if key not in ("family", "allow_single_terminal")}
            try:
                check_size(cfg["family"], params)
            except GraphError as exc:
                raise GraphError(f"config {cfg}: {exc}") from None
            k = cfg.get("k")
            if k is None:
                continue
            # the exact type, as for _SPEC_FIELDS: a JSON boolean is no integer
            if type(k) is not int:
                raise GraphError(f"config {cfg} has a non-integer k")
            if k < 2 and not cfg.get("allow_single_terminal"):
                raise GraphError(f"config {cfg} has k < 2; set allow_single_terminal")

    @staticmethod
    def from_json(text: str) -> "ExperimentSpec":
        """Parse a spec; any syntax or schema fault raises GraphError."""
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise GraphError(f"experiment spec is not valid JSON: {exc}") from None
        except RecursionError:
            raise GraphError("experiment spec is not valid JSON: nested too deeply") from None
        if not isinstance(doc, dict) or "configs" not in doc:
            raise GraphError("not an experiment spec: expected an object with 'configs'")
        configs = doc["configs"]
        if not isinstance(configs, list) or not all(isinstance(c, dict) for c in configs):
            raise GraphError("experiment spec: 'configs' must be a list of objects")
        fields = {}
        for name, (types, kind) in _SPEC_FIELDS.items():
            # a dataclass field's default is also its class attribute
            value = doc.get(name, getattr(ExperimentSpec, name))
            # the exact type: a JSON boolean is no integer, a float no count
            if type(value) not in types:
                raise GraphError(f"experiment spec: '{name}' must be {kind}")
            fields[name] = value
        check_delta(fields["delta"])  # an integer past the float range never converts
        fields["delta"] = float(fields["delta"])
        return ExperimentSpec(configs=tuple(configs), **fields)


@dataclass
class ExperimentRow:
    family: str
    n: int
    k: int
    seed: int
    subdivided: bool
    status: str
    max_distortion: float | None
    mean_distortion: float | None
    rounds: int | None
    late_coverage: bool | None
    early_coverage: bool | None
    wall_ms: float | None = None

    def csv_values(self) -> list[str]:
        def fmt(x):
            if x is None:
                return ""
            if isinstance(x, bool):
                return "1" if x else "0"
            if isinstance(x, float):
                return repr(x)
            return str(x)

        return [fmt(getattr(self, name)) for name in CSV_COLUMNS]


def derive_seed(base_seed: int, config_index: int, run_index: int) -> int:
    """Documented splitting rule for sweep seeds."""
    seq = np.random.SeedSequence([base_seed, config_index, run_index])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def config_graph(spec: ExperimentSpec, config_index: int) -> WeightedGraph:
    cfg = dict(spec.configs[config_index])
    family = cfg.pop("family")
    cfg.pop("allow_single_terminal", None)
    graph_seed = derive_seed(spec.base_seed, config_index, 0xFFFFFFFF)
    graph = generate(family, cfg, seed=graph_seed)
    if spec.subdivide and graph.k >= 2:
        params = SprParams.for_graph(graph, delta=spec.delta)
        graph = preprocess_subdivide(graph, params).graph
    return graph


def _run_config(
    spec: ExperimentSpec, config_index: int
) -> tuple[list[ExperimentRow], dict | None]:
    """One config's rows and, when ``spec.analyze`` is set, the covering
    summary of its ok rows (None without one, or when k < 2)."""
    cfg = spec.configs[config_index]
    try:
        graph = config_graph(spec, config_index)
        n, k = graph.n, graph.k
        if k >= 2:
            # the covering check reads the rows: read before the terminal
            # block, they give it too, and the kernel runs once
            graph.terminal_distance_maps
    except Exception as exc:  # bad config: one error row per planned run
        graph, n, k, status = None, 0, 0, f"error:{type(exc).__name__}"
    rows, checks = [], []
    for r in range(spec.seeds_per_config):
        seed = derive_seed(spec.base_seed, config_index, r)
        result, wall_ms = (None,) * 5, None
        if graph is not None:
            t0 = time.perf_counter()
            try:
                params = SprParams.for_graph(
                    graph, delta=spec.delta, seed=seed, max_rounds=spec.max_rounds
                )
                _, report, trace = run_and_contract(graph, params)
                late = early = None
                if k >= 2:
                    check = check_covering(trace, graph, params)
                    late, early = check.any_late, check.any_early
                    if spec.analyze:
                        checks.append(check)
                status = "ok"
                result = (report.max_ratio, report.mean_ratio, trace.rounds, late, early)
            except Exception as exc:  # per-row failure; the sweep continues
                status = f"error:{type(exc).__name__}"
            wall_ms = (time.perf_counter() - t0) * 1e3
        rows.append(
            ExperimentRow(cfg["family"], n, k, seed, spec.subdivide, status, *result,
                          wall_ms=wall_ms)
        )
    if not checks:
        return rows, None
    covering = summarize_covering(checks).to_json_dict()
    return rows, {"config": dict(cfg), "n": n, "k": k, "covering": covering}


def _run_sweep(spec: ExperimentSpec, jobs: int) -> tuple[list[ExperimentRow], list[dict]]:
    """All rows, ordered by (config, run), and the covering summaries of the
    configs that have one, in config order."""
    count = len(spec.configs)
    workers = min(jobs, count)
    if workers <= 1:
        results = [_run_config(spec, ci) for ci in range(count)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_config, [spec] * count, range(count)))
    rows = [row for config_rows, _ in results for row in config_rows]
    return rows, [summary for _, summary in results if summary is not None]


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> list[ExperimentRow]:
    """All rows, ordered by (config, run); row failures do not abort the sweep."""
    return _run_sweep(spec, jobs)[0]


def rows_to_csv(rows: list[ExperimentRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(row.csv_values())
    return buf.getvalue()


def rows_to_json(rows: list[ExperimentRow], spec: ExperimentSpec) -> str:
    doc = {
        "spec": {
            "configs": list(spec.configs),
            "seeds_per_config": spec.seeds_per_config,
            "base_seed": spec.base_seed,
            "delta": spec.delta,
            "subdivide": spec.subdivide,
            "max_rounds": spec.max_rounds,
        },
        "rows": [asdict(r) for r in rows],
    }
    return json.dumps(doc, indent=2)

