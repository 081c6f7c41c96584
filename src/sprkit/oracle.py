"""Exhaustive baseline: minimum achievable distortion on small graphs.

Enumerates every assignment of non-terminal vertices to terminal clusters,
keeps the valid terminal partitions (clusters connected, terminals fixed),
contracts each, and returns the minimum distortion.  The arg-min is the
lexicographically smallest assignment achieving the minimum, so results are
deterministic.  A vertex cap keeps the k^(n-k) candidate space at desk
scale; no pruning is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .engine import DEFAULT_DELTA, SprParams, run_and_contract
from .graph import GraphError, WeightedGraph
from .minor import InvalidPartitionError, TerminalPartition, contract, distortion

DEFAULT_CAP = 12


class CapExceededError(GraphError):
    def __init__(self, n: int, cap: int):
        super().__init__(f"graph has {n} vertices; oracle cap is {cap}")
        self.required = n
        self.cap = cap


@dataclass(frozen=True)
class OracleResult:
    best_distortion: float
    best_partition: TerminalPartition
    candidates_valid: int


def best_partition(graph: WeightedGraph, cap: int = DEFAULT_CAP) -> OracleResult:
    """Minimum distortion over all valid terminal partitions."""
    if graph.n > cap:
        raise CapExceededError(graph.n, cap)
    if graph.k < 2:
        raise GraphError("oracle needs at least two terminals")
    if not graph.is_connected():
        raise GraphError("oracle requires a connected graph")
    steiner = [v for v in graph.vertices if v not in graph.terminals]
    base = {t: idx for idx, t in enumerate(graph.terminals, start=1)}
    k = graph.k

    best: tuple[float, TerminalPartition] | None = None
    valid = 0
    for combo in product(range(1, k + 1), repeat=len(steiner)):
        assignment = dict(base)
        for v, j in zip(steiner, combo):
            assignment[v] = j
        partition = TerminalPartition(assignment=assignment)
        try:
            minor = contract(graph, partition)
        except InvalidPartitionError:
            continue
        valid += 1
        report = distortion(graph, minor)
        if best is None or report.max_ratio < best[0]:
            best = (report.max_ratio, partition)
    if best is None:
        raise GraphError("no valid terminal partition exists (graph disconnected?)")
    return OracleResult(
        best_distortion=best[0], best_partition=best[1], candidates_valid=valid
    )


@dataclass(frozen=True)
class ComparisonRow:
    seed: int
    spr_distortion: float
    oracle_distortion: float
    ratio: float


def compare_to_spr(
    graph: WeightedGraph,
    oracle: OracleResult,
    seeds,
    delta: float = DEFAULT_DELTA,
) -> list[ComparisonRow]:
    """Clustered-run distortion against the exhaustive floor ``oracle``,
    which ``best_partition`` found for ``graph``, per seed."""
    rows = []
    for seed in seeds:
        params = SprParams.for_graph(graph, delta=delta, seed=seed)
        _, report, _ = run_and_contract(graph, params)
        rows.append(
            ComparisonRow(
                seed=seed,
                spr_distortion=report.max_ratio,
                oracle_distortion=oracle.best_distortion,
                ratio=report.max_ratio / oracle.best_distortion,
            )
        )
    return rows
