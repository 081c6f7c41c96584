"""Terminal partitions, contraction into terminal-centered minors, distortion.

A terminal partition assigns every vertex to exactly one terminal's cluster,
each cluster connected and containing its terminal.  Contracting each cluster
to its terminal yields the induced minor: terminals i and j are adjacent iff
some original edge crosses between their clusters, and the minor edge weight
is always the original graph distance between the two terminals, regardless
of which crossing edge produced it.  By the triangle inequality minor
distances can only exceed graph distances, so every distortion ratio is >= 1.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from math import inf, isfinite
from operator import truediv
from typing import NamedTuple

from .graph import GraphError, WeightedGraph


@dataclass(frozen=True)
class PartitionViolation:
    kind: str  # "unassigned" | "unknown-vertex" | "bad-index" | "terminal-misassigned" | "disconnected-cluster"
    detail: str
    witness: tuple = ()

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


class InvalidPartitionError(GraphError):
    def __init__(self, violations: list[PartitionViolation]):
        super().__init__(
            "invalid terminal partition: " + "; ".join(str(v) for v in violations)
        )
        self.violations = violations


@dataclass(frozen=True)
class TerminalPartition:
    """Total assignment vertex -> terminal index in 1..k."""

    assignment: dict[int, int]


def validate_partition(
    graph: WeightedGraph, partition: TerminalPartition
) -> list[PartitionViolation]:
    """All terminal-partition invariant violations; empty list means valid.

    Violations are data, not exceptions: totality, terminal placement, and
    per-cluster connectivity are each reported with a witness.
    """
    return _check_partition(graph, partition)[0]


def _check_partition(
    graph: WeightedGraph, partition: TerminalPartition
) -> tuple[list[PartitionViolation], list]:
    """``validate_partition``'s violations and the cluster index of every
    vertex position.

    Each cluster is searched from its terminal over the position adjacency.
    The clusters are disjoint, so one seen-flag per position serves them
    all, and a cluster's lowest unreached position is its lowest unreached
    vertex id.
    """
    violations: list[PartitionViolation] = []
    assignment = partition.assignment
    k, index, vertices = graph.k, graph.index, graph.vertices
    # the per-vertex loops run only when a set comparison finds a fault
    if not assignment.keys() <= index.keys():
        violations += [
            PartitionViolation("unknown-vertex", f"vertex {v} not in graph", (v,))
            for v in assignment if v not in index
        ]
    label = list(map(assignment.get, vertices))
    if not set(label) <= set(range(1, k + 1)):
        for v, j in zip(vertices, label):
            if j is None:
                violations.append(
                    PartitionViolation("unassigned", f"vertex {v} has no cluster", (v,))
                )
            elif not (1 <= j <= k):
                violations.append(
                    PartitionViolation(
                        "bad-index", f"vertex {v} assigned to index {j} outside 1..{k}",
                        (v, j),
                    )
                )
    for idx, t in enumerate(graph.terminals, start=1):
        j = assignment.get(t)
        if j is not None and j != idx:
            violations.append(
                PartitionViolation(
                    "terminal-misassigned",
                    f"terminal {t} must be in cluster {idx}, found {j}",
                    (t, j),
                )
            )
    if violations:
        return violations, label
    adj = graph._index_adjacency
    seen = bytearray(graph.n)
    for idx, t in enumerate(graph.terminals, start=1):
        start = index[t]
        seen[start] = 1
        stack = [start]
        while stack:
            for q, _ in adj[stack.pop()]:
                if not seen[q] and label[q] == idx:
                    seen[q] = 1
                    stack.append(q)
    # the lowest unreached vertex of every cluster that has one
    stranded: dict[int, int] = {}
    p = seen.find(0)
    while p >= 0:
        stranded.setdefault(label[p], vertices[p])
        p = seen.find(0, p + 1)
    for idx in sorted(stranded):
        start = graph.terminals[idx - 1]
        violations.append(
            PartitionViolation(
                "disconnected-cluster",
                f"cluster {idx} splits into components containing "
                f"{start} and {stranded[idx]}",
                (idx, start, stranded[idx]),
            )
        )
    return violations, label


@dataclass(frozen=True, eq=False)
class InducedMinor:
    """Contracted graph on terminal indices 1..k.

    Edges carry the exact original terminal distance.  Each terminal's
    implicit zero-length self-distance is modeled as d(i, i) = 0, never as a
    stored edge.  Construction raises ``GraphError`` unless every edge has
    1 <= i < j <= k and a positive finite weight, and no pair repeats.
    """

    k: int
    terminal_ids: tuple[int, ...]
    edges: tuple[tuple[int, int, float], ...]  # (i, j, weight) with i < j

    def __post_init__(self):
        for i, j, w in self.edges:
            if not (1 <= i < j <= self.k and isfinite(w) and w > 0.0):
                raise GraphError(f"minor edge ({i},{j}) of weight {w} needs "
                                 f"1 <= i < j <= {self.k} and a positive finite weight")
        if len({(i, j) for i, j, _ in self.edges}) < len(self.edges):
            raise GraphError("minor edges repeat a pair")

    def distance(self, i: int, j: int) -> float:
        return self.distance_matrix[i - 1][j - 1]

    @cached_property
    def graph(self) -> WeightedGraph:
        """The minor as a graph on vertices 1..k, every one a terminal in
        order, vertex i labelled ``orig=<terminal_ids[i-1]>``."""
        ids = range(1, self.k + 1)
        labels = {i: f"orig={t}" for i, t in zip(ids, self.terminal_ids)}
        return WeightedGraph(vertices=tuple(ids), edges=self.edges, terminals=tuple(ids),
                             labels=labels)

    @property
    def distance_matrix(self) -> tuple[array, ...]:
        """d(i, j) at ``[i-1][j-1]``: the minor graph's terminal rows."""
        return self.graph.terminal_distance_maps


def contract(graph: WeightedGraph, partition: TerminalPartition) -> InducedMinor:
    """Contract each cluster to its terminal; one scan over the position rows."""
    violations, label = _check_partition(graph, partition)
    if violations:
        raise InvalidPartitionError(violations)
    # every crossing edge is read from both ends; keep the one with i < j
    crossing: set[tuple[int, int]] = set()
    for i, row in zip(label, graph._index_adjacency):
        for q, _ in row:
            j = label[q]
            if i < j:
                crossing.add((i, j))
    block = graph.terminal_block
    edges = []
    for i, j in sorted(crossing):
        d = block[i - 1][j - 1]
        if d == inf:
            raise GraphError(
                f"terminals {graph.terminals[i - 1]} and {graph.terminals[j - 1]} "
                "are disconnected"
            )
        edges.append((i, j, d))
    return InducedMinor(k=graph.k, terminal_ids=graph.terminals, edges=tuple(edges))


class PairDistortion(NamedTuple):
    i: int
    j: int
    d_graph: float
    d_minor: float
    ratio: float


@dataclass(frozen=True)
class DistortionReport:
    """Every terminal pair's distortion, held as one column per
    ``PairDistortion`` field: entry p of each column belongs to pair p, in
    (i, j) order.  ``pairs`` builds the records on access."""

    i: list[int]
    j: list[int]
    d_graph: array
    d_minor: array
    ratio: array
    max_ratio: float
    argmax: tuple[int, int] | None

    @property
    def pairs(self) -> tuple[PairDistortion, ...]:
        cols = zip(self.i, self.j, self.d_graph, self.d_minor, self.ratio)
        return tuple(map(PairDistortion._make, cols))

    @property
    def mean_ratio(self) -> float:
        if not self.ratio:
            return 1.0
        return sum(self.ratio) / len(self.ratio)

    def to_json_dict(self) -> dict:
        cols = zip(self.i, self.j, self.d_graph, self.d_minor, self.ratio)
        return {
            "pairs": [
                {"i": i, "j": j, "dG": d_graph, "dM": d_minor, "ratio": ratio}
                for i, j, d_graph, d_minor, ratio in cols
            ],
            "max": {
                "i": self.argmax[0] if self.argmax else None,
                "j": self.argmax[1] if self.argmax else None,
                "ratio": self.max_ratio,
            },
        }


def distortion(graph: WeightedGraph, minor: InducedMinor) -> DistortionReport:
    """Per-pair minor/graph distance ratios and their maximum.

    Pairs come in (i, j) order, i < j, built one terminal row at a time; the
    argmax is the first pair in that order with the largest ratio.  With a
    single terminal there are no pairs and the distortion is 1 by
    convention.  An unreachable terminal pair in the graph is an input error
    (entry points require connectivity); the first one in (i, j) order is
    reported.
    """
    if minor.terminal_ids != graph.terminals:
        raise GraphError("minor terminals do not match graph terminals")
    terminals, k = graph.terminals, graph.k
    i_col: list[int] = []
    j_col: list[int] = []
    d_graph, d_minor, ratio = array("d"), array("d"), array("d")
    if k < 2:
        return DistortionReport(i_col, j_col, d_graph, d_minor, ratio, max_ratio=1.0, argmax=None)
    best, argmax = -inf, None
    rows = zip(graph.terminal_block[:k - 1], minor.distance_matrix)
    for i, (graph_row, minor_row) in enumerate(rows, start=1):
        dg, dm = graph_row[i:], minor_row[i:]
        if inf in dg:
            tj = terminals[i + dg.index(inf)]
            raise GraphError(
                f"terminal pair ({terminals[i - 1]},{tj}) unreachable; "
                "graph must be connected"
            )
        ratios = list(map(truediv, dm, dg))
        i_col += repeat(i, k - i)
        j_col += range(i + 1, k + 1)
        d_graph += dg
        d_minor.extend(dm)
        ratio.extend(ratios)
        top = max(ratios)
        if top > best:
            best, argmax = top, (i, i + 1 + ratios.index(top))
    return DistortionReport(i_col, j_col, d_graph, d_minor, ratio, max_ratio=best, argmax=argmax)
