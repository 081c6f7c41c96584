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

import json
from array import array
from dataclasses import dataclass
from itertools import repeat
from math import inf
from operator import truediv
from typing import NamedTuple

import numpy as np

from .graph import GraphError, WeightedGraph, _distinct, parse_graph_text


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
    return _check_partition(graph, *_position_labels(graph, partition.assignment))


def _position_labels(
    graph: WeightedGraph, assignment: dict
) -> tuple[list, list[PartitionViolation]]:
    """The cluster index of every vertex position (None where unassigned),
    and a violation for every id of ``assignment`` outside the graph."""
    index = graph.index
    unknown = []
    # the loop runs only when a set comparison finds a fault
    if not assignment.keys() <= index.keys():
        unknown = [
            PartitionViolation("unknown-vertex", f"vertex {v} not in graph", (v,))
            for v in assignment if v not in index
        ]
    return list(map(assignment.get, graph.vertices)), unknown


def _check_partition(
    graph: WeightedGraph, label: list, violations=()
) -> list[PartitionViolation]:
    """``violations``, then those of the cluster index ``label`` of every
    vertex position (None where unassigned).

    Each cluster is searched from its terminal over the position adjacency,
    once the labels themselves are valid.  The clusters are disjoint, so
    one seen-flag per position serves them all, and a cluster's lowest
    unreached position is its lowest unreached vertex id.
    """
    violations = list(violations)
    k, index, vertices = graph.k, graph.index, graph.vertices
    # the per-vertex loop runs only when a set comparison finds a fault
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
        j = label[index[t]]
        if j is not None and j != idx:
            violations.append(
                PartitionViolation(
                    "terminal-misassigned",
                    f"terminal {t} must be in cluster {idx}, found {j}",
                    (t, j),
                )
            )
    if violations:
        return violations
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
    return violations


class InducedMinor:
    """Contracted graph on terminal indices 1..k, k = ``len(terminal_ids)``.

    The minor is its ``graph``, built by ``WeightedGraph.build``: vertices
    1..k, every one a terminal in order, vertex i labelled
    ``orig=<terminal_ids[i-1]>``.  So the graph rules check the edges,
    ``(j, i, w)`` is the edge {i, j}, and a fault raises ``GraphError``.
    Edges carry the exact original terminal distance; d(i, i) = 0 is never
    a stored edge.
    """

    def __init__(self, terminal_ids, edges):
        self.terminal_ids = tuple(terminal_ids)
        ids = range(1, len(self.terminal_ids) + 1)
        labels = {i: f"orig={t}" for i, t in zip(ids, self.terminal_ids)}
        self.graph = WeightedGraph.build(ids, edges, ids, labels)

    @property
    def k(self) -> int:
        return len(self.terminal_ids)

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """``(i, j, weight)`` with i < j, sorted: the graph's edges."""
        return self.graph.edges

    def distance(self, i: int, j: int) -> float:
        return self.distance_matrix[i - 1][j - 1]

    @property
    def distance_matrix(self) -> tuple[array, ...]:
        """d(i, j) at ``[i-1][j-1]``: the minor graph's terminal rows."""
        return self.graph.terminal_distance_maps


def parse_minor_text(text: str) -> InducedMinor:
    """The minor that ``format_graph_text(minor.graph)`` wrote: vertices
    1..k, every one a terminal, listed in order.  Vertex i stands for the
    id of its ``orig=<id>`` label, or for i without such a label."""
    g = parse_graph_text(text)
    if g.vertices != tuple(range(1, g.n + 1)) or g.terminals != g.vertices:
        raise GraphError("a minor's vertices must be 1..k, listed as terminals in order")
    orig = []
    for i in g.terminals:
        label = g.labels.get(i, "")
        try:
            orig.append(int(label.removeprefix("orig=")) if label.startswith("orig=") else i)
        except ValueError:
            raise GraphError(f"minor vertex {i}: label {label!r} is not orig=<integer>") from None
    return InducedMinor(orig, g._id_edges())


def contract(graph: WeightedGraph, partition: TerminalPartition) -> InducedMinor:
    """Contract each cluster to its terminal; the crossing cluster pairs
    come from one gather and sort over the edge columns."""
    label, unknown = _position_labels(graph, partition.assignment)
    violations = _check_partition(graph, label, unknown)
    if violations:
        raise InvalidPartitionError(violations)
    lo, hi, _ = graph.edge_columns
    cluster = np.array(label, dtype=np.intp)
    i, j = cluster[lo], cluster[hi]
    crossing = i != j
    i, j = i[crossing], j[crossing]
    # (i, j) with i < j as one key, each pair once, in (i, j) order
    pairs = _distinct(np.minimum(i, j) * (graph.k + 1) + np.maximum(i, j))
    block = graph.terminal_block
    edges = []
    for i, j in zip(*map(np.ndarray.tolist, np.divmod(pairs, graph.k + 1))):
        d = block[i - 1][j - 1]
        if d == inf:
            raise GraphError(
                f"terminals {graph.terminals[i - 1]} and {graph.terminals[j - 1]} "
                "are disconnected"
            )
        edges.append((i, j, d))
    return InducedMinor(graph.terminals, edges)


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

    def to_json(self) -> str:
        """The report as ``sprkit run`` and ``sprkit distort`` write it."""
        return json.dumps(self.to_json_dict(), indent=2)

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
