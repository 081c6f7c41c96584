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

from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush

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
    violations: list[PartitionViolation] = []
    assignment = partition.assignment
    k = graph.k
    for v in assignment:
        if v not in graph.vertex_set:
            violations.append(
                PartitionViolation("unknown-vertex", f"vertex {v} not in graph", (v,))
            )
    for v in graph.vertices:
        j = assignment.get(v)
        if j is None:
            violations.append(
                PartitionViolation("unassigned", f"vertex {v} has no cluster", (v,))
            )
        elif not (1 <= j <= k):
            violations.append(
                PartitionViolation(
                    "bad-index", f"vertex {v} assigned to index {j} outside 1..{k}", (v, j)
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
        return violations
    adj = graph.adjacency
    members: list[list[int]] = [[] for _ in range(k + 1)]
    for v in graph.vertices:
        members[assignment[v]].append(v)
    for idx in range(1, k + 1):
        cluster = members[idx]
        start = graph.terminals[idx - 1]
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for nbr, _ in adj[v]:
                if nbr not in seen and assignment[nbr] == idx:
                    seen.add(nbr)
                    stack.append(nbr)
        if len(seen) != len(cluster):
            stranded = min(v for v in cluster if v not in seen)
            violations.append(
                PartitionViolation(
                    "disconnected-cluster",
                    f"cluster {idx} splits into components containing "
                    f"{start} and {stranded}",
                    (idx, start, stranded),
                )
            )
    return violations


@dataclass(frozen=True, eq=False)
class InducedMinor:
    """Contracted graph on terminal indices 1..k.

    Edges carry the exact original terminal distance.  Each terminal's
    implicit zero-length self-distance is modeled as d(i, i) = 0, never as a
    stored edge.
    """

    k: int
    terminal_ids: tuple[int, ...]
    edges: tuple[tuple[int, int, float], ...]  # (i, j, weight) with i < j

    @cached_property
    def adjacency(self) -> dict[int, tuple[tuple[int, float], ...]]:
        adj: dict[int, list[tuple[int, float]]] = {i: [] for i in range(1, self.k + 1)}
        for i, j, w in self.edges:
            adj[i].append((j, w))
            adj[j].append((i, w))
        return {i: tuple(sorted(nbrs)) for i, nbrs in adj.items()}

    def distance(self, i: int, j: int) -> float:
        return self.distance_matrix[i - 1][j - 1]

    @cached_property
    def distance_matrix(self) -> tuple[tuple[float, ...], ...]:
        rows = []
        for src in range(1, self.k + 1):
            dist = {src: 0.0}
            heap: list[tuple[float, int]] = [(0.0, src)]
            settled: set[int] = set()
            while heap:
                d, v = heappop(heap)
                if v in settled:
                    continue
                settled.add(v)
                for nbr, w in self.adjacency[v]:
                    nd = d + w
                    if nbr not in settled and nd < dist.get(nbr, float("inf")):
                        dist[nbr] = nd
                        heappush(heap, (nd, nbr))
            rows.append(tuple(dist.get(i, float("inf")) for i in range(1, self.k + 1)))
        return tuple(rows)


def contract(graph: WeightedGraph, partition: TerminalPartition) -> InducedMinor:
    """Contract each cluster to its terminal; single scan over the edge list."""
    violations = validate_partition(graph, partition)
    if violations:
        raise InvalidPartitionError(violations)
    assignment = partition.assignment
    crossing: set[tuple[int, int]] = set()
    for u, v, _ in graph.edges:
        i, j = assignment[u], assignment[v]
        if i != j:
            crossing.add((min(i, j), max(i, j)))
    dmaps = graph.terminal_distance_maps
    edges = []
    for i, j in sorted(crossing):
        tj = graph.terminals[j - 1]
        if not dmaps[i - 1].reachable(tj):
            raise GraphError(
                f"terminals {graph.terminals[i - 1]} and {tj} are disconnected"
            )
        edges.append((i, j, dmaps[i - 1].distance(tj)))
    return InducedMinor(k=graph.k, terminal_ids=graph.terminals, edges=tuple(edges))


@dataclass(frozen=True)
class PairDistortion:
    i: int
    j: int
    d_graph: float
    d_minor: float
    ratio: float


@dataclass(frozen=True)
class DistortionReport:
    pairs: tuple[PairDistortion, ...]
    max_ratio: float
    argmax: tuple[int, int] | None

    @property
    def mean_ratio(self) -> float:
        if not self.pairs:
            return 1.0
        return sum(p.ratio for p in self.pairs) / len(self.pairs)

    def to_json_dict(self) -> dict:
        return {
            "pairs": [
                {"i": p.i, "j": p.j, "dG": p.d_graph, "dM": p.d_minor, "ratio": p.ratio}
                for p in self.pairs
            ],
            "max": {
                "i": self.argmax[0] if self.argmax else None,
                "j": self.argmax[1] if self.argmax else None,
                "ratio": self.max_ratio,
            },
        }


def distortion(graph: WeightedGraph, minor: InducedMinor) -> DistortionReport:
    """Per-pair minor/graph distance ratios and their maximum.

    With a single terminal there are no pairs and the distortion is 1 by
    convention.  An unreachable terminal pair in the graph is an input error
    (entry points require connectivity).
    """
    if minor.terminal_ids != graph.terminals:
        raise GraphError("minor terminals do not match graph terminals")
    dmaps = graph.terminal_distance_maps
    pairs = []
    best: tuple[float, tuple[int, int]] | None = None
    for i in range(1, graph.k + 1):
        for j in range(i + 1, graph.k + 1):
            tj = graph.terminals[j - 1]
            if not dmaps[i - 1].reachable(tj):
                raise GraphError(
                    f"terminal pair ({graph.terminals[i - 1]},{tj}) unreachable; "
                    "graph must be connected"
                )
            dg = dmaps[i - 1].distance(tj)
            dm = minor.distance(i, j)
            ratio = dm / dg
            pairs.append(PairDistortion(i, j, dg, dm, ratio))
            if best is None or ratio > best[0]:
                best = (ratio, (i, j))
    if not pairs:
        return DistortionReport(pairs=(), max_ratio=1.0, argmax=None)
    return DistortionReport(pairs=tuple(pairs), max_ratio=best[0], argmax=best[1])
