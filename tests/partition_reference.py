"""The id-keyed partition check that ``sprkit.minor.validate_partition``
replaced.

It walks each cluster over the dict ``adjacency`` with a set of seen ids.
It is slow and simple on purpose: the tests require the position-indexed
check to report the same violations, in the same order, with the same
texts and witnesses.
"""

from __future__ import annotations

from sprkit.graph import WeightedGraph
from sprkit.minor import PartitionViolation, TerminalPartition


def reference_validate_partition(
    graph: WeightedGraph, partition: TerminalPartition
) -> list[PartitionViolation]:
    violations: list[PartitionViolation] = []
    assignment = partition.assignment
    k = graph.k
    for v in assignment:
        if v not in graph.index:
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


def reference_crossing_pairs(graph: WeightedGraph, partition: TerminalPartition):
    """The cluster pairs ``(i, j)``, i < j, joined by an edge, in sorted order."""
    assignment = partition.assignment
    crossing: set[tuple[int, int]] = set()
    for u, v, _ in graph.edges:
        i, j = assignment[u], assignment[v]
        if i != j:
            crossing.add((min(i, j), max(i, j)))
    return sorted(crossing)
