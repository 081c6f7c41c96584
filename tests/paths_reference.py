"""The id-keyed Dijkstra that ``sprkit.graph.canonical_path`` replaced.

``shortest_paths`` settles every vertex reachable from one source over the
dict ``adjacency`` and keeps a canonical predecessor per vertex, ties broken
toward the lowest vertex id.  It is slow and simple on purpose: the kernel,
acceptance and charging tests compare against its distances, and the tests
require ``canonical_path`` to give its ``path_to`` and its distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from sprkit.graph import GraphError, WeightedGraph


@dataclass(frozen=True)
class DistanceMap:
    """Single-source shortest distances plus one canonical path per target.

    Unreachable vertices are simply absent from ``dist``; there is no
    infinity sentinel.
    """

    source: int
    dist: dict[int, float]
    pred: dict[int, int]

    def distance(self, v: int) -> float:
        if v not in self.dist:
            raise GraphError(f"vertex {v} is not reachable from {self.source}")
        return self.dist[v]

    def path_to(self, v: int) -> list[int]:
        """Canonical shortest path from the source to ``v`` (inclusive)."""
        if v not in self.dist:
            raise GraphError(f"vertex {v} is not reachable from {self.source}")
        path = [v]
        while path[-1] != self.source:
            path.append(self.pred[path[-1]])
        path.reverse()
        return path


def shortest_paths(graph: WeightedGraph, source: int) -> DistanceMap:
    """Exact Dijkstra distances from ``source`` with canonical predecessors."""
    if source not in graph.index:
        raise GraphError(f"unknown source vertex {source}")
    dist: dict[int, float] = {}
    pred: dict[int, int] = {}
    best: dict[int, float] = {source: 0.0}
    heap: list[tuple[float, int]] = [(0.0, source)]
    adj = graph.adjacency
    while heap:
        d, v = heappop(heap)
        if v in dist:
            continue
        dist[v] = d
        for nbr, w in adj[v]:
            if nbr in dist:
                continue
            nd = d + w
            old = best.get(nbr)
            if old is None or nd < old:
                best[nbr] = nd
                pred[nbr] = v
                heappush(heap, (nd, nbr))
            elif nd == old and v < pred[nbr]:
                # equal-length alternative through a lower-id predecessor
                pred[nbr] = v
    return DistanceMap(source=source, dist=dist, pred=pred)
