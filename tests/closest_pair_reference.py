"""The per-edge scan that ``sprkit.engine.min_terminal_pair_distance`` replaced.

One labelled Dijkstra from every terminal at once, then a loop over the
graph's edge triples that adds ``dist[u] + w + dist[v]`` across every edge
whose two ends have different nearest terminals.  It is slow and simple on
purpose: the tests require the column scan to give the same double, or to
raise the same ``GraphError``.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush

from sprkit.graph import GraphError, WeightedGraph


def min_terminal_pair_distance(graph: WeightedGraph) -> float:
    """Minimum distance over terminal pairs, via one multi-source sweep.

    The closest pair is realized across some edge where the two nearest-
    terminal labels differ, so one labeled Dijkstra plus an edge scan
    suffices.
    """
    if graph.k < 2:
        raise GraphError("need at least two terminals")
    index = graph.index
    adj = graph._index_adjacency
    # by vertex position; label -1 = not reached yet
    dist = [math.inf] * graph.n
    label = [-1] * graph.n
    heap: list[tuple[float, int, int]] = [
        (0.0, index[t], idx) for idx, t in enumerate(graph.terminals)
    ]
    heap.sort()
    while heap:
        d, p, src = heappop(heap)
        if label[p] >= 0:
            continue
        dist[p] = d
        label[p] = src
        for q, w in adj[p]:
            if label[q] < 0:
                heappush(heap, (d + w, q, src))
    best = math.inf
    for u, v, w in graph.edges:
        i, j = index[u], index[v]
        if label[i] >= 0 and label[j] >= 0 and label[i] != label[j]:
            # the minimizing pair's shortest path changes label at some edge,
            # and there dist[u] + w + dist[v] equals the pair distance
            best = min(best, dist[i] + w + dist[j])
    if not math.isfinite(best):
        raise GraphError("terminals are not mutually reachable")
    return best
