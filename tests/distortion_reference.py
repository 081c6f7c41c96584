"""The per-pair distortion loop that ``sprkit.minor.distortion`` replaced.

``reference_distortion`` visits the terminal pairs one at a time in (i, j)
order and keeps the first pair with the largest ratio.  It is slow and simple
on purpose: the tests require the row-wise ``distortion`` to give the same
report, and the same error for an unreachable pair.
"""

from __future__ import annotations

from math import inf

from sprkit.graph import GraphError, WeightedGraph
from sprkit.minor import DistortionReport, InducedMinor, PairDistortion


def reference_distortion(graph: WeightedGraph, minor: InducedMinor) -> DistortionReport:
    if minor.terminal_ids != graph.terminals:
        raise GraphError("minor terminals do not match graph terminals")
    rows, index = graph.terminal_distance_maps, graph.index
    pairs = []
    best: tuple[float, tuple[int, int]] | None = None
    for i in range(1, graph.k + 1):
        for j in range(i + 1, graph.k + 1):
            tj = graph.terminals[j - 1]
            dg = rows[i - 1][index[tj]]
            if dg == inf:
                raise GraphError(
                    f"terminal pair ({graph.terminals[i - 1]},{tj}) unreachable; "
                    "graph must be connected"
                )
            dm = minor.distance(i, j)
            ratio = dm / dg
            pairs.append(PairDistortion(i, j, dg, dm, ratio))
            if best is None or ratio > best[0]:
                best = (ratio, (i, j))
    columns = [list(column) for column in zip(*pairs)] or [[] for _ in PairDistortion._fields]
    if not pairs:
        return DistortionReport(*columns, max_ratio=1.0, argmax=None)
    return DistortionReport(*columns, max_ratio=best[0], argmax=best[1])
