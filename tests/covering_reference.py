"""The id-keyed covering check that ``sprkit.covering.check_covering``
replaced.

It looks up every event's distances by vertex id and keeps a list of
records per (terminal, round) group.  It is slow and simple on purpose: the
tests require the column check to give the same records, groups and error
texts.  It shares no code with ``sprkit.covering``: a record is a plain
tuple of the ``CoverRecord`` fields, a group one of the ``GroupSpread``
fields, in field order.  One difference is known: on a cover event that
names a terminal vertex, D(v) = 0 and this version fails with a bare
``ValueError`` from ``math.log``, where ``check_covering`` raises a
``GraphError`` that names the vertex.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from sprkit.engine import DEADLINE_FACTOR, EARLY_FACTOR, RunTrace, SprParams
from sprkit.graph import GraphError, WeightedGraph


class ReferenceCheck(NamedTuple):
    records: tuple[tuple, ...]  # (vertex, terminal, round, d(v, t), D(v),
                                #  deadline, early, late, early flag)
    groups: tuple[tuple, ...]   # (terminal, round, max d(v, t), min D(v), ok)


def reference_check_covering(
    trace: RunTrace, graph: WeightedGraph, params: SprParams
) -> ReferenceCheck:
    if trace.terminal_ids != graph.terminals:
        raise GraphError("trace terminals do not match graph terminals")
    if params.k != graph.k:
        raise GraphError("params terminal count does not match graph")
    if graph.k < 2:
        return ReferenceCheck(records=(), groups=())
    unknown = {ev.vertex for ev in trace.cover_events} - graph.index.keys()
    if unknown:
        raise GraphError(
            f"trace covers vertices not in this graph (e.g. {sorted(unknown)[:3]}); "
            "was the run preprocessed with subdivision? check against the "
            "subdivided graph"
        )
    row_of = dict(zip(graph.terminals, graph.terminal_distance_maps))
    index = graph.index
    nearest = graph.nearest_terminal_distance
    log, floor, inf = math.log, math.floor, math.inf
    log_ratio = log(params.ratio)
    ef = params.early_factor
    spread = DEADLINE_FACTOR / EARLY_FACTOR

    records = []
    groups: dict[tuple[int, int], list[tuple]] = {}
    for v, t, rnd, _, _ in trace.cover_events:
        try:
            d_cover = row_of[t][index[v]]
        except KeyError:  # t is not a terminal
            d_cover = inf
        if d_cover == inf:
            raise GraphError(f"vertex {v} is not reachable from {t}")
        d_near = nearest[v]
        deadline = floor(log(DEADLINE_FACTOR * d_near) / log_ratio)
        early = floor(log(ef * d_cover) / log_ratio)
        rec = (v, t, rnd, d_cover, d_near, deadline, early, rnd > deadline, rnd < early)
        records.append(rec)
        groups.setdefault((t, rnd), []).append(rec)

    group_rows = []
    for (t, rnd), recs in sorted(groups.items()):
        max_dist = max(r[3] for r in recs)
        min_near = min(r[4] for r in recs)
        group_rows.append((t, rnd, max_dist, min_near, max_dist <= spread * min_near * (1 + 1e-9)))
    return ReferenceCheck(records=tuple(records), groups=tuple(group_rows))
