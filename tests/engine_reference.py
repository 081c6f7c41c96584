"""The frontier loop of ``sprkit.engine.run_spr`` before it suppressed
duplicate pushes.

``reference_run_spr`` pushes (d + w, q) for every unclaimed neighbour q of
every claimed position, so a position reached twice by one cluster sits in
its frontier twice and the second copy is popped as stale.  It is kept
verbatim on purpose: the tests require the engine to give the same trace,
partition and round-guard failure, and to push fewer entries.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import repeat

from sprkit.engine import (
    RoundsGuardError,
    RunTrace,
    SprParams,
    _run_single_terminal,
    default_round_guard,
    round_increments,
    run_rng,
)
from sprkit.graph import GraphError, WeightedGraph
from sprkit.minor import TerminalPartition


def reference_run_spr(
    graph: WeightedGraph, params: SprParams
) -> tuple[TerminalPartition, RunTrace]:
    if params.k != graph.k:
        raise GraphError(f"params bound to k={params.k}, graph has k={graph.k}")
    if graph.k == 1:
        return _run_single_terminal(graph, params)

    if not graph.is_connected():
        raise GraphError("clustering requires a connected graph")

    k = graph.k
    terminals, vertices, index = graph.terminals, graph.vertices, graph.index
    adj = graph._index_adjacency
    # 1-based cluster index by vertex position, 0 = unclaimed
    owner = [0] * graph.n
    for j, t in enumerate(terminals, start=1):
        owner[index[t]] = j
    uncovered = graph.n - k
    # one frontier per cluster: (distance from t_j, position) for every
    # unclaimed neighbour of the cluster, with lazy deletion of positions
    # claimed since
    frontiers = []
    for t in terminals:
        frontier = [(w, q) for q, w in adj[index[t]] if not owner[q]]
        heapify(frontier)
        frontiers.append(frontier)

    rng = run_rng(params.seed)
    base_mean = params.base_mean
    ratio = params.ratio
    guard = params.max_rounds if params.max_rounds is not None else default_round_guard(graph, params)

    radii = [0.0] * k
    trace = RunTrace(params.delta, params.seed, k, terminals, 0)
    cover_vertex, cover_dist = trace.cover_vertex, trace.cover_dist
    steps = range(1, k + 1)
    rnd = 0
    while uncovered > 0:
        if rnd >= guard:
            trace.rounds = rnd
            raise RoundsGuardError(guard, trace)
        increments = round_increments(base_mean * ratio**rnd, rng, k)
        for j, q in zip(steps, increments):
            radii[j - 1] += q
            radius = radii[j - 1]
            frontier = frontiers[j - 1]
            before = len(cover_vertex)
            while frontier and frontier[0][0] <= radius:
                d, p = heappop(frontier)
                if owner[p]:
                    continue
                owner[p] = j
                cover_vertex.append(vertices[p])
                cover_dist.append(d)
                for q, w in adj[p]:
                    if not owner[q]:
                        heappush(frontier, (d + w, q))
            claimed = len(cover_vertex) - before
            if claimed:
                uncovered -= claimed
                trace.cover_terminal += repeat(terminals[j - 1], claimed)
                trace.cover_round += repeat(rnd, claimed)
                trace.cover_step += repeat(j, claimed)
        # a round's radii after the round are the radii its steps recorded
        trace.radius_round += repeat(rnd, k)
        trace.radius_step += steps
        trace.radius_q += increments
        trace.radius_R += radii
        rnd += 1

    trace.rounds = rnd
    partition = TerminalPartition(assignment=dict(zip(vertices, owner)))
    return partition, trace
