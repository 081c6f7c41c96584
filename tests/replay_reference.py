"""The from-terminal replay that ``sprkit.graph.ClusterReplay`` replaced.

``region_search`` re-settles the stepping cluster from its terminal at every
step, and ``reference_verify_trace`` is ``verify_trace`` built on it.  They
are slow and simple on purpose: the tests require the incremental replay to
give the same results.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush

from sprkit.engine import RunTrace, SprParams, run_rng, sample_exponential
from sprkit.graph import WeightedGraph
from sprkit.minor import TerminalPartition, validate_partition
from sprkit.verify import REL_TOL, VerifyResult


def region_search(
    graph: WeightedGraph,
    owner: dict[int, int],
    cluster: int,
    source: int,
    limit: float = math.inf,
    stop: set[int] | frozenset[int] = frozenset(),
    extra: float = 0.0,
) -> tuple[dict[int, float], list[tuple[int, float]]]:
    """Distances from ``source`` through vertices that are unowned or owned
    by ``cluster``, settling every vertex within ``limit``.

    ``owner`` maps claimed vertices to their cluster; absent vertices are
    unowned.  Once the first vertex of ``stop`` is settled at distance d, the
    limit drops to d + ``extra``.  Returns the settled distances and the stop
    vertices settled, with their distances, in settling order.
    """
    dist: dict[int, float] = {}
    stops: list[tuple[int, float]] = []
    best = {source: 0.0}
    heap: list[tuple[float, int]] = [(0.0, source)]
    adj = graph.adjacency
    while heap:
        d, v = heappop(heap)
        if v in dist or d != best[v]:
            continue
        if d > limit:
            break
        dist[v] = d
        if v in stop:
            if not stops:
                limit = d + extra
            stops.append((v, d))
        for nbr, w in adj[v]:
            if nbr in dist:
                continue
            ow = owner.get(nbr)
            if ow is not None and ow != cluster:
                continue
            nd = d + w
            if nd <= limit and nd < best.get(nbr, math.inf):
                best[nbr] = nd
                heappush(heap, (nd, nbr))
    return dist, stops


def events_by_step(trace: RunTrace) -> dict[tuple[int, int], list]:
    """The trace's cover events by (round, step), each step's in event order."""
    out: dict[tuple[int, int], list] = {}
    for ev in trace.cover_events:
        out.setdefault((ev.round, ev.step), []).append(ev)
    return out


def reference_verify_trace(
    graph: WeightedGraph, trace: RunTrace, params: SprParams | None = None
) -> tuple[VerifyResult, int | None]:
    """``verify_trace`` with a from-terminal search per step.

    Also returns how many violations were recorded by the end of the first
    step whose claimed set differs from the replayed ball, or None when every
    step's claims match.
    """
    violations: list[str] = []
    cut: int | None = None
    k = trace.k
    if trace.terminal_ids != graph.terminals:
        return VerifyResult(("trace terminals do not match graph terminals",)), cut
    term_index = {t: j for j, t in enumerate(graph.terminals, start=1)}

    # coverage uniqueness and vertex validity
    covered_at: dict[int, tuple[int, int]] = {}
    for ev in trace.cover_events:
        if ev.vertex not in graph.index:
            violations.append(f"cover event for unknown vertex {ev.vertex}")
        if ev.vertex in covered_at:
            violations.append(f"vertex {ev.vertex} covered twice")
        covered_at[ev.vertex] = (ev.round, ev.step)
        if ev.vertex in term_index:
            violations.append(f"terminal {ev.vertex} appears in a cover event")

    # completeness: every non-terminal vertex covered exactly once
    for v in graph.vertices:
        if v not in term_index and v not in covered_at:
            violations.append(f"vertex {v} never covered")

    if trace.k == 1:
        if trace.radius_events:
            violations.append("single-terminal trace must have no radius events")
        return VerifyResult(tuple(violations)), cut

    # radius accumulation per terminal, and sampling stream agreement
    radii = {j: 0.0 for j in range(1, k + 1)}
    expected_step = []
    for rnd in range(trace.rounds):
        for j in range(1, k + 1):
            expected_step.append((rnd, j))
    actual_step = [(ev.round, ev.step) for ev in trace.radius_events]
    if actual_step != expected_step:
        violations.append("radius events do not enumerate every (round, step) in order")
        return VerifyResult(tuple(violations)), cut
    for ev in trace.radius_events:
        if ev.q < 0:
            violations.append(f"negative increment at round {ev.round} step {ev.step}")
        radii[ev.step] += ev.q
        if ev.radius != radii[ev.step]:
            violations.append(
                f"radius mismatch at round {ev.round} step {ev.step}: "
                f"recorded {ev.radius!r}, accumulated {radii[ev.step]!r}"
            )
    if params is not None:
        rng = run_rng(params.seed)
        for ev in trace.radius_events:
            mean = params.base_mean * params.ratio**ev.round
            q = sample_exponential(mean, rng)
            if q != ev.q:
                violations.append(
                    f"increment at round {ev.round} step {ev.step} does not match "
                    f"the seeded stream"
                )
                break

    # ball semantics per step: replayed region distances must cover exactly
    # the newly recorded vertices within the radius
    owner: dict[int, int] = {t: j for j, t in enumerate(graph.terminals, start=1)}
    cover_by_step = events_by_step(trace)
    radii = {j: 0.0 for j in range(1, k + 1)}
    for ev in trace.radius_events:
        j = ev.step
        radii[j] += ev.q
        radius = radii[j]
        new_events = cover_by_step.get((ev.round, ev.step), [])
        t_j = graph.terminals[j - 1]
        for cev in new_events:
            if cev.terminal != t_j:
                violations.append(
                    f"cover event at step ({ev.round},{j}) names terminal "
                    f"{cev.terminal}, expected {t_j}"
                )

        uncovered_exists = len(owner) < graph.n
        differs = False
        if new_events or uncovered_exists:
            dist, _ = region_search(graph, owner, j, t_j, limit=radius)
            expected_new = {v for v in dist if v not in owner}
            got_new = {cev.vertex for cev in new_events}
            if expected_new != got_new:
                differs = True
                violations.append(
                    f"step ({ev.round},{j}) claims {sorted(got_new)} but ball "
                    f"replay gives {sorted(expected_new)}"
                )
            for cev in new_events:
                d = dist.get(cev.vertex)
                if d is None:
                    continue
                if not math.isclose(d, cev.dist, rel_tol=REL_TOL, abs_tol=1e-12):
                    violations.append(
                        f"recorded distance {cev.dist!r} for vertex {cev.vertex} "
                        f"differs from replayed {d!r}"
                    )
                if d > radius * (1 + REL_TOL):
                    violations.append(
                        f"vertex {cev.vertex} covered at distance {d!r} beyond "
                        f"radius {radius!r}"
                    )
        for cev in new_events:
            owner[cev.vertex] = j
        if differs and cut is None:
            cut = len(violations)

    # final partition must be a valid terminal partition
    if len(owner) == graph.n:
        partition = TerminalPartition(assignment=dict(owner))
        for viol in validate_partition(graph, partition):
            violations.append(f"final partition invalid: {viol}")

    return VerifyResult(tuple(violations)), cut
