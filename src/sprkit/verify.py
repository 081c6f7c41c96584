"""Independent replay checks for run traces.

Replays a trace step by step against the graph and re-derives everything
the engine claimed: radius accumulation, the seeded increments (one
``rng.random(k)`` draw per round, as the engine draws them), ball membership
of every coverage event, uniqueness and monotonicity of coverage, cluster
connectivity, and completeness.  A step's cover events are the trace's runs
of events with equal (round, step, terminal).  The replay never calls back
into the engine, so a bug in the hot loop cannot vouch for itself, and never
reads the trace's recorded distances.

Each step's ball comes from ``graph.ClusterReplay``: a search from the
stepping cluster's boundary members over the unclaimed vertices, seeded with
the distances verify itself computed for those members at their claiming
steps.  While every earlier step's claims equal its replayed ball, this
gives the same set and the same doubles as a fresh search from the terminal
through the cluster and the unclaimed vertices (the argument is in the
``ClusterReplay`` docstring).  At the first step whose claims differ, verify
reports the difference; a claim it did not reproduce has no distance and
never seeds a later search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import RunTrace, SprParams, round_increments, run_rng
from .graph import ClusterReplay, WeightedGraph
from .minor import TerminalPartition, validate_partition

REL_TOL = 1e-9


@dataclass(frozen=True)
class VerifyResult:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_trace(
    graph: WeightedGraph, trace: RunTrace, params: SprParams | None = None
) -> VerifyResult:
    violations: list[str] = []
    k = trace.k
    if trace.terminal_ids != graph.terminals:
        return VerifyResult(("trace terminals do not match graph terminals",))
    if k != graph.k:
        return VerifyResult((f"trace terminal count {k} does not match the graph's {graph.k}",))
    term_index = {t: j for j, t in enumerate(graph.terminals, start=1)}

    # coverage uniqueness and vertex validity
    vertex = trace.cover_vertex
    covered: set[int] = set()
    for v in vertex:
        if v not in graph.index:
            violations.append(f"cover event for unknown vertex {v}")
        if v in covered:
            violations.append(f"vertex {v} covered twice")
        covered.add(v)
        if v in term_index:
            violations.append(f"terminal {v} appears in a cover event")

    # completeness: every non-terminal vertex covered exactly once
    for v in graph.vertices:
        if v not in term_index and v not in covered:
            violations.append(f"vertex {v} never covered")

    if trace.k == 1:
        if trace.radius_round:
            violations.append("single-terminal trace must have no radius events")
        return VerifyResult(tuple(violations))

    # radius accumulation per terminal, and sampling stream agreement
    radius_events = list(zip(trace.radius_round, trace.radius_step, trace.radius_q,
                             trace.radius_R))
    # the count first: the rounds field alone must not size the expected list
    if len(radius_events) != trace.rounds * k or [ev[:2] for ev in radius_events] != [
            (rnd, j) for rnd in range(trace.rounds) for j in range(1, k + 1)]:
        violations.append("radius events do not enumerate every (round, step) in order")
        return VerifyResult(tuple(violations))
    radii = {j: 0.0 for j in range(1, k + 1)}
    for rnd, j, q, radius in radius_events:
        if q < 0:
            violations.append(f"negative increment at round {rnd} step {j}")
        radii[j] += q
        if radius != radii[j]:
            violations.append(
                f"radius mismatch at round {rnd} step {j}: "
                f"recorded {radius!r}, accumulated {radii[j]!r}"
            )
    if params is not None:
        # the events enumerate the steps in order, so round l's increments
        # are entries l*k .. l*k + k - 1 of the q column
        rng = run_rng(params.seed)
        for rnd in range(trace.rounds):
            qs = round_increments(params.base_mean * params.ratio**rnd, rng, k)
            bad = [j for j, q, got in zip(range(1, k + 1), qs, trace.radius_q[rnd * k:])
                   if q != got]
            if bad:
                violations.append(
                    f"increment at round {rnd} step {bad[0]} does not match "
                    f"the seeded stream"
                )
                break

    # ball semantics per step: replayed region distances must cover exactly
    # the newly recorded vertices within the radius.  The replay runs on
    # positions; a claimed id outside the graph (reported above) has none,
    # and goes to ``foreign``, which counts towards every vertex claimed.
    replay = ClusterReplay(graph)
    pos = list(map(graph.index.get, vertex))
    foreign: dict[int, int] = {}
    runs_by_step = trace.runs_by_step()
    recorded = trace.cover_dist
    radii = {j: 0.0 for j in range(1, k + 1)}
    for rnd, j, q, _ in radius_events:
        radii[j] += q
        radius = radii[j]
        runs = runs_by_step.get((rnd, j), ())
        t_j = graph.terminals[j - 1]
        for start, stop, t in runs:
            if t != t_j:
                violations += [
                    f"cover event at step ({rnd},{j}) names terminal {t}, expected {t_j}"
                ] * (stop - start)
        new_events = [i for start, stop, _ in runs for i in range(start, stop)]

        if new_events or replay.claimed + len(foreign) < graph.n:
            dist, _ = replay.search(j, limit=radius)
            got_new = {pos[i] for i in new_events}  # a foreign id maps to None, in no ball
            if dist.keys() != got_new:
                violations.append(
                    f"step ({rnd},{j}) claims {sorted({vertex[i] for i in new_events})} "
                    f"but ball replay gives {[graph.vertices[p] for p in sorted(dist)]}"
                )
            for i in new_events:
                d = dist.get(pos[i])
                if d is None:
                    continue
                v = vertex[i]
                if not math.isclose(d, recorded[i], rel_tol=REL_TOL, abs_tol=1e-12):
                    violations.append(
                        f"recorded distance {recorded[i]!r} for vertex {v} "
                        f"differs from replayed {d!r}"
                    )
                if d > radius * (1 + REL_TOL):
                    violations.append(
                        f"vertex {v} covered at distance {d!r} beyond "
                        f"radius {radius!r}"
                    )
            for i in new_events:
                if pos[i] is None:
                    foreign.setdefault(vertex[i], j)
            got_new.discard(None)
            # the replayed distances, never the recorded ones, seed later steps
            replay.claim(j, got_new, dist)

    # final partition must be a valid terminal partition
    if replay.claimed + len(foreign) == graph.n:
        assignment = {v: j for v, j in zip(graph.vertices, replay.owner) if j}
        partition = TerminalPartition(assignment=assignment | foreign)
        for viol in validate_partition(graph, partition):
            violations.append(f"final partition invalid: {viol}")

    return VerifyResult(tuple(violations))
