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

The checks run in bulk: set operations decide distinct cover vertices,
unknown ids, claimed terminals and completeness, and each step compares
its replayed distances with the recorded ones as lists, and the largest
with the radius.  The per-event loops run only when such a test finds a
fault, to word its violations in event order.  The replay is one stream of
steps, ``replay_steps``, read by ``verify_trace`` and the charging ledger.
"""

from __future__ import annotations

import math
from collections.abc import Generator
from dataclasses import dataclass

from .engine import RunTrace, SprParams, round_increments, run_rng
from .graph import ClusterReplay, WeightedGraph
from .minor import TerminalPartition, _check_partition, validate_partition

REL_TOL = 1e-9


def _in_runs(column, runs) -> list:
    """The entries of ``column`` at a step's events, in event order."""
    if len(runs) == 1:
        [(start, stop, _)] = runs
        return column[start:stop]
    return [x for start, stop, _ in runs for x in column[start:stop]]


@dataclass(frozen=True)
class VerifyResult:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def replay_steps(
    graph: WeightedGraph, trace: RunTrace, violations: list[str], params: SprParams | None = None
) -> Generator[tuple, None, tuple[ClusterReplay, dict[int, int]]]:
    """Every check of ``verify_trace`` but the final partition check, the
    seeded stream's only with ``params``, appending to ``violations`` in
    ``verify_trace``'s order.  Each radius event whose ball is searched
    yields ``(replay, round, step, q, pre-step radius, claimed positions)``
    with its faults appended and the ``ClusterReplay`` before its claims,
    which it makes when resumed.  Returns the replay and the claims of ids
    outside the graph (id to cluster)."""
    k = trace.k
    replay = ClusterReplay(graph)
    foreign: dict[int, int] = {}
    if trace.terminal_ids != graph.terminals:
        violations.append("trace terminals do not match graph terminals")
        return replay, foreign
    if k != graph.k:
        violations.append(f"trace terminal count {k} does not match the graph's {graph.k}")
        return replay, foreign
    term_index = {t: j for j, t in enumerate(graph.terminals, start=1)}

    # coverage uniqueness and vertex validity
    vertex, index = trace.cover_vertex, graph.index
    pos = list(map(index.get, vertex))  # None for an id outside the graph
    covered = set(vertex)
    distinct = len(covered) == len(vertex) and None not in pos and covered.isdisjoint(term_index)
    if not distinct:
        seen: set[int] = set()
        for v in vertex:
            if v not in index:
                violations.append(f"cover event for unknown vertex {v}")
            if v in seen:
                violations.append(f"vertex {v} covered twice")
            seen.add(v)
            if v in term_index:
                violations.append(f"terminal {v} appears in a cover event")

    # completeness: every non-terminal vertex covered exactly once; n - k
    # distinct non-terminals are all of them
    if not (distinct and len(covered) == graph.n - k):
        for v in graph.vertices:
            if v not in term_index and v not in covered:
                violations.append(f"vertex {v} never covered")

    if trace.k == 1:
        if trace.radius_round:
            violations.append("single-terminal trace must have no radius events")
        return replay, foreign

    # radius accumulation per terminal, and sampling stream agreement
    if not trace.radius_steps_in_order():
        violations.append("radius events do not enumerate every (round, step) in order")
        return replay, foreign
    steps = []
    radii = {j: 0.0 for j in range(1, k + 1)}
    for rnd, j, q, radius in zip(trace.radius_round, trace.radius_step, trace.radius_q,
                                 trace.radius_R):
        if q < 0:
            violations.append(f"negative increment at round {rnd} step {j}")
        steps.append((rnd, j, q, radii[j], radii[j] + q))
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
    # A step's recorded distances are compared with the replayed ones as
    # lists, and the largest with the radius; the loop over its events runs
    # only when that finds a fault, to word it.
    runs_by_step = trace.runs_by_step()
    recorded = trace.cover_dist
    for rnd, j, q, pre_radius, radius in steps:
        runs = runs_by_step.pop((rnd, j), ())
        t_j = graph.terminals[j - 1]
        for start, stop, t in runs:
            if t != t_j:
                violations += [
                    f"cover event at step ({rnd},{j}) names terminal {t}, expected {t_j}"
                ] * (stop - start)

        if runs or replay.claimed + len(foreign) < graph.n:
            dist, _ = replay.search(j, limit=radius)
            new_pos = _in_runs(pos, runs)
            got_new = set(new_pos)  # a foreign id maps to None, in no ball
            if dist.keys() != got_new:
                violations.append(
                    f"step ({rnd},{j}) claims {sorted(set(_in_runs(vertex, runs)))} "
                    f"but ball replay gives {[graph.vertices[p] for p in sorted(dist)]}"
                )
            replayed = list(map(dist.get, new_pos))
            if runs and (replayed != _in_runs(recorded, runs)
                         or max(replayed) > radius * (1 + REL_TOL)):
                for i in _in_runs(range(len(vertex)), runs):  # the step's events
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
            if None in got_new:
                for i in _in_runs(range(len(vertex)), runs):
                    if pos[i] is None:
                        foreign.setdefault(vertex[i], j)
                got_new.discard(None)
            yield replay, rnd, j, q, pre_radius, got_new
            # the replayed distances, never the recorded ones, seed later steps
            replay.claim(j, got_new, dist)
    for rnd, j in runs_by_step:  # never replayed, so never claimed
        violations.append(f"cover events at step ({rnd},{j}) have no radius event")
    return replay, foreign


def verify_trace(
    graph: WeightedGraph, trace: RunTrace, params: SprParams | None = None
) -> VerifyResult:
    """The violations of the drained ``replay_steps``, then the partition check's."""
    violations: list[str] = []
    steps = replay_steps(graph, trace, violations, params)
    try:
        while True:
            next(steps)
    except StopIteration as end:
        replay, foreign = end.value

    # final partition must be a valid terminal partition.  Without a foreign
    # id every position is claimed, and the replay's owners are its labels;
    # a foreign id takes the id-keyed check, which names it; an early stop
    # claimed only terminals, each a valid cluster of its own
    if replay.claimed + len(foreign) == graph.n:
        if foreign:
            assignment = {v: j for v, j in zip(graph.vertices, replay.owner) if j}
            partition = TerminalPartition(assignment=assignment | foreign)
            faults = validate_partition(graph, partition)
        else:
            faults = _check_partition(graph, replay.owner)
        violations += [f"final partition invalid: {viol}" for viol in faults]

    return VerifyResult(tuple(violations))
