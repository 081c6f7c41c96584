"""Independent replay checks for run traces.

Replays a trace step by step against the graph and re-derives everything
the engine claimed: radius accumulation, the seeded increments (one
``rng.random(k)`` draw per round, as the engine draws them), ball membership
of every coverage event, uniqueness and monotonicity of coverage, cluster
connectivity, and completeness.  A step's cover events are the trace's runs
of events with equal (round, step, terminal).  The replay never calls back
into the engine, so a bug in the hot loop cannot vouch for itself.

The structural checks run in bulk: set operations decide distinct cover
vertices, unknown ids, claimed terminals and completeness, and list
comparisons the order of the radius events.  The per-event loops run only when such a
test finds a fault, to word its violations in event order.
``replay_trace`` returns the violations, which ``verify_trace`` reports,
and the claiming steps, which the charging ledger charges.

**The certificate.**  When the structural checks pass (every cover vertex
distinct, known, no terminal, all of them covered; the radius events in
order; every cover event's (round, step) among them; every increment
``>= 0``, which rules out NaN, and every radius finite; every recorded
distance a ``float``), the replay first tries to certify the whole trace,
with numpy over the graph's edge columns, as a shortest-path certificate
checks recorded distances against the edges' optimality conditions.  Let
j(p) be the cluster that claims position p (its own for a terminal), g(p) =
round * k + step - 1 the index of the claiming step (j - 1 - k for the
terminal of cluster j), d(p) the recorded distance (0.0 for a terminal),
and R[g] the accumulated radius step g searches with.  For both directions
(u, x) of every edge of weight w, let s = d(u) + w in float64.  The trace is
certified when

(a) every claim p has a finite d(p) <= R[g(p)];
(b) every edge with j(u) = j(x) and a non-terminal x has d(x) <= s, and
    every claim x has a witness: such an edge with s == d(x) and
    (g(u), d(u)) < (g(x), d(x));
(c) every edge to a non-terminal x with g(x) > g(u) has R[g'] < s, where
    g' = g(u) + k * floor((g(x) - 1 - g(u)) / k) is the last step of u's
    cluster before x's claim (an edge with g' < 0 is skipped).

Why that is enough, step by step in order.  (a) and (b) walk each claim's
witnesses back to its terminal through positions the stepping cluster
holds or claims at this step, with float sums equal to the records, so
every claim lies in the replayed ball at a distance no larger than its
record.  Along a shortest path of the step's region, (b) keeps every
recorded distance no larger than the path's sum while the path stays
among those positions, since ``fl(a + w)`` is monotone in ``a`` (the
argument of the ``ClusterReplay`` docstring); a path that leaves them for
a later claim x has, by (c) and radii that never decrease, a sum beyond the
step's radius from there on.  So each step's ball is exactly its claims,
at exactly the recorded doubles, and the witnesses make every cluster
connected.

A certified trace takes each claiming step's ball from the record, builds
no replay, and needs no partition check.  A trace that fails any of these
conditions, or the structural checks, is replayed step by step: each
step's ball comes from ``graph.ClusterReplay``, a search from the stepping
cluster's boundary members over the unclaimed vertices, seeded with the
distances verify itself computed for those members at their claiming
steps, never with the recorded ones.  While every earlier step's claims
equal its replayed ball, this gives the same set and the same doubles as a
fresh search from the terminal through the cluster and the unclaimed
vertices.  At the first step whose claims differ, verify reports the
difference; a claim it did not reproduce has no distance and never seeds a
later search.  Each step compares its replayed distances with the recorded
ones as lists, and the largest with the radius.  That replay words every
violation; the certificate refuses faulty traces, and valid ones whose only
witness ties (a weight absorbed by a distance, ``fl(d + w) == d``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _far(d: float, recorded) -> bool:
    """Whether ``recorded`` differs from the replayed ``d`` beyond
    ``REL_TOL``; an int past the float range is far from every double."""
    try:
        return not math.isclose(d, recorded, rel_tol=REL_TOL, abs_tol=1e-12)
    except OverflowError:
        return True


def _certified(graph: WeightedGraph, trace: RunTrace, pos: list[int], radii) -> bool:
    """Whether conditions (a)-(c) of the module docstring hold, for a trace
    that passed the structural checks; ``radii`` are the accumulated radii
    of the steps in order.  Each edge direction is checked on its own."""
    k, claims = trace.k, np.array(pos, dtype=np.intp)
    terminals = np.fromiter(map(graph.index.__getitem__, graph.terminals), np.intp, k)
    step = np.asarray(trace.cover_step, dtype=np.int64)
    owner = np.empty(graph.n, dtype=np.int64)
    owner[terminals], owner[claims] = np.arange(1, k + 1), step
    g = np.empty(graph.n, dtype=np.int64)
    g[terminals] = np.arange(-k, 0)
    g[claims] = np.asarray(trace.cover_round, dtype=np.int64) * k + step - 1
    d = np.zeros(graph.n)
    d[claims] = trace.cover_dist
    radius = np.fromiter(radii, float, len(trace.radius_q))
    if not (d[claims] <= radius[g[claims]]).all() or not np.isfinite(d).all():
        return False  # (a)
    lo, hi, w = graph.edge_columns
    witnessed = np.zeros(graph.n, dtype=bool)
    for u, x in ((lo, hi), (hi, lo)):
        gu, gx, du, dx = g[u], g[x], d[u], d[x]
        s = du + w
        same = (gx >= 0) & (owner[u] == owner[x])
        if not (dx[same] <= s[same]).all():
            return False  # (b), the bound
        witness = same & (s == dx) & ((gu < gx) | ((gu == gx) & (du < dx)))
        witnessed[x[witness]] = True
        later = (gx >= 0) & (gx > gu)
        gu, gx, s = gu[later], gx[later], s[later]
        last = gu + k * ((gx - 1 - gu) // k)  # g' of (c)
        kept = last >= 0
        if not (radius[last[kept]] < s[kept]).all():
            return False  # (c)
    return bool(witnessed[claims].all())  # (b), the witnesses


@dataclass(frozen=True)
class VerifyResult:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def replay_trace(
    graph: WeightedGraph, trace: RunTrace, params: SprParams | None = None
) -> tuple[list[str], list[tuple]]:
    """The violations of ``trace``, the seeded stream's only with ``params``,
    and its claiming steps in order, each ``(round, step, q, pre-step radius,
    claimed positions, their distances)``: the recorded ones on a certified
    trace, else the step replay's (None for a claim it did not reproduce)."""
    k = trace.k
    violations: list[str] = []
    claiming: list[tuple] = []
    if trace.terminal_ids != graph.terminals:
        violations.append("trace terminals do not match graph terminals")
        return violations, claiming
    if k != graph.k:
        violations.append(f"trace terminal count {k} does not match the graph's {graph.k}")
        return violations, claiming
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
    complete = distinct and len(covered) == graph.n - k
    if not complete:
        for v in graph.vertices:
            if v not in term_index and v not in covered:
                violations.append(f"vertex {v} never covered")

    if trace.k == 1:
        if trace.radius_round:
            violations.append("single-terminal trace must have no radius events")
        return violations, claiming

    # radius accumulation per terminal, and sampling stream agreement
    if not trace.radius_steps_in_order():
        violations.append("radius events do not enumerate every (round, step) in order")
        return violations, claiming
    steps = []
    radii = {j: 0.0 for j in range(1, k + 1)}
    for rnd, j, q, radius in zip(trace.radius_round, trace.radius_step, trace.radius_q,
                                 trace.radius_R):
        if q < 0:
            violations.append(f"negative increment at round {rnd} step {j}")
        try:
            grown = radii[j] + q
        except OverflowError:  # an integer past the float range
            violations.append(f"increment at round {rnd} step {j} is past the float range")
            grown = math.inf
        steps.append((rnd, j, q, radii[j], grown))
        radii[j] = grown
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
    # the certificate reads only columns these checks have bounded: every
    # increment >= 0 (so no radius decreases) and every final radius finite,
    # every (round, step) a step's, every distance a float
    certified = (
        complete and all(q >= 0 for q in trace.radius_q)
        and all(map(math.isfinite, radii.values()))
        and runs_by_step.keys() <= set(zip(trace.radius_round, trace.radius_step))
        and all(type(d) is float for d in recorded)
        and _certified(graph, trace, pos, [radius for *_, radius in steps])
    )
    replay = None if certified else ClusterReplay(graph)
    foreign: dict[int, int] = {}
    for rnd, j, q, pre_radius, radius in steps:
        runs = runs_by_step.pop((rnd, j), ())
        t_j = graph.terminals[j - 1]
        for start, stop, t in runs:
            if t != t_j:
                violations += [
                    f"cover event at step ({rnd},{j}) names terminal {t}, expected {t_j}"
                ] * (stop - start)

        if certified:
            if runs:
                claiming.append((rnd, j, q, pre_radius, _in_runs(pos, runs),
                                 _in_runs(recorded, runs)))
        elif runs or replay.claimed + len(foreign) < graph.n:
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
                    if _far(d, recorded[i]):
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
                replayed = [d for p, d in zip(new_pos, replayed) if p is not None]
                new_pos = [p for p in new_pos if p is not None]
            if runs:
                claiming.append((rnd, j, q, pre_radius, new_pos, replayed))
            # the replayed distances, never the recorded ones, seed later steps
            replay.claim(j, got_new, dist)
    for rnd, j in runs_by_step:  # never replayed, so never claimed
        violations.append(f"cover events at step ({rnd},{j}) have no radius event")

    # final partition must be a valid terminal partition.  A certified trace
    # claims every position, and its witnesses connect each cluster.  Without
    # a foreign id every position is claimed, and the replay's owners are its
    # labels; a foreign id takes the id-keyed check, which names it
    if not certified and replay.claimed + len(foreign) == graph.n:
        if foreign:
            assignment = {v: j for v, j in zip(graph.vertices, replay.owner) if j}
            partition = TerminalPartition(assignment=assignment | foreign)
            faults = validate_partition(graph, partition)
        else:
            faults = _check_partition(graph, replay.owner)
        violations += [f"final partition invalid: {viol}" for viol in faults]
    return violations, claiming


def verify_trace(
    graph: WeightedGraph, trace: RunTrace, params: SprParams | None = None
) -> VerifyResult:
    """The violations of ``replay_trace``."""
    return VerifyResult(tuple(replay_trace(graph, trace, params)[0]))
