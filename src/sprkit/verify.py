"""Independent replay checks for run traces.

Replays a trace event by event against the graph and re-derives everything
the engine claimed: radius accumulation, ball membership of every coverage
event, uniqueness and monotonicity of coverage, cluster connectivity, and
completeness.  The replay never calls back into the engine, so a bug in the
hot loop cannot vouch for itself, and never reads the trace's recorded
distances.

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

from .engine import RunTrace, SprParams, sample_exponential, run_rng
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
        return VerifyResult(tuple(violations))

    # radius accumulation per terminal, and sampling stream agreement
    radii = {j: 0.0 for j in range(1, k + 1)}
    expected_step = []
    for rnd in range(trace.rounds):
        for j in range(1, k + 1):
            expected_step.append((rnd, j))
    actual_step = [(ev.round, ev.step) for ev in trace.radius_events]
    if actual_step != expected_step:
        violations.append("radius events do not enumerate every (round, step) in order")
        return VerifyResult(tuple(violations))
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
    replay = ClusterReplay(graph)
    owner = replay.owner
    cover_by_step = trace.events_by_step()
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
        if new_events or uncovered_exists:
            dist, _ = replay.search(j, limit=radius)
            got_new = {cev.vertex for cev in new_events}
            if dist.keys() != got_new:
                violations.append(
                    f"step ({ev.round},{j}) claims {sorted(got_new)} but ball "
                    f"replay gives {sorted(dist)}"
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
            # the replayed distances, never the recorded ones, seed later steps
            replay.claim(j, got_new, dist)

    # final partition must be a valid terminal partition
    if len(owner) == graph.n:
        partition = TerminalPartition(assignment=dict(owner))
        for viol in validate_partition(graph, partition):
            violations.append(f"final partition invalid: {viol}")

    return VerifyResult(tuple(violations))
