"""Coverage-timing checks over run traces.

For every vertex the trace tells us which terminal claimed it and in which
round.  Two timing events matter:

* late coverage: the vertex was still unclaimed after round
  floor(log_ratio(4 * D(v))), where D(v) is its distance to the nearest
  terminal.  Runs should avoid this with high probability, but the deadline
  is only meaningful for vertices whose D(v) is at least about half the
  graph's distance unit; below that the floor is negative and no round can
  satisfy it, so aggregate rates are also reported restricted to a caller-
  chosen distance floor.

* early coverage: some terminal t claimed v strictly before round
  floor(log_ratio(early_factor * d(v, t))).  This should essentially never
  happen.

A third per-run check: vertices claimed by the same terminal in the same
round should sit at comparable distances; the spread bound is
max d(t, v') <= (4 / early_factor) * min D(v) over the group.

``check_covering`` reads both distances of an event at the vertex's
position: d(v, t) from terminal t's row of ``terminal_distance_maps`` and
D(v) from the nearest-terminal row.  It walks the trace's runs of events
with equal (terminal, round) in one pass: each run looks up its terminal's
row once and updates its (terminal, round) group once, which keeps only the
running largest d(v, t) and smallest D(v).  A cover event that names a
terminal vertex (D(v) = 0, so no deadline round exists) is an input error.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import groupby, repeat
from operator import gt, lt
from typing import NamedTuple

from .engine import DEADLINE_FACTOR, EARLY_FACTOR, RunTrace, SprParams
from .graph import GraphError, WeightedGraph

SPREAD_FACTOR = DEADLINE_FACTOR / EARLY_FACTOR  # = 12 with the locked factors


class CoverRecord(NamedTuple):
    vertex: int
    terminal: int           # covering terminal vertex id
    round: int
    dist_to_terminal: float  # graph distance d(v, covering terminal)
    nearest_terminal: float  # D(v)
    deadline_round: int      # floor(log_ratio(4 * D(v)))
    early_round: int         # floor(log_ratio(early_factor * d(v, t)))
    covered_late: bool
    covered_early: bool


@dataclass(frozen=True)
class GroupSpread:
    terminal: int
    round: int
    max_dist: float
    min_nearest: float
    ok: bool


@dataclass(frozen=True)
class CoveringCheck:
    records: tuple[CoverRecord, ...]
    groups: tuple[GroupSpread, ...]

    @property
    def any_late(self) -> bool:
        return any(r.covered_late for r in self.records)

    @property
    def any_early(self) -> bool:
        return any(r.covered_early for r in self.records)

    def any_late_at_least(self, d_floor: float) -> bool:
        return any(r.covered_late for r in self.records if r.nearest_terminal >= d_floor)

    @property
    def spread_violations(self) -> tuple[GroupSpread, ...]:
        return tuple(g for g in self.groups if not g.ok)


def check_covering(
    trace: RunTrace,
    graph: WeightedGraph,
    params: SprParams,
) -> CoveringCheck:
    """Per-vertex coverage-timing records and same-step spread groups."""
    if trace.terminal_ids != graph.terminals:
        raise GraphError("trace terminals do not match graph terminals")
    if params.k != graph.k:
        raise GraphError("params terminal count does not match graph")
    if graph.k < 2:
        return CoveringCheck(records=(), groups=())
    vertex = trace.cover_vertex
    index = graph.index
    unknown = set(vertex).difference(index)
    if unknown:
        raise GraphError(
            f"trace covers vertices not in this graph (e.g. {sorted(unknown)[:3]}); "
            "was the run preprocessed with subdivision? check against the "
            "subdivided graph"
        )
    positions = list(map(index.__getitem__, vertex))
    row_of = dict(zip(graph.terminals, graph.terminal_distance_maps))
    nearest = graph._nearest_row
    log, floor, inf = math.log, math.floor, math.inf
    # round thresholds are floor(log_ratio(x)); x <= 0 cannot occur for
    # positive distances, and a tiny x gives a very negative round that no
    # round >= 0 can meet
    log_ratio = log(params.ratio)
    ef = params.early_factor

    rounds = trace.cover_round
    d_near = list(map(nearest.__getitem__, positions))
    # d(v, t) from the run's terminal row, math.inf where t is no terminal;
    # (terminal, round) -> [largest d(v, t), smallest D(v)] over the group
    d_cover = [inf] * len(vertex)
    groups: dict[tuple[int, int], list[float]] = {}
    start = 0
    for key, run in groupby(zip(trace.cover_terminal, rounds)):
        stop = start + len(list(run))
        row = row_of.get(key[0])
        if row is not None:
            d_cover[start:stop] = map(row.__getitem__, positions[start:stop])
        hi, lo = max(d_cover[start:stop]), min(d_near[start:stop])
        spread = groups.get(key)
        if spread is None:
            groups[key] = [hi, lo]
        else:
            spread[0] = max(spread[0], hi)
            spread[1] = min(spread[1], lo)
        start = stop
    if inf in d_cover or 0.0 in d_near:
        # the first unreachable vertex or covered terminal, in event order
        for v, t, dc, dn in zip(vertex, trace.cover_terminal, d_cover, d_near):
            if dc == inf:
                raise GraphError(f"vertex {v} is not reachable from {t}")
            if dn == 0.0:  # log(0): v is a terminal
                raise GraphError(f"trace covers terminal {v}; terminals are never claimed")
    deadline = [floor(log(DEADLINE_FACTOR * d) / log_ratio) for d in d_near]
    early = [floor(log(ef * d) / log_ratio) for d in d_cover]
    records = list(map(tuple.__new__, repeat(CoverRecord), zip(
        vertex, trace.cover_terminal, rounds, d_cover, d_near, deadline, early,
        map(gt, rounds, deadline), map(lt, rounds, early))))

    group_rows = [
        GroupSpread(
            terminal=t,
            round=rnd,
            max_dist=max_dist,
            min_nearest=min_near,
            ok=max_dist <= SPREAD_FACTOR * min_near * (1 + 1e-9),
        )
        for (t, rnd), (max_dist, min_near) in sorted(groups.items())
    ]
    return CoveringCheck(records=tuple(records), groups=tuple(group_rows))


@dataclass(frozen=True)
class CoveringSummary:
    runs: int
    late_run_rate: float            # fraction of runs with any late coverage
    early_run_rate: float           # fraction of runs with any early coverage
    late_run_rate_restricted: float | None  # restricted to D(v) >= d_floor
    d_floor: float | None
    late_vertex_rate: float         # fraction of all vertex records late
    early_vertex_rate: float
    spread_violation_runs: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def summarize_covering(
    checks: list[CoveringCheck], d_floor: float | None = None
) -> CoveringSummary:
    """Aggregate per-run checks into run-level and vertex-level rates."""
    runs = len(checks)
    if runs == 0:
        raise GraphError("no covering checks to summarize")
    late_runs = sum(1 for c in checks if c.any_late)
    early_runs = sum(1 for c in checks if c.any_early)
    total = sum(len(c.records) for c in checks)
    late_v = sum(sum(1 for r in c.records if r.covered_late) for c in checks)
    early_v = sum(sum(1 for r in c.records if r.covered_early) for c in checks)
    restricted = None
    if d_floor is not None:
        restricted = sum(1 for c in checks if c.any_late_at_least(d_floor)) / runs
    return CoveringSummary(
        runs=runs,
        late_run_rate=late_runs / runs,
        early_run_rate=early_runs / runs,
        late_run_rate_restricted=restricted,
        d_floor=d_floor,
        late_vertex_rate=late_v / total if total else 0.0,
        early_vertex_rate=early_v / total if total else 0.0,
        spread_violation_runs=sum(1 for c in checks if c.spread_violations),
    )
