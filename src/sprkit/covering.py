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

``check_covering`` makes one numpy pass over a trace's cover columns.  It
maps the vertices to positions once and gathers D(v) from the
nearest-terminal row with one index.  One sort of the events by (terminal,
round) gives each terminal's events as one stretch, so d(v, t) comes from
each row of ``terminal_distance_maps`` with one gather per terminal; the
groups start where the shifted sorted keys differ, and each group's largest
d(v, t) and smallest D(v) come from one ``reduceat`` each.  The deadline
and early rounds are ``np.log`` over whole columns, made exact by
``_floor_log``.  ``CoveringCheck`` holds the results as columns and builds
its ``CoverRecord``s only when ``records`` is read.  A cover event that
names a terminal vertex (D(v) = 0, so no deadline round exists) is an input
error.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import count, repeat
from typing import NamedTuple

import numpy as np

from .engine import DEADLINE_FACTOR, EARLY_FACTOR, RunTrace, SprParams
from .graph import GraphError, WeightedGraph

SPREAD_FACTOR = DEADLINE_FACTOR / EARLY_FACTOR  # = 12 with the locked factors

# Every finite deadline or early round lies within 745 / log(1 + 2**-52) <
# 3.4e18 of zero (745 bounds |log x| for a positive double, and a ratio
# above 1 is at least 1 + 2**-52), so a round clamped to +-2**62 compares
# with them as the round itself does.
_ROUND_CLAMP = 2**62


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


@dataclass(frozen=True, eq=False)
class CoveringCheck:
    """One column per ``CoverRecord`` field, entry i of each belonging to
    cover event i, and the spread groups in (terminal, round) order.
    ``vertex``, ``terminal`` and ``round`` are the trace's own lists, since
    a trace may hold any integer there; the other columns are numpy arrays.
    ``records`` builds the records on access."""

    vertex: list[int]
    terminal: list[int]
    round: list[int]
    dist_to_terminal: np.ndarray
    nearest_terminal: np.ndarray
    deadline_round: np.ndarray
    early_round: np.ndarray
    covered_late: np.ndarray
    covered_early: np.ndarray
    groups: tuple[GroupSpread, ...]

    @property
    def records(self) -> tuple[CoverRecord, ...]:
        numbers = (self.dist_to_terminal, self.nearest_terminal, self.deadline_round,
                   self.early_round, self.covered_late, self.covered_early)
        cols = zip(self.vertex, self.terminal, self.round, *(c.tolist() for c in numbers))
        return tuple(map(tuple.__new__, repeat(CoverRecord), cols))

    @property
    def any_late(self) -> bool:
        return bool(self.covered_late.any())

    @property
    def any_early(self) -> bool:
        return bool(self.covered_early.any())

    def any_late_at_least(self, d_floor: float) -> bool:
        return bool((self.covered_late & (self.nearest_terminal >= d_floor)).any())

    @property
    def spread_violations(self) -> tuple[GroupSpread, ...]:
        return tuple(g for g in self.groups if not g.ok)


def _floor_log(factor: float, d: np.ndarray, log_ratio: float) -> np.ndarray:
    """``math.floor(math.log(factor * v) / log_ratio)`` for every entry v of
    ``d``.

    ``factor * d`` is one IEEE product per entry, the same in numpy as in
    Python.  ``np.log`` is not ``math.log``: the two may differ by a few
    ulps.  The quotient q = log(x) / log_ratio then moves by a few ulps of
    q, which cannot carry it across an integer unless it lies within far
    less than 1e-9 * max(1, |q|) of one.  So the floor of the numpy quotient
    stands wherever q is farther than that from every integer, and every
    other entry, non-finite ones included, is recomputed with ``math``; that
    also raises what ``math`` raises (x zero or infinite, log_ratio zero).
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x = factor * d
        q = np.log(x) / log_ratio
        near = ~(np.abs(q - np.rint(q)) > 1e-9 * np.maximum(1.0, np.abs(q)))
    out = np.floor(np.where(near, 0.0, q)).astype(np.int64)
    out[near] = [math.floor(math.log(v) / log_ratio) for v in x[near].tolist()]
    return out


def check_covering(
    trace: RunTrace,
    graph: WeightedGraph,
    params: SprParams,
) -> CoveringCheck:
    """Per-vertex coverage-timing columns and same-step spread groups."""
    if trace.terminal_ids != graph.terminals:
        raise GraphError("trace terminals do not match graph terminals")
    if params.k != graph.k:
        raise GraphError("params terminal count does not match graph")
    vertex, terminal, rounds = trace.cover_vertex, trace.cover_terminal, trace.cover_round
    n, k = len(vertex), graph.k
    if k < 2 or n == 0:
        f, i, b = np.empty(0), np.empty(0, np.int64), np.empty(0, bool)
        return CoveringCheck([], [], [], f, f, i, i, b, b, groups=())
    index = graph.index
    pos = np.fromiter(map(index.get, vertex, repeat(-1)), np.intp, n)
    if pos.min() < 0:
        unknown = sorted(set(vertex).difference(index))
        raise GraphError(
            f"trace covers vertices not in this graph (e.g. {unknown[:3]}); "
            "was the run preprocessed with subdivision? check against the "
            "subdivided graph"
        )
    d_near = np.frombuffer(graph._nearest_row)[pos]
    # terminals and rounds by rank in id and value order, exact for any
    # integer; a vertex that is no terminal ranks k and has no row
    term_ids = sorted(graph.terminals)
    tr = np.fromiter(map(dict(zip(term_ids, count())).get, terminal, repeat(k)), np.intp, n)
    round_values = sorted(set(rounds))
    rr = np.fromiter(map(dict(zip(round_values, count())).__getitem__, rounds), np.intp, n)

    # one sort by (terminal, round) serves the gather, each terminal's
    # events being one stretch of it, and the groups
    m = len(round_values)
    key = tr * m + rr
    order = np.argsort(key, kind="stable")
    row_of = dict(zip(graph.terminals, graph.terminal_distance_maps))
    d_cover = np.full(n, math.inf)
    start = 0
    for t, stop in zip(term_ids, np.cumsum(np.bincount(tr, minlength=k)).tolist()):
        at = order[start:stop]
        d_cover[at] = np.frombuffer(row_of[t])[pos[at]]
        start = stop
    bad = np.flatnonzero((d_cover == math.inf) | (d_near == 0.0))
    if bad.size:
        # the first unreachable vertex or covered terminal, in event order
        i = int(bad[0])
        if d_cover[i] == math.inf:
            raise GraphError(f"vertex {vertex[i]} is not reachable from {terminal[i]}")
        raise GraphError(f"trace covers terminal {vertex[i]}; terminals are never claimed")

    log_ratio = math.log(params.ratio)
    deadline = _floor_log(DEADLINE_FACTOR, d_near, log_ratio)
    early = _floor_log(params.early_factor, d_cover, log_ratio)
    clamped = [min(max(r, -_ROUND_CLAMP), _ROUND_CLAMP) for r in round_values]
    round_at = np.array(clamped, np.int64)[rr]

    # each (terminal, round) group's largest d(v, t) and smallest D(v)
    key = key[order]
    firsts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    hi = np.maximum.reduceat(d_cover[order], firsts)
    lo = np.minimum.reduceat(d_near[order], firsts)
    with np.errstate(over="ignore"):  # inf, as for Python floats
        ok = hi <= SPREAD_FACTOR * lo * (1 + 1e-9)
    group_t, group_r = np.divmod(key[firsts], m)
    groups = tuple(map(
        GroupSpread,
        map(term_ids.__getitem__, group_t.tolist()),
        map(round_values.__getitem__, group_r.tolist()),
        hi.tolist(), lo.tolist(), ok.tolist()))
    return CoveringCheck(vertex, terminal, rounds, d_cover, d_near, deadline, early,
                         round_at > deadline, round_at < early, groups)


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
    total = sum(len(c.vertex) for c in checks)
    late_v = sum(int(np.count_nonzero(c.covered_late)) for c in checks)
    early_v = sum(int(np.count_nonzero(c.covered_early)) for c in checks)
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
