"""Interval partitions of terminal paths and the detour charging ledger.

For a terminal pair (t, t') we fix the canonical shortest path and cut its
interior into consecutive intervals.  Each interval Q starts at an anchor
vertex u and extends by the fewest vertices needed for its external length
(distance between the vertices just outside Q) to reach
(interval_factor * delta / ln k) * D(u); minimality keeps the internal
length (distance between Q's own endpoints) at or below the same bound.

The charging ledger charges a run's claiming steps along the path.  The
steps come from ``verify.replay_trace``, so a trace verify rejects is
refused.  Each holds its ball, the recorded one on a certified trace and
the step replay's otherwise; on a trace verify accepts the two agree.  The
ledger claims the balls on a replay of its own, on which its trigger
searches run.  A step that claims at least one
still-active path vertex deactivates the whole index span between the
lowest and highest claimed active vertices (a detour), charges the
interval holding the active vertex that was cheapest for the growing
cluster to reach, and erases any older detour strictly inside the new
span together with its charge.  Slices are
maximal runs of active vertices inside one interval; a step that fails to
wipe out its trigger slice is labeled a failure.  The final cost is
f = sum over intervals of (surviving charges) * (external length).

The slice bookkeeping reads the active flags as one bytearray.  A detour
deactivates its span with one slice assignment, and since the intervals lie
consecutively along the path, every interval strictly between the span's
end intervals lies inside it and ends with no slice.  So a step counts the
slices (runs of set flags, found with ``bytes.count``) of the end intervals
and the trigger interval only, before and after the span goes; the touched
intervals in between are 0.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from operator import mul

from .engine import RunTrace, SprParams
from .graph import ClusterReplay, GraphError, WeightedGraph, canonical_path
from .verify import replay_trace

COST_BOUND_FACTOR = 43.0  # exceedance threshold for the final cost, in units of d(t, t')


class InteriorTerminalError(GraphError):
    """The canonical path passes through another terminal.

    Such pairs are handled by chaining the terminal-free subpairs along the
    path (triangle inequality), not by analyzing the pair directly.
    """

    def __init__(self, pair: tuple[int, int], terminals: tuple[int, ...]):
        super().__init__(
            f"path {pair[0]} -> {pair[1]} passes through terminals "
            f"{', '.join(map(str, terminals))}; analyze consecutive terminal-free pairs instead"
        )
        self.pair = pair
        self.terminals = terminals  # every interior terminal, in path order


class LedgerError(GraphError):
    """Trace inconsistent with the graph or path state during replay."""


@dataclass(frozen=True)
class Interval:
    start: int        # path index of the first vertex (anchor)
    end: int          # path index of the last vertex, inclusive
    anchor: int       # = start, the vertex whose distance sets the bound
    length_in: float  # distance between the interval's own endpoints
    length_out: float  # distance between the vertices just outside it
    bound: float      # (interval_factor * delta / ln k) * D(anchor)


@dataclass(frozen=True, eq=False)
class IntervalPartition:
    pair: tuple[int, int]            # terminal vertex ids (t, t')
    path: tuple[int, ...]            # full canonical path, t .. t'
    positions: tuple[float, ...]     # cumulative distance along the path
    intervals: tuple[Interval, ...]  # consecutive along the path; empty if end < start

    @property
    def phi(self) -> int:
        return len(self.intervals)

    @property
    def total_length(self) -> float:
        """d(t, t'): the full path length."""
        return self.positions[-1]

    @property
    def interior_size(self) -> int:
        return len(self.path) - 2

    @cached_property
    def interval_of_index(self) -> dict[int, int]:
        out = {}
        for qi, q in enumerate(self.intervals):
            for idx in range(q.start, q.end + 1):
                out[idx] = qi
        return out

    @cached_property
    def max_length_in(self) -> float:
        return max((q.length_in for q in self.intervals), default=0.0)

    @cached_property
    def lengths_out(self) -> tuple[float, ...]:
        return tuple(q.length_out for q in self.intervals)

    def sum_length_out(self) -> float:
        return sum(self.lengths_out)


def build_interval_partition(
    graph: WeightedGraph,
    t: int,
    t_prime: int,
    params: SprParams,
) -> IntervalPartition:
    """Greedy left-to-right sweep of the canonical path interior.

    After covering the prefix up to v_{h-1}, the next interval anchors at
    v_h and takes the minimal s >= 0 with external length of
    {v_h .. v_{h+s}} at least bound(v_h).  Both defining inequalities
    (internal <= bound <= external) hold for every emitted interval.
    """
    if t == t_prime:
        raise GraphError("pair must be two distinct terminals")
    for v in (t, t_prime):
        if v not in graph.terminals:
            raise GraphError(f"vertex {v} is not a terminal")
    if params.k != graph.k or graph.k < 2:
        raise GraphError("params must match a graph with at least two terminals")
    path, positions = canonical_path(graph, t, t_prime)
    terminal_set = set(graph.terminals)
    interior = tuple(v for v in path[1:-1] if v in terminal_set)
    if interior:
        raise InteriorTerminalError((t, t_prime), interior)

    index, nearest = graph.index, graph._nearest_row
    coef = params.interval_factor * params.delta / math.log(graph.k)

    intervals: list[Interval] = []
    last = len(path) - 1  # index of t'
    h = 1
    while h <= last - 1:
        bound = coef * nearest[index[path[h]]]
        s = 0
        # minimal s with positions[h+s+1] - positions[h-1] >= bound; the
        # full remainder always qualifies because it reaches past t'.
        while h + s <= last - 1 and positions[h + s + 1] - positions[h - 1] < bound:
            s += 1
        end = min(h + s, last - 1)
        intervals.append(
            Interval(
                start=h,
                end=end,
                anchor=h,
                length_in=positions[end] - positions[h],
                length_out=positions[end + 1] - positions[h - 1],
                bound=bound,
            )
        )
        h = end + 1
    return IntervalPartition(
        pair=(t, t_prime),
        path=tuple(path),
        positions=tuple(positions),
        intervals=tuple(intervals),
    )


@dataclass
class Detour:
    ident: int
    a: int                 # lowest path index deactivated by the step
    b: int                 # highest path index deactivated by the step
    round: int
    step: int
    terminal: int
    trigger_vertex: int    # path index of the cheapest-to-reach active vertex
    trigger_interval: int
    erased: bool = False


@dataclass(frozen=True)
class ChargeStep:
    detour_id: int
    round: int
    step: int
    terminal: int
    a: int
    b: int
    trigger_vertex: int      # path index
    trigger_interval: int
    q_step: float            # the step's sampled increment
    q_trigger: float         # minimal increment that reaches the trigger vertex
    q_slice: float           # minimal increment that deactivates the whole trigger slice
    dist_trigger_terminal: float  # graph distance d(trigger vertex, stepping terminal)
    qualifies: bool          # round >= log_ratio(early_factor * that distance)
    success: bool            # q_step >= q_slice
    erased_ids: tuple[int, ...]
    slices_after: tuple[tuple[int, int], ...]  # (interval, live slice count) for touched intervals


@dataclass
class DetourLedger:
    partition: IntervalPartition
    steps: list[ChargeStep]
    detours: list[Detour]
    final_charges: list[int]       # surviving detour count per interval
    cost: float                    # sum of charges weighted by external lengths

    @property
    def surviving(self) -> list[Detour]:
        return [d for d in self.detours if not d.erased]

    def tiles_interior(self) -> bool:
        """Surviving detours must cover the interior consecutively, no overlap."""
        spans = sorted((d.a, d.b) for d in self.surviving)
        expect = 1
        for a, b in spans:
            if a != expect or b < a:
                return False
            expect = b + 1
        return expect == len(self.partition.path) - 1


def _runs_in(active: bytearray, q: Interval) -> int:
    """The slices of interval ``q``: maximal runs of set ``active`` flags."""
    flags = active[q.start:q.end + 1]
    return flags.count(b"\0\1") + flags.startswith(b"\1")


def reconstruct_ledger(trace: RunTrace, graph: WeightedGraph, partition: IntervalPartition,
                       params: SprParams) -> DetourLedger:
    """The charging ledger of ``trace``: its claiming steps, replayed by
    ``verify.replay_trace`` without the seeded-stream check, charged by
    ``charge_steps``.  A trace the replay finds any fault in is refused with
    ``LedgerError`` naming the first."""
    violations, steps = replay_trace(graph, trace)
    if violations:
        raise LedgerError(violations[0])
    return charge_steps(steps, graph, partition, params)


def charge_steps(claiming: list[tuple], graph: WeightedGraph, partition: IntervalPartition,
                 params: SprParams) -> DetourLedger:
    """Charge the claiming steps of a trace verify accepts, as
    ``verify.replay_trace`` returns them, in order, and rebuild the ledger.

    The minimal increments q_v are recomputed from the pre-step state: q_v
    is the region distance from the stepping terminal to v, searched on the
    ledger's own ``ClusterReplay`` before the step's claims, minus the
    cluster's pre-step radius.  Ties for the trigger vertex break toward the
    lowest path index.  The ledger's own refusals are its bookkeeping checks:
    a trigger that is missing, inside the pre-step radius, outside its
    detour's span or unreachable from its terminal (``GraphError``), live
    detours out of step with the active vertices, and three slice checks.
    """
    path = partition.path
    # a path vertex outside the graph (a partition of another graph) is None
    path_pos = list(map(graph.index.get, path))
    path_index = dict(zip(path_pos, range(len(path))))
    last = len(path) - 1
    active = bytearray(b"\0" + b"\1" * (last - 1) + b"\0")  # flags indexed like path
    active_vertices = set(path_pos[1:-1])  # the position of path[i] for every active i
    intervals, interval_of = partition.intervals, partition.interval_of_index

    charges = [0] * partition.phi
    live: list[Detour] = []
    detours: list[Detour] = []
    steps: list[ChargeStep] = []
    extra = partition.max_length_in * (1 + 1e-9) + 1e-15

    replay = ClusterReplay(graph)
    live_span_total = 0
    for rnd, j, q_step, pre_radius, claimed, claimed_dist in claiming:
        newly_active = [path_index[p] for p in active_vertices.intersection(claimed)]
        if newly_active:  # the trigger search runs on the pre-step state
            _, stops = replay.search(j, stop=active_vertices, extra=extra)
        replay.claim(j, claimed, dict(zip(claimed, claimed_dist)))
        if not newly_active:
            continue

        # charging step: the trigger vertex
        t_j = graph.terminals[j - 1]
        if not stops:
            raise LedgerError(
                f"step ({rnd},{j}) covers active path vertices but none "
                "is reachable in the replayed pre-step state"
            )
        first = stops[0][1]
        stop_at = [(path_index[p], d) for p, d in stops]
        trigger_idx = min(i for i, d in stop_at if d == first)
        q_trigger = first - pre_radius
        if q_trigger < -1e-9:
            raise LedgerError("trigger vertex was already inside the pre-step radius")
        qi = interval_of[trigger_idx]

        # trigger slice: maximal active run inside the trigger interval
        q_int = intervals[qi]
        s_lo = trigger_idx
        while s_lo - 1 >= q_int.start and active[s_lo - 1]:
            s_lo -= 1
        s_hi = trigger_idx
        while s_hi + 1 <= q_int.end and active[s_hi + 1]:
            s_hi += 1
        # deactivating the whole slice needs one claimed active vertex at or
        # left of its left end and one at or right of its right end
        left_candidates = [d for i, d in stop_at if i <= s_lo]
        right_candidates = [d for i, d in stop_at if i >= s_hi]
        if not left_candidates or not right_candidates:
            q_slice = math.inf
        else:
            q_slice = max(min(left_candidates), min(right_candidates)) - pre_radius

        a = min(newly_active)
        b = max(newly_active)
        if not (a <= trigger_idx <= b):
            raise LedgerError("trigger vertex not inside the step's detour span")

        erased_ids = []
        for d in live:
            if a < d.a and d.b < b:
                d.erased = True
                charges[d.trigger_interval] -= 1
                live_span_total -= d.b - d.a + 1
                erased_ids.append(d.ident)
        live = [d for d in live if not d.erased]
        # slices before the step, in the intervals the bookkeeping counts
        lo_int, hi_int = interval_of[a], interval_of[b]
        counted = sorted({lo_int, qi, hi_int})
        pre = {qidx: _runs_in(active, intervals[qidx]) for qidx in counted}
        active[a:b + 1] = bytes(b - a + 1)
        active_vertices.difference_update(path_pos[a:b + 1])
        det = Detour(
            ident=len(detours), a=a, b=b, round=rnd, step=j, terminal=t_j,
            trigger_vertex=trigger_idx, trigger_interval=qi,
        )
        detours.append(det)
        live.append(det)
        charges[qi] += 1
        live_span_total += b - a + 1
        # active vertices are always the interior minus the live detours
        if len(active_vertices) + live_span_total != last - 1:
            raise LedgerError(
                f"live detours and active vertices fell out of step at "
                f"({rnd},{j})"
            )

        # slice bookkeeping: only intervals touched by the span can change,
        # none but the trigger interval may gain a slice, and a success
        # strictly shrinks the trigger interval's count.  The intervals
        # strictly between the span's end intervals lie inside the span and
        # keep no slice, so only the end and trigger intervals are counted.
        after = dict.fromkeys(range(lo_int, hi_int + 1), 0)
        for qidx in counted:
            after[qidx] = _runs_in(active, intervals[qidx])
        for qidx in counted:
            if qidx != qi and after[qidx] > pre[qidx]:
                raise LedgerError(
                    f"interval {qidx} gained a slice at step ({rnd},{j})"
                )
        if after[qi] > pre[qi] + 1:
            raise LedgerError(
                f"trigger interval {qi} gained more than one slice at "
                f"step ({rnd},{j})"
            )
        success = q_step >= q_slice
        if success and not after[qi] < pre[qi]:
            raise LedgerError(
                f"successful step ({rnd},{j}) did not shrink the trigger "
                "interval's slice count"
            )

        d_trig = graph.terminal_distance_maps[j - 1][path_pos[trigger_idx]]
        if d_trig == math.inf:
            raise GraphError(f"vertex {path[trigger_idx]} is not reachable from {t_j}")
        qualifies = rnd >= math.log(params.early_factor * d_trig) / math.log(params.ratio)
        steps.append(
            ChargeStep(
                detour_id=det.ident, round=rnd, step=j, terminal=t_j,
                a=a, b=b, trigger_vertex=trigger_idx, trigger_interval=qi,
                q_step=q_step, q_trigger=q_trigger, q_slice=q_slice,
                dist_trigger_terminal=d_trig, qualifies=qualifies,
                success=success, erased_ids=tuple(erased_ids),
                slices_after=tuple(after.items()),
            )
        )

    cost = sum(map(mul, charges, partition.lengths_out))
    return DetourLedger(
        partition=partition,
        steps=steps,
        detours=detours,
        final_charges=charges,
        cost=cost,
    )


@dataclass(frozen=True)
class FailureRateResult:
    qualifying_steps: int
    failures: int
    fraction: float | None
    ci95: tuple[float, float] | None

    def to_json_dict(self) -> dict:
        return {**asdict(self), "ci95": list(self.ci95) if self.ci95 else None}


def failure_rate(ledgers: list[DetourLedger]) -> FailureRateResult:
    """Pooled failure fraction over qualifying charging steps, with a 95% CI.

    Steps qualify when their round is at least log_ratio(early_factor *
    d(trigger, terminal)).  Zero qualifying steps is reported, not an error.
    """
    qualifying = [s for led in ledgers for s in led.steps if s.qualifies]
    n = len(qualifying)
    if n == 0:
        return FailureRateResult(0, 0, None, None)
    failures = sum(1 for s in qualifying if not s.success)
    p = failures / n
    half = 1.96 * math.sqrt(max(p * (1 - p), 1e-12) / n)
    return FailureRateResult(n, failures, p, (max(0.0, p - half), min(1.0, p + half)))


@dataclass(frozen=True)
class CostBoundResult:
    runs: int
    exceedances: int
    rate: float
    ci95: tuple[float, float]
    pair_distance: float
    sum_external: float
    structural_ok: bool  # pair distance <= sum of external lengths <= twice that

    def to_json_dict(self) -> dict:
        return {**asdict(self), "ci95": list(self.ci95)}


def cost_bound_check(ledgers: list[DetourLedger]) -> CostBoundResult:
    """Rate of final cost >= COST_BOUND_FACTOR * d(t, t') across runs of one pair.

    Also checks the structural identity that the external lengths of the
    intervals cover every path edge at least once and at most twice.
    """
    if not ledgers:
        raise GraphError("no ledgers given")
    part = ledgers[0].partition
    for led in ledgers:
        other = led.partition
        if (
            other.pair != part.pair
            or other.path != part.path
            or other.positions != part.positions
        ):
            raise GraphError("ledgers mix different terminal pairs or graphs")
    delta = part.total_length
    exceed = sum(1 for led in ledgers if led.cost >= COST_BOUND_FACTOR * delta)
    n = len(ledgers)
    rate = exceed / n
    half = 1.96 * math.sqrt(max(rate * (1 - rate), 1e-12) / n)
    sum_out = part.sum_length_out()
    if part.interior_size == 0:
        # adjacent terminals: no intervals exist and the identity is vacuous
        structural_ok = True
    else:
        structural_ok = delta * (1 - 1e-9) <= sum_out <= 2 * delta * (1 + 1e-9)
    return CostBoundResult(
        runs=n,
        exceedances=exceed,
        rate=rate,
        ci95=(max(0.0, rate - half), min(1.0, rate + half)),
        pair_distance=delta,
        sum_external=sum_out,
        structural_ok=structural_ok,
    )
