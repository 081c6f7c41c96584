"""Interval partitions of terminal paths and the detour charging ledger.

For a terminal pair (t, t') we fix the canonical shortest path and cut its
interior into consecutive intervals.  Each interval Q starts at an anchor
vertex u and extends by the fewest vertices needed for its external length
(distance between the vertices just outside Q) to reach
(interval_factor * delta / ln k) * D(u); minimality keeps the internal
length (distance between Q's own endpoints) at or below the same bound.

Replaying a run trace against the path yields the charging ledger.  A step
that claims at least one still-active path vertex deactivates the whole
index span between the lowest and highest claimed active vertices (a
detour), charges the interval holding the active vertex that was cheapest
for the growing cluster to reach, and erases any older detour strictly
inside the new span together with its charge.  Slices are maximal runs of
active vertices inside one interval; a step that fails to wipe out its
trigger slice is labeled a failure.  The final cost is
f = sum over intervals of (surviving charges) * (external length).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

from .engine import RunTrace, SprParams
from .graph import ClusterReplay, GraphError, WeightedGraph, canonical_path

COST_BOUND_FACTOR = 43.0  # exceedance threshold for the final cost, in units of d(t, t')


class InteriorTerminalError(GraphError):
    """The canonical path passes through another terminal.

    Such pairs are handled by chaining the terminal-free subpairs along the
    path (triangle inequality), not by analyzing the pair directly.
    """

    def __init__(self, pair: tuple[int, int], terminal: int):
        super().__init__(
            f"path {pair[0]} -> {pair[1]} passes through terminal {terminal}; "
            "analyze consecutive terminal-free pairs instead"
        )
        self.pair = pair
        self.terminal = terminal


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
    intervals: tuple[Interval, ...]

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

    def sum_length_out(self) -> float:
        return sum(q.length_out for q in self.intervals)


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
    for v in path[1:-1]:
        if v in terminal_set:
            raise InteriorTerminalError((t, t_prime), v)

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


def reconstruct_ledger(
    trace: RunTrace,
    graph: WeightedGraph,
    partition: IntervalPartition,
    params: SprParams,
) -> DetourLedger:
    """Replay the trace in order and rebuild the full charging ledger.

    The minimal increments q_v are recomputed at replay time from the
    recorded pre-step state: q_v is the current region distance from the
    stepping terminal to v minus the cluster's pre-step radius.  Ties for
    the trigger vertex break toward the lowest path index.  Region distances
    come from ``graph.ClusterReplay``; every claiming step runs a ball search
    to the radius so that each claim carries the ledger's own distance, never
    the trace's, into later searches.
    """
    if trace.terminal_ids != graph.terminals:
        raise LedgerError("trace terminals do not match graph terminals")
    if trace.k != graph.k:
        raise LedgerError(f"trace terminal count {trace.k} does not match the graph's {graph.k}")
    if len(trace.radius_round) != trace.rounds * trace.k:
        raise LedgerError(
            f"trace has {len(trace.radius_round)} radius events for {trace.rounds} rounds "
            f"of {trace.k} steps"
        )
    vertex, index = trace.cover_vertex, graph.index
    unknown = set(vertex).difference(index)
    if unknown:
        raise LedgerError(
            f"trace covers vertices not in this graph (e.g. {sorted(unknown)[:3]}); "
            "was the run preprocessed with subdivision? analyze against the "
            "subdivided graph"
        )
    pos = [index[v] for v in vertex]
    path = partition.path
    # a path vertex outside the graph (a partition of another graph) is None
    path_pos = list(map(index.get, path))
    path_index = {p: i for i, p in enumerate(path_pos)}
    last = len(path) - 1
    active = [False] + [True] * (last - 1) + [False]  # indexed like path
    active_vertices = set(path_pos[1:-1])  # the position of path[i] for every active i
    interval_of = partition.interval_of_index
    n_intervals = partition.phi

    replay = ClusterReplay(graph)
    radii = {j: 0.0 for j in range(1, trace.k + 1)}
    charges = [0] * n_intervals
    slices = [1 if q.end >= q.start else 0 for q in partition.intervals]
    live: list[Detour] = []
    detours: list[Detour] = []
    steps: list[ChargeStep] = []
    runs_by_step = trace.runs_by_step()
    ratio = params.ratio
    extra = partition.max_length_in * (1 + 1e-9) + 1e-15

    def slice_count(qi: int) -> int:
        # the maximal active runs inside interval qi
        q = partition.intervals[qi]
        run = active[q.start:q.end + 1]
        return sum(on and not before for on, before in zip(run, [False, *run]))

    seen_cover = bytearray(graph.n)
    live_span_total = 0
    for rnd, j, q_step in zip(trace.radius_round, trace.radius_step, trace.radius_q):
        pre_radius = radii[j]
        radii[j] += q_step
        runs = runs_by_step.get((rnd, j))
        if not runs:
            continue
        claimed = [p for start, stop, _ in runs for p in pos[start:stop]]
        for p in claimed:
            if seen_cover[p]:
                raise LedgerError(f"vertex {graph.vertices[p]} covered twice in trace")
            seen_cover[p] = 1
        # the claims' distances, which seed later steps' searches
        ball, _ = replay.search(j, limit=radii[j])
        newly_active = [path_index[p] for p in claimed if p in active_vertices]
        if not newly_active:
            replay.claim(j, claimed, ball)
            continue

        # charging step: find the trigger vertex from the pre-step state
        t_j = graph.terminals[j - 1]
        _, stops = replay.search(j, stop=active_vertices, extra=extra)
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
        q_int = partition.intervals[qi]
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

        pre_slices = list(slices)
        erased_ids = []
        for d in live:
            if a < d.a and d.b < b:
                d.erased = True
                charges[d.trigger_interval] -= 1
                live_span_total -= d.b - d.a + 1
                erased_ids.append(d.ident)
        live = [d for d in live if not d.erased]
        for idx in range(a, b + 1):
            active[idx] = False
            active_vertices.discard(path_pos[idx])
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
        # strictly shrinks the trigger interval's count
        lo_int = interval_of[a]
        hi_int = interval_of[b]
        touched = []
        for qidx in range(lo_int, hi_int + 1):
            slices[qidx] = slice_count(qidx)
            touched.append((qidx, slices[qidx]))
            if qidx != qi and slices[qidx] > pre_slices[qidx]:
                raise LedgerError(
                    f"interval {qidx} gained a slice at step ({rnd},{j})"
                )
        if slices[qi] > pre_slices[qi] + 1:
            raise LedgerError(
                f"trigger interval {qi} gained more than one slice at "
                f"step ({rnd},{j})"
            )
        success = q_step >= q_slice
        if success and not slices[qi] < pre_slices[qi]:
            raise LedgerError(
                f"successful step ({rnd},{j}) did not shrink the trigger "
                "interval's slice count"
            )

        d_trig = graph.terminal_distance_maps[j - 1][path_pos[trigger_idx]]
        if d_trig == math.inf:
            raise GraphError(f"vertex {path[trigger_idx]} is not reachable from {t_j}")
        qualifies = rnd >= math.log(params.early_factor * d_trig) / math.log(ratio)
        steps.append(
            ChargeStep(
                detour_id=det.ident, round=rnd, step=j, terminal=t_j,
                a=a, b=b, trigger_vertex=trigger_idx, trigger_interval=qi,
                q_step=q_step, q_trigger=q_trigger, q_slice=q_slice,
                dist_trigger_terminal=d_trig, qualifies=qualifies,
                success=success, erased_ids=tuple(erased_ids),
                slices_after=tuple(touched),
            )
        )
        replay.claim(j, claimed, ball)

    missing = [v for v, j in zip(graph.vertices, replay.owner) if not j]
    if missing:
        raise LedgerError(f"trace is incomplete; vertices never covered: {missing[:5]}")

    cost = sum(
        c * q.length_out for c, q in zip(charges, partition.intervals)
    )
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


def cost_bound_check(
    ledgers: list[DetourLedger], factor: float = COST_BOUND_FACTOR
) -> CostBoundResult:
    """Rate of final cost >= factor * d(t, t') across runs of one pair.

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
    exceed = sum(1 for led in ledgers if led.cost >= factor * delta)
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
