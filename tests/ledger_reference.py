"""The per-interval ledger replay that ``sprkit.charging.reconstruct_ledger``
replaced.

After every charging step it recounts the slices of each touched interval
with a generator over the interval's vertices, copies every interval's slice
count, and checks each claim against the seen-flags one position at a time.
It is copied verbatim and is slow on purpose: the tests require the bulk
replay to give the same steps, detours, charges and cost, and to refuse the
same traces with the same ``LedgerError`` texts.
"""

from __future__ import annotations

import math

from sprkit.charging import ChargeStep, Detour, DetourLedger, IntervalPartition, LedgerError
from sprkit.engine import RunTrace, SprParams
from sprkit.graph import ClusterReplay, GraphError, WeightedGraph


def reference_reconstruct_ledger(
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
    the trace's, into later searches.  A trace whose radius events are not
    every (round, step) in order, or whose claims name another terminal than
    their step's, is refused with ``LedgerError``.
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
    if not trace.radius_steps_in_order():
        raise LedgerError("radius events do not enumerate every (round, step) in order")
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
        t_j = graph.terminals[j - 1]
        for _, _, t in runs:
            if t != t_j:
                raise LedgerError(f"cover event at step ({rnd},{j}) names terminal {t}, "
                                  f"expected {t_j}")
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

