import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    coarse_subdivided_random,
    fine_pair_graph,
    make_trace,
    path_t_s_t,
    random_connected_graph,
    trace_with_events,
)
from ledger_reference import reference_reconstruct_ledger
from paths_reference import shortest_paths
from sprkit import (
    SprParams,
    build_interval_partition,
    check_covering,
    cost_bound_check,
    failure_rate,
    normalized_to_unit_nearest,
    reconstruct_ledger,
    run_spr,
    verify_trace,
)
from sprkit.charging import (
    Detour,
    DetourLedger,
    Interval,
    IntervalPartition,
    InteriorTerminalError,
    LedgerError,
)
from sprkit.graph import GraphError, WeightedGraph, canonical_path, subdivide_edges

REL = 1e-9


def _trace(graph, radius_events, cover_events, rounds):
    """A trace of the given events whose radii are the float sums of their
    cluster's increments; the written radii only approximate those."""
    radii = dict.fromkeys(range(1, graph.k + 1), 0.0)
    summed = []
    for rnd, j, q, written in radius_events:
        radii[j] += q
        assert radii[j] == pytest.approx(written)
        summed.append((rnd, j, q, radii[j]))
    return make_trace(0.05, 0, graph.k, graph.terminals, summed, cover_events, rounds)


# --- interval partition -----------------------------------------------------


@pytest.mark.parametrize("build, pair", [
    (lambda: fine_pair_graph(8, seed=5, fineness=0.6), (0, 8)),
    (lambda: coarse_subdivided_random(6, seed=3, threshold=0.05)[0], (2, 5)),
])
def test_analysis_builds_no_id_keyed_view(build, pair):
    # verify, covering, the canonical path, the partition, the ledger and the
    # unit rescaling all read positions, like the run path
    g = build()
    params = SprParams.for_graph(g, seed=1)
    _, trace = run_spr(g, params)
    assert verify_trace(g, trace, params).ok
    check_covering(trace, g, params)
    canonical_path(g, *pair)
    partition = build_interval_partition(g, *pair, params)
    reconstruct_ledger(trace, g, partition, params)
    normalized_to_unit_nearest(g)
    assert "adjacency" not in g.__dict__
    assert "nearest_terminal_distance" not in g.__dict__


@pytest.mark.parametrize("build, pair", [
    *((lambda seed=seed: fine_pair_graph(8, seed=seed), (0, 8)) for seed in (3, 5, 7)),
    (lambda: coarse_subdivided_random(6, seed=3, threshold=0.05)[0], (2, 5)),
])
def test_partition_path_is_reference_canonical_path(build, pair):
    g = build()
    part = build_interval_partition(g, *pair, SprParams.for_graph(g))
    ref = shortest_paths(g, pair[0])
    assert part.path == tuple(ref.path_to(pair[1]))
    assert part.positions == tuple(ref.dist[v] for v in part.path)


def test_single_interior_vertex_single_interval():
    g = path_t_s_t()
    part = build_interval_partition(g, 0, 2, SprParams.for_graph(g))
    assert part.phi == 1
    q = part.intervals[0]
    assert (q.start, q.end) == (1, 1)
    assert q.length_in == 0.0
    assert q.length_in <= q.bound <= q.length_out


def test_unit_path_partition_hand_swept():
    # five interior vertices, unit edges: every greedy interval is a single
    # vertex because one step of external length (2.0) already exceeds the
    # bound, which is at most (1/600/ln 2) * 3
    edges = [(i, i + 1, 1.0) for i in range(6)]
    g = WeightedGraph.build(range(7), edges, [0, 6])
    p = SprParams.for_graph(g)
    part = build_interval_partition(g, 0, 6, p)
    assert part.phi == 5
    coef = p.interval_factor * p.delta / math.log(2)
    expected_d = [1.0, 2.0, 3.0, 2.0, 1.0]
    for q, d in zip(part.intervals, expected_d):
        assert q.start == q.end
        assert q.length_in == 0.0
        assert q.length_out == pytest.approx(2.0)
        assert q.bound == pytest.approx(coef * d)
    assert part.sum_length_out() == pytest.approx(10.0)
    assert part.total_length == pytest.approx(6.0)
    assert 6.0 <= part.sum_length_out() <= 12.0


def test_partition_defining_inequalities_on_fine_graph():
    g = fine_pair_graph(8, seed=3, fineness=0.5)
    p = SprParams.for_graph(g)
    part = build_interval_partition(g, 0, 8, p)
    nearest = g.nearest_terminal_distance
    coef = p.interval_factor * p.delta / math.log(g.k)
    assert part.phi > 100
    for q in part.intervals:
        anchor_vertex = part.path[q.anchor]
        assert q.bound == pytest.approx(coef * nearest[anchor_vertex], rel=REL)
        assert q.length_in <= q.bound * (1 + REL)
        assert q.bound <= q.length_out * (1 + REL)
    # intervals tile the interior in order
    expect = 1
    for q in part.intervals:
        assert q.start == expect
        expect = q.end + 1
    assert expect == len(part.path) - 1


def test_adjacent_terminal_pair_has_empty_partition():
    g = WeightedGraph.build([0, 1, 2], [(0, 1, 1.0), (1, 2, 1.0)], [0, 1])
    p = SprParams.for_graph(g)
    part = build_interval_partition(g, 0, 1, p)
    assert part.phi == 0
    assert part.interior_size == 0
    # terminal 1 lies between terminal 0 and vertex 2, so 2 joins cluster 2
    trace = _trace(
        g,
        [(0, 1, 2.5, 2.5), (0, 2, 1.5, 1.5)],
        [(2, 1, 0, 2, 1.0)],
        rounds=1,
    )
    ledger = reconstruct_ledger(trace, g, part, p)
    assert ledger.steps == []
    assert ledger.cost == 0.0
    assert ledger.tiles_interior()
    assert cost_bound_check([ledger]).structural_ok  # vacuous identity


def test_interior_terminal_rejected():
    g = WeightedGraph.build([0, 1, 2], [(0, 1, 1.0), (1, 2, 1.0)], [0, 2, 1])
    with pytest.raises(InteriorTerminalError):
        build_interval_partition(g, 0, 2, SprParams.for_graph(g))


def test_pair_must_be_distinct_terminals():
    g = path_t_s_t()
    p = SprParams.for_graph(g)
    with pytest.raises(Exception):
        build_interval_partition(g, 0, 0, p)
    with pytest.raises(Exception):
        build_interval_partition(g, 0, 1, p)


# --- ledger: frozen hand-traced scenarios -----------------------------------


def test_single_step_full_coverage_single_charge():
    # one step claims the whole interior: one detour, one charge, cost equals
    # the trigger interval's external length
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]
    g = WeightedGraph.build(range(4), edges, [0, 3])
    p = SprParams.for_graph(g)
    part = build_interval_partition(g, 0, 3, p)
    assert part.phi == 2
    trace = _trace(
        g,
        [(0, 1, 2.5, 2.5), (0, 2, 0.1, 0.1)],
        [(1, 0, 0, 1, 1.0), (2, 0, 0, 1, 2.0)],
        rounds=1,
    )
    ledger = reconstruct_ledger(trace, g, part, p)
    assert len(ledger.detours) == 1
    assert (ledger.detours[0].a, ledger.detours[0].b) == (1, 2)
    assert ledger.detours[0].trigger_interval == 0
    assert ledger.final_charges == [1, 0]
    assert ledger.cost == pytest.approx(part.intervals[0].length_out)
    assert ledger.tiles_interior()
    step = ledger.steps[0]
    assert step.success
    assert step.q_trigger == pytest.approx(1.0)
    assert step.q_slice == pytest.approx(1.0)


def _engulf_instance():
    # unit path 0..6 between terminals 0 and 6; terminal 7 reaches vertices
    # 1 and 5 through weight-3 spokes, terminal 8 reaches vertex 3 through a
    # weight-2 spoke; spokes are heavy enough not to shortcut the path
    edges = [(i, i + 1, 1.0) for i in range(6)]
    edges += [(1, 7, 3.0), (5, 7, 3.0), (3, 8, 2.0)]
    g = WeightedGraph.build(range(9), edges, [0, 6, 7, 8])
    radius = [
        (0, 1, 0.2, 0.2), (0, 2, 0.2, 0.2), (0, 3, 0.2, 0.2), (0, 4, 0.1, 0.1),
        (1, 1, 0.2, 0.4), (1, 2, 0.2, 0.4), (1, 3, 0.2, 0.4), (1, 4, 1.95, 2.05),
        (2, 1, 0.1, 0.5), (2, 2, 0.1, 0.5), (2, 3, 3.0, 3.4), (2, 4, 0.1, 2.15),
        (3, 1, 0.05, 0.55), (3, 2, 0.05, 0.55), (3, 3, 0.8, 4.2), (3, 4, 0.01, 2.16),
    ]
    cover = [
        (3, 8, 1, 4, 2.0),             # middle vertex claimed first
        (1, 7, 2, 3, 3.0), (5, 7, 2, 3, 3.0),  # engulfing claim
        (2, 7, 3, 3, 4.0), (4, 7, 3, 3, 4.0),  # leftovers, already inactive
    ]
    return g, _trace(g, radius, cover, rounds=4)


def test_engulfed_detour_erased_and_uncharged():
    g, trace = _engulf_instance()
    p = SprParams.for_graph(g)
    part = build_interval_partition(g, 0, 6, p)
    assert part.phi == 5
    ledger = reconstruct_ledger(trace, g, part, p)

    assert len(ledger.detours) == 2
    first, second = ledger.detours
    assert (first.a, first.b) == (3, 3)
    assert first.erased
    assert (second.a, second.b) == (1, 5)
    assert not second.erased
    # the engulfed interval keeps no charge to the end
    assert ledger.final_charges == [1, 0, 0, 0, 0]
    assert ledger.cost == pytest.approx(part.intervals[0].length_out)
    assert ledger.tiles_interior()

    engulfing = ledger.steps[1]
    assert engulfing.erased_ids == (0,)
    assert engulfing.trigger_vertex == 1  # tie at distance 3 breaks low
    assert engulfing.success
    assert engulfing.q_trigger == pytest.approx(2.6)


def _failure_instance():
    # heavy half-unit shoulders around three finely spaced vertices; the
    # side terminal 7 sits 0.6 from the middle one and claims it alone,
    # splitting the three-vertex slice without deactivating it
    e = 2.4e-4
    edges = [
        (0, 1, 0.5), (1, 2, e), (2, 3, e), (3, 4, e), (4, 5, e), (5, 6, 0.5),
        (7, 3, 0.6),
    ]
    g = WeightedGraph.build(range(8), edges, [0, 6, 7])
    radius = [
        (0, 1, 0.001, 0.001), (0, 2, 0.001, 0.001), (0, 3, 0.6001, 0.6001),
        (1, 1, 0.7, 0.701), (1, 2, 0.7, 0.701), (1, 3, 0.0001, 0.6002),
    ]
    cover = [
        (3, 7, 0, 3, 0.6),
        (1, 0, 1, 1, 0.5), (2, 0, 1, 1, 0.5 + e),
        (5, 6, 1, 2, 0.5), (4, 6, 1, 2, 0.5 + e),
    ]
    return g, e, _trace(g, radius, cover, rounds=2)


def test_partial_slice_coverage_is_failure_with_bounded_slice_growth():
    g, e, trace = _failure_instance()
    p = SprParams.for_graph(g)
    part = build_interval_partition(g, 0, 6, p)
    assert [(q.start, q.end) for q in part.intervals] == [(1, 1), (2, 4), (5, 5)]

    ledger = reconstruct_ledger(trace, g, part, p)
    assert len(ledger.steps) == 3
    split_step, left_step, right_step = ledger.steps

    assert not split_step.success                      # trigger slice survives
    assert split_step.trigger_interval == 1
    assert split_step.q_slice == pytest.approx(0.6 + e)
    assert split_step.q_step == pytest.approx(0.6001)
    assert (split_step.a, split_step.b) == (3, 3)

    assert left_step.success and right_step.success
    assert ledger.final_charges == [1, 1, 1]
    assert ledger.tiles_interior()
    expected_cost = sum(q.length_out for q in part.intervals)
    assert ledger.cost == pytest.approx(expected_cost)

    rate = failure_rate([ledger])
    assert rate.qualifying_steps == 3
    assert rate.failures == 1
    assert rate.fraction == pytest.approx(1 / 3)


def test_cost_bound_structural_identity():
    g, _, trace = _failure_instance()
    p = SprParams.for_graph(g)
    part = build_interval_partition(g, 0, 6, p)
    ledger = reconstruct_ledger(trace, g, part, p)
    res = cost_bound_check([ledger])
    assert res.structural_ok
    assert res.pair_distance <= res.sum_external <= 2 * res.pair_distance
    assert res.rate == 0.0


def test_cost_bound_rejects_mixed_pairs():
    g1, _, trace1 = _failure_instance()
    p1 = SprParams.for_graph(g1)
    part1 = build_interval_partition(g1, 0, 6, p1)
    led1 = reconstruct_ledger(trace1, g1, part1, p1)
    g2, trace2 = _engulf_instance()
    p2 = SprParams.for_graph(g2)
    part2 = build_interval_partition(g2, 0, 6, p2)
    led2 = reconstruct_ledger(trace2, g2, part2, p2)
    with pytest.raises(Exception):
        cost_bound_check([led1, led2])


def test_ledger_rejects_double_coverage():
    g = path_t_s_t()
    p = SprParams.for_graph(g)
    part = build_interval_partition(g, 0, 2, p)
    trace = _trace(
        g,
        [(0, 1, 1.5, 1.5), (0, 2, 0.1, 0.1)],
        [(1, 0, 0, 1, 1.0), (1, 0, 0, 1, 1.0)],
        rounds=1,
    )
    with pytest.raises(LedgerError, match="^vertex 1 covered twice$"):
        reconstruct_ledger(trace, g, part, p)
    _assert_ledger_matches_reference(trace, g, part, p)


def test_ledger_rejects_incomplete_trace():
    g = path_t_s_t()
    p = SprParams.for_graph(g)
    part = build_interval_partition(g, 0, 2, p)
    trace = _trace(g, [(0, 1, 0.1, 0.1), (0, 2, 0.1, 0.1)], [], rounds=1)
    with pytest.raises(LedgerError, match=r"^vertex 1 never covered$"):
        reconstruct_ledger(trace, g, part, p)
    _assert_ledger_matches_reference(trace, g, part, p)


def test_ledger_rejects_cover_events_of_no_step():
    # every vertex is covered, but only in round 5 of a one-round trace, so
    # the replay never claims vertex 1
    g = path_t_s_t()
    p = SprParams.for_graph(g)
    part = build_interval_partition(g, 0, 2, p)
    trace = _trace(g, [(0, 1, 0.1, 0.1), (0, 2, 0.1, 0.1)], [(1, 0, 5, 1, 1.0)], rounds=1)
    refusal = "cover events at step (5,1) have no radius event"
    assert verify_trace(g, trace).violations == (refusal,)
    with pytest.raises(LedgerError, match=rf"^{re.escape(refusal)}$"):
        reconstruct_ledger(trace, g, part, p)
    _assert_ledger_matches_reference(trace, g, part, p)


@pytest.mark.parametrize("terminals, covers, refusal", [
    ((2, 0), [(1, 0, 0, 1, 1.0)], r"^trace terminals do not match graph terminals$"),
    pytest.param((0, 2), [(1, 0, 0, 1, 1.0), (99, 0, 0, 1, 2.0)],
                 r"^cover event for unknown vertex 99$", id="unknown-vertex"),
])
def test_ledger_rejects_trace_of_another_graph(terminals, covers, refusal):
    g = path_t_s_t()
    p = SprParams.for_graph(g)
    part = build_interval_partition(g, 0, 2, p)
    trace = make_trace(0.05, 0, g.k, terminals, [(0, 1, 1.5, 1.5), (0, 2, 0.1, 0.1)], covers,
                       rounds=1)
    with pytest.raises(LedgerError, match=refusal):
        reconstruct_ledger(trace, g, part, p)
    _assert_ledger_matches_reference(trace, g, part, p)


@pytest.mark.parametrize("spans, tiles", [
    ([(1, 3)], True),
    ([(1, 1), (2, 3)], True),
    ([(2, 3)], False),          # the first interior vertex is uncovered
    ([(1, 1), (3, 3)], False),  # a gap
    ([(1, 2), (2, 3)], False),  # an overlap
    ([(1, 2)], False),          # the last interior vertex is uncovered
    ([(1, 3), (2, 2)], False),  # a surviving detour inside another
])
def test_tiles_interior(spans, tiles):
    # unit path 0..4 between terminals 0 and 4: interior path indices 1..3
    g = WeightedGraph.build(range(5), [(i, i + 1, 1.0) for i in range(4)], [0, 4])
    part = build_interval_partition(g, 0, 4, SprParams.for_graph(g))
    detours = [Detour(i, a, b, 0, 1, 0, a, 0) for i, (a, b) in enumerate(spans)]
    erased = Detour(len(spans), 2, 2, 0, 1, 0, 2, 0, erased=True)
    ledger = DetourLedger(part, [], [*detours, erased], [], 0.0)
    assert ledger.tiles_interior() is tiles


# --- ledger against the per-interval reference --------------------------------


def _ledger_outcome(replay, trace, graph, partition, params):
    """What a ledger replay decides: every step's repr, each detour's span
    and erasure, the final charges and ``repr(cost)``, or the refusal."""
    try:
        led = replay(trace, graph, partition, params)
    except GraphError as exc:
        return type(exc).__name__, str(exc)
    return (
        [repr(s) for s in led.steps],
        [(d.a, d.b, d.erased) for d in led.detours],
        led.final_charges,
        repr(led.cost),
    )


def _assert_ledger_matches_reference(trace, graph, partition, params):
    """On a trace ``verify_trace`` accepts, the ledger decides as the
    reference does; one it rejects both refuse, the ledger with verify's
    first violation."""
    outcome = _ledger_outcome(reconstruct_ledger, trace, graph, partition, params)
    reference = _ledger_outcome(reference_reconstruct_ledger, trace, graph, partition, params)
    violations = verify_trace(graph, trace).violations
    if violations:
        assert outcome == ("LedgerError", violations[0])
        assert reference[0] == "LedgerError"
    else:
        assert outcome == reference


def _with_empty_interval(part: IntervalPartition, at: int) -> IntervalPartition:
    """``part`` with an empty interval (end < start) inserted before
    interval ``at``, or after the last one."""
    start = part.intervals[at].start if at < part.phi else len(part.path) - 1
    empty = Interval(start=start, end=start - 1, anchor=start, length_in=0.0,
                     length_out=0.0, bound=0.0)
    intervals = (*part.intervals[:at], empty, *part.intervals[at:])
    return IntervalPartition(part.pair, part.path, part.positions, intervals)


def _mutated(trace, kind: str | None, data):
    covers = list(trace.cover_events)
    if kind is None or not covers:
        return trace
    i = data.draw(st.integers(0, len(covers) - 1))
    if kind == "drop":
        del covers[i]
    else:
        covers.insert(data.draw(st.integers(0, len(covers))), covers[i])
    return trace_with_events(trace, cover_events=covers)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=3, max_value=5),
    st.sampled_from([None, None, "drop", "duplicate"]),
    st.booleans(),
    st.data(),
)
def test_ledger_matches_reference(seed, k, kind, add_empty, data):
    # the graphs of test_ledger_property_random_instances; half of the
    # partitions carry an empty interval, and some traces lose or repeat a
    # cover event so that the refusals are compared too
    base = random_connected_graph(4 * k, k, seed=seed % 9973, extra_edges=k)
    g = subdivide_edges(base, 0.31).graph
    try:
        part = build_interval_partition(g, g.terminals[0], g.terminals[1], SprParams.for_graph(g))
    except InteriorTerminalError:
        return
    if add_empty:
        part = _with_empty_interval(part, data.draw(st.integers(0, part.phi)))
    p = SprParams.for_graph(g, seed=data.draw(st.integers(0, 2**32)))
    trace = _mutated(run_spr(g, p)[1], kind, data)
    _assert_ledger_matches_reference(trace, g, part, p)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32))
def test_ledger_matches_reference_on_adjacent_pair(seed):
    g = WeightedGraph.build([0, 1, 2, 3], [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 0.5)], [0, 1, 3])
    part = build_interval_partition(g, 0, 1, SprParams.for_graph(g))
    assert part.phi == 0
    p = SprParams.for_graph(g, seed=seed)
    trace = run_spr(g, p)[1]
    assert _ledger_outcome(reconstruct_ledger, trace, g, part, p) == _ledger_outcome(
        reference_reconstruct_ledger, trace, g, part, p)


# --- ledger over real runs ----------------------------------------------------


def test_real_runs_tile_and_bookkeep():
    g = fine_pair_graph(8, seed=5, fineness=0.6)
    p0 = SprParams.for_graph(g)
    part = build_interval_partition(g, 0, 8, p0)
    ledgers = []
    for seed in range(8):
        p = SprParams.for_graph(g, seed=seed)
        _, trace = run_spr(g, p)
        ledger = reconstruct_ledger(trace, g, part, p)
        ledgers.append(ledger)
        assert ledger.tiles_interior()
        # surviving charge counts match the surviving detours per interval
        recount = [0] * part.phi
        for det in ledger.surviving:
            recount[det.trigger_interval] += 1
        assert recount == ledger.final_charges
        assert ledger.cost == pytest.approx(
            sum(c * q.length_out for c, q in zip(recount, part.intervals))
        )
        # interior fully covered by surviving spans
        total = sum(d.b - d.a + 1 for d in ledger.surviving)
        assert total == part.interior_size
    res = cost_bound_check(ledgers)
    assert res.structural_ok
    rate = failure_rate(ledgers)
    assert rate.qualifying_steps > 50
    assert rate.fraction <= 0.2 + 3 * math.sqrt(0.2 * 0.8 / rate.qualifying_steps)


@settings(max_examples=12, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=3, max_value=5),
)
def test_ledger_property_random_instances(seed, k):
    # random connected graph, lightly subdivided so paths carry many
    # vertices; every replayed run must tile, conserve charges, and keep
    # its trigger slack nonnegative
    from conftest import random_connected_graph
    from sprkit.graph import subdivide_edges

    base = random_connected_graph(4 * k, k, seed=seed % 9973, extra_edges=k)
    g = subdivide_edges(base, 0.31).graph
    p0 = SprParams.for_graph(g)
    t, t_prime = g.terminals[0], g.terminals[1]
    try:
        part = build_interval_partition(g, t, t_prime, p0)
    except InteriorTerminalError:
        return  # pair not analyzable; nothing to check
    for run_seed in range(2):
        p = SprParams.for_graph(g, seed=run_seed)
        _, trace = run_spr(g, p)
        led = reconstruct_ledger(trace, g, part, p)
        assert led.tiles_interior()
        recount = [0] * part.phi
        for det in led.surviving:
            recount[det.trigger_interval] += 1
        assert recount == led.final_charges
        for s in led.steps:
            assert s.q_trigger >= -1e-9
            assert s.q_slice >= s.q_trigger - 1e-12
            assert s.success == (s.q_step >= s.q_slice)


def test_charge_tail_dominated_by_coin_box_law():
    # the final charge count of any interval should be dominated by the
    # coin-box tail at failure probability 0.2: P[charge >= m] stays below
    # the corresponding coin tail estimate plus sampling slack
    import numpy as np

    from sprkit.bounds import coin_box_batch

    g = fine_pair_graph(8, seed=9, fineness=0.6)
    p0 = SprParams.for_graph(g)
    part = build_interval_partition(g, 0, 8, p0)
    charges = []
    for seed in range(6):
        p = SprParams.for_graph(g, seed=seed)
        _, trace = run_spr(g, p)
        ledger = reconstruct_ledger(trace, g, part, p)
        charges.extend(ledger.final_charges)
    charges = np.array(charges)
    coins = coin_box_batch(0.2, 200_000, np.random.default_rng(0))
    for m in (2, 3, 4):
        emp = float(np.mean(charges >= m))
        coin_tail = float(np.mean(coins >= m))
        slack = 3 * math.sqrt(max(coin_tail, 1e-9) / len(charges))
        assert emp <= coin_tail + slack
