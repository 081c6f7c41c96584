import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    coarse_subdivided_random,
    make_trace,
    random_connected_graph,
    small_integer_weighted_graphs,
    trace_with_events,
)
from covering_reference import reference_check_covering
from sprkit import RunTrace, SprParams, check_covering, run_spr, summarize_covering
from sprkit.covering import SPREAD_FACTOR, CoverRecord
from sprkit.engine import DEADLINE_FACTOR, EARLY_FACTOR
from sprkit.graph import GraphError, WeightedGraph, subdivide_edges


def _unit_path(n_edges: int) -> WeightedGraph:
    edges = [(i, i + 1, 1.0) for i in range(n_edges)]
    return WeightedGraph.build(range(n_edges + 1), edges, [0, n_edges])


def _trace(graph: WeightedGraph, covers, rounds: int) -> RunTrace:
    return make_trace(0.05, 0, graph.k, graph.terminals, [], covers, rounds)


def test_terminal_only_graph_vacuously_clean():
    g = WeightedGraph.build([0, 1], [(0, 1, 1.0)], [0, 1])
    _, trace = run_spr(g, SprParams.for_graph(g, seed=1))
    check = check_covering(trace, g, SprParams.for_graph(g))
    assert check.records == ()
    assert not check.any_late and not check.any_early


def test_spread_factor_is_twelve():
    assert SPREAD_FACTOR == pytest.approx(12.0)


def test_hand_built_late_coverage_flagged():
    g = _unit_path(2)  # terminals 0 and 2, inner vertex 1 with D = 1
    p = SprParams.for_graph(g)
    deadline = math.floor(math.log(4.0) / math.log(p.ratio))  # 19 at k = 2
    on_time = _trace(g, [(1, 0, deadline, 1, 1.0)], deadline + 1)
    late = _trace(g, [(1, 0, deadline + 1, 1, 1.0)], deadline + 2)
    assert not check_covering(on_time, g, p).any_late
    check = check_covering(late, g, p)
    assert check.any_late
    assert check.records[0].deadline_round == deadline


def test_hand_built_early_coverage_flagged():
    g = _unit_path(10)
    p = SprParams.for_graph(g)
    # vertex 9 claimed by terminal 0 at distance 9; the earliest allowed
    # round is floor(log_ratio(9 / 3))
    threshold = math.floor(math.log(3.0) / math.log(p.ratio))
    early = _trace(g, [(9, 0, threshold - 1, 1, 9.0)], threshold)
    ok = _trace(g, [(9, 0, threshold, 1, 9.0)], threshold + 1)
    assert check_covering(early, g, p).any_early
    assert not check_covering(ok, g, p).any_early


def test_same_step_spread_violation():
    g = _unit_path(14)
    p = SprParams.for_graph(g)
    # vertices 1 and 13 claimed together by terminal 0: spread 13 > 12 * 1
    bad = _trace(g, [(1, 0, 5, 1, 1.0), (13, 0, 5, 1, 13.0)], 6)
    check = check_covering(bad, g, p)
    assert check.spread_violations
    grp = check.spread_violations[0]
    assert grp.max_dist == pytest.approx(13.0)
    assert grp.min_nearest == pytest.approx(1.0)
    # a group whose far vertex is still within twelve times the closest
    # member's terminal distance is fine
    good = _trace(g, [(1, 0, 5, 1, 1.0), (7, 0, 5, 1, 7.0)], 6)
    assert not check_covering(good, g, p).spread_violations


def test_real_runs_on_unit_scale_graphs_are_clean():
    g = random_connected_graph(40, 6, seed=41, extra_edges=20)
    checks = []
    for seed in range(30):
        p = SprParams.for_graph(g, seed=seed)
        _, trace = run_spr(g, p)
        checks.append(check_covering(trace, g, p))
    summary = summarize_covering(checks, d_floor=1.0)
    assert summary.early_run_rate == 0.0
    assert summary.late_run_rate_restricted == 0.0
    assert summary.spread_violation_runs == 0


def test_subdivided_graph_rates_split_by_distance_floor():
    # fine vertices near terminals cannot meet their (negative) deadlines,
    # so the raw rate saturates while the at-scale rate stays clean
    g, d_floor = coarse_subdivided_random(8, seed=2, n_base=20, threshold=0.25)
    checks = []
    for seed in range(10):
        p = SprParams.for_graph(g, seed=seed)
        _, trace = run_spr(g, p)
        checks.append(check_covering(trace, g, p))
    summary = summarize_covering(checks, d_floor=d_floor)
    assert summary.late_run_rate == 1.0
    assert summary.late_run_rate_restricted == 0.0
    assert summary.early_run_rate == 0.0


def test_record_fields_recomputable():
    g = _unit_path(4)
    p = SprParams.for_graph(g)
    _, trace = run_spr(g, p)
    check = check_covering(trace, g, p)
    for rec in check.records:
        assert rec.deadline_round == math.floor(
            math.log(4 * rec.nearest_terminal) / math.log(p.ratio)
        )
        assert rec.early_round == math.floor(
            math.log(rec.dist_to_terminal / 3) / math.log(p.ratio)
        )
        assert rec.covered_late == (rec.round > rec.deadline_round)
        assert rec.covered_early == (rec.round < rec.early_round)


def test_mismatched_trace_rejected():
    g = _unit_path(3)
    other = _unit_path(4)
    _, trace = run_spr(g, SprParams.for_graph(g, seed=0))
    with pytest.raises(Exception):
        check_covering(trace, other, SprParams.for_graph(other))


def test_params_for_another_terminal_count_rejected():
    g = _unit_path(3)
    params = SprParams.for_graph(g, seed=0)
    _, trace = run_spr(g, params)
    wrong = SprParams(k=g.k + 1, delta=params.delta, seed=0)
    for check in (check_covering, reference_check_covering):
        with pytest.raises(GraphError, match="^params terminal count does not match graph$"):
            check(trace, g, wrong)


@pytest.mark.parametrize("vertex", [0, 2])
def test_cover_event_for_terminal_is_graph_error(vertex):
    # D(v) = 0 for a terminal, so its deadline round has no value
    g = _unit_path(2)
    bad = _trace(g, [(1, 0, 3, 1, 1.0), (vertex, 0, 3, 1, 2.0)], 4)
    with pytest.raises(GraphError, match=f"trace covers terminal {vertex}; "):
        check_covering(bad, g, SprParams.for_graph(g))


# --- position-indexed check against the id-keyed reference -----------------

TAMPERS = ("none", "round", "terminal", "shuffle", "unknown", "non-terminal",
           "cover-terminal", "unreachable")


def _tamper(g: WeightedGraph, trace: RunTrace, kind: str, data):
    """A copy of ``trace`` changed as ``kind`` says, and the graph to check
    it against."""
    covers = list(trace.cover_events)
    i = data.draw(st.integers(0, len(covers) - 1))
    ev = covers[i]
    if kind == "round":
        # other groups, and other late and early flags; a JSON trace may
        # hold any integer, negative or past int64
        rnd = data.draw(st.one_of(st.integers(0, trace.rounds + 30), st.integers(max_value=-1),
                                  st.integers(min_value=2**63 - 2)))
        covers[i] = ev._replace(round=rnd)
    elif kind == "terminal":
        covers[i] = ev._replace(terminal=data.draw(st.sampled_from(g.terminals)))
    elif kind == "shuffle":
        # a group's events no longer sit together
        covers = data.draw(st.permutations(covers))
    elif kind == "unknown":
        covers.insert(i, ev._replace(vertex=max(g.vertices) + data.draw(st.integers(1, 5))))
    elif kind == "non-terminal":
        covers[i] = ev._replace(terminal=ev.vertex)
    elif kind == "cover-terminal":
        covers.insert(i, ev._replace(vertex=data.draw(st.sampled_from(g.terminals))))
    elif kind == "unreachable":
        # one vertex that no terminal reaches
        lone = max(g.vertices) + 1
        g = WeightedGraph.build([*g.vertices, lone], g.edges, g.terminals)
        covers.insert(i, ev._replace(vertex=lone))
    return g, trace_with_events(trace, cover_events=covers)


def _package_check(trace, g, params):
    """``check_covering``'s records and its groups as plain tuples, the
    reference's shapes."""
    result = check_covering(trace, g, params)
    return result.records, tuple(map(astuple, result.groups))


def _outcome(check, trace, g, params):
    try:
        return tuple(check(trace, g, params))  # (records, groups)
    except ValueError as exc:  # GraphError included
        return type(exc), str(exc)


def _field_types(records):
    return [tuple(map(type, rec)) for rec in records]


@settings(max_examples=150, deadline=None)
@given(
    small_integer_weighted_graphs(),
    st.sampled_from([None, 0.5, 1.5]),
    st.integers(0, 2**32),
    st.sampled_from(TAMPERS),
    st.data(),
)
def test_check_covering_matches_reference(g, threshold, seed, kind, data):
    if threshold is not None:
        g = subdivide_edges(g, threshold).graph
    params = SprParams.for_graph(g, seed=seed)
    _, trace = run_spr(g, params)
    assume(trace.cover_events)
    g, trace = _tamper(g, trace, kind, data)
    got = _outcome(_package_check, trace, g, params)
    ref = _outcome(reference_check_covering, trace, g, params)
    if ref == (ValueError, "math domain error"):
        # the reference's crash on a covered terminal is now an input error
        assert got[0] is GraphError and got[1].startswith("trace covers terminal ")
        return
    assert got == ref
    if isinstance(got[0], tuple):
        assert _field_types(got[0]) == _field_types(ref[0])
    if kind == "none":
        assert all(type(rec) is CoverRecord for rec in got[0])


def test_all_terminal_graph_matches_reference():
    # k >= 2 and every vertex a terminal: no cover events at all
    g = WeightedGraph.build([0, 1, 2], [(0, 1, 1.0), (1, 2, 2.0)], [0, 1, 2])
    params = SprParams.for_graph(g, seed=3)
    _, trace = run_spr(g, params)
    assert not trace.cover_vertex
    check = check_covering(trace, g, params)
    assert check.records == () and check.groups == ()
    assert check.any_late is False and check.any_early is False
    assert _package_check(trace, g, params) == tuple(reference_check_covering(trace, g, params))


def test_rounds_past_int64_keep_their_groups():
    # rounds that differ only beyond int64 still make separate groups
    g = _unit_path(4)
    huge = 2**64
    covers = [(1, 0, huge, 1, 1.0), (3, 4, -huge, 1, 1.0), (2, 0, huge + 1, 1, 2.0),
              (2, 0, huge, 1, 2.0)]
    trace = _trace(g, covers, 1)
    params = SprParams.for_graph(g)
    got = _package_check(trace, g, params)
    assert got == tuple(reference_check_covering(trace, g, params))
    assert [grp[:2] for grp in got[1]] == [(0, huge), (0, huge + 1), (4, -huge)]
    assert [rec.covered_late for rec in got[0]] == [True, False, True, True]


# --- exact deadline and early rounds ---------------------------------------

def _star(k: int, weights) -> WeightedGraph:
    """Terminal 0 with one leaf per weight, and k - 1 more terminals hung
    from it: leaf i has D = d(i, 0) = weights[i - 1]."""
    m = len(weights)
    edges = [(0, i, w) for i, w in enumerate(weights, start=1)]
    edges += [(0, m + j, 1.0) for j in range(1, k)]
    return WeightedGraph.build(range(m + k), edges, [0, *range(m + 1, m + k)])


def _boundary_weights(ratio: float, powers, factor: float, ulps=range(-2, 3)) -> list[float]:
    """ratio**r / factor and its neighbours ``ulps`` away: where
    floor(log_ratio(factor * w)) steps from r - 1 to r."""
    weights = []
    for r in powers:
        w = ratio**r / factor
        for u in ulps:
            x = w
            for _ in range(abs(u)):
                x = math.nextafter(x, math.copysign(math.inf, u))
            weights.append(x)
    return weights


def _assert_math_rounds(k: int, delta: float, weights) -> None:
    g = _star(k, weights)
    params = SprParams(k=k, delta=delta)
    log_ratio = math.log(params.ratio)
    covers = [(i, 0, 0, 1, w) for i, w in enumerate(weights, start=1)]
    check = check_covering(_trace(g, covers, 1), g, params)
    for rec, w in zip(check.records, weights):
        assert rec.nearest_terminal == rec.dist_to_terminal == w
        assert rec.deadline_round == math.floor(math.log(DEADLINE_FACTOR * w) / log_ratio)
        assert rec.early_round == math.floor(math.log(EARLY_FACTOR * w) / log_ratio)


BOUNDARY_CASES = [(2, 0.05), (3, 0.3), (16, 0.05), (64, 1.0), (256, 0.01)]


@pytest.mark.parametrize("k, delta", BOUNDARY_CASES)
@pytest.mark.parametrize("factor", [DEADLINE_FACTOR, EARLY_FACTOR], ids=["deadline", "early"])
def test_rounds_at_boundaries_match_math(k, delta, factor):
    ratio = SprParams(k=k, delta=delta).ratio
    _assert_math_rounds(k, delta, _boundary_weights(ratio, range(-40, 41, 3), factor))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 300),
    st.sampled_from([0.01, 0.05, 0.2, 1.0]),
    st.sampled_from([DEADLINE_FACTOR, EARLY_FACTOR]),
    st.lists(st.tuples(st.integers(-400, 400), st.integers(-3, 3)), min_size=1, max_size=8),
)
def test_rounds_near_boundaries_match_math(k, delta, factor, points):
    ratio = SprParams(k=k, delta=delta).ratio
    weights = [w for r, u in points for w in _boundary_weights(ratio, [r], factor, [u])]
    _assert_math_rounds(k, delta, weights)


@pytest.mark.parametrize("ulps", [-4, -3, -2, -1, 1, 2, 3, 4])
def test_rounds_exact_when_np_log_is_off_by_ulps(monkeypatch, ulps):
    # np.log may differ from math.log by a few ulps; the rounds may not
    np_log = np.log

    def off_log(x):
        y = np_log(x)
        for _ in range(abs(ulps)):
            y = np.nextafter(y, math.copysign(math.inf, ulps))
        return y

    cases = [(k, delta, _boundary_weights(SprParams(k=k, delta=delta).ratio, range(-40, 41),
                                          factor, [0]))
             for k, delta in BOUNDARY_CASES for factor in (DEADLINE_FACTOR, EARLY_FACTOR)]
    monkeypatch.setattr(np, "log", off_log)
    for k, delta, weights in cases:
        _assert_math_rounds(k, delta, weights)
