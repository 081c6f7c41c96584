import json
import math
import sys
import warnings
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    make_trace,
    path_t_s_t,
    random_connected_graph,
    small_integer_weighted_graphs,
    star_3,
    trace_with_events,
)
import closest_pair_reference
from paths_reference import shortest_paths
from sprkit import (
    CoverEvent,
    RadiusEvent,
    RoundsGuardError,
    RunTrace,
    SprParams,
    TraceFormatError,
    default_round_guard,
    min_terminal_pair_distance,
    preprocess_subdivide,
    run_and_contract,
    run_rng,
    run_spr,
    sample_exponential,
    verify_trace,
)
from sprkit.graph import GraphError, WeightedGraph, subdivide_edges
from sprkit.minor import TerminalPartition, validate_partition


def partition_from_trace(graph: WeightedGraph, trace: RunTrace) -> TerminalPartition:
    """The final assignment a trace records."""
    term_index = {t: idx for idx, t in enumerate(graph.terminals, start=1)}
    assignment = dict(term_index)
    for ev in trace.cover_events:
        assignment[ev.vertex] = term_index[ev.terminal]
    return TerminalPartition(assignment=assignment)


class _FixedU:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


# --- exponential sampler ---------------------------------------------------


def test_sampler_inverse_cdf_at_zero():
    assert sample_exponential(3.0, _FixedU(0.0)) == 0.0


def test_sampler_rejects_nonpositive_mean():
    rng = run_rng(0)
    with pytest.raises(GraphError):
        sample_exponential(0.0, rng)
    with pytest.raises(GraphError):
        sample_exponential(-1.0, rng)


def test_sampler_empirical_mean():
    rng = run_rng(123)
    n = 10**6
    total = sum(sample_exponential(3.0, rng) for _ in range(n))
    mean = total / n
    assert abs(mean - 3.0) <= 0.01  # 3 sigma is ~0.009


def test_sampler_memorylessness():
    rng = run_rng(7)
    n = 10**6
    samples = np.array([sample_exponential(1.0, rng) for _ in range(n)])
    a, b = 1.0, 2.0
    above_a = samples[samples >= a]
    conditional = np.mean(above_a >= a + b)
    unconditional = np.mean(samples >= b)
    assert abs(conditional - unconditional) <= 0.01


def test_batched_draws_match_scalar_sampler_bit_for_bit():
    # the engine draws a round's k uniforms at once and transforms each with
    # math.log1p; that must equal k successive sample_exponential calls
    for seed, k, mean in ((0, 2, 0.07), (5, 16, 1.3), (11, 257, 123.456)):
        batched_rng, scalar_rng = run_rng(seed), run_rng(seed)
        for _ in range(3):
            batched = [-mean * math.log1p(-u) for u in batched_rng.random(k).tolist()]
            scalar = [sample_exponential(mean, scalar_rng) for _ in range(k)]
            assert batched == scalar


def test_rng_streams_are_independent_and_reproducible():
    assert run_rng(5).random() == run_rng(5).random()
    assert run_rng(5).random() != run_rng(6).random()
    assert run_rng(5, stream=1).random() != run_rng(5, stream=0).random()


# --- params ------------------------------------------------------------------


def test_params_locked_ratios_at_default_delta():
    p = SprParams(k=16)
    assert p.weight_factor == pytest.approx(1.0 / 2400)
    assert p.early_factor == pytest.approx(1.0 / 3)
    assert p.interval_factor == pytest.approx(1.0 / 30)
    assert p.ratio > 1.0
    assert p.base_mean > 0.0
    assert p.ratio - 1.0 == pytest.approx(p.base_mean)


def test_params_reject_bad_arguments():
    with pytest.raises(GraphError):
        SprParams(k=0)
    with pytest.raises(GraphError):
        SprParams(k=4, delta=0.0)


# --- preprocessing -----------------------------------------------------------


def test_preprocess_no_heavy_edges_unchanged():
    # every edge must already weigh at most (1/2400)/ln 2 times the terminal
    # distance, so the lightest no-op instance is a ~1700-edge path
    m = 1700
    edges = [(i, i + 1, 1.0 / m) for i in range(m)]
    g = WeightedGraph.build(range(m + 1), edges, [0, m])
    res = preprocess_subdivide(g, SprParams.for_graph(g))
    assert res.graph.edges == g.edges
    assert res.host_edge == {}


def test_preprocess_unit_edge_segment_count():
    # threshold (1/2400)/ln 2 for two terminals at distance one; the unit
    # edge splits into ceil(2400 ln 2) = 1664 equal segments
    g = WeightedGraph.build([0, 1], [(0, 1, 1.0)], [0, 1])
    res = preprocess_subdivide(g, SprParams.for_graph(g))
    assert res.min_terminal_distance == pytest.approx(1.0)
    assert res.threshold == pytest.approx((1.0 / 2400) / math.log(2))
    assert len(res.graph.edges) == 1664
    assert res.graph.n == 1665


def test_preprocess_preserves_terminal_distances():
    g = random_connected_graph(10, 3, seed=3, extra_edges=3, weight_range=(0.8, 1.2))
    before = {
        (t, u): shortest_paths(g, t).distance(u)
        for t in g.terminals
        for u in g.terminals
    }
    res = preprocess_subdivide(g, SprParams.for_graph(g))
    for (t, u), d in before.items():
        assert shortest_paths(res.graph, t).distance(u) == pytest.approx(d, rel=1e-9)


def test_preprocess_single_terminal_passthrough():
    g = random_connected_graph(6, 1, seed=1, extra_edges=2)
    res = preprocess_subdivide(g, SprParams.for_graph(g))
    assert res.graph is g


def test_preprocess_rejects_disconnected():
    g = WeightedGraph.build([0, 1, 2, 3], [(0, 1, 1.0), (2, 3, 1.0)], [0, 2])
    with pytest.raises(GraphError):
        preprocess_subdivide(g, SprParams.for_graph(g))


def test_min_terminal_pair_distance():
    g = random_connected_graph(12, 4, seed=19, extra_edges=5)
    maps = {t: shortest_paths(g, t) for t in g.terminals}
    expected = min(
        maps[t].distance(u) for t in g.terminals for u in g.terminals if u != t
    )
    assert min_terminal_pair_distance(g) == pytest.approx(expected, rel=1e-12)


@st.composite
def closest_pair_graphs(draw):
    """A connected graph with k >= 2 and weights up to the largest double,
    so that some path sums overflow to inf."""
    top = sys.float_info.max
    weights = st.one_of(
        st.floats(0.01, 100.0),
        st.sampled_from([top, top / 2, top / 3, 5e-324]),
        st.floats(top / 4, top),
    )
    n = draw(st.integers(2, 12))
    edges = {(draw(st.integers(0, v - 1)), v): draw(weights) for v in range(1, n)}
    for _ in range(draw(st.integers(0, n))):
        pair = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        edges.setdefault(tuple(sorted(pair)), draw(weights))
    terminals = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True))
    return WeightedGraph.build(range(n), [(u, v, w) for (u, v), w in edges.items()], terminals)


@settings(max_examples=300, deadline=None)
@given(closest_pair_graphs())
def test_min_terminal_pair_distance_matches_the_per_edge_scan(g):
    def outcome(closest):
        try:
            return closest(g), None
        except GraphError as exc:
            return None, str(exc)

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow to inf is no warning
        got = outcome(min_terminal_pair_distance)
    ref = outcome(closest_pair_reference.min_terminal_pair_distance)
    assert got == ref
    assert got[0] is None or type(got[0]) is float


# --- runs --------------------------------------------------------------------


def test_terminal_only_graph_finishes_without_sampling():
    g = WeightedGraph.build([0, 1], [(0, 1, 1.0)], [0, 1])
    part, trace = run_spr(g, SprParams.for_graph(g, seed=9))
    assert trace.rounds == 0
    assert trace.radius_events == []
    assert trace.cover_events == []
    assert part.assignment == {0: 1, 1: 2}


def test_star_center_joins_exactly_one_cluster():
    g = star_3()
    for seed in range(25):
        _, report, trace = run_and_contract(g, SprParams.for_graph(g, seed=seed))
        assert report.max_ratio == pytest.approx(2.0)
        assert len(trace.cover_events) == 1


def test_path_distortion_one_any_seed():
    g = path_t_s_t()
    for seed in range(20):
        _, report, _ = run_and_contract(g, SprParams.for_graph(g, seed=seed))
        assert report.max_ratio == pytest.approx(1.0)


def test_fixed_seed_identical_partition_and_trace():
    g = random_connected_graph(50, 6, seed=50, extra_edges=25)
    p = SprParams.for_graph(g, seed=42)
    part1, trace1 = run_spr(g, p)
    part2, trace2 = run_spr(g, p)
    assert part1.assignment == part2.assignment
    assert trace1.to_json() == trace2.to_json()


def test_different_seeds_differ():
    g = random_connected_graph(40, 5, seed=51, extra_edges=20)
    _, t1 = run_spr(g, SprParams.for_graph(g, seed=1))
    _, t2 = run_spr(g, SprParams.for_graph(g, seed=2))
    assert t1.to_json() != t2.to_json()


def test_single_terminal_run():
    g = random_connected_graph(7, 1, seed=2, extra_edges=2)
    minor, report, trace = run_and_contract(g, SprParams.for_graph(g, seed=0))
    assert minor.k == 1
    assert report.max_ratio == 1.0
    assert trace.rounds == 0
    assert len(trace.cover_events) == g.n - 1


def test_rounds_guard_raises_with_partial_trace():
    g = random_connected_graph(20, 2, seed=4, extra_edges=8)
    with pytest.raises(RoundsGuardError) as exc:
        run_spr(g, SprParams.for_graph(g, seed=0, max_rounds=1))
    assert exc.value.partial_trace.rounds == 1
    assert len(exc.value.partial_trace.radius_events) == g.k


def test_default_round_guard_formula():
    # in the second graph vertices 2 and 3 reach no terminal, and the max
    # over the reachable ones is taken at vertex 4
    unreachable = WeightedGraph.build(
        range(5), [(0, 1, 3.0), (1, 4, 2.5), (2, 3, 1.0)], [0, 1]
    )
    assert math.inf in unreachable._nearest_row
    for g in (random_connected_graph(20, 3, seed=6, extra_edges=8), unreachable):
        p = SprParams.for_graph(g)
        max_d = max(g.nearest_terminal_distance.values())
        expected = math.ceil(math.log(4 * max_d) / math.log(p.ratio)) + 10 * math.ceil(
            math.log(g.k)
        )
        assert default_round_guard(g, p) == expected


@pytest.mark.parametrize("subdivided", [False, True])
def test_run_path_builds_neither_rows_nor_id_keyed_nearest_map(subdivided):
    # run_and_contract reads the terminal block and the nearest row by
    # position: no n-entry terminal rows, no dict keyed by vertex id
    g = random_connected_graph(60, 5, seed=2, extra_edges=40)
    if subdivided:
        g = subdivide_edges(g, 0.05).graph
        assert g._chains.fold_csr is not None
    run_and_contract(g, SprParams.for_graph(g, seed=1))
    assert "terminal_block" in g.__dict__ and "_nearest_row" in g.__dict__
    assert "terminal_distance_maps" not in g.__dict__
    assert "nearest_terminal_distance" not in g.__dict__


def test_run_rejects_mismatched_params():
    g = star_3()
    with pytest.raises(GraphError):
        run_spr(g, SprParams(k=5))


def test_run_rejects_disconnected():
    g = WeightedGraph.build([0, 1, 2, 3], [(0, 1, 1.0), (2, 3, 1.0)], [0, 2])
    with pytest.raises(GraphError):
        run_spr(g, SprParams.for_graph(g))


# --- trace invariants ---------------------------------------------------------


def test_traces_replay_clean():
    for seed in range(5):
        g = random_connected_graph(25, 4, seed=60 + seed, extra_edges=12)
        p = SprParams.for_graph(g, seed=seed)
        part, trace = run_spr(g, p)
        result = verify_trace(g, trace, p)
        assert result.ok, result.violations
        assert partition_from_trace(g, trace).assignment == part.assignment
        assert validate_partition(g, part) == []


def test_traces_replay_clean_with_tied_distances():
    # unit weights force many exactly equal distances; the replay must agree
    # with the engine on every tie
    for seed in range(4):
        g = random_connected_graph(
            30, 5, seed=160 + seed, extra_edges=20, weight_range=(1.0, 1.0)
        )
        p = SprParams.for_graph(g, seed=seed)
        _, trace = run_spr(g, p)
        result = verify_trace(g, trace, p)
        assert result.ok, result.violations[:3]


def test_run_accepts_non_dense_vertex_ids():
    g = WeightedGraph.build(
        [0, 5, 9, 12, 20],
        [(0, 5, 1.0), (5, 9, 1.0), (9, 12, 1.0), (12, 20, 1.0), (0, 20, 3.5)],
        [0, 12],
    )
    p = SprParams.for_graph(g, seed=3)
    part, trace = run_spr(g, p)
    assert set(part.assignment) == {0, 5, 9, 12, 20}
    assert validate_partition(g, part) == []
    assert verify_trace(g, trace, p).ok


@settings(max_examples=80, deadline=None)
@given(small_integer_weighted_graphs(), st.integers(0, 2**32), st.data())
def test_run_commutes_with_increasing_relabeling(g, seed, data):
    # an increasing map keeps position order, so ties pop alike and the run
    # is the same run with its ids mapped
    gaps = data.draw(st.lists(st.integers(1, 1000), min_size=g.n, max_size=g.n))
    relabel = dict(zip(g.vertices, accumulate(gaps)))
    g2 = WeightedGraph.build(
        relabel.values(),
        [(relabel[u], relabel[v], w) for u, v, w in g.edges],
        [relabel[t] for t in g.terminals],
    )
    params = SprParams.for_graph(g, seed=seed)
    part, trace = run_spr(g, params)
    part2, trace2 = run_spr(g2, params)
    assert trace2.rounds == trace.rounds
    assert trace2.radius_events == trace.radius_events
    assert trace2.cover_events == [
        ev._replace(vertex=relabel[ev.vertex], terminal=relabel[ev.terminal])
        for ev in trace.cover_events
    ]
    assert all(type(ev) is RadiusEvent for ev in trace2.radius_events)
    assert all(type(ev) is CoverEvent for ev in trace2.cover_events)
    assert list(part.assignment) == list(g.vertices)
    assert list(part2.assignment.items()) == [
        (relabel[v], j) for v, j in part.assignment.items()
    ]


def test_verify_subdivided_run():
    from conftest import coarse_subdivided_random

    g, _ = coarse_subdivided_random(6, seed=7, n_base=15, threshold=0.3)
    p = SprParams.for_graph(g, seed=4)
    _, trace = run_spr(g, p)
    result = verify_trace(g, trace, p)
    assert result.ok, result.violations[:3]


def test_verify_flags_tampered_radius():
    g = random_connected_graph(15, 3, seed=70, extra_edges=6)
    p = SprParams.for_graph(g, seed=3)
    _, trace = run_spr(g, p)
    trace.radius_q[0] *= 2
    assert not verify_trace(g, trace, p).ok


def test_verify_flags_missing_cover_event():
    g = random_connected_graph(15, 3, seed=71, extra_edges=6)
    p = SprParams.for_graph(g, seed=3)
    _, trace = run_spr(g, p)
    trace = trace_with_events(trace, cover_events=trace.cover_events[:-1])
    assert not verify_trace(g, trace, p).ok


def test_verify_flags_double_coverage():
    g = random_connected_graph(15, 3, seed=72, extra_edges=6)
    p = SprParams.for_graph(g, seed=3)
    _, trace = run_spr(g, p)
    covers = trace.cover_events
    trace = trace_with_events(trace, cover_events=[*covers, covers[0]])
    assert not verify_trace(g, trace, p).ok


def test_monotone_coverage_and_radius_accumulation():
    g = random_connected_graph(30, 5, seed=80, extra_edges=15)
    _, trace = run_spr(g, SprParams.for_graph(g, seed=11))
    seen = set()
    for ev in trace.cover_events:
        assert ev.vertex not in seen
        seen.add(ev.vertex)
    totals = {}
    for ev in trace.radius_events:
        totals[ev.step] = totals.get(ev.step, 0.0) + ev.q
        assert ev.radius == totals[ev.step]


def test_per_round_increments_match_distribution():
    g = random_connected_graph(12, 4, seed=90, extra_edges=5)
    p0 = SprParams.for_graph(g)
    by_round = {0: [], 2: [], 5: []}
    for seed in range(300):
        _, trace = run_spr(g, SprParams.for_graph(g, seed=seed))
        for ev in trace.radius_events:
            if ev.round in by_round:
                by_round[ev.round].append(ev.q)
    for rnd, samples in by_round.items():
        mean = float(np.mean(samples))
        expected = p0.base_mean * p0.ratio**rnd
        sigma = expected / math.sqrt(len(samples))
        assert abs(mean - expected) <= 3 * sigma, (rnd, mean, expected)


def test_trace_json_roundtrip_and_stability():
    g = random_connected_graph(20, 3, seed=100, extra_edges=8)
    p = SprParams.for_graph(g, seed=13)
    _, trace = run_spr(g, p)
    text = trace.to_json()
    back = RunTrace.from_json(text)
    assert back.to_json() == text
    assert back.radius_events == trace.radius_events
    assert back.cover_events == trace.cover_events
    assert text.index('"type":"radius"') < text.index('"type":"cover"')


def _tampered_trace_text(case: str) -> str:
    g = random_connected_graph(12, 3, seed=5, extra_edges=4)
    _, trace = run_spr(g, SprParams.for_graph(g, seed=2))
    doc = json.loads(trace.to_json())
    radius = next(ev for ev in doc["events"] if ev["type"] == "radius")
    cover = next(ev for ev in doc["events"] if ev["type"] == "cover")
    if case.startswith("events-"):
        doc["events"] = {"null": None, "number": 3, "object": {}}[case[len("events-"):]]
    elif case.startswith("event-"):
        doc["events"].append({"list": [], "string": "cover", "number": 7}[case[len("event-"):]])
    elif case == "missing-type":
        del cover["type"]
    elif case == "unknown-type":
        radius["type"] = "shrink"
    elif case == "missing-field":
        del cover["dist"]
    elif case in ("bool-int", "float-int", "string-int"):
        cover["vertex"] = {"bool-int": True, "float-int": 1.0, "string-int": "1"}[case]
    elif case == "string-number":
        radius["R"] = "0.5"
    elif case == "params-list":
        doc["params"] = [doc["params"]]
    elif case == "terminals-object":
        doc["params"]["terminals"] = {}
    elif case == "missing-rounds":
        del doc["rounds"]
    return json.dumps(doc, separators=(",", ":"))


@pytest.mark.parametrize("case", [
    "events-null", "events-number", "events-object", "event-list", "event-string",
    "event-number", "missing-type", "unknown-type", "missing-field", "bool-int", "float-int",
    "string-int", "string-number", "params-list", "terminals-object", "missing-rounds",
])
def test_trace_from_json_schema_faults(case):
    with pytest.raises(TraceFormatError):
        RunTrace.from_json(_tampered_trace_text(case))


def test_trace_from_json_builds_event_records():
    text = _tampered_trace_text("untouched")
    trace = RunTrace.from_json(text)
    assert trace.to_json() == text
    assert {type(ev) for ev in trace.radius_events} == {RadiusEvent}
    assert {type(ev) for ev in trace.cover_events} == {CoverEvent}
    assert trace.cover_events[0].dist == trace.cover_events[0][4]


def _reference_event_dicts(trace):
    """The trace's events as dicts, in the layout and order of the encoder
    that built one dict per event: each radius event, then the cover events
    of its step; all cover events when there are no radius events.  Cover
    events of a step without a radius event are dropped."""
    cover = [
        {"type": "cover", "vertex": ev.vertex, "terminal": ev.terminal,
         "round": ev.round, "step": ev.step, "dist": ev.dist}
        for ev in trace.cover_events
    ]
    if not trace.radius_events:
        return cover
    events = []
    for rev in trace.radius_events:
        events.append({"type": "radius", "round": rev.round, "step": rev.step,
                       "q": rev.q, "R": rev.radius})
        events += [c for c in cover if (c["round"], c["step"]) == (rev.round, rev.step)]
    return events


# q, R and dist as the parser can hand them over: ints, floats, non-finite
_numbers = st.one_of(st.floats(), st.integers(min_value=-10**6, max_value=10**6))
_rounds = st.integers(min_value=0, max_value=3)
_steps = st.integers(min_value=1, max_value=3)
_traces = st.builds(
    make_trace,
    delta=st.floats(min_value=1e-3, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**63),
    k=st.integers(min_value=1, max_value=3),
    terminal_ids=st.lists(st.integers(min_value=0, max_value=40), max_size=3).map(tuple),
    # empty radius lists give the single-terminal layout; small round and
    # step ranges give cover events both with and without a radius event
    radius_events=st.lists(st.builds(RadiusEvent, _rounds, _steps, _numbers, _numbers),
                           max_size=6),
    cover_events=st.lists(
        st.builds(CoverEvent, st.integers(min_value=0, max_value=40),
                  st.integers(min_value=0, max_value=40), _rounds, _steps, _numbers),
        max_size=10,
    ),
    rounds=st.integers(min_value=0, max_value=4),
)


def _assert_encoder_matches_and_roundtrips(trace):
    events = _reference_event_dicts(trace)
    doc = {
        "params": {"delta": trace.delta, "seed": trace.seed, "k": trace.k,
                   "terminals": list(trace.terminal_ids)},
        "events": events,
        "rounds": trace.rounds,
    }
    text = trace.to_json()
    assert text == json.dumps(doc, separators=(",", ":"))
    back = RunTrace.from_json(text)
    # repr, not ==, so that NaN fields compare equal to themselves
    assert repr(back.radius_events) == repr(trace.radius_events)
    assert repr(back.cover_events) == repr(
        [CoverEvent(*list(e.values())[1:]) for e in events if e["type"] == "cover"]
    )
    assert (back.delta, back.seed, back.k, back.terminal_ids, back.rounds) == (
        trace.delta, trace.seed, trace.k, trace.terminal_ids, trace.rounds
    )


@settings(max_examples=300, deadline=None)
@given(_traces)
def test_trace_json_matches_dict_encoder_and_roundtrips(trace):
    _assert_encoder_matches_and_roundtrips(trace)


# a step's cover events as one run, split into several runs, or with no
# radius event: (k, radius events, cover events, runs per step); each layout
# must encode as the dict encoder does
_LAYOUTS = {
    "two-terminals-one-step": (
        2, [(0, 1, 0.5, 0.5), (0, 2, 0.25, 0.25)],
        [(5, 10, 0, 1, 0.5), (6, 10, 0, 1, 0.5), (7, 11, 0, 1, 0.25), (8, 10, 0, 1, 0.5)],
        {(0, 1): 3},
    ),
    "step-split-by-another": (
        2, [(0, 1, 0.5, 0.5), (0, 2, 0.25, 0.25)],
        [(5, 10, 0, 1, 0.5), (6, 11, 0, 2, 0.25), (7, 10, 0, 1, 0.125),
         (8, 11, 0, 2, math.inf), (9, 10, 0, 1, math.nan)],
        {(0, 1): 3, (0, 2): 2},
    ),
    "cover-without-radius": (
        2, [(0, 1, 0.5, 0.5)],
        [(5, 10, 0, 1, 0.5), (6, 11, 0, 2, 0.25), (7, 10, 3, 1, 1), (8, 10, 0, 1, -math.inf)],
        {(0, 1): 2, (0, 2): 1, (3, 1): 1},
    ),
    "single-terminal": (
        1, [], [(5, 10, 0, 1, 1.5), (6, 10, 0, 1, 2.0), (7, 10, 0, 1, 2)], {(0, 1): 1},
    ),
}


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
def test_trace_json_layouts(layout):
    k, radius, covers, runs = _LAYOUTS[layout]
    trace = make_trace(0.05, 1, k, (10, 11)[:k], radius, covers, 1)
    assert {step: len(r) for step, r in trace.runs_by_step().items()} == runs
    _assert_encoder_matches_and_roundtrips(trace)


def test_event_views_equal_the_recorded_events():
    # the views against records decoded from the trace document by field
    # name, one dict per event
    for seed, k in ((5, 4), (6, 1)):
        g = random_connected_graph(30, k, seed=seed, extra_edges=12)
        part, trace = run_spr(g, SprParams.for_graph(g, seed=seed))
        events = json.loads(trace.to_json())["events"]
        assert trace.radius_events == [
            RadiusEvent(e["round"], e["step"], e["q"], e["R"])
            for e in events if e["type"] == "radius"
        ]
        assert trace.cover_events == [
            CoverEvent(e["vertex"], e["terminal"], e["round"], e["step"], e["dist"])
            for e in events if e["type"] == "cover"
        ]
        assert {type(ev) for ev in trace.radius_events} <= {RadiusEvent}
        assert {type(ev) for ev in trace.cover_events} == {CoverEvent}
        assert partition_from_trace(g, trace).assignment == part.assignment


@settings(max_examples=60, deadline=None)
@given(small_integer_weighted_graphs(), st.integers(min_value=0, max_value=2**32))
def test_engine_traces_replay_clean_on_random_tied_graphs(g, seed):
    p = SprParams.for_graph(g, seed=seed)
    part, trace = run_spr(g, p)
    result = verify_trace(g, trace, p)
    assert result.ok, result.violations[:3]
    assert partition_from_trace(g, trace).assignment == part.assignment
