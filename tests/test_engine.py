import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import path_t_s_t, random_connected_graph, star_3
from sprkit import (
    RoundsGuardError,
    RunTrace,
    SprParams,
    default_round_guard,
    min_terminal_pair_distance,
    partition_from_trace,
    preprocess_subdivide,
    run_and_contract,
    run_rng,
    run_spr,
    sample_exponential,
    verify_trace,
)
from sprkit.graph import GraphError, WeightedGraph, shortest_paths
from sprkit.minor import validate_partition


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
    assert p.concentration_factor == pytest.approx(1.0 / 200)
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
    g = random_connected_graph(20, 3, seed=6, extra_edges=8)
    p = SprParams.for_graph(g)
    max_d = max(g.nearest_terminal_distance.values())
    expected = math.ceil(math.log(4 * max_d) / math.log(p.ratio)) + 10 * math.ceil(
        math.log(g.k)
    )
    assert default_round_guard(g, p) == expected


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
    ev = trace.radius_events[0]
    trace.radius_events[0] = ev._replace(q=ev.q * 2)
    assert not verify_trace(g, trace, p).ok


def test_verify_flags_missing_cover_event():
    g = random_connected_graph(15, 3, seed=71, extra_edges=6)
    p = SprParams.for_graph(g, seed=3)
    _, trace = run_spr(g, p)
    trace.cover_events.pop()
    assert not verify_trace(g, trace, p).ok


def test_verify_flags_double_coverage():
    g = random_connected_graph(15, 3, seed=72, extra_edges=6)
    p = SprParams.for_graph(g, seed=3)
    _, trace = run_spr(g, p)
    trace.cover_events.append(trace.cover_events[0])
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


@st.composite
def small_integer_weighted_graphs(draw):
    """Connected graphs on 3-14 vertices with weights in {1, 2, 3}, so equal
    region distances are common, and 2-6 terminals."""
    n = draw(st.integers(min_value=3, max_value=14))
    weight = st.integers(min_value=1, max_value=3).map(float)
    edges = {(draw(st.integers(0, v - 1)), v): draw(weight) for v in range(1, n)}
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2 * n)):
        if u != v:
            edges.setdefault((min(u, v), max(u, v)), draw(weight))
    k = draw(st.integers(min_value=2, max_value=min(6, n)))
    terminals = draw(st.permutations(range(n)))[:k]
    return WeightedGraph.build(range(n), [(u, v, w) for (u, v), w in edges.items()], terminals)


@settings(max_examples=60, deadline=None)
@given(small_integer_weighted_graphs(), st.integers(min_value=0, max_value=2**32))
def test_engine_traces_replay_clean_on_random_tied_graphs(g, seed):
    p = SprParams.for_graph(g, seed=seed)
    part, trace = run_spr(g, p)
    result = verify_trace(g, trace, p)
    assert result.ok, result.violations[:3]
    assert partition_from_trace(g, trace).assignment == part.assignment
