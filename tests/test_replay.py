"""The incremental cluster replay against the from-terminal reference, and
``verify_trace`` on malformed traces."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    make_trace,
    random_connected_graph,
    small_integer_weighted_graphs,
    trace_with_events,
)
from replay_reference import events_by_step, reference_verify_trace, region_search
from sprkit import RunTrace, SprParams, run_spr, verify_trace
from sprkit.cli import main
from sprkit.graph import ClusterReplay, WeightedGraph, format_graph_text, subdivide_edges


@st.composite
def replay_graphs(draw):
    """Small graphs with tied integer weights, 2-6 terminals, and half of
    them subdivided into chains of equal segments."""
    g = draw(small_integer_weighted_graphs())
    threshold = draw(st.sampled_from([None, 0.5, 1.0, 1.5]))
    if threshold is not None:
        g = subdivide_edges(g, threshold).graph
    return g


def _engine_run(g: WeightedGraph, seed: int) -> tuple[SprParams, RunTrace]:
    params = SprParams.for_graph(g, seed=seed)
    return params, run_spr(g, params)[1]


@settings(max_examples=80, deadline=None)
@given(replay_graphs(), st.integers(0, 2**32), st.randoms(use_true_random=False))
def test_search_matches_region_search_at_every_step(g, seed, rnd):
    # both ways the ledger searches: up to the radius at every step, and, at
    # claiming steps, unbounded with a stop set and an extra allowance.  The
    # replay holds owners and answers by position, the reference by id.
    _, trace = _engine_run(g, seed)
    replay = ClusterReplay(g)
    ids, index = g.vertices, g.index
    cover_by_step = events_by_step(trace)
    for ev in trace.radius_events:
        j, t_j = ev.step, g.terminals[ev.step - 1]
        owner = {v: c for v, c in zip(ids, replay.owner) if c}
        claimed = [cev.vertex for cev in cover_by_step.get((ev.round, ev.step), [])]
        searches = [(ev.radius, frozenset(), 0.0)]
        if claimed:
            unclaimed = sorted(set(g.vertices) - owner.keys())
            # as in a charging step, one stop vertex is claimed by this step
            stop = {rnd.choice(claimed), *rnd.sample(unclaimed, min(len(unclaimed), 3))}
            searches.append((math.inf, stop, rnd.choice([0.0, 0.5, 1.0, 2.5])))
        for limit, stop, extra in searches:
            found, stops = replay.search(j, limit=limit, stop={index[v] for v in stop},
                                         extra=extra)
            ref, ref_stops = region_search(g, owner, j, t_j, limit=limit, stop=stop, extra=extra)
            assert {ids[p]: d for p, d in found.items()} == {
                v: d for v, d in ref.items() if v not in owner}
            assert [(ids[p], d) for p, d in stops] == ref_stops
        ball, _ = replay.search(j, limit=ev.radius)
        assert {index[v] for v in claimed} == ball.keys()
        replay.claim(j, [index[v] for v in claimed], ball)


@settings(max_examples=80, deadline=None)
@given(replay_graphs(), st.integers(0, 2**32))
def test_verify_matches_reference_on_engine_traces(g, seed):
    params, trace = _engine_run(g, seed)
    ref, cut = reference_verify_trace(g, trace, params)
    assert cut is None
    assert verify_trace(g, trace, params) == ref


MUTATIONS = ("drop", "duplicate", "re-step", "move", "dist", "scale-q")


def _mutate(g: WeightedGraph, trace: RunTrace, kind: str, data) -> RunTrace:
    covers = list(trace.cover_events)
    radius = list(trace.radius_events)
    if kind == "scale-q":
        assume(radius)
        i = data.draw(st.integers(0, len(radius) - 1))
        factor = data.draw(st.sampled_from([0.0, 0.5, 2.0, 50.0]))
        radius[i] = radius[i]._replace(q=radius[i].q * factor)
    else:
        assume(covers)
        i = data.draw(st.integers(0, len(covers) - 1))
        ev = covers[i]
        if kind == "drop":
            del covers[i]
        elif kind == "duplicate":
            covers.insert(i, ev)
        elif kind == "dist":
            covers[i] = ev._replace(dist=ev.dist * (1 + 1e-6) + 1e-9)
        else:
            if kind == "re-step":
                others = [r.round for r in radius if r.step == ev.step and r.round != ev.round]
                assume(others)
                covers[i] = ev._replace(round=data.draw(st.sampled_from(others)))
            else:
                step = data.draw(st.sampled_from([j for j in range(1, g.k + 1) if j != ev.step]))
                covers[i] = ev._replace(step=step, terminal=g.terminals[step - 1])
    return trace_with_events(trace, radius, covers)


@settings(max_examples=200, deadline=None)
@given(replay_graphs(), st.integers(0, 2**32), st.sampled_from(MUTATIONS), st.data())
def test_verify_matches_reference_on_mutated_traces(g, seed, kind, data):
    params, trace = _engine_run(g, seed)
    mutated = _mutate(g, trace, kind, data)
    ref, cut = reference_verify_trace(g, mutated, params)
    got = verify_trace(g, mutated, params)
    assert got.ok == ref.ok
    if cut is None:
        assert got == ref
    else:
        # past the first step whose claims differ from the ball the replays
        # may disagree: the reference re-settles claims it could not reach
        assert got.violations[:cut] == ref.violations[:cut]


# --- malformed traces -----------------------------------------------------------


def _hand_trace(g, radius_events, cover_events, rounds):
    return make_trace(0.05, 0, g.k, g.terminals, radius_events, cover_events, rounds)


def _engine_trace(seed: int):
    g = random_connected_graph(20, 3, seed=seed, extra_edges=8)
    params, trace = _engine_run(g, 3)
    return g, params, trace


def test_verify_reports_cover_event_for_unknown_vertex():
    g, params, trace = _engine_trace(73)
    trace.cover_vertex[0] = 10**6
    result = verify_trace(g, trace, params)
    assert f"cover event for unknown vertex {10**6}" in result.violations


@settings(max_examples=60, deadline=None)
@given(replay_graphs(), st.integers(0, 2**32), st.data())
def test_verify_matches_reference_on_foreign_cover_vertex(g, seed, data):
    # a claim of an id outside the graph still counts towards "every vertex
    # claimed", and the real vertex it displaced stays unclaimed
    params, trace = _engine_run(g, seed)
    assume(trace.cover_vertex)
    i = data.draw(st.integers(0, len(trace.cover_vertex) - 1))
    trace.cover_vertex[i] = data.draw(st.sampled_from([max(g.vertices) + 1, 10**6]))
    ref, _ = reference_verify_trace(g, trace, params)
    assert verify_trace(g, trace, params) == ref


def test_verify_reports_vertex_covered_by_two_clusters():
    g, params, trace = _engine_trace(74)
    ev = trace.cover_events[0]
    step = ev.step % g.k + 1
    trace = trace_with_events(
        trace, cover_events=[*trace.cover_events,
                             ev._replace(step=step, terminal=g.terminals[step - 1])])
    result = verify_trace(g, trace, params)
    assert f"vertex {ev.vertex} covered twice" in result.violations


def _claim_through_other_cluster():
    """Path 0-1-2-3 with terminals 0 and 3 and a third terminal 4 hanging off
    vertex 1.  Terminal 4 claims vertex 1; a round later terminal 0 claims
    vertex 2, which it can reach only through vertex 1."""
    g = WeightedGraph.build(
        range(5), [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (1, 4, 1.0)], [0, 3, 4]
    )
    trace = _hand_trace(
        g,
        [(0, 1, 0.5, 0.5), (0, 2, 0.5, 0.5), (0, 3, 1.0, 1.0),
         (1, 1, 2.0, 2.5), (1, 2, 0.1, 0.6), (1, 3, 0.1, 1.1)],
        [(1, 4, 0, 3, 1.0), (2, 0, 1, 1, 2.0)],
        rounds=2,
    )
    return g, trace


def test_verify_reports_claim_through_another_clusters_territory():
    g, trace = _claim_through_other_cluster()
    result = verify_trace(g, trace)
    assert "step (1,1) claims [2] but ball replay gives []" in result.violations
    assert result == reference_verify_trace(g, trace)[0]


def test_analyze_claim_through_another_clusters_territory_is_usage_error(tmp_path, capsys):
    g, trace = _claim_through_other_cluster()
    gpath, tpath = tmp_path / "g.txt", tmp_path / "trace.json"
    gpath.write_text(format_graph_text(g))
    tpath.write_text(trace.to_json())
    argv = ["analyze", "--graph", str(gpath), "--pair", "0", "3", "--traces", str(tpath)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
