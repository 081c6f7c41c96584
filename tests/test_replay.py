"""The incremental cluster replay against the from-terminal reference, and
``verify_trace`` on malformed traces."""

import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    fine_pair_graph,
    make_trace,
    random_connected_graph,
    small_integer_weighted_graphs,
    trace_with_events,
)
from ledger_reference import reference_reconstruct_ledger
from replay_reference import events_by_step, reference_verify_trace, region_search
from test_charging import _ledger_outcome
from sprkit import (
    RunTrace,
    SprParams,
    build_interval_partition,
    reconstruct_ledger,
    run_spr,
    verify_trace,
)
from sprkit import verify as verify_module
from sprkit.charging import InteriorTerminalError
from sprkit.cli import main
from sprkit.generators import grid_graph
from sprkit.graph import (
    ClusterReplay,
    GraphError,
    WeightedGraph,
    format_graph_text,
    subdivide_edges,
)


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


def test_search_skips_stale_heap_entries():
    # vertex 2 is pushed at 3.0 from the boundary, then improved to 2.0
    # through vertex 1: the stale 3.0 entry pops last and must not replace
    # the settled distance
    g = WeightedGraph.build([0, 1, 2, 3], [(0, 1, 1.0), (0, 2, 3.0), (1, 2, 1.0), (2, 3, 5.0)],
                            [0, 3])
    found, stops = ClusterReplay(g).search(1, limit=5.0)
    assert found == {1: 1.0, 2: 2.0} and stops == []
    ref, _ = region_search(g, {0: 1, 3: 2}, 1, 0, limit=5.0)
    assert {v: d for v, d in ref.items() if v not in (0, 3)} == found


@settings(max_examples=80, deadline=None)
@given(replay_graphs(), st.integers(0, 2**32))
def test_verify_matches_reference_on_engine_traces(g, seed):
    params, trace = _engine_run(g, seed)
    ref, cut = reference_verify_trace(g, trace, params)
    assert cut is None
    assert verify_trace(g, trace, params) == ref


MUTATIONS = ("drop", "duplicate", "re-step", "move", "dist", "scale-q", "ulp", "terminal")


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
        elif kind == "ulp":
            # inside REL_TOL: no violation, but no longer equal to the replay
            toward = data.draw(st.sampled_from([-math.inf, math.inf]))
            covers[i] = ev._replace(dist=math.nextafter(ev.dist, toward))
        elif kind == "terminal":
            # another cluster's terminal; for the event's own terminal see
            # test_verify_words_a_claim_of_its_own_terminal_as_the_reference_does
            others = [t for t in g.terminals if t != ev.terminal]
            covers[i] = ev._replace(vertex=data.draw(st.sampled_from(others)))
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


def test_verify_words_a_claim_of_its_own_terminal_as_the_reference_does():
    # the stepping terminal is at 0.0 from itself, so its claim is worded as
    # a distance mismatch, as the from-terminal reference words it
    g = WeightedGraph.build([0, 1, 2], [(0, 1, 1.0), (0, 2, 1.0)], [0, 1])
    params, trace = _engine_run(g, 0)
    [ev] = trace.cover_events
    trace = trace_with_events(trace, cover_events=[ev._replace(vertex=ev.terminal)])
    ref, _ = reference_verify_trace(g, trace, params)
    assert verify_trace(g, trace, params) == ref
    assert ref.violations == (
        "terminal 0 appears in a cover event",
        "vertex 2 never covered",
        "step (9,1) claims [0] but ball replay gives [2]",
        "recorded distance 1.0 for vertex 0 differs from replayed 0.0",
    )


# --- malformed traces -----------------------------------------------------------


def _hand_trace(g, radius_events, cover_events, rounds):
    return make_trace(0.05, 0, g.k, g.terminals, radius_events, cover_events, rounds)


def _engine_trace(seed: int):
    g = random_connected_graph(20, 3, seed=seed, extra_edges=8)
    params, trace = _engine_run(g, 3)
    return g, params, trace


@pytest.mark.parametrize("radius_events, violations", [
    ([], ()),
    ([(0, 1, 0.5, 0.5)], ("single-terminal trace must have no radius events",)),
])
def test_verify_single_terminal_trace(tmp_path, capsys, radius_events, violations):
    # k = 1: the engine claims every vertex without sampling, so a trace
    # has cover events only, and one radius event is a fault
    g = random_connected_graph(12, 1, seed=5, extra_edges=6)
    params, trace = _engine_run(g, 0)
    assert trace.k == 1 and trace.rounds == 0 and not trace.radius_round
    assert len(trace.cover_vertex) == g.n - 1
    trace = trace_with_events(trace, radius_events=radius_events)
    ref, _ = reference_verify_trace(g, trace, params)
    assert verify_trace(g, trace, params).violations == violations == ref.violations
    gpath, tpath = tmp_path / "g.txt", tmp_path / "trace.json"
    gpath.write_text(format_graph_text(g))
    tpath.write_text(trace.to_json())
    assert main(["verify", "--graph", str(gpath), "--trace", str(tpath)]) == (1 if violations else 0)
    assert capsys.readouterr().err == "".join(f"violation: {v}\n" for v in violations)


def test_verify_reports_mismatched_terminals():
    # the same vertices in another order are another terminal list
    g, params, trace = _engine_trace(75)
    other = WeightedGraph.build(g.vertices, g.edges, g.terminals[::-1])
    expected = ("trace terminals do not match graph terminals",)
    assert verify_trace(other, trace, params).violations == expected
    assert reference_verify_trace(other, trace, params)[0].violations == expected


def test_verify_reports_negative_increment():
    # terminal 0 steps with q = -0.5 and claims nothing; terminal 2 claims 1
    g = WeightedGraph.build([0, 1, 2], [(0, 1, 1.0), (1, 2, 1.0)], [0, 2])
    trace = _hand_trace(g, [(0, 1, -0.5, -0.5), (0, 2, 1.5, 1.5)], [(1, 2, 0, 2, 1.0)], rounds=1)
    result = verify_trace(g, trace)
    assert result.violations == ("negative increment at round 0 step 1",)
    assert result == reference_verify_trace(g, trace)[0]


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


def test_verify_checks_the_final_partition_on_positions(monkeypatch):
    # with no foreign id the replay's owner list is the label list: the
    # id-keyed check is never built, and the violation reads as before
    g, trace = _claim_through_other_cluster()
    monkeypatch.setattr(verify_module, "validate_partition", None)
    result = verify_trace(g, trace)
    assert result.violations[-1] == (
        "final partition invalid: disconnected-cluster: "
        "cluster 1 splits into components containing 0 and 2"
    )
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


# --- the edge-column certificate against the step replay -----------------------


@st.composite
def certificate_graphs(draw):
    """``replay_graphs``, or one of its shapes with weights that mix 1e16 with
    ones a distance that large absorbs (``fl(d + w) == d``), so that witness
    ties are common."""
    g = draw(replay_graphs())
    if draw(st.booleans()):
        return g
    weight = st.sampled_from([1e16, 1e-300, 1.0, 3.0])
    return WeightedGraph.build(g.vertices, [(u, v, draw(weight)) for u, v, _ in g.edges],
                               g.terminals)


@settings(max_examples=150, deadline=None)
@given(certificate_graphs(), st.integers(0, 2**32),
       st.sampled_from((None, *MUTATIONS, "scale-q-radius")), st.data())
def test_certificate_matches_the_step_replay(g, seed, kind, data):
    # "scale-q-radius" scales an increment and re-accumulates the recorded
    # radii, so no radius mismatch is reported and the balls decide
    try:
        params, trace = _engine_run(g, seed)
    except GraphError:
        assume(False)
    if kind == "scale-q-radius":
        assume(trace.radius_q)
        i = data.draw(st.integers(0, len(trace.radius_q) - 1))
        trace.radius_q[i] *= data.draw(st.sampled_from([0.0, 0.5, 2.0, 50.0]))
        radii = dict.fromkeys(range(1, g.k + 1), 0.0)
        for m, (j, q) in enumerate(zip(trace.radius_step, trace.radius_q)):
            radii[j] += q
            trace.radius_R[m] = radii[j]
    elif kind is not None:
        trace = _mutate(g, trace, kind, data)
    try:
        partition = build_interval_partition(g, g.terminals[0], g.terminals[1], params)
    except InteriorTerminalError:
        partition = None
    got = verify_trace(g, trace, params)
    ledger = partition and _ledger_outcome(reconstruct_ledger, trace, g, partition, params)
    claiming = verify_module.replay_trace(g, trace, params)[1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify_module, "_certified", lambda *args: False)
        assert verify_trace(g, trace, params) == got
        assert ledger == (partition and _ledger_outcome(reconstruct_ledger, trace, g,
                                                        partition, params))
        # the ledger's input: the same claiming steps, balls and doubles
        if got.ok:
            assert verify_module.replay_trace(g, trace, params)[1] == claiming


def _spy_on_searches(monkeypatch) -> list:
    """A list to which every later ``ClusterReplay.search`` appends whether
    it had a ``stop`` set (the ledger's set shrinks later, so it is read at
    the call)."""
    stops, search = [], ClusterReplay.search

    def spy(self, cluster, limit=math.inf, stop=frozenset(), extra=0.0):
        stops.append(bool(stop))
        return search(self, cluster, limit, stop, extra)

    monkeypatch.setattr(ClusterReplay, "search", spy)
    return stops


def _no_partition_check(*args):
    raise AssertionError("partition check on a certified trace")


def _no_replay(*args):
    raise AssertionError("ClusterReplay built for a certified trace")


@pytest.mark.parametrize("g", [
    pytest.param(fine_pair_graph(8, seed=1, fineness=1.0), id="analyze-pair-tiny"),
    pytest.param(grid_graph(12, 12, "random", k=6, seed=2), id="grid-12x12"),
])
def test_engine_traces_are_certified(monkeypatch, g):
    # a certified trace is searched only for the ledger's triggers, each with
    # a stop set, and verify builds no replay and checks no partition
    for pair in ((t, u) for t in g.terminals for u in g.terminals if t < u):
        try:
            partition = build_interval_partition(g, *pair, SprParams.for_graph(g))
            break
        except InteriorTerminalError:
            continue
    stops = _spy_on_searches(monkeypatch)
    monkeypatch.setattr(verify_module, "_check_partition", _no_partition_check)
    monkeypatch.setattr(verify_module, "ClusterReplay", _no_replay)
    for seed in range(3):
        params, trace = _engine_run(g, seed)
        assert verify_trace(g, trace, params).ok
        ledger = reconstruct_ledger(trace, g, partition, params)
        assert ledger.steps and stops and all(stops)
        stops.clear()


def test_a_trace_whose_only_witness_ties_takes_the_step_replay(monkeypatch):
    # d(2) = fl(1e16 + 1.0) = 1e16 = d(1): vertex 2's only witness ties, so
    # the certificate refuses a valid trace, which the step replay accepts
    g = WeightedGraph.build(range(4), [(0, 1, 1e16), (1, 2, 1.0), (2, 3, 1e16)], [0, 3])
    trace = _hand_trace(g, [(0, 1, 2e16, 2e16), (0, 2, 0.5, 0.5)],
                        [(1, 0, 0, 1, 1e16), (2, 0, 0, 1, 1e16)], rounds=1)
    params = SprParams.for_graph(g)
    partition = build_interval_partition(g, 0, 3, params)
    stops = _spy_on_searches(monkeypatch)
    assert verify_trace(g, trace).ok
    assert False in stops
    outcome = _ledger_outcome(reconstruct_ledger, trace, g, partition, params)
    assert outcome[0] and outcome == _ledger_outcome(reference_reconstruct_ledger, trace, g,
                                                     partition, params)


def test_the_certificate_refuses_a_distance_a_shorter_edge_undercuts():
    # vertex 2 is recorded at 2.0 through vertex 1, an exact witness, but the
    # edge 0-2 reaches it at 1.0: only the bound of condition (b) sees it
    g = WeightedGraph.build(range(4), [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 10.0)],
                            [0, 3])
    trace = _hand_trace(g, [(0, 1, 2.5, 2.5), (0, 2, 0.5, 0.5)],
                        [(1, 0, 0, 1, 1.0), (2, 0, 0, 1, 2.0)], rounds=1)
    expected = ("recorded distance 2.0 for vertex 2 differs from replayed 1.0",)
    assert verify_trace(g, trace).violations == expected
    assert reference_verify_trace(g, trace)[0].violations == expected


@pytest.mark.parametrize("column, value, violations", [
    ("cover_round", 10**20, ("step (27,3) claims [] but ball replay gives [7]",
                             f"cover events at step ({10**20},3) have no radius event")),
    ("cover_step", 10**20, ("step (27,3) claims [] but ball replay gives [7]",
                            f"cover events at step (27,{10**20}) have no radius event")),
    ("cover_dist", 3, ("recorded distance 3 for vertex 7 differs from replayed "
                       "3.1768490335590736",)),
])
def test_columns_the_certificate_cannot_hold_take_the_step_replay(column, value, violations):
    # an integer past int64 or a distance that is no float never reaches the
    # certificate's arrays: the step replay words the faults
    g, params, trace = _engine_trace(75)
    assert trace.cover_vertex[-1] == 7
    getattr(trace, column)[-1] = value
    assert verify_trace(g, trace, params).violations == violations


def test_an_integer_distance_past_two_to_the_53_is_replayed():
    # 2**53 + 1 is no double, and within REL_TOL of the replayed 2**53
    g = WeightedGraph.build([0, 1, 2], [(0, 1, 2.0**53), (1, 2, 2.0**53)], [0, 2])
    trace = _hand_trace(g, [(0, 1, 2.0**54, 2.0**54), (0, 2, 1.0, 1.0)],
                        [(1, 0, 0, 1, 2**53 + 1)], rounds=1)
    assert verify_trace(g, trace).ok and reference_verify_trace(g, trace)[0].ok


def test_verify_words_a_distance_past_the_float_range():
    g, params, trace = _engine_trace(75)
    trace.cover_dist[-1] = 10**400
    v = trace.cover_vertex[-1]
    assert any(f.startswith(f"recorded distance {10**400} for vertex {v} differs from replayed ")
               for f in verify_trace(g, trace, params).violations)


@pytest.mark.parametrize("kind, field, value, verify_code", [
    ("cover", "round", 10**20, 1), ("cover", "dist", 10**400, 1),
    ("radius", "q", 10**400, 1), ("params", "delta", 10**400, 2),
], ids=["round-past-int64", "dist-past-float", "q-past-float", "delta-past-float"])
def test_cli_refuses_columns_past_the_certificate(tmp_path, capsys, kind, field, value,
                                                  verify_code):
    # a trace's delta is checked as a parameter (exit 2), an event's field by
    # the replay (exit 1)
    g, _, trace = _engine_trace(75)
    events = json.loads(trace.to_json())
    if kind == "params":
        events[kind][field] = value
    else:
        [*_, last] = (ev for ev in events["events"] if ev["type"] == kind)
        last[field] = value
    gpath, tpath = tmp_path / "g.txt", tmp_path / "trace.json"
    gpath.write_text(format_graph_text(g))
    tpath.write_text(json.dumps(events))
    assert main(["verify", "--graph", str(gpath), "--trace", str(tpath)]) == verify_code
    if kind == "radius":  # worded as a violation of its step
        assert (f"violation: increment at round {last['round']} step {last['step']} is past "
                "the float range") in capsys.readouterr().err
    pair = [str(t) for t in g.terminals[:2]]
    argv = ["analyze", "--graph", str(gpath), "--pair", *pair, "--traces", str(tpath),
            "--out", str(tmp_path / "a.json")]
    assert main(argv) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "a.json").exists()
