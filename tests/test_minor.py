import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import path_t_s_t, random_connected_graph, small_integer_weighted_graphs, star_3
from distortion_reference import reference_distortion
from partition_reference import reference_crossing_pairs, reference_validate_partition
from sprkit import SprParams, run_and_contract, run_spr
from sprkit.graph import (
    GraphError,
    WeightedGraph,
    format_graph_text,
    induced_subgraph,
    subdivide_edges,
)
from sprkit.minor import (
    InducedMinor,
    InvalidPartitionError,
    TerminalPartition,
    contract,
    distortion,
    parse_minor_text,
    validate_partition,
)
from sprkit.oracle import best_partition

REL = 1e-9


def test_single_terminal_partition_ok():
    g = random_connected_graph(8, 1, seed=4, extra_edges=3)
    part = TerminalPartition({v: 1 for v in g.vertices})
    assert validate_partition(g, part) == []


def test_two_component_cluster_reported():
    # 0-1-2-3 path, terminals 0 and 3; cluster 1 = {0, 2} is split by 1
    g = WeightedGraph.build(
        [0, 1, 2, 3], [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], [0, 3]
    )
    part = TerminalPartition({0: 1, 1: 2, 2: 1, 3: 2})
    violations = validate_partition(g, part)
    assert len(violations) == 2  # both clusters split
    kinds = {v.kind for v in violations}
    assert kinds == {"disconnected-cluster"}
    assert any(v.witness[0] == 1 for v in violations)


def test_unassigned_and_misassigned_reported():
    g = path_t_s_t()
    violations = validate_partition(g, TerminalPartition({0: 1, 2: 2}))
    assert any(v.kind == "unassigned" for v in violations)
    violations = validate_partition(g, TerminalPartition({0: 2, 1: 1, 2: 1}))
    kinds = {v.kind for v in violations}
    assert "terminal-misassigned" in kinds


def test_contract_path():
    g = path_t_s_t()
    part = TerminalPartition({0: 1, 1: 1, 2: 2})
    minor = contract(g, part)
    assert minor.edges == ((1, 2, 2.0),)
    report = distortion(g, minor)
    assert report.max_ratio == pytest.approx(1.0)


def test_contract_star_frozen_values():
    g = star_3()
    part = TerminalPartition({0: 1, 1: 1, 2: 2, 3: 3})
    minor = contract(g, part)
    assert minor.edges == ((1, 2, 2.0), (1, 3, 2.0))  # no (2, 3) edge
    assert minor.distance(2, 3) == pytest.approx(4.0)
    report = distortion(g, minor)
    assert report.max_ratio == pytest.approx(2.0)
    assert report.argmax == (2, 3)


def test_star_every_assignment_gives_two():
    g = star_3()
    for j in (1, 2, 3):
        part = TerminalPartition({0: j, 1: 1, 2: 2, 3: 3})
        report = distortion(g, contract(g, part))
        assert report.max_ratio == pytest.approx(2.0)


def test_contract_single_terminal():
    g = random_connected_graph(6, 1, seed=8, extra_edges=2)
    part = TerminalPartition({v: 1 for v in g.vertices})
    minor = contract(g, part)
    assert minor.k == 1
    assert minor.edges == ()
    report = distortion(g, minor)
    assert report.max_ratio == 1.0
    assert report.pairs == ()


def test_contract_rejects_invalid_partition():
    g = path_t_s_t()
    with pytest.raises(InvalidPartitionError) as exc:
        contract(g, TerminalPartition({0: 1, 2: 2}))
    assert exc.value.violations


def test_side_cluster_pull_realizes_ratio_three():
    # a shortest-path vertex pulled into a side cluster: distance 4 between
    # the outer terminals is forced through the side terminal, giving 12/4
    g = WeightedGraph.build(
        [0, 1, 2, 3],
        [(0, 3, 2.0), (3, 1, 2.0), (2, 3, 4.0)],
        [0, 1, 2],
    )
    part = TerminalPartition({0: 1, 1: 2, 2: 3, 3: 3})
    minor = contract(g, part)
    report = distortion(g, minor)
    assert report.max_ratio == pytest.approx(3.0)
    assert report.argmax == (1, 2)
    assert minor.distance(1, 2) == pytest.approx(12.0)


def test_minor_distances_dominate_graph_distances():
    g = random_connected_graph(30, 5, seed=17, extra_edges=15)
    for seed in range(10):
        part, _ = run_spr(g, SprParams.for_graph(g, seed=seed))
        report = distortion(g, contract(g, part))
        for pair in report.pairs:
            assert pair.ratio >= 1.0 - REL


def test_contract_invariant_under_relabeling():
    g = random_connected_graph(12, 3, seed=23, extra_edges=6)
    part, _ = run_spr(g, SprParams.for_graph(g, seed=5))
    minor = contract(g, part)

    # relabel vertices by an order-reversing bijection
    relabel = {v: max(g.vertices) - v for v in g.vertices}
    g2 = WeightedGraph.build(
        [relabel[v] for v in g.vertices],
        [(relabel[u], relabel[v], w) for u, v, w in g.edges],
        [relabel[t] for t in g.terminals],
    )
    part2 = TerminalPartition({relabel[v]: j for v, j in part.assignment.items()})
    minor2 = contract(g2, part2)
    for i in range(1, g.k + 1):
        for j in range(1, g.k + 1):
            assert minor.distance(i, j) == pytest.approx(minor2.distance(i, j), rel=REL)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=3, max_value=16),
    st.booleans(),
)
def test_distortion_report_invariant_under_relabeling(seed, n, tied):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(n, int(rng.integers(2, min(n, 5) + 1)), seed, extra_edges=n // 2)
    if tied:
        g = WeightedGraph.build(
            g.vertices, [(u, v, float(round(2 * w))) for u, v, w in g.edges], g.terminals
        )
    part, _ = run_spr(g, SprParams.for_graph(g, seed=seed))

    # a random injective map onto non-dense ids, so index order changes too
    ids = rng.choice(10**6, size=g.n, replace=False)
    relabel = {v: int(x) for v, x in zip(g.vertices, ids)}
    g2 = WeightedGraph.build(
        [relabel[v] for v in g.vertices],
        [(relabel[u], relabel[v], w) for u, v, w in g.edges],
        [relabel[t] for t in g.terminals],
    )
    part2 = TerminalPartition({relabel[v]: j for v, j in part.assignment.items()})
    report = distortion(g, contract(g, part))
    assert distortion(g2, contract(g2, part2)) == report


def test_degree_two_insertion_does_not_change_minor():
    g = random_connected_graph(10, 3, seed=31, extra_edges=4)
    part, _ = run_spr(g, SprParams.for_graph(g, seed=2))
    base = contract(g, part)

    res = subdivide_edges(g, max(w for _, _, w in g.edges) / 2)
    fine = res.graph
    for side in (0, 1):
        assignment = dict(part.assignment)
        for fresh, (u, v) in res.host_edge.items():
            host = (u, v)[side]
            assignment[fresh] = part.assignment[host]
        # the naive host-side assignment may split a cluster; only compare
        # when it stays a valid partition
        part_fine = TerminalPartition(assignment)
        if validate_partition(fine, part_fine):
            continue
        minor_fine = contract(fine, part_fine)
        for i in range(1, g.k + 1):
            for j in range(1, g.k + 1):
                assert base.distance(i, j) == pytest.approx(
                    minor_fine.distance(i, j), rel=REL
                )


def test_distortion_requires_matching_terminals():
    g = star_3()
    other = InducedMinor(terminal_ids=(9, 8, 7), edges=())
    with pytest.raises(GraphError):
        distortion(g, other)


def test_distortion_disconnected_graph_rejected():
    g = WeightedGraph.build([0, 1, 2, 3], [(0, 1, 1.0), (2, 3, 1.0)], [0, 2])
    minor = InducedMinor(terminal_ids=(0, 2), edges=())
    with pytest.raises(GraphError):
        distortion(g, minor)


def test_report_json_schema():
    g = star_3()
    part = TerminalPartition({0: 1, 1: 1, 2: 2, 3: 3})
    report = distortion(g, contract(g, part))
    doc = json.loads(json.dumps(report.to_json_dict()))
    assert {"pairs", "max"} == set(doc)
    assert all({"i", "j", "dG", "dM", "ratio"} == set(p) for p in doc["pairs"])
    assert doc["max"]["ratio"] == pytest.approx(2.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_runs_yield_valid_partitions(seed):
    g = random_connected_graph(14, 4, seed=seed % 1000, extra_edges=7)
    part, _ = run_spr(g, SprParams.for_graph(g, seed=seed))
    assert validate_partition(g, part) == []


# --- position-indexed partition check against the id-keyed reference ------

FAULTS = ("drop", "unknown", "bad-index", "terminal", "move")


@st.composite
def partitions(draw):
    """A graph, half the time an induced subgraph with non-dense ids (and
    perhaps disconnected), with a run's partition or random clusters, and
    up to four faults of the kinds ``validate_partition`` reports."""
    g = draw(small_integer_weighted_graphs())
    if draw(st.booleans()):
        keep = draw(st.sets(st.sampled_from(g.vertices), min_size=1))
        g = induced_subgraph(g, keep | {g.terminals[0]})
    k = g.k
    if g.is_connected() and draw(st.booleans()):
        seed = draw(st.integers(0, 2**16))
        assignment = dict(run_spr(g, SprParams.for_graph(g, seed=seed))[0].assignment)
    else:
        assignment = {v: draw(st.integers(1, k)) for v in g.vertices}
        assignment.update((t, j) for j, t in enumerate(g.terminals, start=1))
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=4)):
        v = draw(st.sampled_from(g.vertices))
        if fault == "drop":
            assignment.pop(v, None)
        elif fault == "unknown":
            assignment[max(g.vertices) + draw(st.integers(1, 5))] = draw(st.integers(1, k))
        elif fault == "bad-index":
            assignment[v] = draw(st.sampled_from([-1, 0, k + 1]))
        elif fault == "terminal":
            assignment[draw(st.sampled_from(g.terminals))] = draw(st.integers(1, k + 1))
        else:
            assignment[v] = draw(st.integers(1, k))
    return g, TerminalPartition(assignment)


@settings(max_examples=300, deadline=None)
@given(partitions())
def test_validate_partition_matches_reference(case):
    g, part = case
    violations = validate_partition(g, part)
    assert violations == reference_validate_partition(g, part)
    if violations:
        with pytest.raises(InvalidPartitionError) as exc:
            contract(g, part)
        assert exc.value.violations == violations
    else:
        minor = contract(g, part)
        assert [(i, j) for i, j, _ in minor.edges] == reference_crossing_pairs(g, part)


# --- row-wise distortion against the per-pair loop ------------------------


@st.composite
def small_graphs(draw, max_n, min_k=1, connected=True):
    """Graphs on 2..max_n vertices with terminals in random order; weights
    are uniform floats or, to tie ratios, integers 1..3."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = draw(st.integers(min_value=max(2, min_k), max_value=max_n))
    k = draw(st.integers(min_value=min_k, max_value=n))
    tied = draw(st.booleans())

    def weight():
        return float(rng.integers(1, 4)) if tied else float(rng.uniform(0.5, 1.5))

    edges = {}
    if connected:
        for v in range(1, n):
            edges[(int(rng.integers(0, v)), v)] = weight()
    for _ in range(int(rng.integers(0, n + 1))):
        u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        edges[(u, v)] = weight()
    terms = [int(t) for t in rng.choice(n, size=k, replace=False)]
    return WeightedGraph.build(range(n), [(u, v, w) for (u, v), w in edges.items()], terms)


def outcome(fn, g, minor):
    """The report as fields and as the JSON text ``sprkit run`` writes, or
    the error text."""
    try:
        report = fn(g, minor)
    except GraphError as exc:
        return str(exc)
    text = json.dumps(report.to_json_dict(), indent=2)
    # the mean as it was taken from the records, before the columns
    pairs = report.pairs
    assert report.mean_ratio == (sum(p.ratio for p in pairs) / len(pairs) if pairs else 1.0)
    return pairs, report.max_ratio, report.argmax, report.mean_ratio, text


@settings(max_examples=100, deadline=None)
@given(small_graphs(max_n=16), st.integers(min_value=0, max_value=2**16))
def test_distortion_equals_pair_loop_on_run_minors(g, seed):
    part, _ = run_spr(g, SprParams.for_graph(g, seed=seed))
    minor = contract(g, part)
    assert outcome(distortion, g, minor) == outcome(reference_distortion, g, minor)


@settings(max_examples=100, deadline=None)
@given(small_graphs(max_n=12, connected=False), st.integers(min_value=0, max_value=2**16))
def test_distortion_equals_pair_loop_on_any_minor(g, seed):
    # integer minor weights over integer graph distances tie ratios across
    # rows; a disconnected graph must raise the pair loop's error
    rng = np.random.default_rng(seed)
    edges = tuple(
        (i, j, float(rng.integers(1, 5)))
        for i in range(1, g.k + 1)
        for j in range(i + 1, g.k + 1)
        if rng.random() < 0.5
    )
    minor = InducedMinor(terminal_ids=g.terminals, edges=edges)
    assert outcome(distortion, g, minor) == outcome(reference_distortion, g, minor)


@settings(max_examples=100, deadline=None)
@given(
    small_graphs(max_n=12),
    st.integers(min_value=0, max_value=2**16),
    st.sampled_from([None, 0.0, 0.5, 1.0]),
    st.sampled_from(["sorted", "reversed", "shuffled"]),
)
def test_minor_text_round_trips(g, seed, density, order):
    # a run minor (density None), or a hand-built one whose pairs are edges
    # with probability ``density``, given in ``order``, a reversed list
    # with every pair reversed too: k = 1 and density 0.0 have no edges
    if density is None:
        minor = contract(g, run_spr(g, SprParams.for_graph(g, seed=seed))[0])
    else:
        rng = np.random.default_rng(seed)
        edges = [
            (i, j, float(rng.uniform(0.5, 4.0)))
            for i in range(1, g.k + 1)
            for j in range(i + 1, g.k + 1)
            if rng.random() < density
        ]
        if order == "reversed":
            edges = [(j, i, w) for i, j, w in reversed(edges)]
        elif order == "shuffled":
            rng.shuffle(edges)
        minor = InducedMinor(terminal_ids=g.terminals, edges=edges)
        assert minor.edges == tuple(sorted((min(e[:2]), max(e[:2]), e[2]) for e in edges))
    back = parse_minor_text(format_graph_text(minor.graph))
    assert (back.k, back.terminal_ids, back.edges) == (minor.k, minor.terminal_ids, minor.edges)
    assert outcome(distortion, g, back) == outcome(distortion, g, minor)


# each case keeps the id it had while the minor had edge texts of its own
@pytest.mark.parametrize("edges", [
    pytest.param(((1, 5, 1.0),), id="edges0-minor edge (1,5) of weight 1.0 needs 1 <= i < j <= 3"),
    pytest.param(((0, 2, 1.0),), id="edges1-minor edge (0,2) of weight 1.0 needs 1 <= i < j <= 3"),
    pytest.param(((2, 1, 1.0), (1, 2, 3.0)),
                 id="edges2-minor edge (2,1) of weight 1.0 needs 1 <= i < j <= 3"),
    pytest.param(((2, 2, 1.0),), id="edges3-minor edge (2,2) of weight 1.0 needs 1 <= i < j <= 3"),
    pytest.param(((1, 2, 0.0),), id="edges4-minor edge (1,2) of weight 0.0 needs"),
    pytest.param(((1, 3, -1.0),), id="edges5-minor edge (1,3) of weight -1.0 needs"),
    pytest.param(((1, 2, math.inf),), id="edges6-minor edge (1,2) of weight inf needs"),
    pytest.param(((1, 2, math.nan),), id="edges7-minor edge (1,2) of weight nan needs"),
    pytest.param(((1, 2, 1.0), (1, 3, 1.0), (1, 2, 3.0)), id="edges8-minor edges repeat a pair"),
])
def test_minor_rejects_bad_edges(edges):
    # an index beyond k once ended in a bare KeyError from the distance
    # kernel, and a reversed pair beside its forward one was relaxed
    # silently; the minor is refused by the graph rules, in their words
    ids = (1, 2, 3)
    with pytest.raises(GraphError) as built:
        WeightedGraph.build(ids, edges, ids)
    with pytest.raises(GraphError) as exc:
        InducedMinor(terminal_ids=(7, 8, 9), edges=edges)
    assert str(exc.value) == str(built.value)


def test_minor_k_is_its_terminal_count():
    # k was once a field of its own: k=5 beside three terminals read back
    # as terminals (7, 8, 9, 4, 5), and k=2 dropped terminal 9
    minor = InducedMinor(terminal_ids=(7, 8, 9), edges=((1, 2, 1.0),))
    assert minor.k == 3 and minor.graph.vertices == (1, 2, 3)
    back = parse_minor_text(format_graph_text(minor.graph))
    assert back.terminal_ids == (7, 8, 9)
    with pytest.raises(GraphError, match="^at least one terminal required$"):
        InducedMinor(terminal_ids=(), edges=())


@pytest.mark.parametrize("k", [1, 2])
def test_distortion_small_k_equals_pair_loop(k):
    for seed in range(10):
        g = random_connected_graph(9, k, seed=seed, extra_edges=4)
        minor, report, _ = run_and_contract(g, SprParams.for_graph(g, seed=seed))
        assert outcome(distortion, g, minor) == outcome(reference_distortion, g, minor)
        assert len(report.pairs) == k * (k - 1) // 2


def test_distortion_unreachable_pair_message_unchanged():
    # components {0, 1, 2} and {3, 4}: the first unreachable pair in (i, j)
    # order is terminals 1 and 3, that is vertices 0 and 3
    g = WeightedGraph.build(range(5), [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)], [0, 1, 3, 2, 4])
    minor = InducedMinor(terminal_ids=g.terminals, edges=())
    with pytest.raises(GraphError) as exc:
        distortion(g, minor)
    assert str(exc.value) == "terminal pair (0,3) unreachable; graph must be connected"
    assert outcome(reference_distortion, g, minor) == str(exc.value)


@settings(max_examples=60, deadline=None)
@given(small_graphs(max_n=10, min_k=2), st.integers(min_value=0, max_value=2**16))
def test_oracle_floor_below_run_distortion(g, seed):
    # the run's partition is one of the oracle's candidates
    _, report, _ = run_and_contract(g, SprParams.for_graph(g, seed=seed))
    assert best_partition(g).best_distortion <= report.max_ratio
