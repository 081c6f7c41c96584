import math
import os
import subprocess
import sys
from array import array
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sprkit
from conftest import all_pairs_relaxation, edge_filter_oracle, random_connected_graph
from paths_reference import shortest_paths
from sprkit import graph as graph_module
from sprkit.graph import (
    GraphError,
    ParseError,
    WeightedGraph,
    _distance_columns,
    canonical_path,
    format_graph_text,
    induced_subgraph,
    parse_graph_text,
    subdivide_edges,
)
from sprkit.minor import InducedMinor

REL = 1e-9


def test_build_rejects_bad_edges():
    with pytest.raises(GraphError):
        WeightedGraph.build([0, 1], [(0, 0, 1.0)], [0])
    with pytest.raises(GraphError):
        WeightedGraph.build([0, 1], [(0, 1, -2.0)], [0])
    with pytest.raises(GraphError):
        WeightedGraph.build([0, 1], [(0, 1, 1.0), (1, 0, 2.0)], [0])
    with pytest.raises(GraphError):
        WeightedGraph.build([0, 1], [(0, 1, float("inf"))], [0])
    with pytest.raises(GraphError):
        WeightedGraph.build([0, 1], [(0, 1, 1.0)], [2])
    with pytest.raises(GraphError):
        WeightedGraph.build([0, 1], [(0, 1, 1.0)], [0, 0])


def test_single_edge_distance():
    g = WeightedGraph.build([0, 1], [(0, 1, 2.5)], [0])
    assert canonical_path(g, 0, 1) == ([0, 1], [0.0, 2.5])
    assert canonical_path(g, 1, 0) == ([1, 0], [0.0, 2.5])


def test_source_distance_is_zero():
    g = random_connected_graph(15, 3, seed=1, extra_edges=5)
    for v in g.vertices:
        assert canonical_path(g, v, v) == ([v], [0.0])


def test_unknown_source_raises():
    g = WeightedGraph.build([0, 1], [(0, 1, 1.0)], [0])
    for pair in ((9, 0), (0, 9)):
        with pytest.raises(GraphError, match="unknown vertex 9"):
            canonical_path(g, *pair)


def test_distances_match_relaxation_oracle():
    g = random_connected_graph(20, 4, seed=7, extra_edges=15)
    oracle = all_pairs_relaxation(g)
    for src in g.vertices:
        for v in g.vertices:
            path, dist = canonical_path(g, src, v)
            assert (path[0], path[-1], dist[0]) == (src, v, 0.0)
            assert dist[-1] == pytest.approx(oracle[src][v], rel=REL)


def test_canonical_paths_deterministic_and_tie_broken():
    # two equal-length routes 0->3; canonical path must prefer the lower ids
    g = WeightedGraph.build(
        [0, 1, 2, 3],
        [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)],
        [0, 3],
    )
    assert canonical_path(g, 0, 3) == ([0, 1, 3], [0.0, 1.0, 2.0])
    assert canonical_path(g, 3, 0) == ([3, 1, 0], [0.0, 1.0, 2.0])


def test_unreachable_is_flagged_not_infinite():
    g = WeightedGraph.build([0, 1, 2], [(0, 1, 1.0)], [0])
    with pytest.raises(GraphError, match="vertex 2 is not reachable from 0"):
        canonical_path(g, 0, 2)


def test_induced_subgraph_identity():
    g = random_connected_graph(12, 3, seed=5, extra_edges=4)
    h = induced_subgraph(g, g.vertices)
    assert h.edges == g.edges
    assert h.terminals == g.terminals


def test_induced_subgraph_triangle():
    g = WeightedGraph.build([0, 1, 2], [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], [0, 1])
    h = induced_subgraph(g, {0, 1})
    assert h.edges == ((0, 1, 1.0),)


def test_induced_subgraph_matches_filter_oracle():
    g = random_connected_graph(24, 4, seed=9, extra_edges=20)
    keep = set(list(g.vertices)[::2]) | {g.terminals[0]}
    h = induced_subgraph(g, keep)
    assert list(h.edges) == edge_filter_oracle(g, keep)
    assert h.terminals == tuple(t for t in g.terminals if t in keep)


def test_subdivide_boundary_weight_unchanged():
    g = WeightedGraph.build([0, 1], [(0, 1, 1.0)], [0])
    res = subdivide_edges(g, 1.0)
    assert res.graph.edges == g.edges
    assert res.host_edge == {}


def test_subdivide_four_equal_segments():
    g = WeightedGraph.build([0, 1], [(0, 1, 1.0)], [0])
    res = subdivide_edges(g, 0.3)
    assert len(res.graph.edges) == 4  # ceil(1.0 / 0.3)
    for _, _, w in res.graph.edges:
        assert w == 0.25
    assert set(res.host_edge.values()) == {(0, 1)}
    # fresh vertices are degree two and not terminals
    for v in res.host_edge:
        assert len(res.graph.adjacency[v]) == 2
        assert v not in res.graph.terminals


def test_subdivide_preserves_distances():
    g = random_connected_graph(14, 3, seed=13, extra_edges=6, weight_range=(0.2, 2.0))
    oracle = all_pairs_relaxation(g)
    res = subdivide_edges(g, 0.35)
    for src in g.vertices:
        dm = shortest_paths(res.graph, src)
        for v in g.vertices:
            assert dm.distance(v) == pytest.approx(oracle[src][v], rel=REL)


def test_subdivide_rejects_bad_threshold():
    g = WeightedGraph.build([0, 1], [(0, 1, 1.0)], [0])
    with pytest.raises(GraphError):
        subdivide_edges(g, 0.0)
    with pytest.raises(GraphError):
        subdivide_edges(g, -1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=4, max_value=14))
def test_triangle_inequality_sampled(seed, n):
    g = random_connected_graph(n, 2, seed=seed, extra_edges=n // 2)
    maps = {v: shortest_paths(g, v) for v in g.vertices}
    verts = list(g.vertices)
    for u in verts[:5]:
        for v in verts[:5]:
            for w in verts[:5]:
                duv = maps[u].distance(v)
                duw = maps[u].distance(w)
                dwv = maps[w].distance(v)
                assert duv <= (duw + dwv) * (1 + REL)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.05, max_value=1.5, allow_nan=False),
)
def test_subdivision_distance_preservation_property(seed, threshold):
    g = random_connected_graph(8, 2, seed=seed, extra_edges=3, weight_range=(0.1, 2.0))
    res = subdivide_edges(g, threshold)
    oracle = all_pairs_relaxation(g)
    dm = shortest_paths(res.graph, g.terminals[0])
    for v in g.vertices:
        assert dm.distance(v) == pytest.approx(oracle[g.terminals[0]][v], rel=REL)


def test_determinism_bit_for_bit():
    g1 = random_connected_graph(16, 3, seed=21, extra_edges=8)
    g2 = random_connected_graph(16, 3, seed=21, extra_edges=8)
    assert g1.edges == g2.edges
    for v in g1.vertices:
        assert canonical_path(g1, 0, v) == canonical_path(g2, 0, v)


@st.composite
def path_graphs(draw):
    """Graphs on increasing but non-dense ids, sometimes with an isolated
    vertex, of three kinds: tied integer weights; the same subdivided into
    chains of equal segments; and weights 1e6, 1.0 and 1e-12, so that
    ``fl(d + w) == d`` for a small w beside a large d."""
    kind = draw(st.sampled_from(["tied", "chains", "sub-ulp"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = draw(st.integers(min_value=2, max_value=12))
    ids = [int(v) for v in np.sort(rng.choice(10 * n, size=n + 1, replace=False))]
    pairs = {(int(rng.integers(v)), v) for v in range(1, n)}
    for _ in range(draw(st.integers(min_value=0, max_value=2 * n))):
        u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        pairs.add((u, v))
    choices = [1e6, 1.0, 1e-12, 2e-12] if kind == "sub-ulp" else [1.0, 2.0, 3.0]
    edges = [(ids[u], ids[v], float(rng.choice(choices))) for u, v in sorted(pairs)]
    vertices = ids if draw(st.booleans()) else ids[:n]  # ids[n] stays isolated
    g = WeightedGraph.build(vertices, edges, [ids[0]])
    if kind == "chains":
        g = subdivide_edges(g, draw(st.sampled_from([0.5, 1.0, 1.5]))).graph
    return g


@settings(max_examples=150, deadline=None)
@given(path_graphs())
def test_canonical_path_equals_reference_path_to(g):
    for s in g.vertices:
        ref = shortest_paths(g, s)
        for t in g.vertices:
            if t not in ref.dist:
                with pytest.raises(GraphError, match=f"vertex {t} is not reachable from {s}"):
                    canonical_path(g, s, t)
                continue
            path = ref.path_to(t)
            assert canonical_path(g, s, t) == (path, [ref.dist[v] for v in path])


# --- the distance kernel against canonical searches -----------------------


@st.composite
def kernel_graphs(draw):
    """Sparse random graphs, often disconnected: tied integer or float
    weights, and non-dense ids from ``induced_subgraph`` half the time."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = draw(st.integers(min_value=1, max_value=16))
    tied = draw(st.booleans())
    p = draw(st.floats(min_value=0.05, max_value=0.6))
    edges = [
        (u, v, float(rng.integers(1, 4)) if tied else float(rng.uniform(0.1, 2.0)))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    k = draw(st.integers(min_value=1, max_value=n))
    terms = [int(t) for t in rng.choice(n, size=k, replace=False)]
    g = WeightedGraph.build(range(n), edges, terms)
    if draw(st.booleans()):
        g = induced_subgraph(g, [v for v in range(n) if v in terms or rng.random() < 0.7])
    return g


@settings(max_examples=200, deadline=None)
@given(kernel_graphs())
@example(WeightedGraph.build([0, 1, 4, 9], [(0, 1, 1.0), (4, 9, 2.0)], [9, 0]))
def test_kernel_rows_equal_canonical_searches(g):
    rows = g.terminal_distance_maps
    assert len(rows) == g.k
    for t, row in zip(g.terminals, rows):
        ref = shortest_paths(g, t).dist
        expected = [ref.get(v, math.inf).hex() for v in g.vertices]
        assert [row[g.index[v]].hex() for v in g.vertices] == expected

    nearest = {v: min(row[i] for row in rows) for i, v in enumerate(g.vertices)}
    assert g.nearest_terminal_distance == {
        v: d for v, d in nearest.items() if d != math.inf
    }

    # the same graph as a minor on positions 1..n
    minor = InducedMinor(
        k=g.n,
        terminal_ids=g.vertices,
        edges=tuple((g.index[u] + 1, g.index[v] + 1, w) for u, v, w in g.edges),
    )
    as_graph = WeightedGraph.build(range(1, g.n + 1), minor.edges, range(1, g.n + 1))
    for i in range(1, g.n + 1):
        ref = shortest_paths(as_graph, i).dist
        expected = [ref.get(j, math.inf).hex() for j in range(1, g.n + 1)]
        assert [d.hex() for d in minor.distance_matrix[i - 1]] == expected


def canonical_column(g, sources):
    """``float.hex`` of the distance from the nearest of ``sources`` to every
    vertex, in vertex order, from one canonical search per source."""
    best = [math.inf] * g.n
    for s in sources:
        dist = shortest_paths(g, s).dist
        best = [min(b, dist.get(v, math.inf)) for b, v in zip(best, g.vertices)]
    return [d.hex() for d in best]


def all_source_table(g):
    """The chain table with every position a source: it folds nothing."""
    return graph_module._fold_chains(g._index_adjacency, range(g.n))


def kernel_columns(g, columns, chains=None, chunk=graph_module._CHUNK,
                   width=graph_module._TAIL_WIDTH):
    """Run the private kernel on vertex-id columns, ``chunk`` columns to a
    label array and the heap tail from ``width`` active pairs on, on the
    chain table ``chains`` or else on one that folds nothing; hex rows in
    vertex order."""
    index = g.index
    pos = [[index[v] for v in col] for col in columns]
    if chains is None:
        chains = all_source_table(g)
    with mock.patch.object(graph_module, "_CHUNK", chunk), \
            mock.patch.object(graph_module, "_TAIL_WIDTH", width):
        rows = _distance_columns(chains, pos)
        return [[d.hex() for d in row] for row in rows]


# width 0 never hands over (sweeps only); width inf hands over as soon as the
# frontier stops growing, after the first sweep (tail-heavy); the widths in
# between give mixed runs.  Chunks of 1-3 columns put k above the chunk width
# and, mostly, off its multiples.
PHASES = [(0, 16), (math.inf, 16), (0, 1), (math.inf, 1), (1, 2), (2, 3), (4, 3), (64, 16)]


@settings(max_examples=150, deadline=None)
@given(kernel_graphs(), st.sampled_from(PHASES), st.sampled_from([1, 2, graph_module._BLOCK]))
def test_kernel_phases_equal_canonical_searches(g, phase, block):
    width, chunk = phase
    columns = [(t,) for t in g.terminals] + [g.terminals]
    expected = [canonical_column(g, col) for col in columns]
    with mock.patch.object(graph_module, "_BLOCK", block):
        assert kernel_columns(g, columns, chunk=chunk, width=width) == expected


def test_kernel_phases_run():
    # width 0 never hands over, so no column reaches the heap tail; at a
    # hand-over only the columns that still have active pairs do, each with
    # those pairs as seeds, and a seedless column is already final.
    # Every block expands the labels its sweep started with, so blocks of 1
    # and 3 pairs hand the tail the same seeds as one expansion of the whole
    # set.
    g = random_connected_graph(60, 5, seed=4, extra_edges=60)
    columns = [(t,) for t in g.terminals] + [g.terminals]
    pos = [[g.index[v] for v in col] for col in columns]
    expected = [canonical_column(g, col) for col in columns]
    chains = all_source_table(g)
    tails, seeds = {}, {}
    real = graph_module._dijkstra
    for width in (0, 8, math.inf):
        runs = []
        for block in (graph_module._BLOCK, 3, 1):
            calls = []

            def spy(adj, dist, sources, folds):
                calls.append(sorted(sources))
                return real(adj, dist, sources, folds)

            with mock.patch.object(graph_module, "_dijkstra", spy), \
                    mock.patch.object(graph_module, "_BLOCK", block), \
                    mock.patch.object(graph_module, "_CHUNK", 4), \
                    mock.patch.object(graph_module, "_TAIL_WIDTH", width):
                rows = list(_distance_columns(chains, pos))
            assert all(type(row) is array and row.typecode == "d" for row in rows)
            assert [[d.hex() for d in row] for row in rows] == expected
            assert all(calls)
            runs.append(calls)
        assert runs[1] == runs[0] and runs[2] == runs[0]
        tails[width] = len(runs[0])
        seeds[width] = sum(map(len, runs[0]))
    assert tails[0] == 0
    assert 0 < seeds[8] < seeds[math.inf]


def test_kernel_long_weighted_path():
    # 2,000 hops: the sweeps never hold more than two pairs per column
    rng = np.random.default_rng(11)
    n = 2000
    edges = [(v, v + 1, float(rng.uniform(0.1, 2.0))) for v in range(n - 1)]
    g = WeightedGraph.build(range(n), edges, [0, n - 1, 777])
    columns = [(t,) for t in g.terminals] + [g.terminals]
    expected = [canonical_column(g, col) for col in columns]
    for width, chunk in ((0, 16), (math.inf, 16), (64, 2)):
        assert kernel_columns(g, columns, chunk=chunk, width=width) == expected
    assert [[d.hex() for d in row] for row in g.terminal_distance_maps] == expected[:3]


def test_kernel_random_sparse_graph():
    # k = 40 columns: two full chunks of 16 and one of 8
    g = random_connected_graph(600, 40, seed=17, extra_edges=900)
    expected = [canonical_column(g, (t,)) for t in g.terminals]
    assert [[d.hex() for d in row] for row in g.terminal_distance_maps] == expected
    nearest = [min(col) for col in zip(*g.terminal_distance_maps)]
    assert [g.nearest_terminal_distance[v] for v in g.vertices] == nearest
    assert kernel_columns(g, [g.terminals], width=0) == [canonical_column(g, g.terminals)]


def test_kernel_outputs_are_python_floats():
    # a numpy.float64 would change the %r text of the minor and the trace
    g = random_connected_graph(80, 20, seed=2, extra_edges=40)
    assert all(type(d) is float for row in g.terminal_distance_maps for d in row)
    assert all(type(d) is float for d in g.nearest_terminal_distance.values())
    minor = InducedMinor(
        k=g.n,
        terminal_ids=g.vertices,
        edges=tuple((g.index[u] + 1, g.index[v] + 1, w) for u, v, w in g.edges),
    )
    assert all(type(d) is float for row in minor.distance_matrix for d in row)


# --- folded chains of degree-two vertices ----------------------------------


@st.composite
def chain_graphs(draw):
    """``subdivide_edges`` on small random graphs: tied or float weights,
    pendant edges that become dead-end chains, a triangle through one vertex
    that becomes a chain closing on it, a terminal-free ring, terminals
    drawn from the chain vertices too, and non-dense ids half the time."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = draw(st.integers(min_value=1, max_value=8))
    tied = draw(st.booleans())

    def weight():
        return float(rng.integers(1, 5)) if tied else float(rng.uniform(0.1, 4.0))

    p = draw(st.floats(min_value=0.1, max_value=0.6))
    edges = [(u, v, weight()) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    vertices = list(range(n))

    def fresh():
        vertices.append(len(vertices))
        return vertices[-1]

    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        edges.append((int(rng.integers(n)), fresh(), weight()))
    if draw(st.booleans()):
        a, x, y = int(rng.integers(n)), fresh(), fresh()
        edges += [(a, x, weight()), (x, y, weight()), (y, a, weight())]
    ring = []
    if draw(st.booleans()):
        ring = [fresh() for _ in range(3)]
        edges += [(ring[i - 1], ring[i], weight()) for i in range(3)]
    threshold = 1.0 if tied else float(rng.uniform(0.2, 1.0))
    g = subdivide_edges(WeightedGraph.build(vertices, edges, [0]), threshold).graph
    free = set(shortest_paths(g, ring[0]).dist) if ring else set()
    allowed = [v for v in g.vertices if v not in free]
    k = draw(st.integers(min_value=1, max_value=min(4, len(allowed))))
    terms = [int(t) for t in rng.choice(allowed, size=k, replace=False)]
    g = WeightedGraph.build(g.vertices, g.edges, terms)
    if draw(st.booleans()):
        g = induced_subgraph(g, [v for v in g.vertices if v in terms or rng.random() < 0.9])
    return g


@settings(max_examples=200, deadline=None)
@given(chain_graphs(), st.sampled_from(PHASES), st.sampled_from([1, 2, graph_module._FOLD_MIN]))
def test_folded_kernel_equals_canonical_searches(g, phase, fold_min):
    # rows and the all-terminal column, at every phase mix, bit for bit; the
    # heap tail runs on the reduced graph only, never from a chain interior
    width, chunk = phase
    sources = [g.index[t] for t in g.terminals]
    with mock.patch.object(graph_module, "_FOLD_MIN", fold_min):
        chains = graph_module._fold_chains(g._index_adjacency, sources)
    columns = [(t,) for t in g.terminals] + [g.terminals]
    expected = [canonical_column(g, col) for col in columns]
    real = graph_module._dijkstra

    def spy(adj, dist, seeds, folds):
        assert adj is chains.adj and folds is chains.folds
        assert len(dist) == len(kept)
        assert not interior.intersection(kept[seeds].tolist())
        return real(adj, dist, seeds, folds)

    kept = np.flatnonzero(chains.compact >= 0)
    interior = set(np.flatnonzero(chains.compact < 0).tolist())
    assert bool(interior) == (chains.folds is not None)
    assert not interior.intersection(sources)
    with mock.patch.object(graph_module, "_dijkstra", spy):
        assert kernel_columns(g, columns, chains=chains, chunk=chunk, width=width) == expected
    rows = [[d.hex() for d in row] for row in g.terminal_distance_maps]
    assert rows == expected[:-1]
    assert [d.hex() for d in g._nearest_row] == expected[-1]


def test_fold_chains_table():
    # terminals 0 and 31; 1 is the hub.  Chains: 1-10-11-12-1 closes on 1,
    # 1-20-21-22 ends at a dead end, 1-30-31 and 31-32-0 meet at a terminal
    # inside what would be one chain; the ring 40-41-42 has no end.  Walks
    # start from the lower end
    edges = [
        (0, 1, 1.0), (1, 10, 0.5), (10, 11, 0.25), (11, 12, 0.125), (12, 1, 2.0),
        (1, 20, 0.3), (20, 21, 0.7), (21, 22, 0.1), (1, 30, 0.6), (30, 31, 0.9),
        (31, 32, 1.1), (32, 0, 0.2), (40, 41, 1.0), (41, 42, 1.0), (40, 42, 1.0),
    ]
    vertices = sorted({v for e in edges for v in e[:2]})
    g = WeightedGraph.build(vertices, edges, [0, 31])
    assert g._chains.folds is None  # every chain is shorter than _FOLD_MIN
    index = g.index
    with mock.patch.object(graph_module, "_FOLD_MIN", 1):
        chains = graph_module._fold_chains(g._index_adjacency, [index[0], index[31]])
    reduced = np.flatnonzero(chains.compact >= 0)
    kept = [g.vertices[p] for p in reduced]
    assert kept == [0, 1, 22, 31, 40, 41, 42]
    assert chains.compact[reduced].tolist() == list(range(len(kept)))
    ends = {
        tuple(g.vertices[reduced[e]] for e in (a, b)): [g.vertices[p] for p in inner]
        for group in chains.groups
        for a, b, path, _ in zip(*group)
        for inner in [path]
    }
    assert ends == {(0, 31): [32], (1, 1): [10, 11, 12], (1, 22): [20, 21], (1, 31): [30]}
    folds = {
        (kept[i], kept[end]): weights for i, row in enumerate(chains.folds) for end, weights in row
    }
    # the chain back to its own end is never relaxed
    assert folds == {
        (1, 22): (0.3, 0.7, 0.1), (22, 1): (0.1, 0.7, 0.3),
        (1, 31): (0.6, 0.9), (31, 1): (0.9, 0.6),
        (31, 0): (1.1, 0.2), (0, 31): (0.2, 1.1),
    }
    columns = [(0,), (31,), (0, 31)]
    expected = [canonical_column(g, col) for col in columns]
    for width, chunk in PHASES:
        assert kernel_columns(g, columns, chains=chains, chunk=chunk, width=width) == expected
    assert expected[0][index[41]] == math.inf.hex()


def test_fold_is_a_left_to_right_sum():
    # 0.1 + 0.2 + 0.3 differs from 0.1 + (0.2 + 0.3) and from a compensated
    # sum; the folded path must give what hop-by-hop relaxation gives
    weights = [0.1, 0.2, 0.3] * 40
    edges = [(v, v + 1, w) for v, w in enumerate(weights)]
    g = WeightedGraph.build(range(len(weights) + 1), edges, [0, len(weights)])
    assert g._chains.folds is not None and len(g._chains.adj) == 2
    far = 0.0
    for w in weights:
        far += w
    assert far != math.fsum(weights)
    assert g.terminal_distance_maps[0][-1] == far
    assert [[d.hex() for d in row] for row in g.terminal_distance_maps] == [
        canonical_column(g, (t,)) for t in g.terminals
    ]


def test_chain_free_graphs_run_one_path():
    # a sparse random graph (compress-cold's shape: a random tree plus
    # uniform chords, average degree 6) has no chain to fold, and neither
    # has a minor, whose every vertex is a source: both tables fold nothing,
    # run on the graph's own rows and reach the heap tail without folds
    g = random_connected_graph(1000, 64, seed=3, extra_edges=2000)
    chains = g._chains
    assert chains.folds is None and chains.fold_csr is None and chains.groups == ()
    assert chains.adj is g._index_adjacency
    assert chains.compact.tolist() == list(range(g.n))
    minor, _, _ = sprkit.run_and_contract(g, sprkit.SprParams.for_graph(g, seed=0))
    fresh = WeightedGraph.build(g.vertices, g.edges, g.terminals)
    real = graph_module._dijkstra
    for run in (
        lambda: fresh.terminal_distance_maps,
        lambda: InducedMinor(minor.k, minor.terminal_ids, minor.edges).distance_matrix,
    ):
        calls = []

        def spy(adj, dist, seeds, folds):
            calls.append(folds)
            return real(adj, dist, seeds, folds)

        with mock.patch.object(graph_module, "_dijkstra", spy):
            run()
        assert calls and all(folds is None for folds in calls)
    expected = [canonical_column(g, (t,)) for t in g.terminals]
    assert [[d.hex() for d in row] for row in g.terminal_distance_maps] == expected


# --- the terminal block and the CSR arrays -----------------------------------


def _block_graph(edges, n, terminals):
    # subdividing the weight-10 and weight-12 edges at 1.0 leaves chains of 9
    # and 11 interior positions, both folded
    return subdivide_edges(WeightedGraph.build(range(n), edges, terminals), 1.0).graph


@settings(max_examples=150, deadline=None)
@given(st.one_of(kernel_graphs(), chain_graphs()), st.booleans())
@example(_block_graph([(0, 1, 10.0), (1, 2, 0.5)], 4, [0, 3]), False)  # folded, unreachable
@example(_block_graph([(0, 1, 10.0), (1, 2, 0.5)], 4, [0, 3]), True)
@example(_block_graph([(0, 1, 10.0), (1, 2, 12.0)], 3, [1]), False)   # k = 1
@example(_block_graph([(0, 1, 10.0), (1, 2, 12.0)], 3, [2, 0]), False)  # k = 2, reachable
def test_terminal_block_equals_the_rows_terminal_entries(g, rows_first):
    # bit for bit, whether the block is sliced from cached rows or computed
    # by the kernel first, keeping only the terminal entries
    if rows_first:
        rows = g.terminal_distance_maps
        block = g.terminal_block
    else:
        block = g.terminal_block
        assert "terminal_distance_maps" not in g.__dict__
        rows = g.terminal_distance_maps
    positions = [g.index[t] for t in g.terminals]
    assert [[d.hex() for d in row] for row in block] == [
        [row[p].hex() for p in positions] for row in rows
    ]
    assert all(type(row) is array and row.typecode == "d" for row in block)


def test_terminal_block_examples_cover_folds_and_unreachable_pairs():
    g = _block_graph([(0, 1, 10.0), (1, 2, 0.5)], 4, [0, 3])
    assert g._chains.folds is not None
    assert g.terminal_block[0][1] == math.inf and g.terminal_block[0][0] == 0.0


def generator_csr_arrays(adj):
    """The CSR arrays as ``_csr_arrays`` built them before: one
    ``np.fromiter`` over a per-entry generator for each array."""
    indptr = graph_module._row_starts(adj)
    m = int(indptr[-1])
    nbr = np.fromiter((u for row in adj for u, _ in row), np.intp, m)
    weight = np.fromiter((w for row in adj for _, w in row), np.float64, m)
    return indptr, nbr, weight


def assert_same_arrays(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


@settings(max_examples=100, deadline=None)
@given(st.one_of(kernel_graphs(), chain_graphs()))
def test_csr_arrays_equal_the_generator_build(g):
    # the graph's own rows, and the reduced rows of a table that folds chains
    for adj in (g._index_adjacency, g._chains.adj):
        assert_same_arrays(graph_module._csr_arrays(adj), generator_csr_arrays(adj))


def test_minor_csr_arrays_equal_the_generator_build():
    g = random_connected_graph(300, 40, seed=5, extra_edges=600)
    minor, _, _ = sprkit.run_and_contract(g, sprkit.SprParams.for_graph(g, seed=2))
    adj = [[] for _ in range(minor.k)]
    for i, j, w in minor.edges:
        adj[i - 1].append((j - 1, w))
        adj[j - 1].append((i - 1, w))
    chains = graph_module._fold_chains(adj, range(minor.k))
    assert_same_arrays(chains.csr, generator_csr_arrays(adj))
    for empty in ([], [()], [(), ()]):
        assert_same_arrays(graph_module._csr_arrays(empty), generator_csr_arrays(empty))


def test_distance_layer_does_not_import_scipy():
    # importing scipy.sparse.csgraph doubles the process's peak RSS, so the
    # distance layer runs on numpy alone
    code = (
        "import sys\n"
        "import sprkit\n"
        "from sprkit import SprParams, check_covering, run_and_contract\n"
        "from sprkit.generators import grid_graph\n"
        "g = grid_graph(6, 6, 'random', k=4, seed=0)\n"
        "params = SprParams.for_graph(g, seed=1)\n"
        "_, _, trace = run_and_contract(g, params)\n"
        "check_covering(trace, g, params)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(sprkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert out.stdout.strip() == "[]"


# --- text format ---------------------------------------------------------


def test_text_roundtrip():
    g = random_connected_graph(10, 3, seed=2, extra_edges=4)
    text = format_graph_text(g)
    h = parse_graph_text(text)
    assert h.vertices == g.vertices
    assert h.edges == g.edges
    assert h.terminals == g.terminals
    assert format_graph_text(h) == text


def test_text_comments_and_labels():
    text = "# demo\nv 0 root\nv 1\nt 0\ne 0 1 2.5  # trailing comment\n"
    g = parse_graph_text(text)
    assert g.labels[0] == "root"
    assert g.edges == ((0, 1, 2.5),)


@pytest.mark.parametrize(
    "text, line",
    [
        ("v 0\nv 0\n", 2),
        ("v 0\nt 5\n", 2),
        ("v 0\nv 1\ne 0 2 1.0\n", 3),
        ("x 1\n", 1),
        ("v 0\nv 1\ne 0 1 abc\n", 3),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as exc:
        parse_graph_text(text)
    assert exc.value.line_no == line
