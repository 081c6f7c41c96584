import ast
import math
import os
import subprocess
import sys
import warnings
from array import array
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sprkit
import graph_text_reference
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
    return graph_module._fold_chains(g._csr(), range(g.n))


def kernel_columns(g, columns, chains=None, chunk=graph_module._CHUNK):
    """Run the private kernel on vertex-id columns, ``chunk`` columns to a
    label array, on the chain table ``chains`` or else on one that folds
    nothing; hex rows in vertex order."""
    index = g.index
    pos = [[index[v] for v in col] for col in columns]
    if chains is None:
        chains = all_source_table(g)
    with mock.patch.object(graph_module, "_CHUNK", chunk):
        rows = _distance_columns(chains, pos)
        return [[d.hex() for d in row] for row in rows]


# chunk sizes: chunks of 1-3 columns put k above the chunk width and, mostly,
# off its multiples
PHASES = [16, 1, 2, 3]


@settings(max_examples=150, deadline=None)
@given(kernel_graphs(), st.sampled_from(PHASES), st.sampled_from([1, 2, graph_module._BLOCK]))
def test_kernel_phases_equal_canonical_searches(g, chunk, block):
    columns = [(t,) for t in g.terminals] + [g.terminals]
    expected = [canonical_column(g, col) for col in columns]
    with mock.patch.object(graph_module, "_BLOCK", block):
        assert kernel_columns(g, columns, chunk=chunk) == expected


def test_kernel_phases_run():
    # every block expands the labels its sweep started with, so blocks of 1
    # and 3 pairs expand the same pairs, sweep after sweep, as one expansion
    # of the whole set
    g = random_connected_graph(60, 5, seed=4, extra_edges=60)
    columns = [(t,) for t in g.terminals] + [g.terminals]
    pos = [[g.index[v] for v in col] for col in columns]
    expected = [canonical_column(g, col) for col in columns]
    chains = all_source_table(g)
    real = graph_module._expand
    runs = []
    for block in (graph_module._BLOCK, 3, 1):
        expanded = []

        def spy(labels, csr, c, pairs, base):
            expanded.extend(pairs.tolist())
            return real(labels, csr, c, pairs, base)

        with mock.patch.object(graph_module, "_expand", spy), \
                mock.patch.object(graph_module, "_BLOCK", block), \
                mock.patch.object(graph_module, "_CHUNK", 4):
            rows = list(_distance_columns(chains, pos))
        assert all(type(row) is array and row.typecode == "d" for row in rows)
        assert [[d.hex() for d in row] for row in rows] == expected
        runs.append(expanded)
    assert runs[0] and runs[1] == runs[0] and runs[2] == runs[0]


def test_kernel_long_weighted_path():
    # 2,000 hops: the sweeps never hold more than two pairs per column
    rng = np.random.default_rng(11)
    n = 2000
    edges = [(v, v + 1, float(rng.uniform(0.1, 2.0))) for v in range(n - 1)]
    g = WeightedGraph.build(range(n), edges, [0, n - 1, 777])
    columns = [(t,) for t in g.terminals] + [g.terminals]
    expected = [canonical_column(g, col) for col in columns]
    for chunk in (16, 2):
        assert kernel_columns(g, columns, chunk=chunk) == expected
    assert [[d.hex() for d in row] for row in g.terminal_distance_maps] == expected[:3]


def test_kernel_random_sparse_graph():
    # k = 40 columns: two full chunks of 16 and one of 8
    g = random_connected_graph(600, 40, seed=17, extra_edges=900)
    expected = [canonical_column(g, (t,)) for t in g.terminals]
    assert [[d.hex() for d in row] for row in g.terminal_distance_maps] == expected
    nearest = [min(col) for col in zip(*g.terminal_distance_maps)]
    assert [g.nearest_terminal_distance[v] for v in g.vertices] == nearest
    assert kernel_columns(g, [g.terminals]) == [canonical_column(g, g.terminals)]


def test_kernel_outputs_are_python_floats():
    # a numpy.float64 would change the %r text of the minor and the trace
    g = random_connected_graph(80, 20, seed=2, extra_edges=40)
    assert all(type(d) is float for row in g.terminal_distance_maps for d in row)
    assert all(type(d) is float for d in g.nearest_terminal_distance.values())
    minor = InducedMinor(
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
def test_folded_kernel_equals_canonical_searches(g, chunk, fold_min):
    # rows and the all-terminal column, at every chunk size, bit for bit
    sources = [g.index[t] for t in g.terminals]
    with mock.patch.object(graph_module, "_FOLD_MIN", fold_min):
        chains = graph_module._fold_chains(g._csr(), sources)
    columns = [(t,) for t in g.terminals] + [g.terminals]
    expected = [canonical_column(g, col) for col in columns]
    interior = set(np.flatnonzero(chains.compact < 0).tolist())
    assert bool(interior) == (chains.fold_csr is not None)
    assert not interior.intersection(sources)
    assert kernel_columns(g, columns, chains=chains, chunk=chunk) == expected
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
    assert g._chains.fold_csr is None  # every chain is shorter than _FOLD_MIN
    index = g.index
    with mock.patch.object(graph_module, "_FOLD_MIN", 1):
        chains = graph_module._fold_chains(g._csr(), [index[0], index[31]])
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
    indptr, end, hops, first, weight = chains.fold_csr
    assert indptr.size == len(kept) + 1
    folds = {
        (kept[i], kept[end[f]]): tuple(weight[first[f]:first[f] + hops[f]].tolist())
        for i in range(len(kept))
        for f in range(indptr[i], indptr[i + 1])
    }
    # the chain back to its own end is never relaxed
    assert folds == {
        (1, 22): (0.3, 0.7, 0.1), (22, 1): (0.1, 0.7, 0.3),
        (1, 31): (0.6, 0.9), (31, 1): (0.9, 0.6),
        (31, 0): (1.1, 0.2), (0, 31): (0.2, 1.1),
    }
    columns = [(0,), (31,), (0, 31)]
    expected = [canonical_column(g, col) for col in columns]
    for chunk in PHASES:
        assert kernel_columns(g, columns, chains=chains, chunk=chunk) == expected
    assert expected[0][index[41]] == math.inf.hex()


def test_fold_is_a_left_to_right_sum():
    # 0.1 + 0.2 + 0.3 differs from 0.1 + (0.2 + 0.3) and from a compensated
    # sum; the folded path must give what hop-by-hop relaxation gives
    weights = [0.1, 0.2, 0.3] * 40
    edges = [(v, v + 1, w) for v, w in enumerate(weights)]
    g = WeightedGraph.build(range(len(weights) + 1), edges, [0, len(weights)])
    assert g._chains.fold_csr is not None and g._chains.csr[0].size == 3  # two ends
    far = 0.0
    for w in weights:
        far += w
    assert far != math.fsum(weights)
    assert g.terminal_distance_maps[0][-1] == far
    assert [[d.hex() for d in row] for row in g.terminal_distance_maps] == [
        canonical_column(g, (t,)) for t in g.terminals
    ]


def test_sums_past_the_float_range_are_inf_without_a_warning():
    # a folded chain of 1e307 edges: its sums pass the float range after 17
    # hops and are inf, as hop-by-hop Python float sums are, with no numpy
    # overflow warning from the sweep or the unfolding
    g = WeightedGraph.build(range(41), [(v, v + 1, 1e307) for v in range(40)], [0, 40])
    assert g._chains.fold_csr is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = g.terminal_distance_maps
    assert [[d.hex() for d in row] for row in rows] == [
        canonical_column(g, (t,)) for t in g.terminals
    ]
    assert rows[0][17] < math.inf == rows[0][18]


def test_chain_free_graphs_run_one_path():
    # a sparse random graph (compress-cold's shape: a random tree plus
    # uniform chords, average degree 6) has no chain to fold, and neither
    # has a minor, whose every vertex is a source: both tables fold nothing
    # and run on the graph's own CSR arrays
    g = random_connected_graph(1000, 64, seed=3, extra_edges=2000)
    minor, _, _ = sprkit.run_and_contract(g, sprkit.SprParams.for_graph(g, seed=0))
    for graph in (g, minor.graph):
        chains = graph._chains
        assert chains.fold_csr is None and chains.groups == ()
        assert chains.compact.tolist() == list(range(graph.n))
        assert_same_arrays(chains.csr, generator_csr_arrays(edge_rows(graph)))
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
    assert g._chains.fold_csr is not None
    assert g.terminal_block[0][1] == math.inf and g.terminal_block[0][0] == 0.0


def edge_rows(g):
    """The position rows as ``_index_adjacency`` built them before: every
    edge of ``g.edges`` appended to the rows of both its ends."""
    adj = [[] for _ in g.vertices]
    for u, v, w in g.edges:
        i, j = g.index[u], g.index[v]
        adj[i].append((j, w))
        adj[j].append((i, w))
    return tuple(map(tuple, adj))


def generator_csr_arrays(adj):
    """The CSR arrays as ``_csr_arrays`` built them before: one
    ``np.fromiter`` over a per-entry generator for each array."""
    indptr = np.zeros(len(adj) + 1, dtype=np.intp)
    np.cumsum([len(row) for row in adj], out=indptr[1:])
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
    # the rows, their id-keyed view and the CSR arrays sorted from the edge
    # columns, against the rows built edge by edge; and the reduced rows of
    # the chain table, rebuilt from its position map
    adj = edge_rows(g)
    assert g._index_adjacency == adj
    ids = g.vertices
    assert g.adjacency == {ids[p]: tuple((ids[q], w) for q, w in row) for p, row in enumerate(adj)}
    assert_same_arrays(g._csr(), generator_csr_arrays(adj))
    compact = g._chains.compact.tolist()
    reduced = [[(compact[q], w) for q, w in row if compact[q] >= 0]
               for p, row in enumerate(adj) if compact[p] >= 0]
    assert_same_arrays(g._chains.csr, generator_csr_arrays(reduced))


def test_minor_csr_arrays_equal_the_generator_build():
    # the minor's graph folds nothing and takes its CSR arrays straight from
    # its edge columns, without building the position rows
    g = random_connected_graph(300, 40, seed=5, extra_edges=600)
    minor, _, _ = sprkit.run_and_contract(g, sprkit.SprParams.for_graph(g, seed=2))
    adj = [[] for _ in range(minor.k)]
    for i, j, w in minor.edges:
        adj[i - 1].append((j - 1, w))
        adj[j - 1].append((i - 1, w))
    minor.distance_matrix
    assert "_index_adjacency" not in minor.graph.__dict__
    assert minor.graph._chains.fold_csr is None
    assert_same_arrays(minor.graph._chains.csr, generator_csr_arrays(adj))
    for n in (1, 2):
        empty = WeightedGraph.build(range(n), [], [0])
        assert_same_arrays(empty._csr(), generator_csr_arrays([()] * n))
        assert empty._index_adjacency == ((),) * n


def test_distance_layer_does_not_import_scipy():
    # importing scipy.sparse.csgraph doubles the process's peak RSS, so the
    # distance layer runs on numpy alone; and numpy.ma (which np.unique
    # imports) adds 1.7 MB, so neither the parse nor the run loads it
    code = (
        "import sys\n"
        "import sprkit\n"
        "from sprkit import SprParams, check_covering, run_and_contract\n"
        "from sprkit.generators import grid_graph\n"
        "from sprkit.graph import format_graph_text, parse_graph_text\n"
        "text = format_graph_text(grid_graph(6, 6, 'random', k=4, seed=0))\n"
        "g = parse_graph_text(text)\n"
        "params = SprParams.for_graph(g, seed=1)\n"
        "_, _, trace = run_and_contract(g, params)\n"
        "check_covering(trace, g, params)\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    src = str(Path(sprkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_only_the_graph_rules_call_the_graph_constructor():
    # a graph made by ``WeightedGraph(...)`` anywhere else skips every check
    # of ``_GraphRules``, as the minor's graph once did
    calls = []

    class Scopes(ast.NodeVisitor):
        def __init__(self, module):
            self.scope = [module]

        def visit_ClassDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef

        def visit_Call(self, node):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "WeightedGraph":
                calls.append(".".join(self.scope))
            self.generic_visit(node)

    for path in sorted(Path(sprkit.__file__).parent.glob("*.py")):
        Scopes(path.stem).visit(ast.parse(path.read_text()))
    assert calls == ["graph._GraphRules.graph"]


def test_the_pipeline_never_builds_the_edge_triples():
    # every stage reads the edge columns; ``edges`` is built only on a read
    # from outside the pipeline
    g = random_connected_graph(30, 4, seed=3, extra_edges=20, weight_range=(0.5, 3.0))
    params = sprkit.SprParams.for_graph(g, seed=1)
    graphs = [g]

    def untouched():
        for graph in graphs:
            assert "edges" not in graph.__dict__

    sub = sprkit.preprocess_subdivide(g, params).graph
    graphs.append(sub)
    format_graph_text(sub)
    untouched()
    assert sub.n > g.n
    for graph in graphs:
        params = sprkit.SprParams.for_graph(graph, seed=1)
        minor, report, trace = sprkit.run_and_contract(graph, params)
        trace.to_json(), report.to_json(), format_graph_text(minor.graph)
        untouched()
        assert sprkit.verify_trace(graph, trace, params).ok
        sprkit.check_covering(trace, graph, params)
        untouched()
        partition = sprkit.build_interval_partition(graph, *graph.terminals[:2], params)
        sprkit.reconstruct_ledger(trace, graph, partition, params)
        untouched()


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


@pytest.mark.parametrize(
    "vertices, edges, terminals, message",
    [
        ([0], [(5, 5, 1.0)], [0], "edge (5,5) references undeclared vertex"),
        ([0, 1], [(1, 1, -1.0)], [0], "self-loop at vertex 1"),
        ([0], [], [9, 9], "terminal 9 not declared as vertex"),
        ([-1, -1], [], [0], "negative vertex id -1"),
    ],
)
def test_a_record_with_two_faults_reports_one_at_both_entry_points(
    vertices, edges, terminals, message
):
    # each list holds one record that breaks two rules, in build's order
    with pytest.raises(GraphError) as built:
        WeightedGraph.build(vertices, edges, terminals)
    text = [*(f"v {v}" for v in vertices), *(f"e {u} {v} {w}" for u, v, w in edges),
            *(f"t {t}" for t in terminals)]
    with pytest.raises(ParseError) as parsed:
        parse_graph_text("\n".join(text) + "\n")
    assert str(built.value) == message
    assert str(parsed.value) == f"line {parsed.value.line_no}: {message}"


@pytest.mark.parametrize(
    "records, message",
    [
        (["v -2"], "line 1: negative vertex id -2"),
        (["v 0", "v 1", "e 1 1 1.0"], "line 3: self-loop at vertex 1"),
        (["v 0", "v 1", "e 0 1 0"], "line 3: edge (0,1) has non-positive weight 0.0"),
        (["v 0", "v 1", "e 0 1 nan"], "line 3: edge (0,1) has non-finite weight nan"),
        (["v 0", "v 1", "e 0 1 1.0", "t 0", "e 1 0 2.0"], "line 5: duplicate edge (0,1)"),
        (["v 0", "t 0", "t 0"], "line 3: duplicate terminal 0"),
        (["v 0", "e 0 5 1.0", "v 5"], "line 2: edge (0,5) references undeclared vertex"),
        (["v 0", "v 1", "e 0 1 1.0"], "line 0: at least one terminal required"),
        (["v 0", "v 1", "e 0 1 inf"], "line 3: edge (0,1) has non-finite weight inf"),
        (["v 0", "v 1", "e 0 1 -inf"], "line 3: edge (0,1) has non-positive weight -inf"),
    ],
)
def test_every_record_fault_names_its_line(records, message):
    with pytest.raises(ParseError) as exc:
        parse_graph_text("\n".join(records) + "\n")
    assert str(exc.value) == message


# --- one rule set: the rewrite against the reference parser and build -----


def _shuffled_text(rnd, g: WeightedGraph) -> str:
    """``format_graph_text(g)`` with labels, comments, blank lines and
    reversed edge ends, its records reordered without breaking
    declare-before-use or the terminal order."""
    order = list(g.vertices)
    rnd.shuffle(order)
    at = {v: i for i, v in enumerate(order)}
    keyed = [
        (i, f"v {v} lbl{v}" if rnd.random() < 0.3 else f"v {v}") for i, v in enumerate(order)
    ]
    key = 0.0
    for t in g.terminals:  # increasing keys keep the terminal order
        key = max(key, at[t]) + rnd.random()
        keyed.append((key, f"t {t}"))
    for u, v, w in g.edges:
        if rnd.random() < 0.5:
            u, v = v, u
        keyed.append((max(at[u], at[v]) + rnd.random() * len(order), f"e {u} {v} {w!r}"))
    keyed.sort(key=lambda kv: kv[0])
    lines = []
    for _, line in keyed:
        if rnd.random() < 0.1:
            lines.append(rnd.choice(["# a comment", "", "   "]))
        lines.append(line + ("  # trailing" if rnd.random() < 0.1 else ""))
    return "\n".join(lines) + "\n"


@st.composite
def graph_texts(draw):
    n = draw(st.integers(2, 10))
    g = random_connected_graph(
        n, draw(st.integers(1, n)), seed=draw(st.integers(0, 10**6)),
        extra_edges=draw(st.integers(0, n)),
    )
    terminals = list(draw(st.permutations(g.terminals)))
    rnd = draw(st.randoms(use_true_random=False))
    return _shuffled_text(rnd, WeightedGraph.build(g.vertices, g.edges, terminals))


def _same_graph(g: graph_text_reference.Graph, h: WeightedGraph) -> bool:
    return (g.vertices, g.edges, g.terminals, g.labels) == (
        h.vertices, h.edges, h.terminals, h.labels
    )


def _outcome(parse, text):
    try:
        return parse(text), None
    except ParseError as exc:
        return None, exc


@settings(max_examples=150, deadline=None)
@given(graph_texts())
def test_parse_matches_reference_on_valid_texts(text):
    g, h = graph_text_reference.parse_graph_text(text), parse_graph_text(text)
    assert _same_graph(g, h)


@settings(max_examples=400, deadline=None)
@given(graph_texts(), st.data())
def test_parse_matches_reference_on_one_token_mutations(text, data):
    lines = text.splitlines()
    records = [i for i, line in enumerate(lines) if line.split("#")[0].split()]
    i = data.draw(st.sampled_from(records))
    parts = lines[i].split("#")[0].split()
    # an id or a weight, or less often the tag; never a label
    slot = data.draw(st.sampled_from([1, 2, 3, 0] if parts[0] == "e" else [1, 1, 1, 0]))
    tokens = [tok for line in lines for tok in line.split("#")[0].split()]
    pool = {"v", "t", "e"} if slot == 0 else set(tokens[1:]) - {"v", "t", "e"}
    value = data.draw(st.sampled_from(["0", "-1", "nan", "inf", "x1", *sorted(pool)]))
    parts[slot] = value
    lines[i] = " ".join(parts)
    line_no = i + 1
    mutated = "\n".join(lines) + "\n"

    ref, ref_exc = _outcome(graph_text_reference.parse_graph_text, mutated)
    new, new_exc = _outcome(parse_graph_text, mutated)
    if ref_exc is None:
        assert new_exc is None and _same_graph(ref, new)
        return
    assert new_exc is not None
    ref_text = str(ref_exc).split(": ", 1)[1]
    new_text = str(new_exc).split(": ", 1)[1]
    if ref_exc.line_no:
        if parts[0] == "v" and slot == 1 and value == "-1":
            # the reference took the vertex and refused a later record
            assert (new_exc.line_no, new_text) == (line_no, "negative vertex id -1")
        else:
            assert (new_exc.line_no, new_text) == (ref_exc.line_no, ref_text)
        return
    # a fault the reference found only in build, at line 0
    assert new_text == ref_text
    if ref_text == "at least one terminal required":
        assert new_exc.line_no == 0
    elif ref_text.startswith("duplicate edge"):
        pair = {int(parts[1]), int(parts[2])}
        twins = [j + 1 for j, line in enumerate(lines)
                 if line.split()[:1] == ["e"] and {*map(int, line.split()[1:3])} == pair]
        assert new_exc.line_no == max(twins) and line_no in twins
    else:
        assert new_exc.line_no == line_no


@pytest.mark.parametrize(
    "text",
    [
        # ids beyond any fixed-width integer
        "v 99999999999999999999\nv 18446744073709551616\nt 99999999999999999999\n"
        "e 18446744073709551616 99999999999999999999 1.5\n",
        # weights as Python's float reads them, and one it refuses
        "v 0\nv 1\nt 0\ne 0 1 1_0\n",
        "v 0\nv 1\nt 0\ne 0 1 +1.5\n",
        "v 0\nv 1\nt 0\ne 0 1 1e3\n",
        "v 0\nv 1\nt 0\ne 0 1 0x1\n",
        # tabs and double spaces between tokens
        "v\t0\nv  1\t lbl\nt \t0\ne\t0  1\t 2.5\n",
        # line breaks other than \n, and a fault after them
        "v 0\r\nv 1\r\nt 0\r\ne 0 1 2.0\r\n",
        "v 0\x1cv 1\x1ct 0\x1ce 0 1 2.0\n",
        "v 0\x1cv 1\u2028t 0\x1ce 0 2 2.0\n",
        # labels and trailing comments
        "v 0 root\nv 1 leaf\nv 2\nt 0\ne 0 1 1.0\ne 2 1 0.5\n",
        "v 0 # zero\nv 1 lbl # one\nt 0#t\ne 0 1 2.0 # an edge\n#\n",
        # an edge before its vertex line, and a terminal before its vertex
        "v 0\ne 0 1 1.0\nv 1\nt 0\n",
        "t 0\nv 0\n",
        # a record short of tokens as the last line
        "v 0\nt 0\nv\n",
        "v 0\nv 1\nt 0\ne 0 1\n",
        "v 0\nt\n",
    ],
)
def test_parse_matches_reference_on_pinned_texts(text):
    ref, ref_exc = _outcome(graph_text_reference.parse_graph_text, text)
    new, new_exc = _outcome(parse_graph_text, text)
    if ref_exc is None:
        assert new_exc is None and _same_graph(ref, new)
        assert all(type(x) is int for x in (*new.vertices, *new.terminals))
        assert all(type(e[2]) is float and type(e[0]) is type(e[1]) is int for e in new.edges)
    else:
        assert new_exc is not None
        assert (new_exc.line_no, str(new_exc)) == (ref_exc.line_no, str(ref_exc))


# The build fault kinds, each injected once into valid lists.
BUILD_FAULTS = (
    "none", "negative-vertex", "duplicate-vertex", "undeclared-end", "self-loop",
    "zero-weight", "negative-weight", "nan-weight", "inf-weight", "duplicate-edge",
    "reversed-duplicate-edge", "undeclared-terminal", "duplicate-terminal", "no-terminal",
)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10), st.integers(0, 10**6), st.sampled_from(BUILD_FAULTS), st.data())
def test_build_matches_reference_with_one_injected_fault(n, seed, fault, data):
    g = random_connected_graph(n, data.draw(st.integers(1, n)), seed=seed, extra_edges=n)
    rnd = data.draw(st.randoms(use_true_random=False))
    vertices, edges, terminals = list(g.vertices), list(g.edges), list(g.terminals)
    u, v, w = rnd.choice(edges)
    at = rnd.randrange(len(edges) + 1)
    if fault == "negative-vertex":
        vertices.insert(rnd.randrange(n + 1), -1)
    elif fault == "duplicate-vertex":
        vertices.insert(rnd.randrange(n + 1), rnd.choice(vertices))
    elif fault == "undeclared-end":
        edges.insert(at, (u, n + 5, w))
    elif fault == "self-loop":
        edges.insert(at, (u, u, w))
    elif fault.endswith("-weight"):
        bad = {"zero": 0.0, "negative": -1.0, "nan": math.nan, "inf": math.inf}
        edges[edges.index((u, v, w))] = (u, v, bad[fault.split("-")[0]])
    elif fault == "duplicate-edge":
        edges.insert(at, (u, v, w + 1.0))
    elif fault == "reversed-duplicate-edge":
        edges.insert(at, (v, u, w))
    elif fault == "undeclared-terminal":
        terminals.insert(rnd.randrange(len(terminals) + 1), n + 5)
    elif fault == "duplicate-terminal":
        twin = rnd.choice(terminals)
        terminals.insert(rnd.randrange(len(terminals) + 1), twin)
    elif fault == "no-terminal":
        terminals = []
    rnd.shuffle(vertices)
    rnd.shuffle(edges)

    def outcome(build):
        try:
            return build(vertices, edges, terminals), None
        except GraphError as exc:
            return None, str(exc)

    ref, ref_text = outcome(graph_text_reference.build)
    new, new_text = outcome(WeightedGraph.build)
    assert (ref_text is None) == (fault == "none") == (new_text is None)
    if fault == "none":
        assert _same_graph(ref, new)
    elif ref_text == "terminals must be distinct":
        assert new_text == f"duplicate terminal {twin}"
    else:
        for old, wording in (("duplicate vertex id", "duplicate vertex"),
                             ("references unknown", "references undeclared"),
                             ("is not a vertex", "not declared as vertex")):
            ref_text = ref_text.replace(old, wording)
        assert new_text == ref_text
