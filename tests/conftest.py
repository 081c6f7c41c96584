"""Shared test helpers: independent oracles and instance builders.

The oracles here deliberately avoid the package's own shortest-path code:
distances are recomputed by cubic all-pairs relaxation so that Dijkstra
results are checked against something that cannot share its bugs.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from sprkit import RunTrace, SprParams, subdivide_edges
from sprkit.graph import WeightedGraph


def make_trace(delta, seed, k, terminal_ids, radius_events, cover_events, rounds) -> RunTrace:
    """A trace holding the given event tuples, (round, step, q, R) and
    (vertex, terminal, round, step, dist), as its columns."""
    radius = [list(col) for col in zip(*radius_events)] or [[] for _ in range(4)]
    cover = [list(col) for col in zip(*cover_events)] or [[] for _ in range(5)]
    return RunTrace(delta, seed, k, tuple(terminal_ids), rounds, *radius, *cover)


def trace_with_events(trace: RunTrace, radius_events=None, cover_events=None) -> RunTrace:
    """``trace`` with its radius or cover events replaced by the given tuples."""
    return make_trace(
        trace.delta, trace.seed, trace.k, trace.terminal_ids,
        trace.radius_events if radius_events is None else radius_events,
        trace.cover_events if cover_events is None else cover_events,
        trace.rounds,
    )


def all_pairs_relaxation(graph: WeightedGraph) -> dict[int, dict[int, float]]:
    """Floyd-Warshall style repeated relaxation; O(n^3), oracle use only."""
    verts = list(graph.vertices)
    dist = {u: {v: math.inf for v in verts} for u in verts}
    for v in verts:
        dist[v][v] = 0.0
    for u, v, w in graph.edges:
        dist[u][v] = min(dist[u][v], w)
        dist[v][u] = min(dist[v][u], w)
    for mid in verts:
        dmid = dist[mid]
        for u in verts:
            du = dist[u]
            base = du[mid]
            if base == math.inf:
                continue
            for v in verts:
                cand = base + dmid[v]
                if cand < du[v]:
                    du[v] = cand
    return dist


def edge_filter_oracle(graph: WeightedGraph, keep: set[int]):
    """Independent edge filter for induced-subgraph checks."""
    return sorted(
        (u, v, w) for u, v, w in graph.edges if u in keep and v in keep
    )


def random_connected_graph(
    n: int, k: int, seed: int, extra_edges: int = 0, weight_range=(0.5, 1.5)
) -> WeightedGraph:
    """Random spanning tree plus extra chords; always connected."""
    rng = np.random.default_rng(seed)
    edges = []
    seen = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        w = float(rng.uniform(*weight_range))
        edges.append((u, v, w))
        seen.add((u, v))
    attempts = 0
    while extra_edges > 0 and attempts < 20 * extra_edges:
        attempts += 1
        u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        if (u, v) in seen:
            continue
        seen.add((u, v))
        edges.append((u, v, float(rng.uniform(*weight_range))))
        extra_edges -= 1
    terms = sorted(int(t) for t in rng.choice(n, size=k, replace=False))
    return WeightedGraph.build(range(n), edges, terms)


def star_3() -> WeightedGraph:
    """Hub 0 with terminal leaves 1, 2, 3 at unit distance."""
    return WeightedGraph.build(
        [0, 1, 2, 3], [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)], [1, 2, 3]
    )


def path_t_s_t() -> WeightedGraph:
    """Two terminals around one inner vertex, unit weights."""
    return WeightedGraph.build([0, 1, 2], [(0, 1, 1.0), (1, 2, 1.0)], [0, 2])


def fine_pair_graph(k: int, seed: int, fineness: float = 0.5) -> WeightedGraph:
    """Random instance with one finely subdivided terminal pair at distance 1.

    Terminals 0 and 8 sit at the ends of an 8-segment path of total weight 1;
    a hub hangs off the path near terminal 0 and carries the remaining k - 2
    terminals on short spokes plus a few random chords.  Applying the global
    subdivision threshold fineness * (weight_factor / ln k) * d(0, 8) makes
    every edge on the pair's path satisfy the per-pair weight requirement
    with room to spare, at a desk-scale vertex count.
    """
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed, 0xF1FE], dtype=np.uint64))
    )
    segs = 8
    rest = rng.uniform(0.8, 1.2, size=segs - 1)
    first = float(rng.uniform(0.05, 0.07))
    weights = [first] + list(rest / rest.sum() * (1.0 - first))
    edges = [(i, i + 1, float(weights[i])) for i in range(segs)]
    vertices = list(range(segs + 1))
    hub = segs + 1
    vertices.append(hub)
    edges.append((1, hub, float(rng.uniform(0.018, 0.028))))
    terminals = [0, segs]
    for i in range(k - 2):
        t = hub + 1 + i
        vertices.append(t)
        edges.append((hub, t, float(rng.uniform(0.003, 0.006))))
        terminals.append(t)
    seen = {(min(u, v), max(u, v)) for u, v, _ in edges}
    for _ in range(6):
        a, b = rng.choice(k - 2, size=2, replace=False)
        u, v = sorted((hub + 1 + int(a), hub + 1 + int(b)))
        if (u, v) not in seen:
            seen.add((u, v))
            edges.append((u, v, float(rng.uniform(0.010, 0.020))))
    g = WeightedGraph.build(vertices, edges, terminals)
    tau = SprParams(k=k).weight_factor / math.log(k) * 1.0
    return subdivide_edges(g, fineness * tau).graph


def coarse_subdivided_random(
    k: int, seed: int, n_base: int | None = None, threshold: float = 0.2
) -> tuple[WeightedGraph, float]:
    """Random connected graph, rescaled to the unit distance convention and
    subdivided at a desk-scale threshold.

    Returns (graph, d_floor) where d_floor is the smallest base-graph
    Steiner-to-terminal distance after rescaling (the scale unit itself).
    """
    from sprkit.generators import normalized_to_unit_nearest

    n_base = n_base or 3 * k
    base = random_connected_graph(n_base, k, seed, extra_edges=n_base // 2,
                                  weight_range=(0.8, 1.6))
    base = normalized_to_unit_nearest(base)
    d_floor = min(
        d for v, d in base.nearest_terminal_distance.items() if v not in base.terminals
    )
    return subdivide_edges(base, threshold).graph, d_floor


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
