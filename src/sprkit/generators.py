"""Deterministic graph generator families.

Every family is a pure function of (parameters, seed).  Random families
draw from a dedicated Philox stream, and the random-weighted family retries
disconnected draws with derived sub-seeds (seed, attempt), up to a fixed
attempt budget.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import MAX_GRAPH_SIZE, GraphError, WeightedGraph

FAMILIES = (
    "path",
    "cycle",
    "star",
    "complete-binary-tree",
    "grid",
    "random-weighted",
)

_MAX_RETRIES = 64


def _gen_rng(seed: int, attempt: int = 0) -> np.random.Generator:
    key = np.array(
        [seed & 0xFFFFFFFFFFFFFFFF, (0x67656E << 8) | (attempt & 0xFF)], dtype=np.uint64
    )
    return np.random.Generator(np.random.Philox(key=key))


def path_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    """Path 0-1-...-(n-1); terminals are the two endpoints."""
    if n < 2:
        raise GraphError("path needs at least two vertices")
    edges = [(i, i + 1, weight) for i in range(n - 1)]
    return WeightedGraph.build(range(n), edges, [0, n - 1])


def cycle_graph(n: int, k: int = 2, weight: float = 1.0) -> WeightedGraph:
    """Cycle on n vertices with k terminals spaced as evenly as possible."""
    if n < 3:
        raise GraphError("cycle needs at least three vertices")
    if not (1 <= k <= n):
        raise GraphError(f"cycle terminal count {k} out of range")
    edges = [(i, (i + 1) % n, weight) for i in range(n)]
    terminals = [round(i * n / k) % n for i in range(k)]
    if len(set(terminals)) != k:
        terminals = list(range(k))
    return WeightedGraph.build(range(n), edges, terminals)


def star_graph(k: int, weight: float = 1.0) -> WeightedGraph:
    """Hub vertex 0 with k terminal leaves 1..k."""
    if k < 1:
        raise GraphError("star needs at least one leaf")
    edges = [(0, i, weight) for i in range(1, k + 1)]
    return WeightedGraph.build(range(k + 1), edges, range(1, k + 1))


def complete_binary_tree(depth: int, weight: float = 1.0) -> WeightedGraph:
    """Complete binary tree; the 2^depth leaves are the terminals."""
    if depth < 1:
        raise GraphError("tree depth must be at least 1")
    n = 2 ** (depth + 1) - 1
    edges = []
    for child in range(1, n):
        parent = (child - 1) // 2
        edges.append((parent, child, weight))
    leaves = list(range(2**depth - 1, n))
    return WeightedGraph.build(range(n), edges, leaves)


def grid_graph(
    width: int,
    height: int,
    terminals: str = "corner",
    k: int = 4,
    seed: int = 0,
    weight: float = 1.0,
) -> WeightedGraph:
    """width x height grid with unit edges; terminals at corners or random."""
    if width < 2 or height < 2:
        raise GraphError("grid needs width and height of at least 2")
    n = width * height
    edges = []
    for y in range(height):
        for x in range(width):
            v = y * width + x
            if x + 1 < width:
                edges.append((v, v + 1, weight))
            if y + 1 < height:
                edges.append((v, v + width, weight))
    if terminals == "corner":
        terms = [0, width - 1, (height - 1) * width, n - 1]
    elif terminals == "random":
        if not (1 <= k <= n):
            raise GraphError(f"grid terminal count {k} out of range")
        rng = _gen_rng(seed)
        terms = sorted(int(v) for v in rng.choice(n, size=k, replace=False))
    else:
        raise GraphError(f"unknown grid terminal rule {terminals!r}")
    return WeightedGraph.build(range(n), edges, terms)


def random_weighted_graph(
    n: int,
    edge_prob: float,
    k: int,
    seed: int = 0,
    weight_range: tuple[float, float] = (0.5, 1.5),
) -> WeightedGraph:
    """Connected G(n, p) with uniform weights; retries until connected.

    Retry rule: attempt i redraws from the stream keyed by (seed, i).  The
    terminal set is a seeded sample of k vertices, fixed on the first
    attempt so retries only reshuffle edges.
    """
    if n < 2:
        raise GraphError("random graph needs at least two vertices")
    if not (0.0 < edge_prob <= 1.0):
        raise GraphError(f"edge probability {edge_prob} out of range")
    if not (1 <= k <= n):
        raise GraphError(f"terminal count {k} out of range")
    lo, hi = weight_range
    if not (0 < lo <= hi):
        raise GraphError(f"bad weight range {weight_range}")
    # terminals come from their own stream so retries only reshuffle edges
    terms = sorted(
        int(v) for v in _gen_rng(seed, attempt=0xFF).choice(n, size=k, replace=False)
    )
    for attempt in range(_MAX_RETRIES):
        rng = _gen_rng(seed, attempt)
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < edge_prob:
                    w = lo + (hi - lo) * rng.random()
                    edges.append((u, v, w))
        graph = WeightedGraph.build(range(n), edges, terms)
        if graph.is_connected():
            return graph
    raise GraphError(
        f"no connected draw in {_MAX_RETRIES} attempts; raise edge_prob ({edge_prob})"
    )


def _family(family: str, params: dict, seed: int):
    """The generator function of ``family`` and its arguments read from
    ``params``; an unknown family or a parameter that does not convert
    raises."""
    def weight():
        return float(params.get("weight", 1.0))

    if family == "path":
        return path_graph, (int(params.get("n", 3)), weight())
    if family == "cycle":
        return cycle_graph, (int(params.get("n", 6)), int(params.get("k", 2)), weight())
    if family == "star":
        return star_graph, (int(params.get("k", 3)), weight())
    if family == "complete-binary-tree":
        return complete_binary_tree, (int(params.get("depth", 3)), weight())
    if family == "grid":
        return grid_graph, (int(params.get("width", 4)), int(params.get("height", 4)),
                            str(params.get("terminals", "corner")), int(params.get("k", 4)),
                            seed, weight())
    if family == "random-weighted":
        wr = params.get("weight_range", (0.5, 1.5))
        return random_weighted_graph, (int(params.get("n", 30)),
                                       float(params.get("edge_prob", 0.2)),
                                       int(params.get("k", 4)), seed,
                                       (float(wr[0]), float(wr[1])))
    raise GraphError(f"unknown generator family {family!r}; known: {', '.join(FAMILIES)}")


def check_size(family: str, params: dict) -> None:
    """Refuse, with ``GraphError``, a family and parameters that ask for more
    than ``MAX_GRAPH_SIZE`` vertices, or, for random-weighted, which draws
    every vertex pair one at a time, that many pairs, before anything is
    built.  Parameters that ``generate`` cannot read pass here, and
    ``generate`` refuses them."""
    try:
        make, args = _family(family, params, 0)
    except (ValueError, TypeError, OverflowError, LookupError):
        return
    if make is complete_binary_tree:
        # 2^(depth+1) - 1 vertices; a huge depth is refused before the power
        size = 2 ** (args[0] + 1) - 1 if args[0] < MAX_GRAPH_SIZE.bit_length() else math.inf
    elif make is grid_graph:
        size = args[0] * args[1]
    elif make is star_graph:
        size = args[0] + 1
    elif make is random_weighted_graph:
        size = args[0] * (args[0] - 1) // 2
    else:
        size = args[0]
    if size > MAX_GRAPH_SIZE:
        what = "vertex pairs" if make is random_weighted_graph else "vertices"
        raise GraphError(f"a {family} graph of more than {MAX_GRAPH_SIZE} {what}")


def generate(family: str, params: dict, seed: int = 0) -> WeightedGraph:
    """Dispatch by family name; unknown families, bad params and a size over
    ``MAX_GRAPH_SIZE`` raise."""
    check_size(family, params)
    make, args = _family(family, params, seed)
    return make(*args)


def scaled(graph: WeightedGraph, factor: float) -> WeightedGraph:
    """Uniformly rescale all edge weights."""
    if not (factor > 0 and math.isfinite(factor)):
        raise GraphError(f"scale factor must be positive, got {factor}")
    edges = [(u, v, w * factor) for u, v, w in graph._id_edges()]
    return WeightedGraph.build(graph.vertices, edges, graph.terminals, graph.labels)


def normalized_to_unit_nearest(graph: WeightedGraph) -> WeightedGraph:
    """Rescale so the closest non-terminal vertex sits at distance 1 from
    the terminal set; the growth schedule's absolute round-0 mean makes
    analysis sensitive to this scale."""
    terminals = set(graph.terminals)
    dists = [d for v, d in zip(graph.vertices, graph._nearest_row)
             if v not in terminals and d != math.inf]
    if not dists:
        return graph
    d_min = min(dists)
    if d_min <= 0:
        raise GraphError("a non-terminal vertex coincides with a terminal")
    return scaled(graph, 1.0 / d_min)
