"""Benchmark inputs, each a pure function of its arguments and a seed.

Two graph recipes live here so that the benchmark depends only on the
package's public API:

* ``sparse_graph_text``: a random spanning tree plus uniform extra edges,
  built in O(m) from a Philox stream.  The package's ``random-weighted``
  family is an O(n^2) loop and cannot reach benchmark sizes.
* ``fine_pair_graph``: one finely subdivided terminal pair at distance 1
  (terminals 0 and 8) with the other terminals on a hub, the instance of
  acceptance criterion 9.  It is a copy of the recipe in the test helpers,
  kept here so the benchmark never imports from the test suite.
"""

from __future__ import annotations

import math

import numpy as np

from sprkit import SprParams, WeightedGraph, subdivide_edges

_MASK64 = 0xFFFFFFFFFFFFFFFF
_SPARSE_TAG = 0x5350415253      # "SPARS"
_SEED_TAG = 0x5345454453        # "SEEDS"


def philox(seed: int, tag: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, tag & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def run_seeds(seed: int, count: int) -> list[int]:
    """``count`` run seeds derived from a workload seed."""
    return [int(s) for s in philox(seed, _SEED_TAG).integers(0, 2**63, size=count)]


def sparse_graph_text(
    n: int,
    k: int,
    seed: int,
    degree: int = 6,
    weight_range: tuple[float, float] = (0.5, 1.5),
) -> str:
    """Connected sparse graph in the package's text format.

    A uniform random recursive tree on a random labelling gives
    connectivity; uniform extra pairs, without self-loops or repeats, bring
    the edge count to ``degree * n // 2``.  Weights are uniform in
    ``weight_range`` and the k terminals are a uniform sample.
    """
    if not (2 <= k <= n) or degree < 2:
        raise ValueError(f"bad sparse graph size n={n} k={k} degree={degree}")
    rng = philox(seed, _SPARSE_TAG)
    perm = rng.permutation(n)
    child = np.arange(1, n)
    parent = (rng.random(n - 1) * child).astype(np.int64)
    a, b = perm[child], perm[parent]
    keys = np.minimum(a, b) * n + np.maximum(a, b)
    need = degree * n // 2 - (n - 1)
    while need > 0:
        x = rng.integers(0, n, size=2 * need)
        y = rng.integers(0, n, size=2 * need)
        cand = np.minimum(x, y) * n + np.maximum(x, y)
        cand = cand[(x != y) & ~np.isin(cand, keys)]
        _, first = np.unique(cand, return_index=True)
        cand = cand[np.sort(first)][:need]
        keys = np.concatenate([keys, cand])
        need -= len(cand)
    lo, hi = weight_range
    weights = (lo + (hi - lo) * rng.random(len(keys))).tolist()
    terminals = np.sort(rng.choice(n, size=k, replace=False)).tolist()
    lines = [f"v {v}" for v in range(n)]
    lines += [f"t {t}" for t in terminals]
    lines += [
        f"e {key // n} {key % n} {w!r}" for key, w in zip(keys.tolist(), weights)
    ]
    return "\n".join(lines) + "\n"


def fine_pair_base(k: int, seed: int) -> WeightedGraph:
    """Unsubdivided fine-pair instance: an 8-segment path of total weight 1
    between terminals 0 and 8, and a hub near terminal 0 carrying the other
    k - 2 terminals on short spokes plus a few random chords."""
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
        x, y = rng.choice(k - 2, size=2, replace=False)
        u, v = sorted((hub + 1 + int(x), hub + 1 + int(y)))
        if (u, v) not in seen:
            seen.add((u, v))
            edges.append((u, v, float(rng.uniform(0.010, 0.020))))
    return WeightedGraph.build(vertices, edges, terminals)


def fine_pair_threshold(k: int, fineness: float) -> float:
    """Global subdivision threshold fineness * (weight_factor / ln k) * d(0, 8)."""
    return fineness * SprParams(k=k).weight_factor / math.log(k) * 1.0


def fine_pair_graph(k: int, seed: int, fineness: float = 0.5) -> WeightedGraph:
    return subdivide_edges(fine_pair_base(k, seed), fine_pair_threshold(k, fineness)).graph
