"""Weighted undirected graphs with a distinguished terminal set.

The graph is immutable after construction.  All operations here are pure
functions; results depend only on their inputs, so graphs and distance maps
can be shared freely across threads.

Vertex ids are nonnegative integers.  Loaders and generators hand out dense
ids 0..n-1; operations such as ``induced_subgraph`` keep the original ids.
``WeightedGraph.index`` maps each id to its position in ``vertices``, and
``vertices`` is sorted, so position order is id order.  The position
adjacency (``(position, weight)`` rows, built once from ``edges``) is the
only one the package reads: the distance kernel below, the connectivity
check, the clustering engine, the partition check and contraction
(``minor``), the covering check, the closest-terminal-pair search,
``canonical_path`` and ``ClusterReplay`` all run on positions, and give ids
back only in what they return.

Who reads which distances.  The k x k ``terminal_block``, d(t_i, t_j), serves
contraction and distortion, and the nearest-terminal row by position serves
the engine's round guard: that is all ``sprkit run`` computes.  The k
``terminal_distance_maps`` rows, n entries each, serve the covering check,
the charging ledger's trigger distances and the single-terminal engine path;
an experiment sweep warms them before a config's first seed, and the block
is then sliced from them.  Without cached rows the block slices each row as
the kernel yields it and keeps none.

Every distance computation (the k terminal rows or their block, the
multi-source nearest-terminal distances) runs one exact kernel,
``_distance_columns``, on one path: a chain table (``_Chains``, below)
holding an adjacency indexed by vertex position and its CSR arrays (row
starts, neighbour positions, float64 weights).  It takes the sources 16 at a
time as the columns of a flat ``n x 16`` float64 label array and runs in two
phases:

* Sweeps.  The kernel holds the (vertex, column) pairs improved in the last
  sweep.  A sweep expands their out-edges, keeps the candidates
  ``label[u] + w`` that beat the target's label, applies them with
  ``np.minimum.at``, and makes the improved pairs the next active set.  It
  expands the pairs 4096 at a time, every block from the labels the sweep
  started with, so a sweep does what one expansion of the whole set would.
  A block's temporaries take about 30 bytes per candidate, 4096 x degree x
  30 B, and up to 37 when nearly every candidate improves; the sweep adds 8
  bytes per active pair and per improving candidate.
* Heap tail.  Once the active set has stopped growing and is narrow (16
  pairs, one per column of a full chunk), the columns with active pairs
  become lists of Python floats and ``_dijkstra`` finishes each, starting
  from the column's labels with the column's active vertices on the heap,
  and writes them back.  A column without active pairs is already final.
  The table then turns every column into one ``array('d')``.

Chains of degree-two positions are where sweeps lose: a frontier of one pair
per column pays a whole sweep per hop, and subdivided graphs are made of
little else.  A chain is a maximal path whose interior positions have
exactly two neighbours and are not sources.  For the terminal rows and the
nearest-terminal column, the kernel folds every chain of at least
``_FOLD_MIN`` interior positions into one edge between its two ends and runs
both phases on the reduced graph of the other positions (the chain table,
cached on the graph with the terminals as sources).  Relaxing a chain from
a label x gives the left-to-right float sum x + w1 + w2 + ... of its
weights: in a sweep, one ``np.add.accumulate`` over every candidate whose
chain has that many weights; in the heap tail, ``reduce(add, weights, x)``.
Once the reduced labels are final, each interior position gets the smaller
of the folds from the chain's two ends, one ``np.add.accumulate`` per
interior length.  No interior position is ever active or a tail seed.  A
chain whose two ends are one position is never relaxed, since it cannot
shorten a path, but its interior is filled from both sides; a dead end (a
degree-one end) is an end like any other; a cycle of degree-two positions
without any end stays in the reduced graph, unreached, at ``math.inf``.  A
graph without such a chain gets a table that folds nothing: the kernel runs
on the graph's own rows and CSR arrays.  A minor's distances come from its
own graph (``InducedMinor.graph``, vertices 1..k, every one a terminal), so
its ``distance_matrix`` is that graph's k terminal rows, ``array('d')`` rows
of k entries, and its table always folds nothing.

Its values are exact, not merely close.  Every label is always the
left-to-right float sum of the weights of a real path.  At the switch every
pair outside the active set has had its last improvement propagated along
all its edges, so the tail reaches the same fixed point the sweeps would.
For a positive weight w, ``fl(a + w)`` is never below ``a`` and is monotone
in ``a``, so any fixed point of label correction is, for every vertex, the
minimum over all paths of the left-to-right float sum of the path's weights,
whatever order the relaxations ran in; a minimum is exact in any order.
Any correct Dijkstra, ``canonical_path`` included, returns the same doubles.
A fold makes the additions hop-by-hop relaxation would make, in the same
order, so the reduced labels reach that fixed point; an interior position
is entered from one end or the other, and a path that turns back inside the
chain is never shorter.  Three ways to lose this, all avoided here: the
built-in ``sum()`` compensates float sums from Python 3.12 on;
``np.add.reduce`` and ``np.sum`` add pairwise; and a difference of prefix
sums is not the sum along the path.

The kernel stays on numpy, which the package already loads: importing
scipy's graph routines would double a small run's peak memory.  A
``canonical_path`` is its own search, never a predecessor walk over the
kernel's rows: where ``fl(d + w) == d``, equal distances do not settle in
(distance, id) order, and such a walk can find no predecessor.

``ClusterReplay`` replays a run trace's claims for ``verify`` and the charging
ledger.  Its searches start at a cluster's boundary and cover only unclaimed
vertices, and give the same doubles as a search from the cluster's terminal.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, reduce
from heapq import heapify, heappop, heappush
from itertools import chain
from operator import add

import numpy as np


class GraphError(ValueError):
    """Invalid graph structure or argument."""


class ParseError(GraphError):
    """Malformed graph text; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected graph with positive edge weights and ordered terminals.

    ``edges`` are canonical: ``u < v``, sorted, at most one per pair, no
    self-loops, every weight positive and finite.  ``terminals`` is an
    ordered list; terminal j (1-based) is ``terminals[j-1]``.
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, float], ...]
    terminals: tuple[int, ...]
    labels: dict[int, str] = field(default_factory=dict)

    @staticmethod
    def build(
        vertices,
        edges,
        terminals,
        labels: dict[int, str] | None = None,
    ) -> "WeightedGraph":
        vset = set()
        for v in vertices:
            v = int(v)
            if v < 0:
                raise GraphError(f"negative vertex id {v}")
            if v in vset:
                raise GraphError(f"duplicate vertex id {v}")
            vset.add(v)
        canon = []
        seen_pairs = set()
        for u, v, w in edges:
            u, v, w = int(u), int(v), float(w)
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if u not in vset or v not in vset:
                raise GraphError(f"edge ({u},{v}) references unknown vertex")
            if not (math.isfinite(w) and w > 0.0):
                raise GraphError(f"edge ({u},{v}) has non-positive weight {w}")
            if u > v:
                u, v = v, u
            if (u, v) in seen_pairs:
                raise GraphError(f"duplicate edge ({u},{v})")
            seen_pairs.add((u, v))
            canon.append((u, v, w))
        canon.sort()
        terms = tuple(int(t) for t in terminals)
        if len(terms) < 1:
            raise GraphError("at least one terminal required")
        if len(set(terms)) != len(terms):
            raise GraphError("terminals must be distinct")
        for t in terms:
            if t not in vset:
                raise GraphError(f"terminal {t} is not a vertex")
        return WeightedGraph(
            vertices=tuple(sorted(vset)),
            edges=tuple(canon),
            terminals=terms,
            labels=dict(labels) if labels else {},
        )

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def k(self) -> int:
        return len(self.terminals)

    @cached_property
    def adjacency(self) -> dict[int, tuple[tuple[int, float], ...]]:
        """``(neighbour id, weight)`` rows keyed by id.  No reader in the
        package; kept only while the benchmark (``perfbench/workloads.py``)
        warms it."""
        adj: dict[int, list[tuple[int, float]]] = {v: [] for v in self.vertices}
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}

    @cached_property
    def index(self) -> dict[int, int]:
        """Position of every vertex id in ``vertices``."""
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _index_adjacency(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """``(position, weight)`` of every neighbour, per position.

        ``edges`` are sorted with ``u < v``, so each row receives its lower
        neighbours, then its higher ones, each in ascending order: rows come
        out sorted, in id order.
        """
        index = self.index
        adj: list[list[tuple[int, float]]] = [[] for _ in self.vertices]
        for u, v, w in self.edges:
            i, j = index[u], index[v]
            adj[i].append((j, w))
            adj[j].append((i, w))
        # tuples, not lists: the garbage collector stops tracking tuples of
        # atoms, so a cached graph adds nothing to every full collection
        return tuple(map(tuple, adj))

    @cached_property
    def _chains(self) -> _Chains:
        """The kernel's chain table, with the terminals as sources."""
        return _fold_chains(self._index_adjacency, [self.index[t] for t in self.terminals])

    @cached_property
    def terminal_distance_maps(self) -> tuple[array, ...]:
        """One distance row per terminal, in terminal order.

        Row j-1 holds the distance from terminal j to vertex v at
        ``index[v]``, and ``math.inf`` where v is unreachable.  Rows are
        ``array('d')``: 8 bytes an entry, and never traversed by the
        garbage collector, where a list of floats costs 32 and is.
        """
        index = self.index
        return tuple(_distance_columns(self._chains, [(index[t],) for t in self.terminals]))

    @cached_property
    def terminal_block(self) -> tuple[array, ...]:
        """d(t_i, t_j) at ``[i-1][j-1]``: the terminal entries of
        ``terminal_distance_maps``, as k ``array('d')`` rows of k entries.

        Sliced from the rows when they are cached.  Otherwise it slices each
        row as the kernel yields it, so one n-entry row is alive at a time
        and none is kept.  The rows are not cached then: a caller that will
        also read ``terminal_distance_maps`` reads it first, or the kernel
        runs twice (the experiment sweep does so for its covering check).
        """
        positions = np.array([self.index[t] for t in self.terminals], dtype=np.intp)
        rows = self.__dict__.get("terminal_distance_maps") or _distance_columns(
            self._chains, positions.reshape(-1, 1)
        )
        return tuple(array("d", np.frombuffer(row)[positions].tobytes()) for row in rows)

    @cached_property
    def nearest_terminal_distance(self) -> dict[int, float]:
        """``_nearest_row`` keyed by id, reachable vertices only.  No reader in
        the package; kept only while the benchmark warms it."""
        return {v: d for v, d in zip(self.vertices, self._nearest_row) if d != math.inf}

    @cached_property
    def _nearest_row(self) -> array:
        # the same distances by position, math.inf where no terminal is reachable
        [dist] = _distance_columns(self._chains, [[self.index[t] for t in self.terminals]])
        return dist

    def is_connected(self) -> bool:
        return self._connected

    @cached_property
    def _connected(self) -> bool:
        # computed once: the graph is immutable
        if not self.vertices:
            return True
        adj = self._index_adjacency
        seen = bytearray(self.n)
        seen[0] = 1
        stack = [0]
        while stack:
            for q, _ in adj[stack.pop()]:
                if not seen[q]:
                    seen[q] = 1
                    stack.append(q)
        return 0 not in seen


_CHUNK = 16        # sources per label array, one column each
_TAIL_WIDTH = 16   # active pairs at which the heap tail takes over
_BLOCK = 1 << 12   # active pairs a sweep expands at a time
_SORT_SHARE = 32   # dedupe by sorting below 1/32 of the label array
# interior positions a chain needs to be folded.  With every chain of
# sparse random and grid graphs L positions long, folding them all took
# 2.6-3.1x the unfolded time at L = 1, 1.1-1.2x at L = 4, 0.8-0.9x at
# L = 6-8 and 0.5-0.7x from L = 12 on.
_FOLD_MIN = 8


_ENTRY = np.dtype([("nbr", np.intp), ("weight", np.float64)])


def _csr_arrays(adj: Sequence[Sequence[tuple[int, float]]]):
    """Row starts, neighbour positions and float64 weights of ``adj``."""
    indptr = _row_starts(adj)
    # numpy reads the (position, weight) tuples as records, row after row
    entries = np.fromiter(chain.from_iterable(adj), _ENTRY, int(indptr[-1]))
    return indptr, entries["nbr"].copy(), entries["weight"].copy()


def _row_starts(rows) -> np.ndarray:
    indptr = np.zeros(len(rows) + 1, dtype=np.intp)
    np.cumsum(np.fromiter(map(len, rows), np.intp, len(rows)), out=indptr[1:])
    return indptr


@dataclass(frozen=True, eq=False)
class _Chains:
    """Chains of degree-two positions, each folded to one edge between its ends.

    The kernel runs on the reduced graph of the positions outside folded
    chains, in ascending order: ``compact`` maps a position to its index
    there, or to -1 inside a chain.  ``adj`` and ``csr`` hold the reduced
    graph's plain edges.  ``folds[i]`` lists ``(end, weights)`` for every
    chain from reduced vertex i to another end, the weights in walking
    order.  ``fold_csr`` holds the same as arrays:
    row starts, ends, weight counts, and each chain's first weight in the
    flat float64 weights that follow.  ``groups`` holds, per interior length,
    the chains' reduced ends, interior positions and weights, for
    ``unfold``.  A table that folds nothing keeps every position, its
    ``adj`` and ``csr`` are the graph's own rows and arrays, ``folds`` and
    ``fold_csr`` are None, and ``groups`` is empty.
    """

    compact: np.ndarray
    adj: Sequence
    csr: tuple
    folds: tuple | None
    fold_csr: tuple | None
    groups: tuple

    def unfold(self, labels: np.ndarray):
        """One ``array('d')`` over every position per column of the final
        reduced labels (reduced vertex x column)."""
        # the fold from either end, position by position, for every column
        folds = [
            (inner, np.minimum(_prefix_folds(labels[a], weight[:, :-1]),
                               _prefix_folds(labels[b], weight[:, :0:-1])[..., ::-1]))
            for a, b, inner, weight in self.groups
        ]
        for j in range(labels.shape[1]):
            # a chain interior (compact -1) takes a stand-in label, then its fold
            column = labels[:, j].take(self.compact)
            for inner, best in folds:
                column[inner] = best[j]
            yield array("d", column.tobytes())


def _prefix_folds(start: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """The left-to-right sums ``start[i, j] + w1``, ``start[i, j] + w1 + w2``,
    ... over each row i of ``weight``, for every column j of ``start``: an
    array indexed (j, i, hop)."""
    g, h = weight.shape
    sums = np.empty((start.shape[1], g, h + 1))
    sums[..., 0] = start.T
    sums[..., 1:] = weight
    np.add.accumulate(sums, axis=2, out=sums)
    return sums[..., 1:]


def _fold_chains(adj, sources) -> _Chains:
    """The chain table of ``adj``, the positions ``sources`` ending chains:
    every chain with at least ``_FOLD_MIN`` interior positions is folded.
    With no such chain the table folds nothing.

    A chain is a maximal path whose interior positions have exactly two
    neighbours and are not sources.  Its two ends may be one position (a
    cycle through it), and a degree-one end is a dead end.  A cycle of
    degree-two positions with no end stays in the reduced graph, unreached.
    """
    n = len(adj)
    is_end = bytearray(map((2).__ne__, map(len, adj)))
    for s in sources:
        is_end[s] = 1
    seen = bytearray(n)
    chains = []
    for p in np.flatnonzero(np.frombuffer(is_end, dtype=np.uint8) == 0).tolist():
        if seen[p]:
            continue
        # walk out both ways from p to the chain's ends
        (x, wx), (y, wy) = adj[p]
        back, back_weights, a = _walk(adj, is_end, seen, p, x, wx)
        if a == p:
            continue  # a cycle without ends
        ahead, weights, b = _walk(adj, is_end, seen, p, y, wy)
        path = back[::-1] + [p] + ahead
        if len(path) >= _FOLD_MIN:
            chains.append((a, b, path, back_weights[::-1] + weights))
    if not chains:
        return _Chains(compact=np.arange(n), adj=adj, csr=_csr_arrays(adj), folds=None,
                       fold_csr=None, groups=())
    compact = np.zeros(n, dtype=np.intp)
    for _, _, path, _ in chains:
        compact[path] = -1
    kept = np.flatnonzero(compact == 0)
    compact[kept] = np.arange(kept.size)
    cid = compact.tolist()
    radj = tuple(tuple((cid[q], w) for q, w in adj[p] if cid[q] >= 0) for p in kept.tolist())
    folds: list[list] = [[] for _ in radj]
    groups: dict[int, list] = {}
    for a, b, path, weights in chains:
        a, b = cid[a], cid[b]
        if a != b:
            # a chain back to its own end never shortens a path
            folds[a].append((b, tuple(weights)))
            folds[b].append((a, tuple(reversed(weights))))
        groups.setdefault(len(path), []).append((a, b, path, weights))
    flat = [fold for row in folds for fold in row]
    hops = np.fromiter((len(weights) for _, weights in flat), np.intp, len(flat))
    return _Chains(
        compact=compact,
        adj=radj,
        csr=_csr_arrays(radj),
        folds=tuple(map(tuple, folds)),
        fold_csr=(
            _row_starts(folds),
            np.fromiter((b for b, _ in flat), np.intp, len(flat)),
            hops,
            hops.cumsum() - hops,
            np.fromiter((w for _, weights in flat for w in weights), np.float64, int(hops.sum())),
        ),
        groups=tuple(
            (np.array(a, dtype=np.intp), np.array(b, dtype=np.intp),
             np.array(inner, dtype=np.intp), np.array(weights))
            for a, b, inner, weights in (zip(*group) for group in groups.values())
        ),
    )


def _walk(adj, is_end, seen, start, p, w):
    """Walk from ``start`` over the edge of weight ``w`` to ``p`` and on,
    marking each position in ``seen``, to the first end (or back to
    ``start``).  Returns the positions passed, the weights crossed and the
    position where the walk stopped."""
    seen[start] = 1
    prev, path, weights = start, [], [w]
    while not is_end[p] and p != start:
        seen[p] = 1
        path.append(p)
        (x, wx), (y, wy) = adj[p]
        if x == prev:
            prev, p, w = p, y, wy
        else:
            prev, p, w = p, x, wx
        weights.append(w)
    return path, weights, p


def _distance_columns(chains: _Chains, columns):
    """Distances from the nearest source of each column, column by column.

    Each column is a collection of source positions of the graph that the
    chain table ``chains`` was built from, and the table's sources must
    include every column's.  The kernel runs on the table's reduced graph;
    a table that folds nothing runs it on the graph's own rows.  Yields one
    ``array('d')`` over every position per column, in column order;
    unreachable positions get ``math.inf``.  ``_CHUNK`` columns share a label
    array, and the heap tail takes over at ``_TAIL_WIDTH`` active pairs.
    Exact: see the module docstring.
    """
    columns = [chains.compact[list(col)].tolist() for col in columns]
    for first in range(0, len(columns), _CHUNK):
        yield from _sweep_chunk(chains, columns[first:first + _CHUNK])


def _sweep_chunk(chains, columns):
    adj, csr = chains.adj, chains.csr
    c = len(columns)
    size = len(adj) * c
    # the pair (vertex position v, column j) sits at v * c + j
    labels = np.full(size, math.inf)
    active = _distinct(
        np.array([s * c + j for j, col in enumerate(columns) for s in col], dtype=np.intp)
    )
    labels[active] = 0.0
    mark = np.zeros(size, dtype=bool)
    last = 0  # the seeds count as growth: at least one sweep runs
    while active.size > _TAIL_WIDTH or active.size > last:
        last = active.size
        # every block expands the labels the sweep started with
        base = labels[active]
        blocks = []
        for lo in range(0, last, _BLOCK):
            pairs, start = active[lo:lo + _BLOCK], base[lo:lo + _BLOCK]
            blocks.append(_expand(labels, csr, c, pairs, start))
            if chains.folds is not None:
                blocks.append(_expand_folds(labels, chains, c, pairs, start))
        target = np.concatenate(blocks)
        if target.size * _SORT_SHARE < size:
            active = _distinct(target)
        else:
            mark[target] = True
            active = np.flatnonzero(mark)
            mark[active] = False
    vertex, col = np.divmod(active, c)
    for j in range(c):
        seeds = vertex[col == j].tolist()
        if seeds:
            labels[j::c] = _dijkstra(adj, labels[j::c].tolist(), seeds, chains.folds)
    yield from chains.unfold(labels.reshape(-1, c))


def _out_edges(indptr, vertex):
    """The index of every out-edge of ``vertex`` in CSR order, and the
    out-degree of each entry of ``vertex``."""
    start = indptr[vertex]
    degree = indptr[vertex + 1] - start
    edge = (start - degree.cumsum() + degree).repeat(degree)
    edge += np.arange(edge.size)
    return edge, degree


def _expand(labels, csr, c, pairs, base):
    """Relax the out-edges of ``pairs`` from their labels ``base`` into
    ``labels``; return the pairs this improved, with repeats."""
    indptr, nbr, weight = csr
    vertex, col = np.divmod(pairs, c)
    # one candidate per out-edge; in-place updates keep the temporaries at
    # about 25 bytes a candidate, plus 8 per improving one
    edge, degree = _out_edges(indptr, vertex)
    cand = base.repeat(degree)
    cand += weight[edge]
    target = nbr[edge]
    del edge
    target *= c
    target += col.repeat(degree)
    keep = (cand < labels[target]).nonzero()[0]
    target = target[keep]
    np.minimum.at(labels, target, cand[keep])
    return target


def _expand_folds(labels, chains, c, pairs, base):
    """Relax the folded chains leaving ``pairs`` from their labels ``base``
    into ``labels``, one ``np.add.accumulate`` per weight count; return the
    pairs this improved, with repeats."""
    indptr, end, hops, first, weight = chains.fold_csr
    vertex, col = np.divmod(pairs, c)
    fold, degree = _out_edges(indptr, vertex)
    if not fold.size:
        return fold
    order = np.argsort(hops[fold], kind="stable")
    fold = fold[order]
    base = base.repeat(degree)[order]
    target = end[fold] * c + col.repeat(degree)[order]
    h = hops[fold]
    cuts = [0, *(np.flatnonzero(h[1:] != h[:-1]) + 1).tolist(), fold.size]
    cand = np.empty(fold.size)
    for lo, hi in zip(cuts, cuts[1:]):
        sums = np.empty((hi - lo, h[lo] + 1))
        sums[:, 0] = base[lo:hi]
        sums[:, 1:] = weight[first[fold[lo:hi], None] + np.arange(h[lo])]
        np.add.accumulate(sums, axis=1, out=sums)
        cand[lo:hi] = sums[:, -1]
    keep = (cand < labels[target]).nonzero()[0]
    target = target[keep]
    np.minimum.at(labels, target, cand[keep])
    return target


def _distinct(pairs: np.ndarray) -> np.ndarray:
    # np.unique would import numpy.ma, 1.7 MB of resident memory
    pairs = np.sort(pairs)
    return np.concatenate((pairs[:1], pairs[1:][pairs[1:] != pairs[:-1]]))


def _dijkstra(
    adj: Sequence[Sequence[tuple[int, float]]], dist: list[float], seeds, folds
) -> list[float]:
    """Finish the labels ``dist`` by Dijkstra from the positions ``seeds``.

    ``adj[i]`` lists ``(position, weight)`` pairs, and ``folds[i]``, unless
    ``folds`` is None, ``(position, weights)`` pairs relaxed as one
    left-to-right sum.
    Every label must be a path's float sum or ``math.inf``, and every
    position v outside ``seeds`` must already have relaxed its edges:
    ``dist[u] <= dist[v] + w`` for each ``(u, w)`` in ``adj[v]``, and the
    same for its folds.  Returns ``dist``, updated in place.  Exact: see
    the module docstring.
    """
    heap = [(dist[s], s) for s in seeds]
    heapify(heap)
    while heap:
        d, v = heappop(heap)
        if d > dist[v]:
            continue
        for u, w in adj[v]:
            nd = d + w
            if nd < dist[u]:
                dist[u] = nd
                heappush(heap, (nd, u))
        if folds:
            for u, weights in folds[v]:
                nd = reduce(add, weights, d)
                if nd < dist[u]:
                    dist[u] = nd
                    heappush(heap, (nd, u))
    return dist


def canonical_path(
    graph: WeightedGraph, source: int, target: int
) -> tuple[list[int], list[float]]:
    """The shortest path from ``source`` to ``target``, both included, and
    the distance from ``source`` of each of its vertices.

    Dijkstra on positions, ties broken toward the lowest-id predecessor, so
    equal inputs give identical paths.  It stops once ``target`` is settled,
    when the predecessors along its path are final.
    """
    index = graph.index
    for v in (source, target):
        if v not in index:
            raise GraphError(f"unknown vertex {v}")
    s, t = index[source], index[target]
    adj, n = graph._index_adjacency, graph.n
    best, pred, done = [math.inf] * n, [-1] * n, bytearray(n)
    best[s] = 0.0
    heap = [(0.0, s)]
    while heap:
        d, v = heappop(heap)
        if done[v]:
            continue
        done[v] = 1
        if v == t:
            break
        for u, w in adj[v]:
            nd = d + w
            # a settled u has best[u] <= d <= nd: only a tie reaches it
            if nd < best[u]:
                best[u], pred[u] = nd, v
                heappush(heap, (nd, u))
            elif nd == best[u] and v < pred[u] and not done[u]:
                pred[u] = v  # an equal-length path through a lower id
    else:
        raise GraphError(f"vertex {target} is not reachable from {source}")
    path = [t]
    while path[-1] != s:
        path.append(pred[path[-1]])
    path.reverse()
    return [graph.vertices[p] for p in path], [best[p] for p in path]


class ClusterReplay:
    """The claims of a ball-growing run, replayed step by step on positions.

    Holds the owner (1-based cluster index, 0 while unclaimed) of every
    position, the distance of every claim the replay itself reproduced, and
    per cluster its boundary: the members with a distance that may still have
    an unclaimed neighbour.  A search reads every boundary member's
    neighbours anyway, and drops the members it finds with none left.
    Terminals start claimed by their own clusters at distance 0; ``claimed``
    counts the claimed positions.

    ``search`` starts from a cluster's boundary, pushing d(y) + w for every
    unclaimed neighbour of a boundary member y, and settles unclaimed
    positions only.  It gives exactly the doubles of a fresh search from the
    cluster's terminal through its members and the unclaimed vertices,
    provided every member's distance came from ``search`` at its claiming
    step.  A member's region distance never changes after its claim: the
    region only shrinks and the member's shortest path lies inside the
    cluster (the argument of the ``engine`` module docstring).  On a shortest
    path to an unclaimed vertex, the last member is a boundary member and the
    path's float sum there is at least that member's distance; since
    ``fl(a + w)`` is monotone in ``a``, continuing from the member's distance
    gives the same sums.  Stop positions settle in (distance, position)
    order, which is (distance, id) order, as in the fresh search.
    """

    def __init__(self, graph: WeightedGraph):
        self.adj = graph._index_adjacency
        self.owner = [0] * graph.n
        self.dist = [math.inf] * graph.n
        self.boundary: list[set[int]] = [set()]
        for j, t in enumerate(graph.terminals, start=1):
            p = graph.index[t]
            self.owner[p], self.dist[p] = j, 0.0
            self.boundary.append({p})
        self.claimed = graph.k

    def claim(self, cluster: int, positions, found: dict[int, float]) -> None:
        """Record that ``cluster`` claims ``positions``, each at its distance
        in ``found``.

        A position absent from ``found`` (a claim the replay did not
        reproduce) becomes claimed but is never a search seed.  A position
        stays with its first claim.
        """
        owner, dist = self.owner, self.dist
        boundary = self.boundary[cluster]
        for p in positions:
            if owner[p]:
                continue
            owner[p] = cluster
            self.claimed += 1
            d = found.get(p)
            if d is not None:
                dist[p] = d
                boundary.add(p)

    def search(
        self,
        cluster: int,
        limit: float = math.inf,
        stop: set[int] | frozenset[int] = frozenset(),
        extra: float = 0.0,
    ) -> tuple[dict[int, float], list[tuple[int, float]]]:
        """Distances from ``cluster``'s terminal through its members and the
        unclaimed positions, for every unclaimed position within ``limit``.

        Once the first position of ``stop`` is settled at distance d, the
        limit drops to d + ``extra``.  Returns the distances of the settled
        unclaimed positions and the stop positions settled, with their
        distances, in settling order (ties in position order).
        """
        owner, adj, dist = self.owner, self.adj, self.dist
        boundary = self.boundary[cluster]
        inf = math.inf
        best: dict[int, float] = {}
        inner = []
        for y in boundary:
            dy = dist[y]
            has_unclaimed = False
            for u, w in adj[y]:
                if not owner[u]:
                    has_unclaimed = True
                    nd = dy + w
                    if nd <= limit and nd < best.get(u, inf):
                        best[u] = nd
            if not has_unclaimed:
                inner.append(y)
        # claimed positions stay claimed, so a member without an unclaimed
        # neighbour never seeds a search again
        boundary.difference_update(inner)
        heap = [(d, u) for u, d in best.items()]
        heapify(heap)
        found: dict[int, float] = {}
        stops: list[tuple[int, float]] = []
        while heap:
            d, v = heappop(heap)
            if d > best[v]:
                continue
            if d > limit:
                break
            found[v] = d
            if v in stop:
                if not stops:
                    limit = d + extra
                stops.append((v, d))
            for u, w in adj[v]:
                if owner[u]:
                    continue
                nd = d + w
                # a settled u has best[u] <= d <= nd, so it is never pushed
                if nd <= limit and nd < best.get(u, inf):
                    best[u] = nd
                    heappush(heap, (nd, u))
        return found, stops


def induced_subgraph(graph: WeightedGraph, keep) -> WeightedGraph:
    """Subgraph on ``keep``: all edges with both endpoints kept, terminals restricted."""
    keep_set = set(int(v) for v in keep)
    unknown = keep_set.difference(graph.index)
    if unknown:
        raise GraphError(f"keep set contains unknown vertices {sorted(unknown)}")
    edges = [(u, v, w) for u, v, w in graph.edges if u in keep_set and v in keep_set]
    terms = [t for t in graph.terminals if t in keep_set]
    if not terms:
        raise GraphError("induced subgraph keeps no terminal")
    labels = {v: s for v, s in graph.labels.items() if v in keep_set}
    return WeightedGraph.build(sorted(keep_set), edges, terms, labels)


@dataclass(frozen=True)
class SubdivideResult:
    graph: WeightedGraph
    host_edge: dict[int, tuple[int, int]]  # new vertex -> original (u, v)


def subdivide_edges(graph: WeightedGraph, threshold: float) -> SubdivideResult:
    """Split every edge heavier than ``threshold`` into equal segments.

    An edge of weight w > threshold becomes a path of ceil(w / threshold)
    segments of weight w / ceil(w / threshold) each, through fresh
    non-terminal vertices of degree two.  Distances between original
    vertices are preserved (the split is an exact partition of the weight,
    up to float rounding).  Fresh ids are handed out from max(id)+1 in
    canonical edge order, so the result is deterministic.
    """
    if not (threshold > 0 and math.isfinite(threshold)):
        raise GraphError(f"threshold must be positive and finite, got {threshold}")
    next_id = max(graph.vertices) + 1 if graph.vertices else 0
    vertices = list(graph.vertices)
    new_edges: list[tuple[int, int, float]] = []
    host: dict[int, tuple[int, int]] = {}
    for u, v, w in graph.edges:
        if w <= threshold:
            new_edges.append((u, v, w))
            continue
        segments = math.ceil(w / threshold)
        seg_w = w / segments
        prev = u
        for _ in range(segments - 1):
            fresh = next_id
            next_id += 1
            vertices.append(fresh)
            host[fresh] = (u, v)
            new_edges.append((prev, fresh, seg_w))
            prev = fresh
        new_edges.append((prev, v, seg_w))
    g = WeightedGraph.build(vertices, new_edges, graph.terminals, graph.labels)
    return SubdivideResult(graph=g, host_edge=host)


# ---------------------------------------------------------------------------
# Text format: '#' comments, 'v <id> [label]', 't <id>', 'e <u> <v> <weight>'.
# ---------------------------------------------------------------------------

def parse_graph_text(text: str) -> WeightedGraph:
    vertices: list[int] = []
    vset: set[int] = set()
    terminals: list[int] = []
    edges: list[tuple[int, int, float]] = []
    labels: dict[int, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        try:
            if tag == "v":
                if len(parts) not in (2, 3):
                    raise ValueError("expected 'v <id> [label]'")
                vid = int(parts[1])
                if vid in vset:
                    raise ValueError(f"duplicate vertex {vid}")
                vset.add(vid)
                vertices.append(vid)
                if len(parts) == 3:
                    labels[vid] = parts[2]
            elif tag == "t":
                if len(parts) != 2:
                    raise ValueError("expected 't <id>'")
                tid = int(parts[1])
                if tid not in vset:
                    raise ValueError(f"terminal {tid} not declared as vertex")
                if tid in terminals:
                    raise ValueError(f"duplicate terminal {tid}")
                terminals.append(tid)
            elif tag == "e":
                if len(parts) != 4:
                    raise ValueError("expected 'e <u> <v> <weight>'")
                u, v, w = int(parts[1]), int(parts[2]), float(parts[3])
                if u not in vset or v not in vset:
                    raise ValueError(f"edge ({u},{v}) references undeclared vertex")
                edges.append((u, v, w))
            else:
                raise ValueError(f"unknown record type {tag!r}")
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
    try:
        return WeightedGraph.build(vertices, edges, terminals, labels)
    except GraphError as exc:
        raise ParseError(0, str(exc)) from None


def format_graph_text(graph: WeightedGraph) -> str:
    lines = []
    for v in graph.vertices:
        if v in graph.labels:
            lines.append(f"v {v} {graph.labels[v]}")
        else:
            lines.append(f"v {v}")
    for t in graph.terminals:
        lines.append(f"t {t}")
    for u, v, w in graph.edges:
        lines.append(f"e {u} {v} {w!r}")
    return "\n".join(lines) + "\n"
