"""Weighted undirected graphs with a distinguished terminal set.

The graph is immutable after construction.  All operations here are pure
functions; results depend only on their inputs, so graphs and distance maps
can be shared freely across threads.

One set of rules, ``_GraphRules``, checks every graph, fed by
``WeightedGraph.build`` or by ``parse_graph_text``: it checks whole columns
at once, and feeds the records one by one, in input order, only to word
the first fault.

Vertex ids are nonnegative integers.  Loaders and generators hand out dense
ids 0..n-1; operations such as ``induced_subgraph`` keep the original ids.
``WeightedGraph.index`` maps each id to its position in ``vertices``, and
``vertices`` is sorted, so position order is id order.  A graph is its edge
columns (``edge_columns``: the end positions and float64 weights of the
canonical edges), its only edge store: the id triples of ``edges`` are a
view built on first read.  Ids stay Python integers, so only positions go
into numpy.  One sort of the columns by (position, neighbour) gives the CSR
arrays of the position adjacency (``_csr()``), and its ``(position,
weight)`` rows are their slices.  The position adjacency is the only one
the package reads: the distance kernel below, the connectivity check, the clustering
engine, the partition check (``minor``), the covering check, the
closest-terminal-pair search, ``canonical_path`` and ``ClusterReplay`` all
run on positions, and give ids back only in what they return; contraction
gathers the clusters of the columns' ends.

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
holding the CSR arrays (row starts, neighbour positions, float64 weights) of
an adjacency indexed by vertex position.  It takes the sources 16 at a time
as the columns of a flat ``n x 16`` float64 label array and sweeps until no
label improves.  The kernel holds the (vertex, column) pairs improved in the
last sweep.  A sweep expands their out-edges, keeps the candidates
``label[u] + w`` that beat the target's label, applies them with
``np.minimum.at``, and makes the improved pairs the next active set.  It
expands the pairs 4096 at a time, every block from the labels the sweep
started with, so a sweep does what one expansion of the whole set would.  A
block's temporaries take about 30 bytes per candidate, 4096 x degree x 30 B,
and up to 37 when nearly every candidate improves; the sweep adds 8 bytes
per active pair and per improving candidate.  Once no pair is active, the
table turns every column into one ``array('d')``.

Chains of degree-two positions are where sweeps lose: a frontier of one pair
per column pays a whole sweep per hop, and subdivided graphs are made of
little else.  A chain is a maximal path whose interior positions have
exactly two neighbours and are not sources.  For the terminal rows and the
nearest-terminal column, the kernel folds every chain of at least
``_FOLD_MIN`` interior positions into one edge between its two ends and
sweeps the reduced graph of the other positions (the chain table, cached on
the graph with the terminals as sources).  Relaxing a chain from a label x
gives the left-to-right float sum x + w1 + w2 + ... of its weights, one
``np.add.accumulate`` over every candidate whose chain has that many
weights.  Once the reduced labels are final, each interior position gets the
smaller of the folds from the chain's two ends, one ``np.add.accumulate``
per interior length.  No interior position is ever active.  A chain whose
two ends are one position is never relaxed, since it cannot shorten a path,
but its interior is filled from both sides; a dead end (a degree-one end) is
an end like any other; a cycle of degree-two positions without any end
stays in the reduced graph, unreached, at ``math.inf``.  A graph without
such a chain gets a table that folds nothing: the kernel runs on the graph's
own CSR arrays, and each final column skips the ``take`` through an
identity ``compact``: ``tobytes`` and the ``array('d')`` copy it, once
each.  A minor is its graph (``InducedMinor.graph``, vertices
1..k, every one a terminal, built by ``WeightedGraph.build`` like any
other), so its ``distance_matrix`` is that graph's k terminal rows,
``array('d')`` rows of k entries, and its table always folds nothing: it
reads the CSR arrays and never builds the rows.

Its values are exact, not merely close.  Every label is always the
left-to-right float sum of the weights of a real path.  The sweeps stop only
when no pair improved, so every label has been relaxed along all its edges:
a fixed point of label correction.  For a positive weight w, ``fl(a + w)``
is never below ``a`` and is monotone in ``a``, so any such fixed point is,
for every vertex, the minimum over all paths of the left-to-right float sum
of the path's weights, whatever order the relaxations ran in; a minimum is
exact in any order.  Any correct Dijkstra, ``canonical_path`` included,
returns the same doubles.  A fold makes the additions hop-by-hop relaxation
would make, in the same order, so the reduced labels reach that fixed point;
an interior position is entered from one end or the other, and a path that
turns back inside the chain is never shorter.  Three ways to lose this, all
avoided here: the built-in ``sum()`` compensates float sums from Python 3.12
on; ``np.add.reduce`` and ``np.sum`` add pairwise; and a difference of
prefix sums is not the sum along the path.

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
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import repeat

import numpy as np


# The most vertices a generated graph may have, or a subdivision may add,
# checked before any is made: beyond it a mistyped size would take the
# machine's memory, or hours, before it failed.
MAX_GRAPH_SIZE = 1_000_000


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

    ``edge_columns``, the only edge store, holds the end positions ``lo < hi``
    (``np.intp``) and the float64 weight of each edge, sorted by (lo, hi): at
    most one edge per pair, no self-loops, every weight positive and finite.
    Only ``_GraphRules.graph`` calls this constructor.  ``edges`` is a view
    of the columns built on first read; terminal j (1-based) is ``terminals[j-1]``.
    """

    vertices: tuple[int, ...]
    edge_columns: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)
    terminals: tuple[int, ...]
    labels: dict[int, str] = field(default_factory=dict)

    @staticmethod
    def build(
        vertices,
        edges,
        terminals,
        labels: dict[int, str] | None = None,
    ) -> "WeightedGraph":
        """The graph, checked by ``_GraphRules``: all vertices, then all
        edges, then all terminals."""
        vertices, edges, terminals = list(vertices), list(edges), list(terminals)
        graph = None
        try:
            edges = list(map(tuple, edges))
            if set(map(len, edges)) <= {3}:
                u, v, w = zip(*edges) if edges else ((), (), ())
                graph = _GraphRules.graph(
                    list(map(int, vertices)), list(map(int, u)), list(map(int, v)),
                    list(map(float, w)), list(map(int, terminals)), labels,
                )
        except (TypeError, ValueError, OverflowError):
            pass  # a record that does not convert, worded below
        if graph is None:
            rules = _GraphRules()
            for v in vertices:
                rules.vertex(v)
            for u, v, w in edges:
                rules.edge(u, v, w)
            for t in terminals:
                rules.terminal(t)
            rules.finish()
        return graph

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def k(self) -> int:
        return len(self.terminals)

    @cached_property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """The edges as ``(u, v, w)`` id triples, ``u < v``, in column order,
        which is sorted.  No reader in the package but ``InducedMinor.edges``."""
        return tuple(self._id_edges())

    def _id_edges(self):
        """The edges as id triples, one at a time; nothing is cached."""
        at, (lo, hi, w) = self.vertices.__getitem__, self.edge_columns
        return zip(map(at, lo.tolist()), map(at, hi.tolist()), w.tolist())

    @cached_property
    def adjacency(self) -> dict[int, tuple[tuple[int, float], ...]]:
        """The rows of ``_index_adjacency`` keyed by id, as ``(neighbour id,
        weight)``: the rows themselves when the ids are 0..n-1.  No reader
        in the package; kept only while ``perfbench/workloads.py`` warms it."""
        ids, rows = self.vertices, self._index_adjacency
        if not ids or ids[-1] == len(ids) - 1:  # sorted, distinct, nonnegative
            return dict(zip(ids, rows))
        return {v: tuple((ids[q], w) for q, w in row) for v, row in zip(ids, rows)}

    @cached_property
    def index(self) -> dict[int, int]:
        """Position of every vertex id in ``vertices``."""
        return {v: i for i, v in enumerate(self.vertices)}

    def _entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The position adjacency, each edge from both ends, as CSR arrays
        with the column index of each entry's edge in place of its
        weight: row starts, neighbour positions and edge indices.  One sort
        of the edge columns by (position, neighbour) gives every row in
        position order.  Not cached: ``_csr()`` and ``_index_adjacency`` each
        sort once, and no edge index outlives them."""
        lo, hi, _ = self.edge_columns
        tail, head = np.concatenate((lo, hi)), np.concatenate((hi, lo))
        order = (tail * self.n + head).argsort()
        indptr = _row_starts(np.bincount(tail, minlength=self.n))
        return indptr, head[order], order % max(lo.size, 1)

    def _csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The position adjacency as CSR arrays: row starts, neighbour
        positions and float64 weights.  Not cached: the chain table keeps
        them when it folds nothing, and drops them once it has the reduced
        graph's arrays."""
        indptr, nbr, edge = self._entries()
        return indptr, nbr, self.edge_columns[2][edge]

    @cached_property
    def _index_adjacency(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """``(position, weight)`` of every neighbour, per position: the rows
        of ``_entries``, in position order.  The entries share their ints
        with ``index``, and both ends of an edge share one weight float."""
        indptr, nbr, edge = self._entries()
        position, weight = list(self.index.values()), self.edge_columns[2].tolist()
        entries = tuple(zip(map(position.__getitem__, nbr.tolist()),
                            map(weight.__getitem__, edge.tolist())))
        starts = indptr.tolist()
        # tuples, not lists: the garbage collector stops tracking tuples of
        # atoms, so a cached graph adds nothing to every full collection
        return tuple(map(entries.__getitem__, map(slice, starts, starts[1:])))

    @cached_property
    def _chains(self) -> _Chains:
        """The kernel's chain table, with the terminals as sources."""
        return _fold_chains(self._csr(), [self.index[t] for t in self.terminals])

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


class _GraphRules:
    """The rules of a valid graph: a vertex id is nonnegative and new; an
    edge joins two vertices declared before it, is no self-loop, has a
    positive finite weight and is the first for its pair; a terminal is a
    vertex declared before it, listed once; a graph has a terminal.

    ``graph`` checks the records' columns at once and builds the graph, or
    returns None when a rule fails.  Only then are the records fed, in
    input order, to ``vertex``, ``edge`` and ``terminal``, which convert one
    record each, from numbers or text, and raise its first fault against the
    records fed before; ``finish`` raises the fault of a graph without
    terminals.
    """

    def __init__(self):
        self.vertices, self.pairs, self.terminals = set(), set(), set()

    def vertex(self, v) -> int:
        v, vertices = int(v), self.vertices
        if v < 0:
            raise GraphError(f"negative vertex id {v}")
        if v in vertices:
            raise GraphError(f"duplicate vertex {v}")
        vertices.add(v)
        return v

    def edge(self, u, v, w) -> None:
        u, v, w = int(u), int(v), float(w)
        vertices, pairs = self.vertices, self.pairs
        if u not in vertices or v not in vertices:
            raise GraphError(f"edge ({u},{v}) references undeclared vertex")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not 0.0 < w < math.inf:
            fault = "non-positive" if w <= 0.0 else "non-finite"
            raise GraphError(f"edge ({u},{v}) has {fault} weight {w}")
        if u > v:
            u, v = v, u
        if (u, v) in pairs:
            raise GraphError(f"duplicate edge ({u},{v})")
        pairs.add((u, v))

    def terminal(self, t) -> None:
        t = int(t)
        if t not in self.vertices:
            raise GraphError(f"terminal {t} not declared as vertex")
        if t in self.terminals:
            raise GraphError(f"duplicate terminal {t}")
        self.terminals.add(t)

    def finish(self) -> None:
        if not self.terminals:
            raise GraphError("at least one terminal required")
        # ``graph`` refused records that every rule accepts one by one
        raise AssertionError("the graph rules disagree")

    @staticmethod
    def graph(vertices, u, v, weight, terminals, labels, order=None) -> WeightedGraph | None:
        """The graph of the converted columns, or None if a rule fails.

        ``vertices``, ``u``, ``v`` and ``terminals`` are lists of ints,
        ``weight`` a list of floats.  Without ``order`` every vertex comes
        before every edge and terminal; ``order`` gives each vertex, edge and
        terminal record its place in the input instead, and a record that
        names a vertex declared after it breaks a rule.
        """
        n, ids = len(vertices), sorted(vertices)
        if (not terminals or len(set(terminals)) < len(terminals) or len(set(vertices)) < n
                or (n and ids[0] < 0)):
            return None
        index = dict(zip(ids, range(n)))
        try:
            lo = np.fromiter(map(index.__getitem__, u), np.intp, len(u))
            hi = np.fromiter(map(index.__getitem__, v), np.intp, len(v))
            at = np.fromiter(map(index.__getitem__, terminals), np.intp, len(terminals))
        except KeyError:
            return None  # an undeclared vertex
        w = np.array(weight, dtype=np.float64)
        if (lo == hi).any() or not ((0.0 < w) & (w < math.inf)).all():
            return None
        if order is not None:
            vertex_at, edge_at, terminal_at = order
            declared = np.empty(n, dtype=np.intp)
            declared[np.fromiter(map(index.__getitem__, vertices), np.intp, n)] = vertex_at
            if ((declared[lo] > edge_at) | (declared[hi] > edge_at)).any() or (
                declared[at] > terminal_at
            ).any():
                return None
        # (lo, hi) as one key: the pair's rank in canonical order
        key = np.minimum(lo, hi) * n + np.maximum(lo, hi)
        rank = key.argsort()
        key = key[rank]
        if (key[1:] == key[:-1]).any():
            return None  # a duplicate edge
        lo, hi = np.divmod(key, n)
        return WeightedGraph(
            vertices=tuple(ids),
            edge_columns=(lo, hi, w[rank]),
            terminals=tuple(terminals),
            labels=dict(labels) if labels else {},
        )


_CHUNK = 16        # sources per label array, one column each
_BLOCK = 1 << 12   # active pairs a sweep expands at a time
_SORT_SHARE = 32   # dedupe by sorting below 1/32 of the label array
# interior positions a chain needs to be folded.  With every chain of
# sparse random and grid graphs L positions long, folding them all took
# 2.6-3.1x the unfolded time at L = 1, 1.1-1.2x at L = 4, 0.8-0.9x at
# L = 6-8 and 0.5-0.7x from L = 12 on.
_FOLD_MIN = 8


def _row_starts(sizes: np.ndarray) -> np.ndarray:
    """CSR row starts of rows with ``sizes`` entries each."""
    indptr = np.zeros(sizes.size + 1, dtype=np.intp)
    np.cumsum(sizes, out=indptr[1:])
    return indptr


@dataclass(frozen=True, eq=False)
class _Chains:
    """Chains of degree-two positions, each folded to one edge between its ends.

    The kernel runs on the reduced graph of the positions outside folded
    chains, in ascending order: ``compact`` maps a position to its index
    there, or to -1 inside a chain.  ``csr`` holds the reduced graph's plain
    edges as CSR arrays.  ``fold_csr`` holds, per reduced vertex, every
    chain from it to another end, as arrays: row starts, ends, weight
    counts, and each chain's first weight in the flat float64 weights that
    follow, in walking order.  ``groups`` holds, per interior length, the
    chains' reduced ends, interior positions and weights, for ``unfold``.
    A table that folds nothing keeps every position, its ``csr`` holds the
    graph's own arrays, ``fold_csr`` is None, and ``groups`` is empty.
    """

    compact: np.ndarray
    csr: tuple
    fold_csr: tuple | None
    groups: tuple

    def unfold(self, labels: np.ndarray):
        """One ``array('d')`` over every position per column of the final
        reduced labels (reduced vertex x column), the chain folds summed now."""
        # the fold from either end, position by position, for every column
        folds = [
            (inner, np.minimum(_prefix_folds(labels[a], weight[:, :-1]),
                               _prefix_folds(labels[b], weight[:, :0:-1])[..., ::-1]))
            for a, b, inner, weight in self.groups
        ]

        def columns():
            for j in range(labels.shape[1]):
                column = labels[:, j]
                if folds:
                    # a chain interior (compact -1) takes a stand-in label, then its fold
                    column = column.take(self.compact)
                    for inner, best in folds:
                        column[inner] = best[j]
                yield array("d", column.tobytes())
        return columns()


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


def _fold_chains(csr, sources) -> _Chains:
    """The chain table of the CSR arrays ``csr``, the positions ``sources``
    ending chains: every chain with at least ``_FOLD_MIN`` interior
    positions is folded.  With no such chain the table folds nothing and
    keeps ``csr``.

    A chain is a maximal path whose interior positions have exactly two
    neighbours and are not sources.  Its two ends may be one position (a
    cycle through it), and a degree-one end is a dead end.  A cycle of
    degree-two positions with no end stays in the reduced graph, unreached.
    """
    indptr, nbr, weight = csr
    n = indptr.size - 1
    degree = np.diff(indptr)
    is_end = degree != 2
    is_end[list(sources)] = True
    inner = np.flatnonzero(~is_end)
    chains = _find_chains(csr, inner) if inner.size else []
    if not chains:
        return _Chains(compact=np.arange(n), csr=csr, fold_csr=None, groups=())
    compact = np.zeros(n, dtype=np.intp)
    for _, _, path, _ in chains:
        compact[path] = -1
    kept = np.flatnonzero(compact == 0)
    compact[kept] = np.arange(kept.size)
    # the reduced graph's plain edges: the entries between kept positions
    tail = compact.repeat(degree)
    head = compact[nbr]
    plain = (tail >= 0) & (head >= 0)
    reduced = (_row_starts(np.bincount(tail[plain], minlength=kept.size)), head[plain],
               weight[plain])
    cid = compact.tolist()
    folds: list[list] = [[] for _ in range(kept.size)]
    groups: dict[int, list] = {}
    for a, b, path, weights in chains:
        a, b = cid[a], cid[b]
        if a != b:
            # a chain back to its own end never shortens a path
            folds[a].append((b, weights))
            folds[b].append((a, weights[::-1]))
        groups.setdefault(len(path), []).append((a, b, path, weights))
    flat = [fold for row in folds for fold in row]
    hops = np.fromiter((len(weights) for _, weights in flat), np.intp, len(flat))
    return _Chains(
        compact=compact,
        csr=reduced,
        fold_csr=(
            _row_starts(np.fromiter(map(len, folds), np.intp, len(folds))),
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


def _find_chains(csr, inner) -> list:
    """Every chain through the interior positions ``inner`` of the CSR
    arrays ``csr`` with at least ``_FOLD_MIN`` of them, as its two ends,
    its interior positions and its weights, in walking order."""
    indptr, nbr, weight = csr
    # the two entries of each interior position, as lists by its rank in
    # ``inner`` (its slot); an end's slot is -1
    slot = np.full(indptr.size - 1, -1, dtype=np.intp)
    slot[inner] = np.arange(inner.size)
    entry = indptr[inner]
    rows = (slot.tolist(), nbr[entry].tolist(), weight[entry].tolist(),
            nbr[entry + 1].tolist(), weight[entry + 1].tolist())
    _, to, by, to_other, by_other = rows
    seen = bytearray(indptr.size - 1)
    chains = []
    for i, p in enumerate(inner.tolist()):
        if seen[p]:
            continue
        # walk out both ways from p to the chain's ends
        back, back_weights, a = _walk(rows, seen, p, to[i], by[i])
        if a == p:
            continue  # a cycle without ends
        ahead, weights, b = _walk(rows, seen, p, to_other[i], by_other[i])
        path = back[::-1] + [p] + ahead
        if len(path) >= _FOLD_MIN:
            chains.append((a, b, path, back_weights[::-1] + weights))
    return chains


def _walk(rows, seen, first, p, w):
    """Walk from ``first`` over the edge of weight ``w`` to ``p`` and on,
    marking each position in ``seen``, to the first end (or back to
    ``first``).  ``rows`` holds each position's slot and, by slot, the
    interior positions' two entries as lists (see ``_find_chains``).
    Returns the positions passed, the weights crossed and the position
    where the walk stopped."""
    slot, to, by, to_other, by_other = rows
    seen[first] = 1
    prev, path, weights = first, [], [w]
    while p != first and (i := slot[p]) >= 0:
        seen[p] = 1
        path.append(p)
        # a position inside a chain has two entries: leave by the other one
        if to[i] == prev:
            prev, p, w = p, to_other[i], by_other[i]
        else:
            prev, p, w = p, to[i], by[i]
        weights.append(w)
    return path, weights, p


def _distance_columns(chains: _Chains, columns):
    """Distances from the nearest source of each column, column by column.

    Each column is a collection of source positions of the graph that the
    chain table ``chains`` was built from, and the table's sources must
    include every column's.  The kernel runs on the table's reduced graph;
    a table that folds nothing runs it on the graph's own CSR arrays.  Yields one
    ``array('d')`` over every position per column, in column order;
    unreachable positions get ``math.inf``.  ``_CHUNK`` columns share a label
    array, swept until no label improves.  Exact: see the module docstring.
    """
    columns = [chains.compact[list(col)].tolist() for col in columns]
    for first in range(0, len(columns), _CHUNK):
        yield from _sweep_chunk(chains, columns[first:first + _CHUNK])


def _sweep_chunk(chains, columns):
    """The columns' distances, as ``_Chains.unfold`` gives them; returned,
    not yielded, so the overflow setting that makes a sum inf ends here."""
    csr = chains.csr
    c = len(columns)
    size = (csr[0].size - 1) * c
    # the pair (vertex position v, column j) sits at v * c + j
    labels = np.full(size, math.inf)
    active = _distinct(
        np.array([s * c + j for j, col in enumerate(columns) for s in col], dtype=np.intp)
    )
    labels[active] = 0.0
    mark = np.zeros(size, dtype=bool)
    with np.errstate(over="ignore"):
        while active.size:
            # every block expands the labels the sweep started with
            base = labels[active]
            blocks = []
            for lo in range(0, active.size, _BLOCK):
                pairs, start = active[lo:lo + _BLOCK], base[lo:lo + _BLOCK]
                blocks.append(_expand(labels, csr, c, pairs, start))
                if chains.fold_csr is not None:
                    blocks.append(_expand_folds(labels, chains, c, pairs, start))
            target = np.concatenate(blocks)
            if target.size * _SORT_SHARE < size:
                active = _distinct(target)
            else:
                mark[target] = True
                active = np.flatnonzero(mark)
                mark[active] = False
        return chains.unfold(labels.reshape(-1, c))


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

    ``verify.replay_trace`` builds one only for a trace its certificate
    refuses.  The charging ledger builds its own, claims on it the balls
    that replay returns, and runs its trigger searches on it.
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
    edges = [(u, v, w) for u, v, w in graph._id_edges() if u in keep_set and v in keep_set]
    terms = [t for t in graph.terminals if t in keep_set]
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
    canonical edge order, so the result is deterministic.  More than
    ``MAX_GRAPH_SIZE`` fresh vertices raise before any is made; the input
    graph's own size is not capped.
    """
    if not (threshold > 0 and math.isfinite(threshold)):
        raise GraphError(f"threshold must be positive and finite, got {threshold}")
    with np.errstate(over="ignore"):  # a count past the float range is inf, refused
        added = (np.ceil(graph.edge_columns[2] / threshold) - 1).sum()
    if added > MAX_GRAPH_SIZE:
        raise GraphError(f"subdividing at {threshold!r} adds more than {MAX_GRAPH_SIZE} vertices")
    next_id = max(graph.vertices) + 1 if graph.vertices else 0
    vertices = list(graph.vertices)
    new_edges: list[tuple[int, int, float]] = []
    host: dict[int, tuple[int, int]] = {}
    for u, v, w in graph._id_edges():
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
# Text format: '#' comments and one record a line, of these three types.
# ---------------------------------------------------------------------------

_RECORDS = {"v": "v <id> [label]", "t": "t <id>", "e": "e <u> <v> <weight>"}
_TAGS = {tag: code for code, tag in enumerate(_RECORDS)}


def parse_graph_text(text: str) -> WeightedGraph:
    """The graph of ``text``, its records checked by ``_GraphRules``: a
    fault raises ``ParseError`` with the number of the first line that
    breaks a rule, and only a text without terminals is refused at line 0.
    Lines are those of ``str.splitlines``."""
    try:
        graph = _parse_records(text)
    except ValueError:
        graph = None  # a token that does not convert
    if graph is None:
        rules = _GraphRules()
        for line_no, raw in enumerate(_lines(text), start=1):
            parts = raw.split()
            if not parts:
                continue
            tag = parts[0]
            try:
                if tag == "e" and len(parts) == 4:
                    rules.edge(*parts[1:])
                elif tag == "v" and len(parts) in (2, 3):
                    rules.vertex(parts[1])
                elif tag == "t" and len(parts) == 2:
                    rules.terminal(parts[1])
                elif tag in _RECORDS:
                    raise ValueError(f"expected '{_RECORDS[tag]}'")
                else:
                    raise ValueError(f"unknown record type {tag!r}")
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from None
        try:
            rules.finish()
        except GraphError as exc:
            raise ParseError(0, str(exc)) from None
    return graph


def _lines(text: str) -> list[str]:
    """The lines of ``text`` without their comments."""
    lines = text.splitlines()
    return [raw.partition("#")[0] for raw in lines] if "#" in text else lines


def _parse_records(text: str) -> WeightedGraph | None:
    """The graph of ``text`` by ``_GraphRules.graph``, each token converted
    by ``int`` or ``float``; None if a record has an unknown type or the
    wrong number of tokens, or a rule fails.

    The tokens of all lines are one flat list, and the records are found by
    each line's token count, so no per-line list outlives its line.  Only
    the converted columns outlive the tokens.
    """
    lines = _lines(text)
    sizes = np.fromiter(map(len, map(str.split, lines)), np.intp, len(lines))
    tokens = " ".join(lines).split()
    del lines
    line = np.flatnonzero(sizes)  # the records' lines, from 0
    start = (sizes.cumsum() - sizes)[line]
    tag = np.fromiter(map(_TAGS.get, map(tokens.__getitem__, start.tolist()), repeat(-1)),
                      np.intp, start.size)
    v, t, e = (tag == _TAGS["v"], tag == _TAGS["t"], tag == _TAGS["e"])
    size = sizes[line]
    if not ((tag >= 0).all() and ((size[v] == 2) | (size[v] == 3)).all()
            and (size[t] == 2).all() and (size[e] == 4).all()):
        return None

    def column(rows, offset, convert=int):
        return list(map(convert, map(tokens.__getitem__, (start[rows] + offset).tolist())))

    labelled = v & (size == 3)
    labels = dict(zip(column(labelled, 1), column(labelled, 2, str)))
    columns = column(v, 1), column(e, 1), column(e, 2), column(e, 3, float), column(t, 1)
    del tokens
    return _GraphRules.graph(*columns, labels, order=(line[v], line[e], line[t]))


def format_graph_text(graph: WeightedGraph) -> str:
    lines = []
    for v in graph.vertices:
        if v in graph.labels:
            lines.append(f"v {v} {graph.labels[v]}")
        else:
            lines.append(f"v {v}")
    for t in graph.terminals:
        lines.append(f"t {t}")
    for u, v, w in graph._id_edges():
        lines.append(f"e {u} {v} {w!r}")
    return "\n".join(lines) + "\n"
