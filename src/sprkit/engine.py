"""Randomized ball-growing clustering around terminals.

The run proceeds in rounds; within a round each terminal, in order, draws an
exponential radius increment whose mean grows geometrically with the round
number, then claims every still-unclaimed vertex within its radius through
unclaimed territory.  Claims are permanent.  The run ends at the first round
boundary where no vertex is unclaimed, and the full history (every radius
increment, every coverage event) is recorded in a trace.

The run works on vertex positions (``graph.index``) over the position
adjacency: the owner of every position is a list entry, and each cluster
keeps one frontier heap of (distance, position) entries for the whole run.
Ids appear only at the edges: each cover event names ``graph.vertices[p]``,
and the partition dict is built once at the end.  A step pops entries while
the smallest distance is within the radius, skips positions already claimed
(lazy deletion), claims the rest at the popped distance and pushes
(d + w, neighbour) for every unclaimed neighbour.  This equals a fresh
region-restricted search from t_j at every step: once v joins cluster j its
shortest path through the allowed region lies inside cluster j, and every
later region (cluster j plus the unclaimed vertices) still contains that
path, so v's distance never changes.  Its float value does not change
either, because fl(a + w) is monotone in a.  Ties pop in vertex-id order, as
they would in the fresh search: ``vertices`` is sorted, so position order is
id order, and equal distances pop by position exactly as they would by id.

Determinism: a run is a pure function of (graph, params).  The stream of
uniform draws comes from a counter-based Philox generator keyed by
(params.seed, 0); sampling happens for every (round, step) pair whether or
not the step claims anything, so traces are reproducible bit for bit.  A
round's k uniforms are drawn in one ``rng.random(k)`` call, which yields the
same doubles as k scalar calls.  The exponential transform must stay
``math.log1p``: ``np.log1p`` differs in the last ulp on some draws and would
change the trace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import compress, repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .graph import GraphError, WeightedGraph, subdivide_edges
from .minor import (
    DistortionReport,
    InducedMinor,
    TerminalPartition,
    contract,
    distortion,
)

# Fixed coefficients of the clustered-growth schedule.  Only delta is
# tunable (``SprParams`` validates k and delta alone); these are module
# constants that the params, the round guard and the covering check read
# as they stand.
EARLY_FACTOR = 1.0 / 3.0          # early-coverage round threshold coefficient
INTERVAL_FACTOR = EARLY_FACTOR / 10.0  # path-interval sizing coefficient
DEADLINE_FACTOR = 4.0             # late-coverage deadline coefficient


class TraceFormatError(GraphError):
    """Trace text that is not valid JSON or does not follow the trace schema."""


class RoundsGuardError(RuntimeError):
    """Round guard exceeded; carries the partial trace for diagnosis."""

    def __init__(self, guard: int, trace: "RunTrace"):
        super().__init__(f"round guard {guard} exceeded before full coverage")
        self.guard = guard
        self.partial_trace = trace


@dataclass(frozen=True)
class SprParams:
    """Run parameters bound to a terminal count.

    ``ratio`` is the per-round growth factor of the increment mean and
    ``base_mean`` the round-0 mean; both are delta / ln k quantities and are
    meaningless for k = 1 (a single terminal claims everything without
    sampling).  ``max_rounds`` of None means: use the guard formula
    ceil(log_ratio(4 * max_v D(v))) + 10 * ceil(ln k), computed per graph.
    """

    k: int
    delta: float = 0.05
    seed: int = 0
    max_rounds: int | None = None

    def __post_init__(self):
        if self.k < 1:
            raise GraphError(f"terminal count {self.k} < 1")
        if not (0 < self.delta and math.isfinite(self.delta)):
            raise GraphError(f"delta must be positive, got {self.delta}")

    @property
    def ratio(self) -> float:
        """Per-round growth factor of the increment mean, 1 + delta/ln k."""
        return 1.0 + self.delta / math.log(self.k)

    @property
    def base_mean(self) -> float:
        """Round-0 increment mean, delta/ln k."""
        return self.delta / math.log(self.k)

    @property
    def weight_factor(self) -> float:
        """Per-path edge weight coefficient (1/2400 at the default delta)."""
        return INTERVAL_FACTOR * self.delta / 4.0

    @property
    def early_factor(self) -> float:
        return EARLY_FACTOR

    @property
    def interval_factor(self) -> float:
        return INTERVAL_FACTOR

    @staticmethod
    def for_graph(
        graph: WeightedGraph,
        delta: float = 0.05,
        seed: int = 0,
        max_rounds: int | None = None,
    ) -> "SprParams":
        return SprParams(k=graph.k, delta=delta, seed=seed, max_rounds=max_rounds)


class RadiusEvent(NamedTuple):
    round: int
    step: int       # 1-based terminal index
    q: float        # sampled increment
    radius: float   # radius after the increment


class CoverEvent(NamedTuple):
    vertex: int
    terminal: int   # terminal vertex id
    round: int
    step: int       # 1-based terminal index
    dist: float     # distance from the terminal inside the allowed region


# one JSON object per event type, fields in NamedTuple order
_RADIUS_JSON = '{"type":"radius","round":%r,"step":%r,"q":%r,"R":%r}'
_COVER_JSON = '{"type":"cover","vertex":%r,"terminal":%r,"round":%r,"step":%r,"dist":%r}'


@dataclass
class RunTrace:
    delta: float
    seed: int
    k: int
    terminal_ids: tuple[int, ...]
    radius_events: list[RadiusEvent]
    cover_events: list[CoverEvent]
    rounds: int

    def events_by_step(self) -> dict[tuple[int, int], list[CoverEvent]]:
        out: dict[tuple[int, int], list[CoverEvent]] = {}
        for ev in self.cover_events:
            out.setdefault((ev.round, ev.step), []).append(ev)
        return out

    def to_json(self) -> str:
        """The trace as compact JSON, byte for byte what ``json.dumps`` with
        separators (",", ":") gives for the trace document: each radius event
        followed by the cover events of its step, or only the cover events
        when there are no radius events."""
        # %r writes ints and floats as json.dumps does, except that it spells
        # non-finite floats inf, -inf and nan; no key contains "inf" or "nan",
        # so plain replacements on the event text fix those up
        cover = [_COVER_JSON % ev for ev in self.cover_events]
        if self.radius_events:
            by_step: dict[tuple[int, int], list[str]] = {}
            for ev, text in zip(self.cover_events, cover):
                by_step.setdefault((ev.round, ev.step), []).append(text)
            events = []
            for rev in self.radius_events:
                events.append(_RADIUS_JSON % rev)
                events += by_step.get((rev.round, rev.step), ())
        else:
            events = cover
        params = json.dumps(
            {"delta": self.delta, "seed": self.seed, "k": self.k,
             "terminals": list(self.terminal_ids)},
            separators=(",", ":"),
        )
        body = ",".join(events).replace("inf", "Infinity").replace("nan", "NaN")
        return '{"params":%s,"events":[%s],"rounds":%s}' % (params, body, json.dumps(self.rounds))

    @staticmethod
    def from_json(text: str) -> "RunTrace":
        """Parse trace JSON; any syntax or schema fault raises TraceFormatError.

        Events are decoded by type, not one by one: one ``itemgetter`` reads
        every field of an event, and ``tuple.__new__`` builds the record
        without the argument handling of a NamedTuple call.
        """
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise TraceFormatError(f"trace is not valid JSON: {exc}") from None
        except RecursionError:
            raise TraceFormatError("trace is not valid JSON: nested too deeply") from None
        if not isinstance(doc, dict) or "events" not in doc or "params" not in doc:
            raise TraceFormatError("not a run trace: missing 'params'/'events'")
        events, p = doc["events"], doc["params"]
        if not isinstance(events, list):
            raise TraceFormatError("malformed run trace: 'events' is not a list")
        if not isinstance(p, dict):
            raise TraceFormatError("malformed run trace: 'params' is not an object")
        try:
            types = list(map(_EVENT_TYPE, events))
            unknown = [t for t in types if t != "radius" and t != "cover"]
            if unknown:
                raise TraceFormatError(f"unknown trace event type {unknown[0]!r}")
            radius = map(_RADIUS_FIELDS, compress(events, [t == "radius" for t in types]))
            cover = map(_COVER_FIELDS, compress(events, [t == "cover" for t in types]))
            radius_events = list(map(tuple.__new__, repeat(RadiusEvent), radius))
            cover_events = list(map(tuple.__new__, repeat(CoverEvent), cover))
            if not isinstance(p["terminals"], list):
                raise TraceFormatError("malformed run trace: 'terminals' is not a list")
            trace = RunTrace(
                delta=p["delta"],
                seed=p["seed"],
                k=p["k"],
                terminal_ids=tuple(p["terminals"]),
                radius_events=radius_events,
                cover_events=cover_events,
                rounds=doc["rounds"],
            )
        except KeyError as exc:
            raise TraceFormatError(f"malformed run trace: missing field {exc}") from None
        except TypeError as exc:
            raise TraceFormatError(f"malformed run trace: {exc}") from None
        _check_field_types(trace)
        return trace


_EVENT_TYPE = itemgetter("type")
_RADIUS_FIELDS = itemgetter("round", "step", "q", "R")
_COVER_FIELDS = itemgetter("vertex", "terminal", "round", "step", "dist")


def _check_field_types(trace: RunTrace) -> None:
    """Ids, counts, rounds and steps must be JSON integers; q, R, dist and
    delta JSON numbers.  Checked column by column, not event by event."""
    radius, cover = trace.radius_events, trace.cover_events
    ints = [(trace.seed, trace.k, trace.rounds), trace.terminal_ids]
    ints += [map(itemgetter(i), radius) for i in (0, 1)]
    ints += [map(itemgetter(i), cover) for i in (0, 1, 2, 3)]
    numbers = [(trace.delta,), map(itemgetter(2), radius), map(itemgetter(3), radius),
               map(itemgetter(4), cover)]
    if any(set(map(type, col)) - {int} for col in ints) or any(
        set(map(type, col)) - {int, float} for col in numbers
    ):
        raise TraceFormatError("malformed run trace: a field has the wrong type")


def run_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for one run: Philox keyed by (seed, stream)."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _check_mean(mean: float) -> None:
    if not (mean > 0 and math.isfinite(mean)):
        raise GraphError(f"mean must be positive and finite, got {mean}")


def sample_exponential(mean: float, rng) -> float:
    """Inverse-CDF exponential draw: -mean * ln(1 - u), u uniform in [0, 1)."""
    _check_mean(mean)
    u = rng.random()
    return -mean * math.log1p(-u)


@dataclass(frozen=True)
class PreprocessResult:
    graph: WeightedGraph
    host_edge: dict[int, tuple[int, int]]
    threshold: float
    min_terminal_distance: float


def preprocess_subdivide(graph: WeightedGraph, params: SprParams) -> PreprocessResult:
    """Subdivide so every terminal-pair path is made of relatively light edges.

    A single global threshold (weight_factor / ln k) * d_min, with d_min the
    minimum terminal-pair distance, dominates the per-pair requirement for
    every pair simultaneously.  This inflates vertex counts heavily for
    widely spread terminal distances; the new vertex count is up to the
    caller to budget.  With fewer than two terminals the graph is returned
    unchanged.
    """
    if graph.k < 2:
        return PreprocessResult(graph=graph, host_edge={}, threshold=math.inf,
                                min_terminal_distance=math.inf)
    if not graph.is_connected():
        raise GraphError("preprocessing requires a connected graph")
    d_min = min_terminal_pair_distance(graph)
    threshold = (params.weight_factor / math.log(graph.k)) * d_min
    result = subdivide_edges(graph, threshold)
    return PreprocessResult(
        graph=result.graph,
        host_edge=result.host_edge,
        threshold=threshold,
        min_terminal_distance=d_min,
    )


def min_terminal_pair_distance(graph: WeightedGraph) -> float:
    """Minimum distance over terminal pairs, via one multi-source sweep.

    The closest pair is realized across some edge where the two nearest-
    terminal labels differ, so one labeled Dijkstra plus an edge scan
    suffices.
    """
    if graph.k < 2:
        raise GraphError("need at least two terminals")
    index = graph.index
    adj = graph._index_adjacency
    # by vertex position; label -1 = not reached yet
    dist = [math.inf] * graph.n
    label = [-1] * graph.n
    heap: list[tuple[float, int, int]] = [
        (0.0, index[t], idx) for idx, t in enumerate(graph.terminals)
    ]
    heap.sort()
    while heap:
        d, p, src = heappop(heap)
        if label[p] >= 0:
            continue
        dist[p] = d
        label[p] = src
        for q, w in adj[p]:
            if label[q] < 0:
                heappush(heap, (d + w, q, src))
    best = math.inf
    for u, v, w in graph.edges:
        i, j = index[u], index[v]
        if label[i] >= 0 and label[j] >= 0 and label[i] != label[j]:
            # the minimizing pair's shortest path changes label at some edge,
            # and there dist[u] + w + dist[v] equals the pair distance
            best = min(best, dist[i] + w + dist[j])
    if not math.isfinite(best):
        raise GraphError("terminals are not mutually reachable")
    return best


def default_round_guard(graph: WeightedGraph, params: SprParams) -> int:
    """Guard = ceil(log_ratio(4 * max_v D(v))) + 10 * ceil(ln k)."""
    max_d = max(graph.nearest_terminal_distance.values(), default=0.0)
    extra = 10 * math.ceil(math.log(params.k))
    if max_d <= 0:
        return max(extra, 1)
    base = math.ceil(math.log(DEADLINE_FACTOR * max_d) / math.log(params.ratio))
    return max(base, 0) + max(extra, 1)


def run_spr(
    graph: WeightedGraph, params: SprParams
) -> tuple[TerminalPartition, RunTrace]:
    """Execute the ball-growing clustering and return (partition, trace).

    Rounds are indexed from 0; within a round steps follow terminal order
    1..k.  Step j of round l draws q ~ Exp(base_mean * ratio^l), grows
    R_j by q, and claims every unclaimed vertex whose distance from t_j
    through unclaimed-or-own territory is at most R_j.  A full round always
    runs to completion; termination is checked at round boundaries.
    """
    if params.k != graph.k:
        raise GraphError(f"params bound to k={params.k}, graph has k={graph.k}")
    index = graph.index
    for t in graph.terminals:
        if t not in index:
            raise GraphError(f"terminal {t} missing from graph")

    if graph.k == 1:
        return _run_single_terminal(graph, params)

    if not graph.is_connected():
        raise GraphError("clustering requires a connected graph")

    k = graph.k
    terminals, vertices = graph.terminals, graph.vertices
    adj = graph._index_adjacency
    # 1-based cluster index by vertex position, 0 = unclaimed
    owner = [0] * graph.n
    for j, t in enumerate(terminals, start=1):
        owner[index[t]] = j
    uncovered = graph.n - k
    # one frontier per cluster: (distance from t_j, position) for every
    # unclaimed neighbour of the cluster, with lazy deletion of positions
    # claimed since
    frontiers = []
    for t in terminals:
        frontier = [(w, q) for q, w in adj[index[t]] if not owner[q]]
        heapify(frontier)
        frontiers.append(frontier)

    rng = run_rng(params.seed)
    base_mean = params.base_mean
    ratio = params.ratio
    guard = params.max_rounds if params.max_rounds is not None else default_round_guard(graph, params)

    radii = [0.0] * k
    new = tuple.__new__
    radius_events: list[RadiusEvent] = []
    cover_events: list[CoverEvent] = []
    rnd = 0
    while uncovered > 0:
        if rnd >= guard:
            trace = RunTrace(
                delta=params.delta, seed=params.seed, k=k,
                terminal_ids=terminals,
                radius_events=radius_events, cover_events=cover_events, rounds=rnd,
            )
            raise RoundsGuardError(guard, trace)
        mean = base_mean * ratio**rnd
        _check_mean(mean)
        # one batched draw per round is bit-identical to k scalar draws
        for j, u in enumerate(rng.random(k).tolist(), start=1):
            q = -mean * math.log1p(-u)
            radii[j - 1] += q
            radius = radii[j - 1]
            # tuple.__new__ skips the NamedTuple constructor's argument parsing
            radius_events.append(new(RadiusEvent, (rnd, j, q, radius)))
            frontier = frontiers[j - 1]
            t = terminals[j - 1]
            while frontier and frontier[0][0] <= radius:
                d, p = heappop(frontier)
                if owner[p]:
                    continue
                owner[p] = j
                uncovered -= 1
                cover_events.append(new(CoverEvent, (vertices[p], t, rnd, j, d)))
                for q, w in adj[p]:
                    if not owner[q]:
                        heappush(frontier, (d + w, q))
        rnd += 1

    partition = TerminalPartition(assignment=dict(zip(vertices, owner)))
    trace = RunTrace(
        delta=params.delta, seed=params.seed, k=k, terminal_ids=terminals,
        radius_events=radius_events, cover_events=cover_events, rounds=rnd,
    )
    return partition, trace


def _run_single_terminal(
    graph: WeightedGraph, params: SprParams
) -> tuple[TerminalPartition, RunTrace]:
    # ln 1 = 0 breaks the growth schedule, and the only valid partition
    # assigns everything to the single terminal, so no sampling happens.
    t = graph.terminals[0]
    row = graph.terminal_distance_maps[0]
    if math.inf in row:
        raise GraphError("clustering requires a connected graph")
    cover_events = [
        CoverEvent(v, t, 0, 1, d) for v, d in zip(graph.vertices, row) if v != t
    ]
    assignment = {v: 1 for v in graph.vertices}
    trace = RunTrace(
        delta=params.delta, seed=params.seed, k=1, terminal_ids=graph.terminals,
        radius_events=[], cover_events=cover_events, rounds=0,
    )
    return TerminalPartition(assignment=assignment), trace


def run_and_contract(
    graph: WeightedGraph, params: SprParams
) -> tuple[InducedMinor, DistortionReport, RunTrace]:
    """Convenience pipeline: cluster, contract, measure distortion."""
    partition, trace = run_spr(graph, params)
    minor = contract(graph, partition)
    report = distortion(graph, minor)
    return minor, report, trace


def partition_from_trace(graph: WeightedGraph, trace: RunTrace) -> TerminalPartition:
    """Rebuild the final assignment recorded by a trace."""
    assignment = {t: idx for idx, t in enumerate(graph.terminals, start=1)}
    term_index = {t: idx for idx, t in enumerate(graph.terminals, start=1)}
    for ev in trace.cover_events:
        assignment[ev.vertex] = term_index[ev.terminal]
    return TerminalPartition(assignment=assignment)
