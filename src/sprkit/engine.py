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
(d + w, neighbour) for their unclaimed neighbours.  This equals a fresh
region-restricted search from t_j at every step: once v joins cluster j its
shortest path through the allowed region lies inside cluster j, and every
later region (cluster j plus the unclaimed vertices) still contains that
path, so v's distance never changes.  Its float value does not change
either, because fl(a + w) is monotone in a.  Ties pop in vertex-id order, as
they would in the fresh search: ``vertices`` is sorted, so position order is
id order, and equal distances pop by position exactly as they would by id.

Cluster j pushes (d + w, q) only when another cluster made the last push of
q from a claim, or j made it at a larger distance (``pusher[q]`` and
``best[q]``, by position).  This is exact.  A skipped entry is dominated by
(best[q], q), best[q] <= d + w, which is still in j's frontier: it leaves
only when q is claimed, and nothing pushes a claimed position again.  So
q's first pop, and every claim with its distance, are unchanged; only
stale pops go, and ties are identical tuples.  On a unit grid a cluster
reaches most vertices along two equal paths, so this halves the heap work.
A step whose smallest frontier distance exceeds its new radius returns
before any bookkeeping.

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
import sys
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import compress, groupby, repeat
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
# as they stand.  ``DEFAULT_DELTA`` is delta wherever none is given.
DEFAULT_DELTA = 0.05
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


def check_delta(delta: float) -> None:
    """The rule for delta wherever one is given: positive and finite."""
    if not 0 < delta <= sys.float_info.max:
        raise GraphError(f"delta must be positive and finite, got {delta}")


def check_max_rounds(max_rounds: int | None) -> None:
    """The rule for a round guard wherever one is given: None (the guard
    formula) or nonnegative; 0 lets only a graph of terminals finish."""
    if max_rounds is not None and max_rounds < 0:
        raise GraphError(f"max_rounds must be nonnegative, got {max_rounds}")


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
    delta: float = DEFAULT_DELTA
    seed: int = 0
    max_rounds: int | None = None

    def __post_init__(self):
        if self.k < 1:
            raise GraphError(f"terminal count {self.k} < 1")
        check_delta(self.delta)
        check_max_rounds(self.max_rounds)

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
        delta: float = DEFAULT_DELTA,
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


# event JSON, fields in NamedTuple order; str() writes numbers as json.dumps
# does once ``_json_numbers`` has spelled the non-finite ones.  A cover event
# is its vertex, the fields its run shares, and its dist.
_RADIUS_JSON = '{"type":"radius","round":%s,"step":%s,"q":%s,"R":%s}'
_COVER_HEAD = '{"type":"cover","vertex":'
_COVER_SHARED = ',"terminal":%s,"round":%s,"step":%s,"dist":'
_COVER_SEP = '},' + _COVER_HEAD
_EVENT_TYPES = frozenset(("radius", "cover"))


@dataclass
class RunTrace:
    """The record of one run, held as one list per event field (entry i of
    each ``radius_*`` or ``cover_*`` column belongs to event i).
    ``radius_events`` and ``cover_events`` build the records on access."""

    delta: float
    seed: int
    k: int
    terminal_ids: tuple[int, ...]
    rounds: int
    radius_round: list[int] = field(default_factory=list)
    radius_step: list[int] = field(default_factory=list)
    radius_q: list[float] = field(default_factory=list)
    radius_R: list[float] = field(default_factory=list)
    cover_vertex: list[int] = field(default_factory=list)
    cover_terminal: list[int] = field(default_factory=list)
    cover_round: list[int] = field(default_factory=list)
    cover_step: list[int] = field(default_factory=list)
    cover_dist: list[float] = field(default_factory=list)

    @property
    def radius_events(self) -> list[RadiusEvent]:
        cols = zip(self.radius_round, self.radius_step, self.radius_q, self.radius_R)
        return list(map(tuple.__new__, repeat(RadiusEvent), cols))

    @property
    def cover_events(self) -> list[CoverEvent]:
        cols = zip(self.cover_vertex, self.cover_terminal, self.cover_round,
                   self.cover_step, self.cover_dist)
        return list(map(tuple.__new__, repeat(CoverEvent), cols))

    def radius_steps_in_order(self) -> bool:
        """Whether the radius events enumerate every (round, step) in order.
        The count comes first: a huge ``rounds`` or ``k`` builds nothing."""
        k, n = self.k, len(self.radius_step)
        return n == self.rounds * k and (n == 0 or (
            self.radius_step == [*range(1, k + 1)] * (n // k)
            and self.radius_round == [i // k for i in range(n)]))

    def runs_by_step(self) -> dict[tuple[int, int], list[tuple[int, int, int]]]:
        """The cover events split into maximal runs of consecutive events with
        equal (round, step, terminal), keyed by (round, step).  A run is
        ``(start, stop, terminal)``, events start..stop-1; a step's runs are in
        event order, and an engine trace has one run per claiming step."""
        by_step: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        start = 0
        for (rnd, step, t), group in groupby(
                zip(self.cover_round, self.cover_step, self.cover_terminal)):
            stop = start + len(list(group))
            by_step.setdefault((rnd, step), []).append((start, stop, t))
            start = stop
        return by_step

    def to_json(self) -> str:
        """The trace as compact JSON, byte for byte what ``json.dumps`` with
        separators (",", ":") gives for the trace document: each radius event
        followed by the cover events of its step, or only the cover events
        when there are no radius events.  Each run of cover events formats
        its shared terminal, round and step once."""
        vertex = self.cover_vertex
        dist = _json_numbers(self.cover_dist)

        def runs_text(step, runs):
            return ",".join(
                _COVER_HEAD + _COVER_SEP.join(map(
                    (_COVER_SHARED % (t, *step)).join,
                    zip(map(str, vertex[start:stop]), map(str, dist[start:stop])))) + "}"
                for start, stop, t in runs)

        by_step = self.runs_by_step()
        if self.radius_round:
            steps = list(zip(self.radius_round, self.radius_step))
            events = list(map(_RADIUS_JSON.__mod__, zip(
                self.radius_round, self.radius_step,
                _json_numbers(self.radius_q), _json_numbers(self.radius_R))))
            # each radius event's text gains the cover events of its step
            runs = list(map(by_step.get, steps))
            for i in compress(range(len(events)), runs):
                events[i] += "," + runs_text(steps[i], runs[i])
        else:  # every run in event order
            runs = sorted((run, step) for step, step_runs in by_step.items() for run in step_runs)
            events = [runs_text(step, [run]) for run, step in runs]
        params = json.dumps(
            {"delta": self.delta, "seed": self.seed, "k": self.k,
             "terminals": list(self.terminal_ids)},
            separators=(",", ":"),
        )
        return '{"params":%s,"events":[%s],"rounds":%s}' % (
            params, ",".join(events), json.dumps(self.rounds))

    @staticmethod
    def from_json(text: str) -> "RunTrace":
        """Parse trace JSON; any syntax or schema fault raises TraceFormatError.

        Events are split by type, and one ``itemgetter`` pass per field reads
        each column.  A set test finds an unknown type; a loop runs only to
        name the first one.
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
            types = list(map(itemgetter("type"), events))
            try:
                known = _EVENT_TYPES.issuperset(types)
            except TypeError:  # an unhashable type value
                known = False
            if not known:
                unknown = [t for t in types if t != "radius" and t != "cover"]
                raise TraceFormatError(f"unknown trace event type {unknown[0]!r}")
            radius = list(compress(events, [t == "radius" for t in types]))
            cover = list(compress(events, [t == "cover" for t in types]))
            if not isinstance(p["terminals"], list):
                raise TraceFormatError("malformed run trace: 'terminals' is not a list")
            delta, seed, k, terminals, rounds = (
                p["delta"], p["seed"], p["k"], tuple(p["terminals"]), doc["rounds"])
            radius = [list(map(itemgetter(f), radius)) for f in ("round", "step", "q", "R")]
            cover = [list(map(itemgetter(f), cover))
                     for f in ("vertex", "terminal", "round", "step", "dist")]
        except KeyError as exc:
            raise TraceFormatError(f"malformed run trace: missing field {exc}") from None
        except TypeError as exc:
            raise TraceFormatError(f"malformed run trace: {exc}") from None
        # ids, counts, rounds and steps must be JSON integers; q, R, dist and
        # delta JSON numbers
        ints = [(seed, k, rounds), terminals, *radius[:2], *cover[:4]]
        numbers = [(delta,), *radius[2:], cover[4]]
        if any(set(map(type, col)) - {int} for col in ints) or any(
            set(map(type, col)) - {int, float} for col in numbers
        ):
            raise TraceFormatError("malformed run trace: a field has the wrong type")
        return RunTrace(delta, seed, k, terminals, rounds, *radius, *cover)


_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _json_numbers(col: list) -> list:
    """``col``, or its text with non-finite floats spelled as json.dumps does."""
    try:
        if all(map(math.isfinite, col)):
            return col
    except OverflowError:  # an int beyond the float range, which is finite
        pass
    return [_NON_FINITE.get(x, x) for x in map(str, col)]


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


def round_increments(mean: float, rng, k: int) -> list[float]:
    """One round's k increments from one ``rng.random(k)`` call: the same
    doubles as k ``sample_exponential`` calls."""
    _check_mean(mean)
    log1p = math.log1p
    return [-mean * log1p(-u) for u in rng.random(k).tolist()]


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
    widely spread terminal distances: ``subdivide_edges`` refuses to add
    more than ``graph.MAX_GRAPH_SIZE`` vertices, and any fewer are up to the
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
    heap = sorted((0.0, index[t], j) for j, t in enumerate(graph.terminals))
    while heap:
        d, p, src = heappop(heap)
        if label[p] >= 0:
            continue
        dist[p] = d
        label[p] = src
        for q, w in adj[p]:
            if label[q] < 0:
                heappush(heap, (d + w, q, src))
    # the minimizing pair's shortest path changes label at some edge, where
    # (dist[lo] + w) + dist[hi] is its distance; an unreached end sums to inf
    lo, hi, w = graph.edge_columns
    label, dist = np.array(label), np.array(dist)
    cross = label[lo] != label[hi]
    with np.errstate(over="ignore"):
        best = float(np.min((dist[lo[cross]] + w[cross]) + dist[hi[cross]], initial=math.inf))
    if not math.isfinite(best):
        raise GraphError("terminals are not mutually reachable")
    return best


def default_round_guard(graph: WeightedGraph, params: SprParams) -> int:
    """Guard = ceil(log_ratio(4 * max_v D(v))) + 10 * ceil(ln k)."""
    nearest = np.frombuffer(graph._nearest_row)
    reachable = nearest[nearest != math.inf]
    max_d = float(reachable.max()) if reachable.size else 0.0
    extra = 10 * math.ceil(math.log(params.k))
    if max_d <= 0:
        return max(extra, 1)
    base = math.log(DEADLINE_FACTOR * max_d) / math.log(params.ratio)
    if base == math.inf:
        raise GraphError(f"nearest-terminal distance {max_d!r} is too large to bound the rounds")
    return max(math.ceil(base), 0) + max(extra, 1)


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
    if graph.k == 1:
        return _run_single_terminal(graph, params)

    if not graph.is_connected():
        raise GraphError("clustering requires a connected graph")

    k = graph.k
    terminals, vertices, index = graph.terminals, graph.vertices, graph.index
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
    # by position, the cluster of the last push made while claiming, and
    # that push's distance
    pusher = [0] * graph.n
    best = [0.0] * graph.n

    rng = run_rng(params.seed)
    base_mean = params.base_mean
    ratio = params.ratio
    guard = params.max_rounds if params.max_rounds is not None else default_round_guard(graph, params)

    radii = [0.0] * k
    trace = RunTrace(params.delta, params.seed, k, terminals, 0)
    cover_vertex, cover_dist = trace.cover_vertex, trace.cover_dist
    steps = range(1, k + 1)
    rnd = 0
    while uncovered > 0:
        if rnd >= guard:
            trace.rounds = rnd
            raise RoundsGuardError(guard, trace)
        increments = round_increments(base_mean * ratio**rnd, rng, k)
        for j, q in zip(steps, increments):
            radii[j - 1] += q
            radius = radii[j - 1]
            frontier = frontiers[j - 1]
            if not frontier or frontier[0][0] > radius:
                continue
            before = len(cover_vertex)
            while frontier and frontier[0][0] <= radius:
                d, p = heappop(frontier)
                if owner[p]:
                    continue
                owner[p] = j
                cover_vertex.append(vertices[p])
                cover_dist.append(d)
                for q, w in adj[p]:
                    if not owner[q]:
                        dq = d + w
                        # an entry (best[q], q) with best[q] <= dq is still
                        # in this frontier when j made the last push of q
                        if pusher[q] != j or dq < best[q]:
                            pusher[q], best[q] = j, dq
                            heappush(frontier, (dq, q))
            claimed = len(cover_vertex) - before
            if claimed:
                uncovered -= claimed
                trace.cover_terminal += repeat(terminals[j - 1], claimed)
                trace.cover_round += repeat(rnd, claimed)
                trace.cover_step += repeat(j, claimed)
        # a round's radii after the round are the radii its steps recorded
        trace.radius_round += repeat(rnd, k)
        trace.radius_step += steps
        trace.radius_q += increments
        trace.radius_R += radii
        rnd += 1

    trace.rounds = rnd
    partition = TerminalPartition(assignment=dict(zip(vertices, owner)))
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
    n = graph.n - 1
    trace = RunTrace(
        params.delta, params.seed, 1, graph.terminals, 0,
        cover_vertex=[v for v in graph.vertices if v != t],
        cover_terminal=[t] * n, cover_round=[0] * n, cover_step=[1] * n,
        cover_dist=[d for v, d in zip(graph.vertices, row) if v != t],
    )
    assignment = {v: 1 for v in graph.vertices}
    return TerminalPartition(assignment=assignment), trace


def run_and_contract(
    graph: WeightedGraph, params: SprParams
) -> tuple[InducedMinor, DistortionReport, RunTrace]:
    """Convenience pipeline: cluster, contract, measure distortion."""
    partition, trace = run_spr(graph, params)
    minor = contract(graph, partition)
    report = distortion(graph, minor)
    return minor, report, trace
