"""Randomized ball-growing clustering around terminals.

The run proceeds in rounds; within a round each terminal, in order, draws an
exponential radius increment whose mean grows geometrically with the round
number, then claims every still-unclaimed vertex within its radius through
unclaimed territory.  Claims are permanent.  The run ends at the first round
boundary where no vertex is unclaimed, and the full history (every radius
increment, every coverage event) is recorded in a trace.

Each cluster keeps one frontier heap of (distance, vertex) entries for the
whole run.  A step pops entries while the smallest distance is within the
radius, skips vertices already claimed (lazy deletion), claims the rest at
the popped distance and pushes (d + w, neighbour) for every unclaimed
neighbour.  This equals a fresh region-restricted search from t_j at every
step: once v joins cluster j its shortest path through the allowed region
lies inside cluster j, and every later region (cluster j plus the unclaimed
vertices) still contains that path, so v's distance never changes.  Its
float value does not change either, because fl(a + w) is monotone in a.
Ties pop in vertex-id order, as they would in the fresh search.

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
# tunable; the others are locked ratios re-derived from it at construction
# and cross-checked against their closed forms.
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
        # locked ratios: interval = early/10, weight = interval*delta/4,
        # concentration = 3*delta*interval
        assert abs(INTERVAL_FACTOR - EARLY_FACTOR / 10.0) < 1e-15
        assert abs(self.weight_factor - INTERVAL_FACTOR * self.delta / 4.0) < 1e-15
        assert abs(self.concentration_factor - 3.0 * self.delta * INTERVAL_FACTOR) < 1e-15

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

    @property
    def concentration_factor(self) -> float:
        return 3.0 * self.delta * INTERVAL_FACTOR

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
        events = []
        cover_by_step = self.events_by_step()
        for rev in self.radius_events:
            events.append(
                {
                    "type": "radius",
                    "round": rev.round,
                    "step": rev.step,
                    "q": rev.q,
                    "R": rev.radius,
                }
            )
            for cev in cover_by_step.get((rev.round, rev.step), []):
                events.append(
                    {
                        "type": "cover",
                        "vertex": cev.vertex,
                        "terminal": cev.terminal,
                        "round": cev.round,
                        "step": cev.step,
                        "dist": cev.dist,
                    }
                )
        if not self.radius_events:
            for cev in self.cover_events:
                events.append(
                    {
                        "type": "cover",
                        "vertex": cev.vertex,
                        "terminal": cev.terminal,
                        "round": cev.round,
                        "step": cev.step,
                        "dist": cev.dist,
                    }
                )
        doc = {
            "params": {
                "delta": self.delta,
                "seed": self.seed,
                "k": self.k,
                "terminals": list(self.terminal_ids),
            },
            "events": events,
            "rounds": self.rounds,
        }
        return json.dumps(doc, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "RunTrace":
        """Parse trace JSON; any syntax or schema fault raises TraceFormatError."""
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise TraceFormatError(f"trace is not valid JSON: {exc}") from None
        if not isinstance(doc, dict) or "events" not in doc or "params" not in doc:
            raise TraceFormatError("not a run trace: missing 'params'/'events'")
        radius_events = []
        cover_events = []
        try:
            for ev in doc["events"]:
                if ev["type"] == "radius":
                    radius_events.append(
                        RadiusEvent(ev["round"], ev["step"], ev["q"], ev["R"])
                    )
                elif ev["type"] == "cover":
                    cover_events.append(
                        CoverEvent(ev["vertex"], ev["terminal"], ev["round"], ev["step"], ev["dist"])
                    )
                else:
                    raise TraceFormatError(f"unknown trace event type {ev['type']!r}")
            p = doc["params"]
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


def _check_field_types(trace: RunTrace) -> None:
    """Ids, counts, rounds and steps must be JSON integers; q, R, dist and
    delta JSON numbers.  Checked column by column, not event by event."""
    ints = [(trace.seed, trace.k, trace.rounds), trace.terminal_ids]
    numbers = [(trace.delta,)]
    if trace.radius_events:
        rnd, step, q, radius = zip(*trace.radius_events)
        ints += [rnd, step]
        numbers += [q, radius]
    if trace.cover_events:
        vertex, terminal, rnd, step, dist = zip(*trace.cover_events)
        ints += [vertex, terminal, rnd, step]
        numbers.append(dist)
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
    dist: dict[int, float] = {}
    label: dict[int, int] = {}
    heap: list[tuple[float, int, int]] = [
        (0.0, t, idx) for idx, t in enumerate(graph.terminals)
    ]
    heap.sort()
    adj = graph.adjacency
    while heap:
        d, v, src = heappop(heap)
        if v in dist:
            continue
        dist[v] = d
        label[v] = src
        for nbr, w in adj[v]:
            if nbr not in dist:
                heappush(heap, (d + w, nbr, src))
    best = math.inf
    for u, v, w in graph.edges:
        if u in label and v in label and label[u] != label[v]:
            # the minimizing pair's shortest path changes label at some edge,
            # and there dist[u] + w + dist[v] equals the pair distance
            best = min(best, dist[u] + w + dist[v])
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
    for t in graph.terminals:
        if t not in graph.vertex_set:
            raise GraphError(f"terminal {t} missing from graph")

    if graph.k == 1:
        return _run_single_terminal(graph, params)

    if not graph.is_connected():
        raise GraphError("clustering requires a connected graph")

    k = graph.k
    terminals = graph.terminals
    adj = graph.adjacency
    owner = dict.fromkeys(graph.vertices, 0)  # 1-based cluster index, 0 = unclaimed
    for j, t in enumerate(terminals, start=1):
        owner[t] = j
    uncovered = graph.n - k
    # one frontier per cluster: (distance from t_j, vertex) for every unclaimed
    # neighbour of the cluster, with lazy deletion of vertices claimed since
    frontiers = []
    for t in terminals:
        frontier = [(w, nbr) for nbr, w in adj[t] if not owner[nbr]]
        heapify(frontier)
        frontiers.append(frontier)

    rng = run_rng(params.seed)
    base_mean = params.base_mean
    ratio = params.ratio
    guard = params.max_rounds if params.max_rounds is not None else default_round_guard(graph, params)

    radii = [0.0] * k
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
            radius_events.append(RadiusEvent(rnd, j, q, radius))
            frontier = frontiers[j - 1]
            while frontier and frontier[0][0] <= radius:
                d, v = heappop(frontier)
                if owner[v]:
                    continue
                owner[v] = j
                uncovered -= 1
                cover_events.append(CoverEvent(v, terminals[j - 1], rnd, j, d))
                for nbr, w in adj[v]:
                    if not owner[nbr]:
                        heappush(frontier, (d + w, nbr))
        rnd += 1

    partition = TerminalPartition(assignment=owner)
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
    if not graph.is_connected():
        raise GraphError("clustering requires a connected graph")
    dmap = graph.terminal_distance_maps[0]
    cover_events = [
        CoverEvent(v, t, 0, 1, dmap.distance(v)) for v in graph.vertices if v != t
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
