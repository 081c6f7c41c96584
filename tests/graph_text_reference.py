"""The graph checks that ``sprkit.graph._GraphRules`` replaced.

``parse_graph_text`` checked four rules line by line and then handed every
record to ``build``, which checked all nine again and was reported at line
0.  Both are copied verbatim, except that the parser calls this module's
``build``, and that ``build`` returns a plain ``Graph`` record in place of
the package's graph.  They are slow and doubled on purpose: the tests
require the rewrite to accept and refuse the same inputs, to build graphs
with the same vertices, edges, terminals and labels, and to name the same
line wherever this parser named one.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from sprkit.graph import GraphError, ParseError


class Graph(NamedTuple):
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, float], ...]
    terminals: tuple[int, ...]
    labels: dict[int, str]


def build(
    vertices,
    edges,
    terminals,
    labels: dict[int, str] | None = None,
) -> Graph:
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
            fault = "non-positive" if w <= 0.0 else "non-finite"
            raise GraphError(f"edge ({u},{v}) has {fault} weight {w}")
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
    return Graph(
        vertices=tuple(sorted(vset)),
        edges=tuple(canon),
        terminals=terms,
        labels=dict(labels) if labels else {},
    )


def parse_graph_text(text: str) -> Graph:
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
        return build(vertices, edges, terminals, labels)
    except GraphError as exc:
        raise ParseError(0, str(exc)) from None
