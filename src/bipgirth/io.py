"""Edge-list text format and DOT export.

Bipartite format (bit-exact, LF-terminated, 0-based):

    bipartite <a_size> <b_size>
    A<i> B<j>        (one edge per line, tail first; B<j> A<i> likewise)

General format:

    digraph <n>
    <i> <j>
"""

from __future__ import annotations

import re

from .digraph import (
    _LABEL,
    AnyDigraph,
    GeneralDigraph,
    _bipartite,
    _bits,
    general_from_edges,
)

_ARC = re.compile(rf"{_LABEL.pattern}\s+{_LABEL.pattern}")
_PAIR = re.compile(r"()([0-9]+)\s+()([0-9]+)")  # an _ARC with empty sides


def to_edge_list(g: AnyDigraph) -> str:
    lines = []
    if isinstance(g, GeneralDigraph):
        lines.append(f"digraph {g.n}")
        for i, j in g.edges():
            lines.append(f"{i} {j}")
    else:
        lines.append(f"bipartite {g.a_size} {g.b_size}")
        for i, m in enumerate(g.a_out):
            for j in _bits(m):
                lines.append(f"A{i} B{j}")
        for j, m in enumerate(g.b_out):
            for i in _bits(m):
                lines.append(f"B{j} A{i}")
    return "\n".join(lines) + "\n"


def _arcs(lines, pattern):
    """(tail side, tail, head side, head) from each nonblank numbered line."""
    for no, ln in lines:
        ln = ln.strip()
        m = pattern.fullmatch(ln)
        if m is not None:
            yield m[1], int(m[2]), m[3], int(m[4])
        elif ln:
            raise ValueError(f"line {no}: expected two vertex labels, got {ln!r}")


def parse_edge_list(text: str) -> AnyDigraph:
    lines = enumerate(text.splitlines(), 1)
    head = next((ln for _, ln in lines if ln.strip()), None)
    if head is None:
        raise ValueError("empty digraph file")
    kind, *sizes = head.split()
    if all(x.isascii() and x.isdigit() for x in sizes):
        if kind == "bipartite" and len(sizes) == 2:
            return _bipartite(int(sizes[0]), int(sizes[1]), _arcs(lines, _ARC))
        if kind == "digraph" and len(sizes) == 1:
            pairs = ((t, h) for _, t, _, h in _arcs(lines, _PAIR))
            return general_from_edges(int(sizes[0]), pairs)
    raise ValueError(f"bad header {head.strip()!r}: expected "
                     "'bipartite <a_size> <b_size>' or 'digraph <n>'")


def to_dot(g: AnyDigraph) -> str:
    lines = ["digraph G {"]
    if isinstance(g, GeneralDigraph):
        for i in range(g.n):
            lines.append(f'  v{i};')
        for i, j in g.edges():
            lines.append(f"  v{i} -> v{j};")
    else:
        for i in range(g.a_size):
            lines.append(f'  A{i} [shape=box];')
        for j in range(g.b_size):
            lines.append(f'  B{j} [shape=oval];')
        for u, v in g.edges():
            lines.append(f"  {u} -> {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
