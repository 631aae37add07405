"""Edge-list text format and DOT export.

Bipartite format (bit-exact, LF-terminated, 0-based):

    bipartite <a_size> <b_size>
    A<i> B<j>        (one edge per line, tail first; B<j> A<i> likewise)

General format:

    digraph <n>
    <i> <j>
"""

from __future__ import annotations

from .digraph import (
    AnyDigraph,
    GeneralDigraph,
    VertexRef,
    _bits,
    from_edges,
    general_from_edges,
)


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


def parse_edge_list(text: str) -> AnyDigraph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty digraph file")
    kind, *sizes = lines[0].split()
    if kind == "bipartite" and len(sizes) == 2:
        edges = []
        for ln in lines[1:]:
            t, h = ln.split()
            edges.append((VertexRef.parse(t), VertexRef.parse(h)))
        return from_edges(int(sizes[0]), int(sizes[1]), edges)
    if kind == "digraph" and len(sizes) == 1:
        edges = [(int(t), int(h)) for t, h in (ln.split() for ln in lines[1:])]
        return general_from_edges(int(sizes[0]), edges)
    raise ValueError(f"bad header {lines[0]!r}: expected "
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
