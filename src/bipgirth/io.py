"""Edge-list text format and DOT export.

Bipartite format (`to_edge_list` writes it bit-exact, LF-terminated, 0-based):

    bipartite <a_size> <b_size>
    A<i> B<j>        (one edge per line, tail first; B<j> A<i> likewise)

General format:

    digraph <n>
    <i> <j>

Accepted grammar (what `_BODY` encodes): a line ends at a `str.splitlines`
break (LF, CR, CRLF, VT, FF, U+001C-U+001E, U+0085, U+2028, U+2029) or at
the end of the text; whitespace is any `str.isspace` character; blank lines
may stand anywhere. The header is the first nonblank line. Each later
nonblank line holds two labels apart by whitespace other than a line break,
with any whitespace around them. Sizes and indices are ASCII digits, leading
zeros allowed (`A007` is `A7`); a bipartite arc crosses sides.
"""

from __future__ import annotations

import re

from .digraph import (
    _LABEL,
    AnyDigraph,
    BipartiteDigraph,
    GeneralDigraph,
    _bipartite,
    _bits,
    general_from_edges,
)

_BREAK = r"\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029"  # str.splitlines' line breaks
_GAP = rf"[^\S{_BREAK}]"  # whitespace within a line
_HEAD = re.compile(rf"\s*+([^{_BREAK}]*+)[{_BREAK}]?+")
# the body by (kind, number of sizes); possessive quantifiers never backtrack
_BODY = {key: re.compile(rf"\s*+(?:{arc}(?:{_GAP}*+[{_BREAK}]\s*+{arc})*+\s*+)?+")
         for key, arc in [(("bipartite", 2), rf"(?:A[0-9]++{_GAP}++B|B[0-9]++{_GAP}++A)[0-9]++"),
                          (("digraph", 1), rf"[0-9]++{_GAP}++[0-9]++")]}
_LINE = {"bipartite": re.compile(rf"{_LABEL.pattern}\s+{_LABEL.pattern}"),
         "digraph": re.compile(r"([0-9]+)\s+([0-9]+)")}


def to_edge_list(g: AnyDigraph) -> str:
    if isinstance(g, GeneralDigraph):
        lines = [f"digraph {g.n}"] + [f"{i} {j}" for i, j in g.edges()]
    else:
        lines = [f"bipartite {g.a_size} {g.b_size}"]
        lines += [f"A{i} B{j}" for i, m in enumerate(g.a_out) for j in _bits(m)]
        lines += [f"B{j} A{i}" for j, m in enumerate(g.b_out) for i in _bits(m)]
    return "\n".join(lines) + "\n"


def _arcs(lines, pattern):
    """The groups of each nonblank numbered line, indices as ints."""
    for no, ln in lines:
        ln = ln.strip()
        m = pattern.fullmatch(ln)
        if m is not None:
            yield [int(x) if x.isdigit() else x for x in m.groups()]
        elif ln:
            raise ValueError(f"line {no}: expected two vertex labels, got {ln!r}")


def _read(kind: str, sizes: list[int], body: str) -> AnyDigraph | None:
    """The digraph, or None if the body, a label or a side size is at fault."""
    if not _BODY[kind, len(sizes)].fullmatch(body) or kind == "bipartite" and 0 in sizes:
        return None
    n, rows = sizes[0], [0] * sum(sizes)  # allocated first, as the per-line reader does
    spans = {"A": (0, n), "B": (n, sizes[-1])}  # side: first row, size
    tokens = body.split()
    row, bit = {}, {}
    for t, h in zip(*[iter(tokens)] * 2):
        try:
            rows[row[t]] |= bit[h]
        except KeyError:  # labels enter on first use, tail before head: checked in token order
            for label in (t, h):
                if label not in row:
                    first, size = spans.get(label[0], (0, n))  # (0, n) for a digraph's labels
                    i = int(label.lstrip("AB"))
                    if i >= size:
                        return None
                    row[label], bit[label] = first + i, 1 << i
            rows[row[t]] |= bit[h]
    return (GeneralDigraph(n, tuple(rows)) if kind == "digraph"
            else BipartiteDigraph(n, sizes[1], tuple(rows[:n]), tuple(rows[n:])))


def parse_edge_list(text: str) -> AnyDigraph:
    """The whole text is checked at once; the per-line reader only reports faults."""
    head = _HEAD.match(text)
    if not head[1]:
        raise ValueError("empty digraph file")
    kind, *sizes = head[1].split()
    if (kind, len(sizes)) not in _BODY or not all(x.isascii() and x.isdigit() for x in sizes):
        raise ValueError(f"bad header {head[1].strip()!r}: expected "
                         "'bipartite <a_size> <b_size>' or 'digraph <n>'")
    sizes = [int(x) for x in sizes]
    if (g := _read(kind, sizes, text[head.end():])) is not None:
        return g
    lines = enumerate(text.splitlines(), 1)
    next(ln for _, ln in lines if ln.strip())  # the header
    build = _bipartite if kind == "bipartite" else general_from_edges
    return build(*sizes, _arcs(lines, _LINE[kind]))


def to_dot(g: AnyDigraph) -> str:
    if isinstance(g, GeneralDigraph):
        nodes = [f"  v{i};" for i in range(g.n)]
        arcs = [f"  v{i} -> v{j};" for i, m in enumerate(g.out) for j in _bits(m)]
    else:
        nodes = [f"  A{i} [shape=box];" for i in range(g.a_size)]
        nodes += [f"  B{j} [shape=oval];" for j in range(g.b_size)]
        arcs = [f"  A{i} -> B{j};" for i, m in enumerate(g.a_out) for j in _bits(m)]
        arcs += [f"  B{j} -> A{i};" for j, m in enumerate(g.b_out) for i in _bits(m)]
    return "\n".join(["digraph G {", *nodes, *arcs, "}"]) + "\n"
