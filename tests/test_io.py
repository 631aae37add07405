"""The edge-list parser: round trips and a differential test against a
reference parser built from `VertexRef.parse` and `from_edges`."""

from hypothesis import given, settings, strategies as st

from bipgirth.digraph import (
    BipartiteDigraph,
    GeneralDigraph,
    VertexRef,
    from_edges,
    general_from_edges,
)
from bipgirth.errors import BipgirthError
from bipgirth.io import parse_edge_list, to_edge_list


@st.composite
def bipartite_digraphs(draw):
    na, nb = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    a_out = tuple(draw(st.integers(0, (1 << nb) - 1)) for _ in range(na))
    b_out = tuple(draw(st.integers(0, (1 << na) - 1)) for _ in range(nb))
    return BipartiteDigraph(na, nb, a_out, b_out)


@st.composite
def general_digraphs(draw):
    n = draw(st.integers(0, 8))
    return GeneralDigraph(n, tuple(draw(st.integers(0, (1 << n) - 1)) & ~(1 << i)
                                   for i in range(n)))


@given(st.one_of(bipartite_digraphs(), general_digraphs()))
@settings(max_examples=200, deadline=None)
def test_round_trip(g):
    assert parse_edge_list(to_edge_list(g)) == g


def _is_index(token):
    return token.isascii() and token.isdigit()


def reference_parse(text):
    """Every label through VertexRef.parse, then from_edges."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty digraph file")
    kind, *sizes = lines[0]
    if not all(_is_index(x) for x in sizes) or any(len(ln) != 2 for ln in lines[1:]):
        raise ValueError("malformed")
    if kind == "bipartite" and len(sizes) == 2:
        edges = [(VertexRef.parse(t), VertexRef.parse(h)) for t, h in lines[1:]]
        return from_edges(int(sizes[0]), int(sizes[1]), edges)
    if kind == "digraph" and len(sizes) == 1:
        if not all(_is_index(x) for ln in lines[1:] for x in ln):
            raise ValueError("malformed")
        return general_from_edges(int(sizes[0]), [(int(t), int(h)) for t, h in lines[1:]])
    raise ValueError("bad header")


def _outcome(parse, text):
    try:
        return parse(text)
    except (ValueError, BipgirthError):
        return "error"


_JUNK = ["-1", "0", "00", "3", "A0", "A01", "B2", "A9", "C0", "a0", "x", "1/2",
         "A+1", "A١", "١", "B１", "digraph", "bipartite", ""]


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_matches_reference_on_mutated_lists(data):
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    if data.draw(st.booleans()):
        header = ["bipartite", str(n), str(m)]
        edges = [(f"A{i}", f"B{j}") for i in range(n) for j in range(m)]
        edges += [(f"B{j}", f"A{i}") for i in range(n) for j in range(m)]
    else:
        header = ["digraph", str(n)]
        edges = [(str(i), str(j)) for i in range(n) for j in range(n)]
    lines = [header] + [list(e) for e in data.draw(st.lists(st.sampled_from(edges), max_size=8))]
    for _ in range(data.draw(st.integers(0, 3))):
        line = data.draw(st.sampled_from(lines))
        pos = data.draw(st.integers(0, len(line)))
        op = data.draw(st.sampled_from(["replace", "delete", "insert"]))
        if op == "insert" or pos == len(line):
            line.insert(pos, data.draw(st.sampled_from(_JUNK)))
        elif op == "delete":
            del line[pos]
        else:
            line[pos] = data.draw(st.sampled_from(_JUNK))
    sep = data.draw(st.sampled_from([" ", "\t", "  "]))
    end = data.draw(st.sampled_from(["\n", "\r\n", "\n\n"]))
    text = end.join(sep.join(ln) for ln in lines) + end
    assert _outcome(parse_edge_list, text) == _outcome(reference_parse, text)
