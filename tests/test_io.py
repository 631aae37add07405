"""The edge-list parser: round trips, an exact differential test against
its former per-line loop (`oracles.reference_parse_edge_list`), a coarse one
against a reference built from `VertexRef.parse` and `from_edges`, and
pinned inputs."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from bipgirth import io
from bipgirth.digraph import (
    A,
    B,
    BipartiteDigraph,
    GeneralDigraph,
    VertexRef,
    from_edges,
    general_from_edges,
)
from bipgirth.errors import BipgirthError, IndexOutOfRange, NullDigraph, SameSideEdge
from bipgirth.io import parse_edge_list, to_edge_list

from oracles import count_calls, reference_parse_edge_list


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


def _exact_outcome(parse, text):
    """The digraph, or the exception's class and message."""
    try:
        return parse(text)
    except (ValueError, BipgirthError) as e:
        return type(e), str(e)


def _check_against_references(text):
    """Exact agreement with the former per-line parser, error-or-not
    agreement with the independent reference, and the per-line reader
    (`io._arcs`) entered only for text that ends in an error."""
    with count_calls(io, "_arcs") as line_reads:
        got = _exact_outcome(parse_edge_list, text)
    assert got == _exact_outcome(reference_parse_edge_list, text)
    assert _outcome(parse_edge_list, text) == _outcome(reference_parse, text)
    if not isinstance(got, tuple):
        assert line_reads[0] == 0


_JUNK = ["-1", "0", "00", "3", "A0", "A01", "B2", "A9", "C0", "a0", "x", "1/2",
         "A+1", "A١", "١", "B１", "digraph", "bipartite", ""]


def _mutated_list(data, seps, ends, junk, lead=("",), last=(True,)):
    """A valid edge list with sides of 0-4, plus at most one arc between any
    labels up to one past each side (same-side, out-of-range and loop arcs),
    then up to three edits: a token of `junk` replaces, deletes or is
    inserted, or a line is joined with the next. Tokens are apart by a draw
    from `seps`, lines by one from `ends`; a draw from `lead` goes before the
    header, and one from `last` says whether the text ends in a line end."""
    n, m = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    if data.draw(st.booleans()):
        header = ["bipartite", str(n), str(m)]
        edges = [(f"A{i}", f"B{j}") for i in range(n) for j in range(m)]
        edges += [(f"B{j}", f"A{i}") for i in range(n) for j in range(m)]
        labels = [f"A{i}" for i in range(n + 1)] + [f"B{j}" for j in range(m + 1)]
    else:
        header = ["digraph", str(n)]
        edges = [(str(i), str(j)) for i in range(n) for j in range(n)]
        labels = [str(i) for i in range(n + 1)]
    drawn = data.draw(st.lists(st.sampled_from(edges), max_size=8)) if edges else []
    lines = [list(e) for e in drawn]
    for wild in data.draw(st.lists(st.tuples(*[st.sampled_from(labels)] * 2), max_size=1)):
        lines.insert(data.draw(st.integers(0, len(lines))), list(wild))
    lines.insert(0, header)
    for _ in range(data.draw(st.integers(0, 3))):
        k = data.draw(st.integers(0, len(lines) - 1))
        line = lines[k]
        pos = data.draw(st.integers(0, len(line)))
        op = data.draw(st.sampled_from(["replace", "delete", "insert", "join"]))
        if op == "join":
            line += lines.pop(k + 1) if k + 1 < len(lines) else []
        elif op == "insert" or pos == len(line):
            line.insert(pos, data.draw(st.sampled_from(junk)))
        elif op == "delete":
            del line[pos]
        else:
            line[pos] = data.draw(st.sampled_from(junk))
    sep = data.draw(st.sampled_from(seps))
    end = data.draw(st.sampled_from(ends))
    text = end.join(sep.join(ln) for ln in lines)
    return data.draw(st.sampled_from(lead)) + text + (end if data.draw(st.sampled_from(last)) else "")


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_matches_reference_on_mutated_lists(data):
    _check_against_references(
        _mutated_list(data, [" ", "\t", "  "], ["\n", "\r\n", "\n\n"], _JUNK))


# Whitespace that is not a line break (U+001F, U+00A0, U+3000, tab) and the
# line breaks of str.splitlines other than LF (U+0085, U+2028, VT, U+001C,
# CRLF, lone CR); zero-padded labels.
_ODD_SEPS = [" ", "\t", "\x1f", "\xa0", " \t\xa0", "\u3000"]
_ODD_ENDS = ["\x85", "\u2028", "\x0b", "\x1c", "\r\n", "\r", "\n \n", "\r\n\t\x85",
             "\xa0\n"]
_ODD_JUNK = _JUNK + ["A007", "B01", "007", "A0\xa0B0", "A0\x85B0", "\x1f"]


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_matches_reference_on_unusual_whitespace(data):
    _check_against_references(_mutated_list(
        data, _ODD_SEPS, _ODD_ENDS, _ODD_JUNK,
        lead=["", "\n", "\x85\t\n", "\u2028\r\n "], last=[True, False]))


def test_relabelled_random_file_parses_to_from_edges():
    """The shape of the benchmark's random file: 1000 per side, out-degree
    50, both sides shuffled, A-arcs first."""
    rng = random.Random(20261018)
    n, d = 1000, 50
    pa, pb = rng.sample(range(n), n), rng.sample(range(n), n)
    edges = [(A(pa[i]), B(pb[j])) for i in range(n) for j in rng.sample(range(n), d)]
    edges += [(B(pb[j]), A(pa[i])) for j in range(n) for i in rng.sample(range(n), d)]
    text = f"bipartite {n} {n}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    g = parse_edge_list(text)
    assert g == from_edges(n, n, edges)
    assert g.edge_count == 2 * n * d


def test_leading_zeros_name_the_same_vertex():
    g = parse_edge_list("bipartite 8 2\nA7 B1\nA007 B1\n")
    assert g == from_edges(8, 2, [(A(7), B(1))])
    assert g.edge_count == 1
    assert parse_edge_list("digraph 3\n02 1\n2 001\n").edge_count == 1


def test_label_too_long_for_int_in_line_order():
    """`int` refuses over 4,300 digits (`sys.set_int_max_str_digits`). Such
    labels after an out-of-range one must not hide it, whatever order a set
    of the labels takes; before any other fault, they are the fault."""
    long = ["1" * 4301 + str(k) for k in range(40)]
    for text in ["digraph 2\n9 0\n" + "".join(f"0 {x}\n" for x in long),
                 "bipartite 2 2\nA9 B0\n" + "".join(f"B{x} A0\n" for x in long),
                 "bipartite 2 2\nA0 B9\n" + "".join(f"A0 B{x}\n" for x in long)]:
        got = _exact_outcome(parse_edge_list, text)
        assert got == _exact_outcome(reference_parse_edge_list, text)
        assert got[0] is IndexOutOfRange
    text = f"digraph 2\n0 {long[0]}\n9 0\n"
    assert _exact_outcome(parse_edge_list, text) == _exact_outcome(reference_parse_edge_list, text)


@pytest.mark.parametrize("text, error, message", [
    # one fault each: one past the last index, an arc within a side, two
    # arcs on one line, an empty side
    ("bipartite 2 3\nA1 B2\nA1 B3\n", IndexOutOfRange, "A1 -> B3 out of range for sides 2x3"),
    ("bipartite 2 3\nB2 A1\nB0 A2\n", IndexOutOfRange, "B0 -> A2 out of range for sides 2x3"),
    ("digraph 3\n2 0\n3 0\n", IndexOutOfRange, "edge (3,0) out of range for n=3"),
    ("bipartite 2 2\nB1 B0\n", SameSideEdge, "B1 -> B0"),
    ("digraph 2\n0 1 1 0\n", ValueError, "line 2: expected two vertex labels, got '0 1 1 0'"),
    ("bipartite 0 2", NullDigraph, "need both sides nonempty, got 0x2"),
    # an out-of-range label on line 3 before a malformed line 5
    ("bipartite 2 2\nA0 B1\nA0 B5\nB0 A1\nA0 junk\n",
     IndexOutOfRange, "A0 -> B5 out of range for sides 2x2"),
    ("digraph 2\n0 1\n0 7\n1 0\n0 junk\n",
     IndexOutOfRange, "edge (0,7) out of range for n=2"),
    # an arc with both ends on one side before a later malformed line
    ("bipartite 2 2\nA0 B1\nA0 A1\nA0 junk\n", SameSideEdge, "A0 -> A1"),
    # a malformed line before an out-of-range label or a same-side arc
    ("bipartite 2 2\nA0 junk\nA0 B5\nA0 A1\n",
     ValueError, "line 2: expected two vertex labels, got 'A0 junk'"),
    # line numbers count blank lines and every str.splitlines break
    ("\n bipartite 2 2\r\nA0 B1\x85\u2028A0\xa0B1 x\n",
     ValueError, "line 5: expected two vertex labels, got 'A0\\xa0B1 x'"),
], ids=["past_last_b", "past_last_a", "past_last_general", "same_side", "two_arcs",
        "empty_side", "range_before_malformed", "general_range_before_malformed",
        "same_side_before_malformed", "malformed_first", "line_numbers"])
def test_reported_fault(text, error, message):
    """The first fault in line order, with its class and message."""
    with pytest.raises(error) as info:
        parse_edge_list(text)
    assert type(info.value) is error and str(info.value) == message
