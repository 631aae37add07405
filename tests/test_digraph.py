import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bipgirth.digraph import (
    A,
    B,
    BipartiteDigraph,
    GeneralDigraph,
    Side,
    VertexRef,
    backward_layers,
    compliance_profile,
    distance_power,
    forward_layers,
    from_edges,
    general_from_edges,
    girth,
    is_compliant,
    shortest_cycle_length,
    star_union,
)
from bipgirth import digraph
from bipgirth.constructions import (
    ch_reduce,
    circulant,
    layered_cycle,
    offset_circulant,
)
from bipgirth.errors import (
    EvenDistance,
    IndexOutOfRange,
    NullDigraph,
    SameSideEdge,
)
from bipgirth.io import parse_edge_list, to_dot, to_edge_list

from oracles import (
    brute_girth,
    count_calls,
    lowbit_expand,
    lowbit_transpose,
    lowbit_trim,
    naive_distance_power,
    naive_layers,
    random_bipartite,
    random_general,
    reference_shortest_cycle,
    relabel,
    walk_girth,
)


def six_cycle():
    return circulant(2, 1, 1)


def _row(rng, heads, max_degree):
    """A bitmask of up to max_degree distinct heads drawn from a list."""
    return sum(1 << h for h in rng.sample(heads, min(len(heads), rng.randint(0, max_degree))))


def sparse_bipartite(rng, max_side=9, max_degree=2):
    na, nb = rng.randint(1, max_side), rng.randint(1, max_side)
    a_out = tuple(_row(rng, range(nb), max_degree) for _ in range(na))
    b_out = tuple(_row(rng, range(na), max_degree) for _ in range(nb))
    return BipartiteDigraph(na, nb, a_out, b_out)


def sparse_general(rng, max_n=9, max_degree=2):
    n = rng.randint(1, max_n)
    return GeneralDigraph(n, tuple(_row(rng, [j for j in range(n) if j != i], max_degree)
                                   for i in range(n)))


def cycles_with_tails(rng, n):
    """(digraph, girth): one directed cycle, or two that share one vertex,
    and every other vertex joined by one edge into or out of a vertex
    placed before it, so tails run into the cycles and chains hang off
    them.  A single edge to the earlier vertices closes no cycle."""
    order = rng.sample(range(n), n)
    first = rng.randint(2, n // 2)
    cycles = [order[:first]]
    placed = first
    if rng.random() < 0.5 and n - placed >= 2:
        second = rng.randint(2, min(n - placed + 1, first + 2))
        cycles.append([rng.choice(cycles[0])] + order[placed:placed + second - 1])
        placed += second - 1
    edges = [(c[i], c[(i + 1) % len(c)]) for c in cycles for i in range(len(c))]
    for i in range(placed, n):
        u, w = rng.choice(order[:i]), order[i]
        edges.append((u, w) if rng.random() < 0.5 else (w, u))
    return general_from_edges(n, edges), min(len(c) for c in cycles)


def random_dag(rng, n, max_degree=3):
    """A digraph whose edges all run forward in a random order of 0..n-1."""
    order = rng.sample(range(n), n)
    return GeneralDigraph(n, tuple(
        _row(rng, order[order.index(i) + 1:], max_degree) for i in range(n)))


def random_bipartite_dag(rng, max_side=9, max_degree=3):
    """A bipartite digraph whose edges all run forward in a random order of
    all its vertices."""
    na, nb = rng.randint(1, max_side), rng.randint(1, max_side)
    order = rng.sample([A(i) for i in range(na)] + [B(j) for j in range(nb)], na + nb)
    edges = []
    for pos, u in enumerate(order):
        later = [v for v in order[pos + 1:] if v.side is not u.side]
        edges.extend((u, v) for v in rng.sample(later, min(len(later), rng.randint(0, max_degree))))
    return from_edges(na, nb, edges)


class TestVertexRef:
    def test_parse_roundtrip(self):
        for text in ("A0", "B17", "A3"):
            assert str(VertexRef.parse(text)) == text

    def test_parse_rejects_garbage(self):
        for text in ("C0", "A", "3", "a0", "A-1", "A\u0661", "B\uff11"):
            with pytest.raises(ValueError):
                VertexRef.parse(text)

    def test_side_complement(self):
        assert Side.A.complement is Side.B
        assert Side.B.complement is Side.A


class TestConstruction:
    def test_from_edges(self):
        g = from_edges(2, 2, [(A(0), B(1)), (B(1), A(1))])
        assert g.edge_count == 2
        assert g.has_edge(A(0), B(1))
        assert not g.has_edge(B(1), A(0))

    def test_same_side_edge(self):
        with pytest.raises(SameSideEdge):
            from_edges(2, 2, [(A(0), A(1))])

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            from_edges(2, 2, [(A(0), B(5))])

    def test_index_boundaries(self):
        # sides of sizes 2 and 3: each end of an arc at -1, at the last
        # index of its side and one past it
        size = {Side.A: 2, Side.B: 3}
        for arc in ((A(0), B(0)), (B(0), A(0))):
            for end in (0, 1):
                side = arc[end].side
                for i in (-1, size[side] - 1, size[side]):
                    edge = list(arc)
                    edge[end] = VertexRef(side, i)
                    if i == size[side] - 1:
                        assert from_edges(2, 3, [tuple(edge)]).edge_count == 1
                    else:
                        with pytest.raises(IndexOutOfRange):
                            from_edges(2, 3, [tuple(edge)])

    def test_row_counts_must_match_sizes(self):
        with pytest.raises(ValueError, match="row counts differ"):
            BipartiteDigraph(2, 2, (0,), (0, 0))
        with pytest.raises(ValueError, match="row counts differ"):
            BipartiteDigraph(2, 2, (0, 0), (0, 0, 0))
        with pytest.raises(ValueError, match="row count differs"):
            GeneralDigraph(2, (0,))

    def test_general_rejects_loops(self):
        with pytest.raises(ValueError):
            general_from_edges(3, [(0, 0)])

    def test_reverse_involution(self):
        rng = random.Random(1)
        for _ in range(25):
            g = random_bipartite(rng)
            assert g.reverse().reverse() == g

    def test_in_masks_transpose(self):
        g = from_edges(2, 3, [(A(0), B(2)), (A(1), B(2)), (B(0), A(1))])
        assert g.b_in[2] == 0b11
        assert g.a_in[1] == 0b001


class TestGirth:
    def test_six_cycle(self):
        gr = girth(six_cycle())
        assert gr.length == 6
        assert len(gr.cycle) == 6

    def test_acyclic_is_none(self):
        g = from_edges(2, 2, [(A(0), B(0)), (B(0), A(1))])
        assert girth(g) is None

    def test_two_cycle(self):
        g = from_edges(1, 1, [(A(0), B(0)), (B(0), A(0))])
        assert girth(g).length == 2

    def test_cycle_witness_is_closed(self):
        rng = random.Random(5)
        for _ in range(100):
            g = random_bipartite(rng)
            gr = girth(g)
            if gr is None:
                continue
            cyc = gr.cycle
            assert len(cyc) == gr.length
            for i, u in enumerate(cyc):
                assert g.has_edge(u, cyc[(i + 1) % len(cyc)])

    def test_against_cycle_enumeration(self):
        rng = random.Random(7)
        for _ in range(150):
            g = random_bipartite(rng)
            gr = girth(g)
            expect = brute_girth(g)
            assert (gr.length if gr else None) == expect

    # shortest_cycle_length starts its BFS on the smaller side only and drops
    # each finished start; these shapes would expose a wrong side or a start
    # dropped too early

    @staticmethod
    def check_against_enumeration(g, oracle=brute_girth):
        gr = girth(g)
        assert (gr.length if gr else None) == oracle(g)
        if gr is None:
            assert shortest_cycle_length(g) is None
            return
        cyc = gr.cycle
        assert len(cyc) == gr.length == len(set(cyc))
        for u, v in zip(cyc, cyc[1:] + cyc[:1]):
            if isinstance(g, GeneralDigraph):
                assert g.out[u] >> v & 1
            else:
                assert g.has_edge(u, v)
        if isinstance(g, BipartiteDigraph):
            smaller = Side.A if g.a_size <= g.b_size else Side.B
            assert cyc[0].side is smaller
        return gr

    def test_unbalanced_sides(self):
        rng = random.Random(21)
        for _ in range(150):
            g = random_bipartite(rng, max_side=7)
            if g.a_size == g.b_size:
                continue
            self.check_against_enumeration(g)

    def test_b_degrees_above_a_degrees(self):
        # every B-vertex has a larger out-degree than every A-vertex, so the
        # descending-degree order of all vertices would put B first
        rng = random.Random(22)
        for _ in range(150):
            na, nb = rng.randint(3, 7), rng.randint(1, 7)
            a_deg = rng.randint(0, min(nb, na - 1))
            a_out = tuple(sum(1 << j for j in rng.sample(range(nb), a_deg))
                          for _ in range(na))
            b_out = tuple(sum(1 << i for i in rng.sample(range(na), rng.randint(a_deg + 1, na)))
                          for _ in range(nb))
            g = BipartiteDigraph(na, nb, a_out, b_out)
            # dense enough that enumerating the simple cycles is slow
            self.check_against_enumeration(g, walk_girth)

    def test_walk_girth_matches_cycle_enumeration(self):
        rng = random.Random(24)
        for _ in range(150):
            g = random_bipartite(rng, max_side=5) if rng.random() < 0.5 else random_general(rng)
            assert walk_girth(g) == brute_girth(g)

    def test_general_against_enumeration(self):
        rng = random.Random(8)
        for _ in range(100):
            self.check_against_enumeration(random_general(rng))

    # sparse digraphs do not end at depth 2, so the BFSs expand enough to
    # build the in-rows and trim; count_calls on _transpose checks that the
    # trimming is reached

    def test_sparse_against_enumeration(self):
        rng = random.Random(23)
        with count_calls(digraph, "_transpose") as trimmed:
            for _ in range(300):
                self.check_against_enumeration(sparse_bipartite(rng))
                self.check_against_enumeration(sparse_general(rng))
        assert trimmed[0] >= 100

    def test_cycles_with_tails(self):
        rng = random.Random(24)
        with count_calls(digraph, "_transpose") as trimmed:
            for _ in range(200):
                h, length = cycles_with_tails(rng, rng.randint(4, 12))
                assert self.check_against_enumeration(h).length == length
                assert self.check_against_enumeration(ch_reduce(h)).length == 2 * length
        assert trimmed[0] >= 100

    def test_dags_are_acyclic(self):
        rng = random.Random(25)
        with count_calls(digraph, "_transpose") as trimmed:
            for _ in range(200):
                assert self.check_against_enumeration(random_dag(rng, rng.randint(1, 12))) is None
                assert self.check_against_enumeration(random_bipartite_dag(rng)) is None
        assert trimmed[0] >= 100

    @pytest.mark.parametrize("g", [layered_cycle(8, 4), circulant(6, 3, 4)],
                             ids=["layered_8_4", "circulant_6_3_4"])
    def test_against_reference_on_relabellings(self, g):
        # too many cycles for networkx; the reference runs every start
        # without trimming
        rng = random.Random(26)
        for _ in range(10):
            h = relabel(g, rng.sample(range(g.a_size), g.a_size),
                        rng.sample(range(g.b_size), g.b_size))
            length = reference_shortest_cycle(h)[0]
            assert shortest_cycle_length(h)[0] == length
            gr = girth(h)
            assert gr.length == length == len(set(gr.cycle))
            assert gr.cycle[0].side is Side.A
            for u, v in zip(gr.cycle, gr.cycle[1:] + gr.cycle[:1]):
                assert h.has_edge(u, v)

    def test_mid_size_sparse_against_reference(self):
        rng = random.Random(27)
        for _ in range(100):
            g = sparse_bipartite(rng, max_side=40, max_degree=3)
            found = shortest_cycle_length(g)
            expect = reference_shortest_cycle(g)
            assert (found and found[0]) == (expect and expect[0])

    @pytest.mark.parametrize("g, length, expands, trims", [
        (layered_cycle(60, 20), 122, 2_520, 1),
        (circulant(30, 10, 10), 62, 1_141, 9),
    ], ids=["layered_60_20", "circulant_30_10_10"])
    def test_pruned_expansions(self, g, length, expands, trims):
        # the exact work, out of the 74,401 and 18,223 frontier expansions that
        # one full BFS from every start does, so that a change doing more or
        # other work fails here, apart from one only doing the same work faster
        with count_calls(digraph, "_expand") as expansions, \
                count_calls(digraph, "_trim") as cascades:
            assert shortest_cycle_length(g) == (length, 0)
        assert (expansions[0], cascades[0]) == (expands, trims)

    def test_pinned_witnesses_of_relabellings(self):
        # the start and the cycle read back follow `_bits`' ascending order
        rng = random.Random(29)
        cycles = []
        for g in (circulant(6, 3, 4), layered_cycle(8, 4), circulant(3, 2, 2)):
            h = relabel(g, rng.sample(range(g.a_size), g.a_size),
                        rng.sample(range(g.b_size), g.b_size))
            gr = girth(h)
            assert shortest_cycle_length(h) == (gr.length, 0)
            cycles.append(" ".join(map(str, gr.cycle)))
        assert cycles == [
            "A0 B24 A11 B22 A6 B6 A19 B18 A23 B0 A4 B9 A5 B12",
            "A0 B6 A1 B17 A3 B0 A16 B8 A2 B5 A5 B4 A10 B15 A4 B1 A8 B2",
            "A0 B5 A1 B0 A4 B4 A2 B6",
        ]

    def test_pinned_large_girths(self):
        assert girth(circulant(30, 10, 10)).length == 62
        assert girth(layered_cycle(60, 20)).length == 122

    def test_bipartite_parity(self):
        rng = random.Random(9)
        for _ in range(200):
            gr = girth(random_bipartite(rng))
            if gr is not None:
                assert gr.length % 2 == 0


def square_rows(seed, width):
    """width rows of up to three bits below width: deep trimming cascades."""
    rng = random.Random(seed)
    return [_row(rng, range(width), 3) for _ in range(width)]


@st.composite
def rows_and_mask(draw):
    """Square rows of at most 130 or over 2,000 bits, and a mask over them:
    empty, a lone top bit, or any."""
    width = draw(st.one_of(st.integers(1, 130), st.integers(2_001, 2_100)))
    rows = square_rows(draw(st.integers(0, 2**32)), width)
    mask = draw(st.one_of(st.just(0), st.just(1 << width - 1),
                          st.integers(0, (1 << width) - 1)))
    return rows, mask


class TestTopBitLoops:
    """The top-bit `_expand`, `_transpose` and `_trim` against the
    lowest-bit loops they replaced."""

    @settings(max_examples=60, deadline=None)
    @given(rows_and_mask())
    @example((square_rows(0, 2_048), 0))
    @example((square_rows(1, 2_048), 1 << 2_047))
    @example((square_rows(2, 2_048), (1 << 2_048) - 1))
    def test_expand_and_transpose(self, case):
        rows, mask = case
        assert digraph._expand(rows, mask) == lowbit_expand(rows, mask)
        assert digraph._transpose(rows, len(rows)) == lowbit_transpose(rows, len(rows))
        picked = [m & mask for m in rows]
        assert digraph._transpose(picked, len(rows)) == lowbit_transpose(picked, len(rows))

    @settings(max_examples=60, deadline=None)
    @given(rows_and_mask())
    @example(([0], 0))
    @example((square_rows(3, 2_048), 1 << 2_047))
    def test_trim(self, case):
        # the rows are out-rows; the mask's vertices are dead, and are pushed
        # in ascending order, as `shortest_cycle_length` pushes them
        adj, dead = case
        radj = lowbit_transpose(adj, len(adj))
        dying = list(digraph._bits(dead))
        assert digraph._trim(adj, radj, dead, list(dying)) == lowbit_trim(adj, radj, dead, dying)

    def test_same_start_and_cycle_as_lowbit_loops(self, monkeypatch):
        rng = random.Random(28)
        graphs = [random_bipartite(rng) for _ in range(100)]
        graphs += [random_general(rng) for _ in range(100)]
        graphs += [sparse_bipartite(rng) for _ in range(100)]
        for g in (circulant(6, 3, 4), layered_cycle(8, 4)):
            graphs += [relabel(g, rng.sample(range(g.a_size), g.a_size),
                               rng.sample(range(g.b_size), g.b_size)) for _ in range(10)]
        with count_calls(digraph, "_trim") as cascades:
            found = [(shortest_cycle_length(g), girth(g)) for g in graphs]
        assert cascades[0] >= 100
        monkeypatch.setattr(digraph, "_expand", lowbit_expand)
        monkeypatch.setattr(digraph, "_transpose", lowbit_transpose)
        monkeypatch.setattr(digraph, "_trim", lowbit_trim)
        assert [(shortest_cycle_length(g), girth(g)) for g in graphs] == found


class TestLayers:
    def test_six_cycle_layers(self):
        layers = forward_layers(six_cycle(), A(0), 6)
        assert layers[0] == {A(0)}
        assert layers[1] == {B(0)}
        assert layers[2] == {A(1)}
        assert layers[6] == set()

    def test_against_naive_relaxation(self):
        rng = random.Random(11)
        for _ in range(60):
            g = random_bipartite(rng)
            for side, size in ((Side.A, g.a_size), (Side.B, g.b_size)):
                v = VertexRef(side, rng.randrange(size))
                for layers, naive in ((forward_layers(g, v, 7), naive_layers(g, v, 7)),
                                      (backward_layers(g, v, 7),
                                       naive_layers(g.reverse(), v, 7))):
                    assert [set(layer) for layer in layers] == naive

    def test_reversal_duality(self):
        rng = random.Random(12)
        for _ in range(40):
            g = random_bipartite(rng)
            v = VertexRef(Side.B, rng.randrange(g.b_size))
            back = backward_layers(g, v, 6)
            fwd = forward_layers(g.reverse(), v, 6)
            assert back == fwd

    def test_star_union_parity(self):
        layers = forward_layers(circulant(3, 1, 1), A(0), 8)
        assert star_union(layers, 5) == layers[1] | layers[3] | layers[5]
        assert star_union(layers, 4) == layers[2] | layers[4]

    def test_negative_depth(self):
        with pytest.raises(IndexOutOfRange):
            forward_layers(six_cycle(), A(0), -1)
        with pytest.raises(IndexOutOfRange):
            backward_layers(six_cycle(), A(0), -1)
        assert forward_layers(six_cycle(), A(0), 0) == (frozenset([A(0)]),)

    def test_star_union_range(self):
        layers = forward_layers(six_cycle(), A(0), 4)
        with pytest.raises(IndexOutOfRange):
            star_union(layers, 5)


class TestCompliance:
    def test_six_cycle_profile(self):
        assert compliance_profile(six_cycle()) == (Fraction(1, 3), Fraction(1, 3))
        assert is_compliant(six_cycle(), Fraction(1, 3), Fraction(1, 3))
        assert not is_compliant(six_cycle(), Fraction(1, 3), Fraction(2, 5))

    def test_null_digraph(self):
        g = BipartiteDigraph(0, 1, (), (0,))
        with pytest.raises(NullDigraph):
            compliance_profile(g)

    def test_is_compliant_non_strict(self):
        # boundary equality counts as compliant
        g = six_cycle()
        a, b = compliance_profile(g)
        assert is_compliant(g, a, b)


class TestDistancePower:
    def test_d1_identity(self):
        g = circulant(3, 1, 2)
        assert distance_power(g, 1) == g

    def test_even_rejected(self):
        with pytest.raises(EvenDistance):
            distance_power(six_cycle(), 2)

    def test_ten_cycle_d3(self):
        g = offset_circulant(5, [0], [1])  # a 10-cycle
        assert girth(g).length == 10
        h = distance_power(g, 3)
        # each b_i gains the edge to a_{i+2}
        for i in range(5):
            assert h.has_edge(B(i), A((i + 1) % 5))
            assert h.has_edge(B(i), A((i + 2) % 5))
        assert girth(h).length == girth(h).length == brute_girth(h)

    def test_against_naive_layers(self):
        rng = random.Random(13)
        for _ in range(40):
            g = random_bipartite(rng, max_side=7)
            for d in (1, 3, 5):
                assert distance_power(g, d) == naive_distance_power(g, d)

    def test_six_cycle_d5(self):
        h = distance_power(six_cycle(), 5)
        for j in range(3):
            assert h.b_out[j] == 0b111

    def test_girth_at_least_four(self):
        # girth(g) >= 2k+2 and d <= k-1 gives girth >= 4
        for k in (3, 4, 5):
            g = circulant(k, 1, 1)
            for d in range(1, k, 2):
                h = distance_power(g, d)
                gr = girth(h)
                assert gr is None or gr.length >= 4


class TestIO:
    def test_round_trip_bipartite(self):
        rng = random.Random(15)
        for _ in range(30):
            g = random_bipartite(rng)
            assert parse_edge_list(to_edge_list(g)) == g

    def test_round_trip_general(self):
        rng = random.Random(16)
        for _ in range(30):
            h = random_general(rng)
            assert parse_edge_list(to_edge_list(h)) == h

    def test_header_format(self):
        text = to_edge_list(six_cycle())
        assert text.startswith("bipartite 3 3\n")
        assert text.endswith("\n")

    def test_dot_shapes(self):
        dot = to_dot(six_cycle())
        assert "shape=box" in dot and "shape=oval" in dot

    @pytest.mark.parametrize("g, text", [
        (from_edges(2, 3, [(A(0), B(2)), (A(0), B(1)), (A(1), B(0)),
                           (B(1), A(0)), (B(2), A(1)), (B(2), A(0))]),
         "digraph G {\n  A0 [shape=box];\n  A1 [shape=box];\n  B0 [shape=oval];\n"
         "  B1 [shape=oval];\n  B2 [shape=oval];\n  A0 -> B1;\n  A0 -> B2;\n"
         "  A1 -> B0;\n  B1 -> A0;\n  B2 -> A0;\n  B2 -> A1;\n}\n"),
        (GeneralDigraph(3, (0b110, 0b001, 0)),
         "digraph G {\n  v0;\n  v1;\n  v2;\n  v0 -> v1;\n  v0 -> v2;\n  v1 -> v0;\n}\n"),
        (BipartiteDigraph(1, 2, (0,), (0, 0)),
         "digraph G {\n  A0 [shape=box];\n  B0 [shape=oval];\n  B1 [shape=oval];\n}\n"),
        (GeneralDigraph(2, (0, 0)), "digraph G {\n  v0;\n  v1;\n}\n"),
    ], ids=["bipartite", "general", "bipartite_no_arcs", "general_no_arcs"])
    def test_dot_text(self, g, text):
        assert to_dot(g) == text


@given(st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_girth_matches_oracle_property(na, nb, data):
    a_out = tuple(data.draw(st.integers(0, (1 << nb) - 1)) for _ in range(na))
    b_out = tuple(data.draw(st.integers(0, (1 << na) - 1)) for _ in range(nb))
    g = BipartiteDigraph(na, nb, a_out, b_out)
    gr = girth(g)
    assert (gr.length if gr else None) == brute_girth(g)
