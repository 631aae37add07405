import itertools
import random
from fractions import Fraction

import pytest

from bipgirth.constructions import (
    ch_reduce,
    circulant,
    layered_cycle,
    offset_circulant,
    random_compliant,
    required_degrees,
)
from bipgirth.digraph import (
    GeneralDigraph,
    compliance_profile,
    girth,
    is_compliant,
)
from bipgirth.errors import InfeasibleDegree, NullDigraph

from oracles import brute_girth, random_general, reference_circulant, whole_draw_compliant


class TestLayeredCycle:
    def test_smallest(self):
        g = layered_cycle(1, 1)
        assert girth(g).length == 4

    def test_girth_and_degrees(self):
        for k in range(1, 6):
            for t in range(1, 4):
                g = layered_cycle(k, t)
                assert g.a_size == g.b_size == (k + 1) * t
                assert all(m.bit_count() == t for m in g.a_out + g.b_out)
                assert girth(g).length == 2 * k + 2

    def test_t1_is_the_directed_cycle(self):
        for k in range(1, 11):
            assert layered_cycle(k, 1) == circulant(k, 1, 1)

    def test_blow_up_of_the_cycle(self):
        # u -> v exactly when the t = 1 cycle has the edge between their blocks
        for k, t in itertools.product(range(1, 4), range(1, 4)):
            g, cycle = layered_cycle(k, t), layered_cycle(k, 1)
            assert {(u.side, u.index, v.index) for u, v in g.edges()} == {
                (u.side, i, j) for u, v in cycle.edges()
                for i in range(u.index * t, (u.index + 1) * t)
                for j in range(v.index * t, (v.index + 1) * t)}

    def test_min_degree_ratio(self):
        g = layered_cycle(4, 2)
        a, b = compliance_profile(g)
        assert a == b == Fraction(1, 5)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            layered_cycle(0, 1)


class TestCirculant:
    def test_params_n(self):
        assert circulant(2, 1, 1).a_size == 3
        assert circulant(2, 2, 1).a_size == 5
        with pytest.raises(ValueError, match="k, s, t must all be positive"):
            circulant(2, 0, 1)

    def test_six_cycle(self):
        g = circulant(2, 1, 1)
        assert g.a_size == 3
        assert girth(g).length == 6

    def test_profile_exact(self):
        for k in range(1, 5):
            for s in range(1, 4):
                for t in range(1, 4):
                    g = circulant(k, s, t)
                    n = k * (s + t - 1) + 1
                    assert compliance_profile(g) == (Fraction(t, n), Fraction(s, n))

    def test_girth_exceeds_2k(self):
        for k in range(1, 5):
            for s in range(1, 4):
                for t in range(1, 4):
                    gr = girth(circulant(k, s, t))
                    assert gr is not None and gr.length > 2 * k


class TestOffsetCirculant:
    def test_matches_circulant(self):
        # the plain circulant is the offset instance with interval offsets
        g = circulant(2, 2, 1)
        assert offset_circulant(5, [0, 1], [1]) == g
        for k, s, t in itertools.product(range(1, 6), repeat=3):
            assert circulant(k, s, t) == reference_circulant(k, s, t)

    def test_offsets_reduced_mod_n(self):
        # 7 and 2 are one offset mod 5: their bits OR, they do not add
        assert offset_circulant(5, [7, 2], [-1]) == offset_circulant(5, [2], [4])

    def test_regularity(self):
        g = offset_circulant(7, [0, 2, 3], [1, 5])
        assert all(m.bit_count() == 3 for m in g.a_out)
        assert all(m.bit_count() == 2 for m in g.b_out)
        # vertex-transitive, so in-degree equals out-degree per side
        assert all(m.bit_count() == 3 for m in g.b_in)
        assert all(m.bit_count() == 2 for m in g.a_in)


class TestChReduce:
    def test_triangle_to_six_cycle(self):
        h = GeneralDigraph(3, (0b010, 0b100, 0b001))
        g = ch_reduce(h)
        assert girth(g).length == 6

    def test_girth_doubles(self):
        rng = random.Random(21)
        checked = 0
        while checked < 60:
            h = random_general(rng)
            gh = girth(h)
            if gh is None:
                assert girth(ch_reduce(h)) is None
                continue
            assert girth(ch_reduce(h)).length == 2 * gh.length
            checked += 1

    def test_doubling_against_oracle(self):
        rng = random.Random(22)
        for _ in range(40):
            h = random_general(rng)
            expect = brute_girth(h)
            got = girth(ch_reduce(h))
            assert (got.length if got else None) == \
                (2 * expect if expect else None)

    def test_null_rejected(self):
        with pytest.raises(NullDigraph):
            ch_reduce(GeneralDigraph(0, ()))


class TestRandomCompliant:
    def test_exact_degrees(self):
        g = random_compliant(7, 5, Fraction(2, 7), Fraction(2, 5), seed=3)
        assert all(m.bit_count() == 2 for m in g.a_out)
        assert all(m.bit_count() == 2 for m in g.b_out)
        assert is_compliant(g, Fraction(2, 7), Fraction(2, 5))

    def test_seed_determinism(self):
        a = random_compliant(6, 6, Fraction(1, 3), Fraction(1, 3), seed=42)
        b = random_compliant(6, 6, Fraction(1, 3), Fraction(1, 3), seed=42)
        c = random_compliant(6, 6, Fraction(1, 3), Fraction(1, 3), seed=43)
        assert a == b
        assert a != c

    @pytest.mark.parametrize("seed", [-1, -2])
    def test_negative_seed_is_rejected(self, seed):
        # random.Random(-2) would repeat seed 2's rows
        with pytest.raises(ValueError, match=f"seed must be nonnegative, got {seed}"):
            random_compliant(6, 6, Fraction(1, 3), Fraction(1, 3), seed=seed)

    @pytest.mark.parametrize("sizes, alpha, beta", [
        ((6, 6), Fraction(1, 3), Fraction(1, 3)),
        ((7, 4), Fraction(2, 7), Fraction(3, 4)),
        ((3, 9), Fraction(1, 3), Fraction(1, 9)),   # d = 1 on both sides
        ((5, 8), Fraction(1), Fraction(3, 8)),      # full B-rows
        ((4, 2), Fraction(1, 4), Fraction(1)),      # full A-rows
        ((1, 1), Fraction(1), Fraction(1)),
        # `sample` keeps a set, not a pool, above width 21 when d <= 5
        ((30, 24), Fraction(1, 10), Fraction(1, 8)),
        # at d = 6 the set takes over above width 85: set A-rows, pool B-rows
        ((85, 86), Fraction(6, 85), Fraction(6, 86)),
        ((33, 33), Fraction(8, 33), Fraction(8, 33)),  # pool draws of 6 bits, then 5
        ((5, 7), Fraction(0), Fraction(2, 7)),      # empty B-rows
        ((2, 30), Fraction(1, 2), Fraction(1)),     # full A-rows of width 30
        # the switch at d <= 5: pool A-rows of width 21, set B-rows of width 22
        ((22, 21), Fraction(3, 22), Fraction(2, 21)),
    ])
    def test_random_stream_is_pinned(self, sizes, alpha, beta):
        # the rows drawn for a seed do not change: `construct random` files
        # and randomized search witnesses depend on them
        for seed in (0, 1, 42, 20261019):
            assert random_compliant(*sizes, alpha, beta, seed=seed) == \
                whole_draw_compliant(*sizes, alpha, beta, seed=seed)

    def test_random_rows_are_literal(self):
        # the stream stays fixed even where a later `random.sample` would not
        g = random_compliant(6, 6, Fraction(1, 3), Fraction(1, 3), seed=0)
        assert (g.a_out, g.b_out) == ((40, 5, 24, 12, 12, 18), (18, 6, 17, 20, 48, 6))
        # set-branch rows, which the pool rule would draw otherwise at this seed
        g = random_compliant(3, 24, Fraction(1, 3), Fraction(1, 8), seed=2)
        assert g.a_out == (2054, 10485792, 525056)

    def test_required_degrees(self):
        assert required_degrees(6, 6, Fraction(1, 3), Fraction(1, 3)) == (2, 2)
        assert required_degrees(5, 3, Fraction(2, 5), Fraction(1, 2)) == (2, 2)
        with pytest.raises(InfeasibleDegree):
            required_degrees(2, 2, Fraction(3, 2), Fraction(1, 2))
        with pytest.raises(InfeasibleDegree):  # a negative degree would draw empty rows
            required_degrees(3, 3, Fraction(-1, 3), Fraction(1, 3))
        with pytest.raises(NullDigraph):
            required_degrees(0, 2, Fraction(1, 2), Fraction(1, 2))
