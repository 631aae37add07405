import random
import re
from fractions import Fraction

import pytest

from bipgirth import audit
from bipgirth.audit import AuditEntry, audit_bigindeg, audit_bigset
from bipgirth.constructions import circulant
from bipgirth.digraph import A, B, BipartiteDigraph, backward_layers, from_edges
from bipgirth.errors import IndexOutOfRange, PreconditionViolated
from bipgirth.lemmas import DELTA12

from oracles import count_calls, random_bipartite


def test_bigset_rejects_empty_horizon():
    g = circulant(2, 1, 1)
    third = Fraction(1, 3)
    assert audit_bigset(g, 2, third, third, Fraction(3, 2), A(0), horizon=1).passed
    with pytest.raises(ValueError):
        audit_bigset(g, 2, third, third, Fraction(3, 2), A(0), horizon=0)


def test_bigset_checks_the_vertex_before_the_girth():
    # the six-cycle's girth 6 is not above 2k = 6, and it has no vertex A9
    third = Fraction(1, 3)
    with pytest.raises(IndexOutOfRange, match="A9 out of range"):
        audit_bigset(circulant(2, 1, 1), 3, third, third, Fraction(9, 4), A(9))


@pytest.mark.parametrize("alpha, message", [
    (Fraction(1, 3), "girth 6 is not more than 2k=6"),
    (Fraction(1, 2), "not (alpha,beta)-compliant"),
], ids=["girth", "compliance"])
def test_bigset_preconditions(alpha, message):
    # the six-cycle complies with (1/3, 1/3) and has girth 6, not above 2k at k = 3
    with pytest.raises(PreconditionViolated, match=re.escape(message)):
        audit_bigset(circulant(2, 1, 1), 3, alpha, Fraction(1, 3), Fraction(9, 4), A(0))


@pytest.mark.parametrize("g, alpha, message", [
    (from_edges(1, 1, [(A(0), B(0)), (B(0), A(0))]), Fraction(1), "girth 2 below four"),
    (circulant(2, 1, 1), Fraction(1, 2), "not (alpha,beta)-compliant"),
], ids=["two_cycle", "six_cycle"])
def test_bigindeg_preconditions(g, alpha, message):
    with pytest.raises(PreconditionViolated, match=re.escape(message)):
        audit_bigindeg(g, alpha, alpha)


def test_bigset_checks_delta_before_the_girth():
    # 10 vertices a side, out-degree 2 and girth 8 > 2k at k = 3
    g, fifth = circulant(3, 2, 2), Fraction(1, 5)
    with count_calls(audit, "girth") as searches:
        with pytest.raises(PreconditionViolated, match="not a table entry at k=3"):
            audit_bigset(g, 3, fifth, fifth, Fraction(1, 7), A(0))
    assert searches[0] == 0
    with count_calls(audit, "girth") as searches:
        assert audit_bigset(g, 3, fifth, fifth, Fraction(9, 4), A(0)).entries
    assert searches[0] == 1


def test_bigset_marks_a_claimed_only_delta():
    # DELTA12 at k = 6 is claimed, not proved: the audit still runs, and its
    # detail says so; a proved delta of the same table gets no mark
    g, seventh = circulant(6, 1, 1), Fraction(1, 7)
    claimed = audit_bigset(g, 6, seventh, seventh, DELTA12, A(0))
    assert claimed.passed
    assert claimed.detail == "v=A0, k=6, delta=5219/1000 (claimed only)"
    proved = audit_bigset(g, 6, seventh, seventh, Fraction(9, 2), A(0))
    assert proved.passed
    assert proved.detail == "v=A0, k=6, delta=9/2"


def test_bigindeg_totals_are_backward_layer_sizes():
    rng = random.Random(21)
    for _ in range(40):
        g = random_bipartite(rng, max_side=7)
        # drop each B->A arc that closes a 2-cycle, so the girth is at least 4
        g = BipartiteDigraph(g.a_size, g.b_size, g.a_out,
                             tuple(m & ~g.b_in[j] for j, m in enumerate(g.b_out)))
        rep = audit_bigindeg(g, Fraction(0), Fraction(0))
        for e in rep.entries:
            assert type(e) is AuditEntry  # no branch or star size: none is computed
            layers = backward_layers(g, B(e.i), 3)
            assert e.layer_size == len(layers[1]) + len(layers[3])
