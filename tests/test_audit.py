from fractions import Fraction

import pytest

from bipgirth.audit import audit_bigset
from bipgirth.constructions import circulant
from bipgirth.digraph import A


def test_bigset_rejects_empty_horizon():
    g = circulant(2, 1, 1)
    third = Fraction(1, 3)
    assert audit_bigset(g, 2, third, third, Fraction(3, 2), A(0), horizon=1).passed
    with pytest.raises(ValueError):
        audit_bigset(g, 2, third, third, Fraction(3, 2), A(0), horizon=0)
