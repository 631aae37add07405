"""Library functions reject an out-of-range argument before doing any work."""

import re
import types
from fractions import Fraction

import pytest

from bipgirth.constructions import circulant
from bipgirth.digraph import distance_power, general_from_edges
from bipgirth.errors import IndexOutOfRange, NullDigraph
from bipgirth.frontier import bad_pairs
from bipgirth.lemmas import NewineqInstance, delta_table, random_newineq_instance


def _no_draws():
    raise AssertionError("drew a random value before checking the case")


@pytest.mark.parametrize("call, error, message", [
    (lambda: bad_pairs(0, 1), ValueError, "k and t_max must be positive"),
    (lambda: distance_power(circulant(2, 1, 1), 0), IndexOutOfRange, "d must be >= 1"),
    (lambda: general_from_edges(-1, []), NullDigraph, "negative vertex count -1"),
    (lambda: delta_table(0), ValueError, "k must be >= 1"),
    (lambda: NewineqInstance(Fraction(1, 2), 1, 0, 0, 0).eligible("d"), ValueError,
     "unknown case 'd'"),
    (lambda: random_newineq_instance("d", types.SimpleNamespace(random=_no_draws)),
     ValueError, "unknown case 'd'"),
], ids=["bad_pairs", "distance_power", "general_from_edges", "delta_table", "eligible",
        "random_newineq_instance"])
def test_rejects(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
