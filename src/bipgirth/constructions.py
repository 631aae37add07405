"""Generators for the explicit digraph families used throughout.

The circulant family on n = k(s+t-1)+1 indices is the source of all
maximal bad compliance pairs; the layered cycle is the extremal example
showing the out-degree threshold n/(k+1) cannot be lowered.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable

from .digraph import BipartiteDigraph, GeneralDigraph
from .errors import InfeasibleDegree, NullDigraph


def layered_cycle(k: int, t: int) -> BipartiteDigraph:
    """2k+2 classes of size t in a directed cycle of complete joins.

    Classes alternate between the sides; every vertex has out-degree t and
    the girth is exactly 2k+2.
    """
    if k < 1 or t < 1:
        raise ValueError("k and t must be positive")
    side_size = (k + 1) * t
    block = (1 << t) - 1
    # A-block b -> B-block b -> A-block (b+1) mod (k+1), each join complete
    a_out = tuple(block << t * (v // t) for v in range(side_size))
    b_out = tuple(block << t * ((v // t + 1) % (k + 1)) for v in range(side_size))
    return BipartiteDigraph(side_size, side_size, a_out, b_out)


def circulant(k: int, s: int, t: int) -> BipartiteDigraph:
    """The interval-offset family: a_i -> b_i..b_{i+s-1}, b_j -> a_{j+1}..a_{j+t},
    subscripts mod n = k(s+t-1)+1.  Complies with exactly (t/n, s/n)."""
    if k < 1 or s < 1 or t < 1:
        raise ValueError("k, s, t must all be positive")
    n = k * (s + t - 1) + 1
    return offset_circulant(n, range(s), range(1, t + 1))


def offset_circulant(n: int, out_offsets: Iterable[int],
                     in_offsets: Iterable[int]) -> BipartiteDigraph:
    """Vertex-transitive rule a_i -> b_{i+x} for x in out_offsets and
    b_i -> a_{i+y} for y in in_offsets, offsets taken mod n; regular on
    both sides, so in-degree equals out-degree per side."""
    if n < 1:
        raise ValueError("n must be positive")
    a_row = 0  # offsets equal mod n OR into one bit
    for x in out_offsets:
        a_row |= 1 << (x % n)
    b_row = 0
    for y in in_offsets:
        b_row |= 1 << (y % n)
    full = (1 << n) - 1

    def rot(mask: int, i: int) -> int:
        return ((mask << i) | (mask >> (n - i))) & full if i else mask

    a_out = tuple(rot(a_row, i) for i in range(n))
    b_out = tuple(rot(b_row, i) for i in range(n))
    return BipartiteDigraph(n, n, a_out, b_out)


def ch_reduce(h: GeneralDigraph) -> BipartiteDigraph:
    """Split each vertex h_i into a_i -> b_i, and lift each edge h_i -> h_j
    to b_i -> a_j.  Girth exactly doubles (absent stays absent)."""
    if h.n < 1:
        raise NullDigraph("cannot reduce the null digraph")
    a_out = tuple(1 << i for i in range(h.n))
    return BipartiteDigraph(h.n, h.n, a_out, h.out)


def required_degrees(n_a: int, n_b: int, alpha: Fraction, beta: Fraction) -> tuple[int, int]:
    """Minimum integer out-degrees realising compliance: (A-side, B-side)."""
    if n_a < 1 or n_b < 1:
        raise NullDigraph(f"sides of sizes ({n_a},{n_b}) must both be nonempty")
    d_a = math.ceil(beta * n_b)
    d_b = math.ceil(alpha * n_a)
    # `_sample_rows` takes 0 <= d <= width, by a rule its caller builds once a call or run
    if not (0 <= d_a <= n_b and 0 <= d_b <= n_a):
        raise InfeasibleDegree(f"degrees ({d_a},{d_b}) lie outside 0..({n_b},{n_a})")
    return d_a, d_b


def _row_rule(width: int, d: int) -> tuple[list[tuple[int, int]], list[int] | None]:
    """How `_sample_rows` picks d of width columns, built by its caller once
    per call or run: the draws' steps (n, bits of n) with the column masks
    of `random.sample`'s pool, or with None where `sample` keeps a set."""
    if width > 21 + (4 ** math.ceil(math.log(d * 3, 4)) if d > 5 else 0):
        return [(width, width.bit_length())] * d, None
    steps = [(width - i, (width - i).bit_length()) for i in range(d)]
    return steps, [1 << j for j in range(width)]


def _sample_rows(bits, rule, count: int) -> list[int]:
    """The next `count` bitmask rows that `bits` gives under `rule`.

    The stream is defined here: each row replays the selection rule of
    `random.sample(range(width), d)` over rejection draws of `getrandbits(k)`.
    Only `getrandbits`, the MT19937 output of `random.Random(seed)`, is taken
    from the stdlib, so a seed gives the same rows across Python versions
    that keep `sample` unchanged, and a later `sample` cannot change them.
    """
    steps, columns = rule
    rows = []
    for _ in range(count):
        m = 0
        if columns is None:  # redraw a column already taken, as `sample` does with its set
            for n, k in steps:
                r = bits(k)
                while r >= n or m >> r & 1:
                    r = bits(k)
                m |= 1 << r
        else:  # a pool of live column bits; the last live one fills the slot taken
            pool = columns[:]
            for n, k in steps:
                r = bits(k)
                while r >= n:
                    r = bits(k)
                m |= pool[r]
                pool[r] = pool[n - 1]
        rows.append(m)
    return rows


def random_compliant(n_a: int, n_b: int, alpha: Fraction, beta: Fraction,
                     seed: int) -> BipartiteDigraph:
    """Seeded random digraph with out-degrees exactly ceil(beta|B|), ceil(alpha|A|)."""
    if seed < 0:  # random.Random(-s) is random.Random(s)
        raise ValueError(f"seed must be nonnegative, got {seed}")
    d_a, d_b = required_degrees(n_a, n_b, alpha, beta)
    bits = random.Random(seed).getrandbits  # A-rows first, then B-rows
    a_out = _sample_rows(bits, _row_rule(n_b, d_a), n_a)
    b_out = _sample_rows(bits, _row_rule(n_a, d_b), n_b)
    return BipartiteDigraph(n_a, n_b, tuple(a_out), tuple(b_out))
