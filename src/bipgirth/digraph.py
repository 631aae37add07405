"""Core digraph representations and the distance/girth machinery.

Bipartite digraphs are stored as bit-packed out-adjacency: each A-vertex
holds an integer bitmask over B, each B-vertex a bitmask over A.  Girth
witnesses, distance layers and distance powers all read one routine's
exact-distance layers (`_layers`) over one numbering, A-vertices first
(`_unified`).  `_bits` yields ascending and must keep doing so: the girth
start and witness cycle reported depend on that order.  All degree
comparisons are done with exact rationals; nothing here rounds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .errors import (
    EvenDistance,
    IndexOutOfRange,
    NullDigraph,
    SameSideEdge,
)


_LABEL = re.compile(r"([AB])([0-9]+)")  # a vertex label: side, ASCII index


class Side(Enum):
    A = "A"
    B = "B"

    @property
    def complement(self) -> "Side":
        return Side.B if self is Side.A else Side.A


@dataclass(frozen=True)
class VertexRef:
    side: Side
    index: int

    def __str__(self) -> str:
        return f"{self.side.value}{self.index}"

    @staticmethod
    def parse(text: str) -> "VertexRef":
        m = _LABEL.fullmatch(text)
        if m is None:
            raise ValueError(f"bad vertex label {text!r}")
        return VertexRef(Side(m[1]), int(m[2]))


def A(i: int) -> VertexRef:
    return VertexRef(Side.A, i)


def B(i: int) -> VertexRef:
    return VertexRef(Side.B, i)


def _bits(mask: int) -> Iterator[int]:
    """The set bits of mask, ascending: the girth start and witness need it."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def _expand(rows, mask: int) -> int:
    """OR of rows[i] over the set bits i of mask: one frontier step.  The OR is
    order-free, so this loop (like `_transpose` and `_trim`) takes the top bit:
    one big-int operation fewer per bit, and a shorter mask each step."""
    out = 0
    while mask:
        i = mask.bit_length() - 1
        out |= rows[i]
        mask ^= 1 << i
    return out


def _check_vertex(g: BipartiteDigraph, v: VertexRef) -> None:
    """Raise IndexOutOfRange unless v is a vertex of g."""
    size = g.a_size if v.side is Side.A else g.b_size
    if not 0 <= v.index < size:
        raise IndexOutOfRange(f"{v} out of range for side size {size}")


@dataclass(frozen=True)
class BipartiteDigraph:
    a_size: int
    b_size: int
    a_out: tuple[int, ...]  # per A-vertex, bitmask over B
    b_out: tuple[int, ...]  # per B-vertex, bitmask over A

    def __post_init__(self):
        if len(self.a_out) != self.a_size or len(self.b_out) != self.b_size:
            raise ValueError("row counts differ from the side sizes")

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.a_out) + sum(m.bit_count() for m in self.b_out)

    def has_edge(self, u: VertexRef, v: VertexRef) -> bool:
        _check_vertex(self, u)
        _check_vertex(self, v)
        if u.side is v.side:
            return False
        row = self.a_out if u.side is Side.A else self.b_out
        return bool(row[u.index] >> v.index & 1)

    def edges(self) -> Iterator[tuple[VertexRef, VertexRef]]:
        for i, m in enumerate(self.a_out):
            for j in _bits(m):
                yield (A(i), B(j))
        for j, m in enumerate(self.b_out):
            for i in _bits(m):
                yield (B(j), A(i))

    @cached_property
    def a_in(self) -> tuple[int, ...]:
        """Per A-vertex, bitmask of B-vertices with an edge into it."""
        return _transpose(self.b_out, self.a_size)

    @cached_property
    def b_in(self) -> tuple[int, ...]:
        return _transpose(self.a_out, self.b_size)

    @cached_property
    def out(self) -> tuple[int, ...]:  # per vertex, A first: bitmask over all vertices
        return tuple(m << self.a_size for m in self.a_out) + self.b_out

    def reverse(self) -> "BipartiteDigraph":
        return BipartiteDigraph(self.a_size, self.b_size, self.a_in, self.b_in)


@dataclass(frozen=True)
class GeneralDigraph:
    n: int
    out: tuple[int, ...]  # per vertex, bitmask over all vertices

    def __post_init__(self):
        if len(self.out) != self.n:
            raise ValueError("row count differs from n")
        for i, m in enumerate(self.out):
            if m >> i & 1:
                raise ValueError(f"loop at vertex {i}")

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.out)

    def edges(self) -> Iterator[tuple[int, int]]:
        for i, m in enumerate(self.out):
            for j in _bits(m):
                yield (i, j)


AnyDigraph = Union[BipartiteDigraph, GeneralDigraph]


def _transpose(rows: tuple[int, ...], n_cols_out: int) -> tuple[int, ...]:
    cols = [0] * n_cols_out
    for r, m in enumerate(rows):
        bit = 1 << r
        while m:
            i = m.bit_length() - 1
            cols[i] |= bit
            m ^= 1 << i
    return tuple(cols)


def _bipartite(a_size: int, b_size: int, arcs) -> BipartiteDigraph:
    """The one validating builder; arcs are (tail side, tail, head side, head)."""
    if a_size < 1 or b_size < 1:
        raise NullDigraph(f"need both sides nonempty, got {a_size}x{b_size}")
    rows = {"A": [0] * a_size, "B": [0] * b_size}
    for ts, t, hs, h in arcs:
        if ts == hs:
            raise SameSideEdge(f"{ts}{t} -> {hs}{h}")
        tail = rows[ts]
        if not (0 <= t < len(tail) and 0 <= h < len(rows[hs])):
            raise IndexOutOfRange(
                f"{ts}{t} -> {hs}{h} out of range for sides {a_size}x{b_size}")
        tail[t] |= 1 << h
    return BipartiteDigraph(a_size, b_size, tuple(rows["A"]), tuple(rows["B"]))


def from_edges(a_size: int, b_size: int,
               edges: Iterable[tuple[VertexRef, VertexRef]]) -> BipartiteDigraph:
    """Build a bipartite digraph from an explicit edge list (deduplicated)."""
    return _bipartite(a_size, b_size, ((u.side.value, u.index, v.side.value, v.index)
                                       for u, v in edges))


def general_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> GeneralDigraph:
    if n < 0:
        raise NullDigraph(f"negative vertex count {n}")
    out = [0] * n
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise IndexOutOfRange(f"edge ({i},{j}) out of range for n={n}")
        if i == j:
            raise ValueError(f"loop at vertex {i}")
        out[i] |= 1 << j
    return GeneralDigraph(n, tuple(out))


# ---------------------------------------------------------------------------
# Girth
# ---------------------------------------------------------------------------

class Girth(NamedTuple):
    length: int
    cycle: tuple  # vertex sequence (VertexRef or int), length == cycle length


def _unified(g: AnyDigraph) -> tuple[int, tuple[int, ...], range]:
    """A single 0..n-1 numbering with bitmask adjacency (`out`, A first for
    bipartite), and vertices that meet every cycle: all, or the smaller side."""
    if isinstance(g, GeneralDigraph):
        return g.n, g.out, range(g.n)
    a, n = g.a_size, g.a_size + g.b_size
    return n, g.out, range(a) if a <= g.b_size else range(a, n)


def _label(g: AnyDigraph, v: int):
    if isinstance(g, GeneralDigraph):
        return v
    return A(v) if v < g.a_size else B(v - g.a_size)


def _trim(adj: tuple[int, ...], radj: tuple[int, ...], dead: int, dying: list[int]) -> int:
    """`dead` after the cascade from the dead vertices in `dying`: each live
    in-neighbour left with no live out-neighbour dies too."""
    while dying:
        m = radj[dying.pop()] & ~dead
        while m:
            u = m.bit_length() - 1
            m ^= 1 << u
            if not adj[u] & ~dead:
                dead |= 1 << u
                dying.append(u)
    return dead


def shortest_cycle_length(g: AnyDigraph) -> Optional[tuple[int, int]]:
    """(length, start) of a shortest directed cycle, or None if acyclic.

    `start` lies on such a cycle, numbered A-vertices first, then B.  One
    side of a bipartite digraph holds the starts, as every cycle alternates
    sides.  Each start runs a bit-parallel BFS over the live vertices, with
    a cutoff one below the shortest cycle found so far, then dies.  A vertex
    left with no live out-neighbour dies too, and so on in a cascade over
    the in-rows.  The next start is a live out-neighbour of the dying
    start's live in-neighbour with the fewest live out-neighbours, so that
    the cascade comes soon; the fallback is descending out-degree, so the
    cutoff tightens early.

    Dying keeps the girth.  A dead start has run, and a trimmed vertex
    lies on no cycle of the live graph, so on a shortest cycle C the first
    vertex to die is a start that runs with all of C live, and its BFS
    finds |C| unless the cutoff is already there.  The returned start thus
    lies on a shortest cycle, with no shorter cycle through it.

    The in-rows cost a transpose of every edge, so they are built only once
    the BFSs have expanded as many frontier vertices as the digraph has
    edges; trimming then starts from every vertex already dead.  On a
    random 1000+1000-vertex digraph of out-degree 50 whose first start lies
    on no 2-cycle, building them at the first dead start took 25-34 ms a
    call, against 0.8-1.5 ms with this budget (2-vCPU machine).
    """
    n, adj, starts = _unified(g)
    order = sorted(starts, key=lambda v: -adj[v].bit_count())
    best: Optional[tuple[int, int]] = None
    dead = 0
    radj = None  # in-rows, once built
    work = 0  # frontier vertices expanded so far
    budget = None  # edge count, the work that pays for the in-rows
    pos = 0  # fallback position in `order`
    v = order[0] if order else None
    while v is not None:
        cap = best[0] - 1 if best is not None else n
        vbit = 1 << v
        frontier = adj[v] & ~dead
        visited = dead | vbit | frontier
        depth = 1
        while frontier and depth < cap:
            work += frontier.bit_count()
            nxt = _expand(adj, frontier)
            depth += 1
            if nxt & vbit:
                best = (depth, v)
                if depth == 2:
                    return best
                break
            frontier = nxt & ~visited
            visited |= nxt
        dead |= vbit
        if radj is not None:
            dead = _trim(adj, radj, dead, [v])
        else:
            if budget is None:
                budget = sum(map(int.bit_count, adj))
            if work >= budget:
                radj = _transpose(adj, n)
                live = ~dead
                dead |= sum(1 << u for u, m in enumerate(adj) if not m & live)
                dead = _trim(adj, radj, dead, list(_bits(dead)))
        fewest = 0  # smallest live out-row of a live in-neighbour; never 0 after trimming
        if radj is not None:
            live = ~dead
            fewest = min((adj[u] & live for u in _bits(radj[v] & live)),
                         key=int.bit_count, default=0)
        if fewest:
            v = (fewest & -fewest).bit_length() - 1
        else:
            while pos < len(order) and dead >> order[pos] & 1:
                pos += 1
            v = order[pos] if pos < len(order) else None
    return best


def _layers(adj: tuple[int, ...], v: int, depth: int) -> list[int]:
    """The exact-distance layer masks 0..depth out of v over bitmask rows."""
    layers = [1 << v]
    seen = layers[0]
    for _ in range(depth):
        nxt = _expand(adj, layers[-1]) & ~seen
        seen |= nxt
        layers.append(nxt)
    return layers


def _cycle_through(adj: tuple[int, ...], v: int, length: int) -> list[int]:
    """One cycle of the given length through v, when no shorter one passes
    through v, read back from the exact-distance layers out of v."""
    layers = _layers(adj, v, length - 1)
    path = []
    cur = v
    for layer in reversed(layers[1:]):
        cur = next(u for u in _bits(layer) if adj[u] >> cur & 1)
        path.append(cur)
    path.append(v)
    path.reverse()
    return path


def girth(g: AnyDigraph) -> Optional[Girth]:
    """Minimum directed cycle length with one witness cycle; None if acyclic."""
    found = shortest_cycle_length(g)
    if found is None:
        return None
    length, start = found
    cycle = _cycle_through(g.out, start, length)
    return Girth(length, tuple(_label(g, u) for u in cycle))


# ---------------------------------------------------------------------------
# Distance layers
# ---------------------------------------------------------------------------

def forward_layers(g: BipartiteDigraph, v: VertexRef,
                   max_i: int) -> tuple[frozenset[VertexRef], ...]:
    """Exact-distance layers 0..max_i from v (entry i is the set at distance
    i): `_layers` over the A-first numbering, each mask split back by side."""
    if max_i < 0:
        raise IndexOutOfRange(f"max_i={max_i} is below 0")
    _check_vertex(g, v)
    a = g.a_size
    a_mask = (1 << a) - 1
    masks = _layers(g.out, v.index if v.side is Side.A else a + v.index, max_i)
    return tuple(frozenset([*(VertexRef(Side.A, i) for i in _bits(m & a_mask)),
                            *(VertexRef(Side.B, j) for j in _bits(m >> a))])
                 for m in masks)


def backward_layers(g: BipartiteDigraph, v: VertexRef,
                    max_i: int) -> tuple[frozenset[VertexRef], ...]:
    """Layers of vertices reaching v, i.e. forward layers of the reversal."""
    return forward_layers(g.reverse(), v, max_i)


def star_union(layers: tuple[frozenset[VertexRef], ...], i: int) -> frozenset[VertexRef]:
    """Union of the layers at 1 <= j <= i with j of the same parity as i."""
    if not 1 <= i <= len(layers) - 1:
        raise IndexOutOfRange(f"i={i} outside 1..{len(layers) - 1}")
    out: frozenset[VertexRef] = frozenset()
    for j in range(i, 0, -2):
        out |= layers[j]
    return out


# ---------------------------------------------------------------------------
# Compliance
# ---------------------------------------------------------------------------

def compliance_profile(g: BipartiteDigraph) -> tuple[Fraction, Fraction]:
    """Maximal (alpha, beta) the digraph complies with, as exact rationals."""
    if g.a_size == 0 or g.b_size == 0:
        raise NullDigraph("compliance requires both sides nonempty")
    min_a = min(m.bit_count() for m in g.a_out)
    min_b = min(m.bit_count() for m in g.b_out)
    return (Fraction(min_b, g.a_size), Fraction(min_a, g.b_size))


def is_compliant(g: BipartiteDigraph, alpha: Fraction, beta: Fraction) -> bool:
    """Every A-vertex out-degree >= beta*|B| and B-vertex >= alpha*|A| (non-strict)."""
    a, b = compliance_profile(g)
    return alpha <= a and beta <= b


# ---------------------------------------------------------------------------
# Derived digraphs
# ---------------------------------------------------------------------------

def distance_power(g: BipartiteDigraph, d: int) -> BipartiteDigraph:
    """Keep all A->B edges; give each B-vertex an edge to every A-vertex
    within directed distance d (d odd, so targets lie in A)."""
    if d < 1:
        raise IndexOutOfRange("d must be >= 1")
    if d % 2 == 0:
        raise EvenDistance(f"d={d} must be odd")
    a = g.a_size
    # the odd layers out of a B-vertex lie in A and are disjoint: their sum is their union
    b_out = tuple(sum(_layers(g.out, a + j, d)[1::2]) for j in range(g.b_size))
    return BipartiteDigraph(a, g.b_size, g.a_out, b_out)
