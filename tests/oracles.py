"""Independent oracles used by the tests.

These deliberately avoid the library's own algorithms: girth by
brute-force simple-cycle enumeration (networkx), by the least length of a
closed walk over plain successor sets and, for inputs too large for
those, by one full BFS from every start without trimming, layers (and
the distance powers read from them) by naive repeated relaxation over an
explicit adjacency dict, canonical forms and automorphism counts by
trying every relabeling, the exhaustive search
with nondecreasing A-rows as its only symmetry rule, the exhaustive
search's former recursive enumerator (one call per row, its code kept
verbatim),
which pins its node counts and witnesses, the randomized
search drawing each sample whole (its former loop and row drawing, kept
verbatim) and running girth on every one, the facts F1-F11
as the `Fraction` statements evaluated at `Fraction` grid points that the
library's integer fact scan replaced, that integer scan with a check at
every grid point, as it was before the threshold facts were decided from
their sign changes, and the frontier classification from
the paper's inequalities with the least bad t in closed form.  The
edge-list parser's reference is its former per-line loop, kept verbatim;
so are the circulant's and the frontier classifier's `Fraction` rules
with their loop over t, and the quadratic bound's `Fraction` kernel
(instance integers, eligibility, feasibility check, f, bound and
minimiser) that the integer one replaced.  The lowest-bit-first
`_expand`, `_transpose` and `_trim` loops are the references for the
top-bit loops that replaced them, kept verbatim.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import random
import re
from fractions import Fraction
from typing import Optional

import networkx as nx

from bipgirth import lemmas

from bipgirth.constructions import required_degrees
from bipgirth.digraph import (
    BipartiteDigraph,
    GeneralDigraph,
    Side,
    VertexRef,
    _LABEL,
    _bipartite,
    _bits,
    _expand,
    _transpose,
    _unified,
    general_from_edges,
    girth,
)
from bipgirth.frontier import LARGE_K_START, BadWitness, Status, Verdict
from bipgirth.errors import CaseNotApplicable, InfeasibleTriple
from bipgirth.lemmas import DELTA3, DELTA4, DELTA12, FactReport
from bipgirth.search import SearchStatus, _Rows


def to_networkx(g) -> nx.DiGraph:
    d = nx.DiGraph()
    if isinstance(g, GeneralDigraph):
        d.add_nodes_from(range(g.n))
        d.add_edges_from(g.edges())
    else:
        for u, v in g.edges():
            d.add_edge(str(u), str(v))
    return d


def brute_girth(g):
    """Minimum simple directed cycle length, or None."""
    d = to_networkx(g)
    best = None
    for cyc in nx.simple_cycles(d):
        if best is None or len(cyc) < best:
            best = len(cyc)
    return best


def walk_girth(g):
    """The least L such that some vertex has a closed walk of exactly L
    steps, or None: the girth, as a shortest closed walk is a cycle.  Each
    start follows the sets of vertices that walks of 1, 2, ... steps end
    at, over plain successor sets; a cycle visits only vertices with
    successors, so no walk longer than their number needs following."""
    succ: dict = {}
    for u, v in g.edges():
        succ.setdefault(u, set()).add(v)
    best = None
    for v in succ:
        ends = {v}
        for length in range(1, best or len(succ) + 1):
            ends = set().union(*(succ.get(u, ()) for u in ends))
            if v in ends:
                best = length
                break
    return best


def reference_shortest_cycle(g):
    """(length, start) of a shortest cycle, or None: `shortest_cycle_length`
    without trimming.  Each start, in descending out-degree order, runs a BFS
    to the cutoff over the vertices not yet dead, then dies."""
    n, adj, starts = _unified(g)
    best = None
    dead = 0
    for v in sorted(starts, key=lambda v: -adj[v].bit_count()):
        cap = best[0] - 1 if best is not None else n
        vbit = 1 << v
        frontier = adj[v] & ~dead
        visited = dead | vbit | frontier
        depth = 1
        while frontier and depth < cap:
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
    return best


def lowbit_expand(rows, mask: int) -> int:
    """OR of rows[i] over the set bits i of mask: one frontier step."""
    out = 0
    while mask:
        lsb = mask & -mask
        out |= rows[lsb.bit_length() - 1]
        mask ^= lsb
    return out


def lowbit_transpose(rows: tuple[int, ...], n_cols_out: int) -> tuple[int, ...]:
    cols = [0] * n_cols_out
    for r, m in enumerate(rows):
        bit = 1 << r
        while m:
            lsb = m & -m
            cols[lsb.bit_length() - 1] |= bit
            m ^= lsb
    return tuple(cols)


def lowbit_trim(adj: list[int], radj: tuple[int, ...], dead: int, dying: list[int]) -> int:
    """`dead` after the cascade from the dead vertices in `dying`: each live
    in-neighbour left with no live out-neighbour dies too."""
    while dying:
        for u in _bits(radj[dying.pop()] & ~dead):
            if not adj[u] & ~dead:
                dead |= 1 << u
                dying.append(u)
    return dead


@contextlib.contextmanager
def count_calls(module, name: str):
    """Count the calls made to `module.name` inside the block through the
    module attribute; yields a one-element list holding the count."""
    original = getattr(module, name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    setattr(module, name, counted)
    try:
        yield calls
    finally:
        setattr(module, name, original)


_ARC = re.compile(rf"{_LABEL.pattern}\s+{_LABEL.pattern}")
_PAIR = re.compile(r"()([0-9]+)\s+()([0-9]+)")  # an _ARC with empty sides


def _arcs(lines, pattern):
    """(tail side, tail, head side, head) from each nonblank numbered line."""
    for no, ln in lines:
        ln = ln.strip()
        m = pattern.fullmatch(ln)
        if m is not None:
            yield m[1], int(m[2]), m[3], int(m[4])
        elif ln:
            raise ValueError(f"line {no}: expected two vertex labels, got {ln!r}")


def reference_parse_edge_list(text: str):
    """`io.parse_edge_list` as a loop over `str.splitlines`: one `fullmatch`
    per line, each arc through the validating row builders."""
    lines = enumerate(text.splitlines(), 1)
    head = next((ln for _, ln in lines if ln.strip()), None)
    if head is None:
        raise ValueError("empty digraph file")
    kind, *sizes = head.split()
    if all(x.isascii() and x.isdigit() for x in sizes):
        if kind == "bipartite" and len(sizes) == 2:
            return _bipartite(int(sizes[0]), int(sizes[1]), _arcs(lines, _ARC))
        if kind == "digraph" and len(sizes) == 1:
            pairs = ((t, h) for _, t, _, h in _arcs(lines, _PAIR))
            return general_from_edges(int(sizes[0]), pairs)
    raise ValueError(f"bad header {head.strip()!r}: expected "
                     "'bipartite <a_size> <b_size>' or 'digraph <n>'")


def naive_layers(g: BipartiteDigraph, v: VertexRef, max_i: int) -> list[set]:
    """Exact-distance sets by repeated relaxation over an adjacency dict."""
    adj: dict[VertexRef, set] = {}
    for u in [VertexRef(Side.A, i) for i in range(g.a_size)] + \
             [VertexRef(Side.B, j) for j in range(g.b_size)]:
        rows = g.a_out if u.side is Side.A else g.b_out
        other = Side.B if u.side is Side.A else Side.A
        adj[u] = {VertexRef(other, j) for j in _bits(rows[u.index])}
    dist = {v: 0}
    changed = True
    while changed:
        changed = False
        for u, d in list(dist.items()):
            for w in adj[u]:
                if w not in dist or dist[w] > d + 1:
                    dist[w] = d + 1
                    changed = True
    layers = [set() for _ in range(max_i + 1)]
    for u, d in dist.items():
        if d <= max_i:
            layers[d].add(u)
    return layers


def naive_distance_power(g: BipartiteDigraph, d: int) -> BipartiteDigraph:
    """`distance_power` from `naive_layers`: each B-vertex gains an edge to
    every A-vertex at an odd distance up to d."""
    b_out = []
    for j in range(g.b_size):
        layers = naive_layers(g, VertexRef(Side.B, j), d)
        b_out.append(sum(1 << u.index for i in range(1, d + 1, 2) for u in layers[i]))
    return BipartiteDigraph(g.a_size, g.b_size, g.a_out, tuple(b_out))


def reference_circulant(k: int, s: int, t: int) -> BipartiteDigraph:
    """`constructions.circulant` as its former loop over the offsets of each row."""
    n = k * (s + t - 1) + 1
    a_out = []
    for i in range(n):
        m = 0
        for off in range(s):
            m |= 1 << ((i + off) % n)
        a_out.append(m)
    b_out = []
    for j in range(n):
        m = 0
        for off in range(1, t + 1):
            m |= 1 << ((j + off) % n)
        b_out.append(m)
    return BipartiteDigraph(n, n, tuple(a_out), tuple(b_out))


def random_bipartite(rng: random.Random, max_side: int = 6) -> BipartiteDigraph:
    na = rng.randint(1, max_side)
    nb = rng.randint(1, max_side)
    a_out = tuple(rng.getrandbits(nb) for _ in range(na))
    b_out = tuple(rng.getrandbits(na) for _ in range(nb))
    return BipartiteDigraph(na, nb, a_out, b_out)


def random_general(rng: random.Random, max_n: int = 8) -> GeneralDigraph:
    n = rng.randint(1, max_n)
    out = tuple(rng.getrandbits(n) & ~(1 << i) for i in range(n))
    return GeneralDigraph(n, out)


def all_digraphs(n_a: int, n_b: int):
    """Every labeled bipartite digraph at the given sizes (2^(2*n_a*n_b))."""
    for a_rows in itertools.product(range(1 << n_b), repeat=n_a):
        for b_rows in itertools.product(range(1 << n_a), repeat=n_b):
            yield BipartiteDigraph(n_a, n_b, a_rows, b_rows)


def relabel(g: BipartiteDigraph, pa, pb) -> BipartiteDigraph:
    """g with A-vertex i renamed pa[i] and B-vertex j renamed pb[j]."""
    a_out = [0] * g.a_size
    for i, m in enumerate(g.a_out):
        a_out[pa[i]] = sum(1 << pb[j] for j in _bits(m))
    b_out = [0] * g.b_size
    for j, m in enumerate(g.b_out):
        b_out[pb[j]] = sum(1 << pa[i] for i in _bits(m))
    return BipartiteDigraph(g.a_size, g.b_size, tuple(a_out), tuple(b_out))


def brute_canonical(g: BipartiteDigraph) -> tuple[tuple, int]:
    """The least relabeled adjacency over all a!*b! relabelings, and the
    number of relabelings that fix g (its automorphisms)."""
    best, fixed = None, 0
    for pa in itertools.permutations(range(g.a_size)):
        for pb in itertools.permutations(range(g.b_size)):
            h = relabel(g, pa, pb)
            adj = (h.a_out, h.b_out)
            best = adj if best is None else min(best, adj)
            fixed += h == g
    return best, fixed


def reference_search(n_a: int, n_b: int, k: int, d_a: int, d_b: int,
                     eulerian: bool = False):
    """The exhaustive search with nondecreasing A-rows as its only symmetry
    rule: the first digraph in its order with out-degrees exactly d_a and
    d_b (and, if eulerian, in-degrees too) and no cycle of length <= 2k,
    or None.  A row for B-vertex j is pruned when it meets the A-vertices
    that reach j within 2k-1 steps through the B-rows chosen so far."""
    rows_a = [sum(1 << j for j in c) for c in itertools.combinations(range(n_b), d_a)]
    rows_b = [sum(1 << i for i in c) for c in itertools.combinations(range(n_a), d_b)]

    def reach(a_rows, b_rows):
        seen = frontier = {i for i in range(n_a) if a_rows[i] >> len(b_rows) & 1}
        for _ in range(k - 1):
            bs = [j for j, row in enumerate(b_rows) if any(row >> i & 1 for i in frontier)]
            frontier = {i for i in range(n_a) if any(a_rows[i] >> j & 1 for j in bs)} - seen
            seen |= frontier
        return sum(1 << i for i in seen)

    def b_phase(a_rows, b_rows):
        if len(b_rows) == n_b:
            return BipartiteDigraph(n_a, n_b, tuple(a_rows), tuple(b_rows))
        forbidden = reach(a_rows, b_rows)
        for row in rows_b:
            rows = b_rows + [row]
            in_deg = [sum(r >> i & 1 for r in rows) for i in range(n_a)]
            if row & forbidden or eulerian and any(
                    c > d_a or d_a - c > n_b - len(rows) for c in in_deg):
                continue
            found = b_phase(a_rows, rows)
            if found:
                return found
        return None

    for a_rows in itertools.combinations_with_replacement(rows_a, n_a):
        if eulerian and any(sum(r >> j & 1 for r in a_rows) != d_b for j in range(n_b)):
            continue
        found = b_phase(a_rows, [])
        if found:
            return found
    return None


class _LimitHit(Exception):
    pass


class _RecursiveEnumerator:
    """The exhaustive search as it was before its single explicit-stack
    loop: one recursive call per row, kept verbatim."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.d_a, self.d_b = cfg.degrees
        self.nodes = 0
        self.witness: Optional[BipartiteDigraph] = None
        self.rows_a = _Rows(cfg.n_b, self.d_a)
        self.rows_b = _Rows(cfg.n_a, self.d_b)

    def _tick(self):
        if self.nodes == self.cfg.node_limit:
            raise _LimitHit
        self.nodes += 1

    def _reach_b(self, a_in: tuple[int, ...], b_rows: tuple[int, ...]) -> int:
        frontier = reach = a_in[len(b_rows)]
        for _ in range(self.cfg.k - 1):
            nxt_b = sum(1 << i for i, row in enumerate(b_rows) if row & frontier)
            frontier = _expand(a_in, nxt_b) & ~reach
            if not frontier:
                break
            reach |= frontier
        return reach

    def _in_degrees(self, deg: list[int], row: int, cap: int,
                    remaining: int) -> Optional[list[int]]:
        if not self.cfg.eulerian:
            return deg
        deg = [c + (row >> i & 1) for i, c in enumerate(deg)]
        return None if any(c > cap or c + remaining < cap for c in deg) else deg

    def _b_phase(self, a_rows: tuple[int, ...]) -> bool:
        cfg = self.cfg
        a_in = _transpose(a_rows, cfg.n_b)

        def rec(b_rows: tuple[int, ...], min_idx: int, deg: list[int]) -> bool:
            j = len(b_rows)
            if j == cfg.n_b:
                self.witness = BipartiteDigraph(cfg.n_a, cfg.n_b, a_rows, b_rows)
                return True
            remaining = cfg.n_b - j - 1
            forbidden = self._reach_b(a_in, b_rows)
            same = remaining and a_in[j + 1] == a_in[j]
            for idx, row in self.rows_b.starting(min_idx):
                self._tick()
                if row & forbidden:
                    continue
                if (new := self._in_degrees(deg, row, self.d_a, remaining)) is None:
                    continue
                if rec(b_rows + (row,), idx if same else 0, new):
                    return True
            return False

        return rec((), 0, [0] * cfg.n_a)

    def _a_phase(self) -> bool:
        cfg = self.cfg

        def rec(rows: tuple[int, ...], min_idx: int, tied: int, deg: list[int]) -> bool:
            if len(rows) == cfg.n_a:
                return self._b_phase(rows)
            remaining = cfg.n_a - len(rows) - 1
            for idx, row in self.rows_a.starting(min_idx):
                self._tick()
                if tied & ~row & (row >> 1):
                    continue
                if (new := self._in_degrees(deg, row, self.d_b, remaining)) is None:
                    continue
                if rec(rows + (row,), idx, tied & ~(row ^ (row >> 1)), new):
                    return True
            return False

        return rec((), 0, (1 << cfg.n_b - 1) - 1, [0] * cfg.n_b)


def recursive_search(cfg) -> tuple[SearchStatus, int, Optional[BipartiteDigraph]]:
    """(status, nodes explored, witness) of the recursive exhaustive search."""
    enum = _RecursiveEnumerator(cfg)
    try:
        status = (SearchStatus.FoundCounterexample if enum._a_phase()
                  else SearchStatus.Exhausted)
    except _LimitHit:
        status = SearchStatus.LimitReached
    return status, enum.nodes, enum.witness


def whole_draw_compliant(n_a: int, n_b: int, alpha: Fraction, beta: Fraction,
                         seed: int) -> BipartiteDigraph:
    """Seeded random digraph with out-degrees exactly ceil(beta|B|), ceil(alpha|A|)."""
    d_a, d_b = required_degrees(n_a, n_b, alpha, beta)
    rng = random.Random(seed)
    a_out = []
    for _ in range(n_a):
        m = 0
        for j in rng.sample(range(n_b), d_a):
            m |= 1 << j
        a_out.append(m)
    b_out = []
    for _ in range(n_b):
        m = 0
        for i in rng.sample(range(n_a), d_b):
            m |= 1 << i
        b_out.append(m)
    return BipartiteDigraph(n_a, n_b, tuple(a_out), tuple(b_out))


def whole_draw_search(cfg):
    """The randomized search that draws every sample whole and runs girth
    on it: (status, nodes explored, witness, samples without a 2-cycle)."""
    without_2_cycle = 0
    nodes = 0
    witness = None
    while nodes < cfg.node_limit:
        nodes += 1
        g = whole_draw_compliant(cfg.n_a, cfg.n_b, cfg.alpha, cfg.beta,
                                 seed=cfg.seed + nodes - 1)
        gr = girth(g)
        without_2_cycle += gr is None or gr.length > 2
        if gr is None or gr.length > 2 * cfg.k:
            witness = g
            break
    status = (SearchStatus.FoundCounterexample if witness
              else SearchStatus.LimitReached)
    return status, nodes, witness, without_2_cycle


# ---------------------------------------------------------------------------
# The facts F1-F11 in Fraction arithmetic
# ---------------------------------------------------------------------------

def _grid(lo: Fraction, hi: Fraction, step: Fraction,
          open_lo: bool, open_hi: bool):
    # walk in exact multiples of step starting at the first in-range point
    start = math.ceil(lo / step)
    if open_lo and Fraction(start) * step == lo:
        start += 1
    stop = math.floor(hi / step)
    if open_hi and Fraction(stop) * step == hi:
        stop -= 1
    for m in range(start, stop + 1):
        yield m * step


def _f1(b):
    if (3 * b - Fraction(1, 2)) * (1 - b) >= (1 - 2 * b) * b:
        return b > Fraction(219, 1000), b - Fraction(219, 1000)
    return True, None


def _f2(b):
    if b * DELTA3 <= (1 - b * DELTA3) / (1 - 2 * b):
        return b < Fraction(223, 1000), Fraction(223, 1000) - b
    return True, None


def _f3(b):
    m = (1 - 2 * b) * b / (3 * b - Fraction(1, 2)) - (1 - b * DELTA3) / (1 - 2 * b)
    return m >= 0, m


def _f4(_b):
    m = Fraction(258, 1000) - 1 / (1 + DELTA3)
    return m > 0, m


def _f5(b):
    m = (1 - b * DELTA4) - (b / 5 + Fraction(9) / (3 + 5 * b) - 2)
    return m > 0, m


def _f6(b):
    if (Fraction(4, 5) - 2 * b) * b <= (1 - b) * (1 / DELTA4 - b):
        return b < Fraction(19, 100), Fraction(19, 100) - b
    return True, None


def _f7(b):
    m1 = 5 * b / (3 + 5 * b) + 3 * b / 5 - Fraction(32, 100)
    m2 = (Fraction(2, 5) - b) * (Fraction(3, 5) + 1 / (1 - b)) - Fraction(38, 100)
    return m1 >= 0 and m2 >= 0, min(m1, m2)


def _f8(b):
    # the final display of the girth-8 argument must exceed 1 throughout;
    # the left side is concave in alpha, so its minimum over the admissible
    # range [2/5 - beta, 1/2] is at an endpoint
    xp = (b * (DELTA4 + 1) - Fraction(1, 2)) / (b * (DELTA4 + 1) - Fraction(32, 100))

    def lhs(alpha):
        u = 2 * alpha - Fraction(38, 100)
        return u * xp * (2 - u * (1 - xp) / b) + Fraction(76, 100) + b

    m = min(lhs(Fraction(2, 5) - b), lhs(Fraction(1, 2))) - 1
    return m > 0, m


def _f9(_b):
    m1 = DELTA12 / 49 - Fraction(2667, 10000) * Fraction(3993, 10000)
    m2 = Fraction(2667, 10000) - (1 - DELTA12 / 7)
    return m1 >= 0 and m2 > 0, min(m1, m2)


_F10_RATIOS = [Fraction(1, 2), Fraction(3, 4), DELTA3 / 3,
               1 - Fraction(74, 224539)]


def _f10(xi):
    # out-degree-counting step as a biconditional in the ratio xi = |X|/|B|,
    # for representative values c = delta/k
    for c in _F10_RATIOS:
        premise = c <= xi / 2 + (1 - xi)
        conclusion = xi <= 2 * (1 - c)
        if premise != conclusion:
            return False, None
    return True, None


def _f11(b):
    lhs_holds = Fraction(36, 100) + 2 * b + (6 * b - Fraction(64, 100)) / 5 <= 1
    return lhs_holds == (b <= Fraction(24, 100)), None


FRACTION_FACTS = {f"F{i}": check for i, check in enumerate(
    [_f1, _f2, _f3, _f4, _f5, _f6, _f7, _f8, _f9, _f10, _f11], start=1)}


def reference_scan(fact_id: str, step: Fraction) -> FactReport:
    """`lemmas.fact_scan` with a Fraction per grid point: the fact's
    `Fraction` statement on the interval that `lemmas._CATALOG` gives it."""
    fact = lemmas._CATALOG[fact_id]
    check = FRACTION_FACTS[fact_id]
    points = _grid(fact.lo, fact.hi, step, fact.open_lo, fact.open_hi)
    holds = True
    first_violation = None
    margin_min = None
    count = 0
    for b in points:
        count += 1
        ok, margin = check(b)
        if not ok and holds:
            holds = False
            first_violation = b
        if margin is not None and (margin_min is None or margin < margin_min):
            margin_min = margin
    return FactReport(fact_id, fact.description, holds, first_violation,
                      margin_min, step, count)


# ---------------------------------------------------------------------------
# The per-point integer fact scan
# ---------------------------------------------------------------------------

# The integer checks of the facts as they were before the library decided
# them from their sign changes, with the constant that a planted violation
# moves as a keyword.

def int_f1(n, d, cut=219):
    # (3b - 1/2)(1 - b) >= (1 - 2b)b times 2d^2 > 0
    if (6 * n - d) * (d - n) >= 2 * (d - 2 * n) * n:
        return 1000 * n > cut * d, (1000 * n - cut * d, 1000 * d)
    return True, None


def int_f2(n, d, cut=223):
    # b*delta3 <= (1 - b*delta3)/(1 - 2b) times 1000d^2(1 - 2b) > 0 on (0, 0.223]
    if 2886 * n * (d - 2 * n) <= d * (1000 * d - 2886 * n):
        return 1000 * n < cut * d, (cut * d - 1000 * n, 1000 * d)
    return True, None


def int_f3(n, d, coef=2000):
    # (1 - 2b)b/(3b - 1/2) - (1 - b*delta3)/(1 - 2b) over 1000d(6n - d)(d - 2n),
    # which is > 0 as 1/6 < b < 1/2
    num = coef * n * (d - 2 * n) ** 2 - d * (6 * n - d) * (1000 * d - 2886 * n)
    return num >= 0, (num, 1000 * d * (6 * n - d) * (d - 2 * n))


def int_f4(_n, _d):
    m = Fraction(258, 1000) - 1 / (1 + Fraction(2886, 1000))
    return m > 0, (m.numerator, m.denominator)


def int_f5(n, d, delta4=36814):
    # (1 - b*delta4) - (b/5 + 9/(3 + 5b) - 2) over 10000d(3d + 5n) > 0, as b > 0
    num = (3 * d + 5 * n) * (30000 * d - delta4 * n) - 90000 * d * d
    return num > 0, (num, 10000 * d * (3 * d + 5 * n))


def int_f6(n, d, cut=19):
    # (4/5 - 2b)b <= (1 - b)(1/delta4 - b) times 5*34814*d^2 > 0
    if 34814 * n * (4 * d - 10 * n) <= 5 * (d - n) * (10000 * d - 34814 * n):
        return 100 * n < cut * d, (cut * d - 100 * n, 100 * d)
    return True, None


def int_f7(n, d, y=32):
    # m1 = 5b/(3 + 5b) + 3b/5 - y/100 over 100d(3d + 5n) > 0, as b > 0;
    # m2 = (2/5 - b)(3/5 + 1/(1 - b)) - 0.38 over 100d(d - n) > 0, as b < 1
    m1 = (500 * n * d + (3 * d + 5 * n) * (60 * n - y * d), 100 * d * (3 * d + 5 * n))
    m2 = (4 * (2 * d - 5 * n) * (8 * d - 3 * n) - 38 * d * (d - n), 100 * d * (d - n))
    low = m1 if m1[0] * m2[1] <= m2[0] * m1[1] else m2
    return m1[0] >= 0 and m2[0] >= 0, low


def int_f8(n, d, coef=25):
    # the final display of the girth-8 argument minus 1, at the worse of the
    # two ends w of alpha, over 25dnq^2 > 0
    p = 44814 * n - 5000 * d
    q = 44814 * n - 3200 * d
    num = min(w * p * (n * q - 18 * w * d) for w in (21 * d - 100 * n, 31 * d))
    num += n * q * q * (coef * n - 6 * d)
    return num > 0, (num, 25 * d * n * q * q)


def int_f9(_n, _d):
    m1 = Fraction(5219, 49000) - Fraction(2667, 10000) * Fraction(3993, 10000)
    m2 = Fraction(2667, 10000) - (1 - Fraction(5219, 7000))
    m = min(m1, m2)
    return m1 >= 0 and m2 > 0, (m.numerator, m.denominator)


_INT_F10_RATIOS = ((1, 2), (3, 4), (2886, 3000), (224465, 224539))


def int_f10(n, d, two=2):
    # out-degree-counting step as a biconditional in the ratio xi = |X|/|B|:
    # c <= xi/2 + (1 - xi) times 2d*cd > 0 iff xi <= 2(1 - c) times d*cd > 0
    for cn, cd in _INT_F10_RATIOS:
        if (2 * d * cn <= cd * (2 * d - n)) != (n * cd <= two * d * (cd - cn)):
            return False, None
    return True, None


def int_f11(n, d, cut=24):
    # 0.36 + 2b + (6b - 0.64)/5 <= 1 times 500d > 0, iff b <= 0.24 times 100d > 0
    return (1600 * n + 116 * d <= 500 * d) == (100 * n <= cut * d), None


INT_FACTS = {"F1": int_f1, "F2": int_f2, "F3": int_f3, "F4": int_f4, "F5": int_f5,
             "F6": int_f6, "F7": int_f7, "F8": int_f8, "F9": int_f9, "F10": int_f10,
             "F11": int_f11}


def point_scan(fact_id: str, step: Fraction, check=None) -> FactReport:
    """`lemmas.fact_scan` as it was before it decided the facts from their
    sign changes: `check` (by default the fact's former integer check) called
    at every point of the grid over the interval that `lemmas._CATALOG` gives
    the fact."""
    fact = lemmas._CATALOG[fact_id]
    p, q = step.numerator, step.denominator
    check = check or INT_FACTS[fact_id]
    points = lemmas._grid(fact.lo, fact.hi, step, fact.open_lo, fact.open_hi)
    first_violation = low = None
    for m in points:
        ok, margin = check(m * p, q)
        if not ok and first_violation is None:
            first_violation = Fraction(m * p, q)
        if margin is not None and (
                low is None or margin[0] * low[1] < low[0] * margin[1]):
            low = margin
    return FactReport(fact_id, fact.description, first_violation is None,
                      first_violation, None if low is None else Fraction(*low),
                      step, len(points))


# ---------------------------------------------------------------------------
# Frontier classification
# ---------------------------------------------------------------------------

def _least_bad_t(k: int, x: Fraction, y: Fraction):
    """The least t with x <= t/(kt+1) and y <= 1/(kt+1), or None.  The first
    bound is t(1 - kx) >= x; the second only weakens as t grows, so the
    least t of the first is the one to test."""
    if k * x >= 1:
        return None
    t = max(1, math.ceil(x / (1 - k * x)))
    return t if (k * t + 1) * y <= 1 else None


def reference_classify(k: int, a: Fraction, b: Fraction):
    """`frontier.classify(k, (a, b))` as (status, witness s, witness t): the
    paper's Good inequalities written out again, and the least bad t of each
    orientation in closed form, the mirrored one, circulant(k, t, 1), winning
    only when its t is strictly smaller.  Good, Unknown and axis points give
    (status, None, None)."""
    if a == 0 or b == 0:
        return "bad", None, None
    low = min(a, b)
    if (a + b > 1
            or k >= 2 and (2 * a + b > 1 or a + 2 * b > 1)
            or k >= 3 and a + b > Fraction(1, 2)
            or k >= 4 and a + b > Fraction(2, 5)
            or k >= 6 and low > Fraction(1, 7)
            or k >= 224539 and low > Fraction(1, k + 1)):  # the proved large-k range
        return "good", None, None
    plain = _least_bad_t(k, a, b)
    mirror = _least_bad_t(k, b, a)
    if mirror is not None and (plain is None or mirror < plain):
        return "bad", mirror, 1
    if plain is not None:
        return "bad", 1, plain
    return "unknown", None, None


def _good_rule(k: int, a: Fraction, b: Fraction) -> Optional[str]:
    """First proved rule forcing girth <= 2k' for some k' <= k, else None.

    All rules require both coordinates positive (the theorems' hypotheses)."""
    if a == 0 or b == 0:
        return None
    if a + b > 1:
        return "k'=1: alpha+beta>1"
    if k >= 2:
        if 2 * a + b > 1:
            return "k'=2: 2*alpha+beta>1"
        if a + 2 * b > 1:
            return "k'=2: alpha+2*beta>1"
    if k >= 3 and a + b > Fraction(1, 2):
        return "k'=3: alpha+beta>1/2"
    if k >= 4 and a + b > Fraction(2, 5):
        return "k'=4: alpha+beta>2/5"
    if k >= 6 and min(a, b) > Fraction(1, 7):
        return "k'=6: min(alpha,beta)>1/7"
    if k >= LARGE_K_START and min(a, b) > Fraction(1, k + 1):
        return f"k'={k}: min(alpha,beta)>1/{k + 1}"
    return None


def _bad_witness(k: int, a: Fraction, b: Fraction) -> Optional[BadWitness]:
    if a == 0 or b == 0:
        return BadWitness(s=None, t=None)
    # only t with 1/(kt+1) >= min(a,b) can dominate the point
    t_bound = int((1 / min(a, b) - 1) // k)
    for t in range(1, t_bound + 1):
        n = k * t + 1
        if a <= Fraction(t, n) and b <= Fraction(1, n):
            return BadWitness(s=1, t=t)
        if a <= Fraction(1, n) and b <= Fraction(t, n):
            return BadWitness(s=t, t=1)
    return None


def loop_classify(k: int, a: Fraction, b: Fraction) -> Verdict:
    """The `Verdict` of `frontier.classify(k, a, b)` by the former kernel:
    the rules compared as `Fraction`s and the bad witness found by trying
    every t in turn, plain before mirrored."""
    rule = _good_rule(k, a, b)
    witness = _bad_witness(k, a, b)
    assert not (rule and witness), f"point ({a},{b}) derivable both Good and Bad"
    if rule:
        return Verdict(Status.GOOD, rule=rule)
    if witness:
        return Verdict(Status.BAD, witness=witness)
    return Verdict(Status.UNKNOWN)


# ---------------------------------------------------------------------------
# The quadratic lower bound in Fraction arithmetic
# ---------------------------------------------------------------------------

def _sq_over(num, den) -> Fraction:
    """num^2/den with the stated convention: a zero denominator is taken
    to come with a zero numerator, and the whole term is zero."""
    return Fraction(num * num, den) if den else Fraction(0)


def fraction_instance_ints(inst) -> tuple[int, ...]:
    """(X, Y, B, G, M, D): each value made a `Fraction`, then put over the
    lcm D of their denominators."""
    values = [Fraction(v) for v in (inst.x, inst.y, inst.beta, inst.gamma, inst.mu)]
    d = math.lcm(*[v.denominator for v in values])
    return (*[v.numerator * (d // v.denominator) for v in values], d)


def fraction_eligible(inst, case: str) -> bool:
    x, y, b, g, m = inst.x, inst.y, inst.beta, inst.gamma, inst.mu
    if case == "a":
        return b <= x * g
    if case == "b":
        return b >= x * g
    if case == "c":
        return b >= x * g and y * b + x * (1 - y) * g <= m
    raise ValueError(f"unknown case {case!r}")


def _check_feasible(inst, p, q, r) -> None:
    if p < 0 or q < 0 or r < 0:
        raise InfeasibleTriple("p, q, r must be nonnegative")
    head = p * inst.x + q * (inst.y - inst.x)
    total = head + r * (1 - inst.y)
    if total != inst.beta:
        raise InfeasibleTriple(f"weights sum to {total}, expected {inst.beta}")
    if head < inst.mu:
        raise InfeasibleTriple(f"px+q(y-x) = {head} below mu = {inst.mu}")


def fraction_f_value(inst, p, q, r):
    """x(p-gamma)^2 + (y-x)q^2 + (1-y)r^2, in exact rationals."""
    _check_feasible(inst, p, q, r)
    x, y, g = inst.x, inst.y, inst.gamma
    return x * (p - g) ** 2 + (y - x) * q ** 2 + (1 - y) * r ** 2


def fraction_bound(inst, case: str):
    """Proved lower bound for f over the feasible set, per case."""
    if not fraction_eligible(inst, case):
        raise CaseNotApplicable(f"case {case} ineligible for {inst}")
    x, y, b, g, m = inst.x, inst.y, inst.beta, inst.gamma, inst.mu
    if case == "a":
        return _sq_over(b - x * g, x)
    if case == "b":
        return (b - x * g) ** 2
    return _sq_over(m - x * g, y) + _sq_over(b - m, 1 - y)


def fraction_min_oracle(inst) -> Optional[Fraction]:
    """`lemmas.newineq_min_oracle` on the instance's `Fraction` fields: the
    KKT triple as `Fraction`s, certified by `_check_feasible`."""
    x, y, b, g, m = inst.x, inst.y, inst.beta, inst.gamma, inst.mu
    if m > b:
        return None
    c = b - x * g
    if c <= 0:
        t = (b / x if x else Fraction(0), 0, 0)
    elif x * g + y * c >= m:
        t = (g + c, c, c)
    elif y == 0:
        return None
    else:
        h = (m - x * g) / y
        t = (g + h, h, (b - m) / (1 - y))
    return fraction_f_value(inst, *t)
