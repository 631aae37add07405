"""Exhaustive and randomized search for compliant digraphs of large girth.

Exhaustive mode enumerates digraphs with exact minimum degrees (adding
edges only shortens cycles, so large-girth witnesses exist at exact
degrees if they exist at all), breaks the A-side labeling symmetry by
requiring nondecreasing adjacency rows, and prunes each B-row candidate
by one mask per depth: the A-vertices that already reach the new
B-vertex within 2k-1 steps.  Runs are sequential and fully
deterministic.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Optional

from .constructions import random_compliant, required_degrees
from .digraph import BipartiteDigraph, _bits, _expand, _transpose, girth, is_compliant
from .errors import InfeasibleConfig

DEFAULT_NODE_LIMIT = 10 ** 9


class SearchStatus(Enum):
    FoundCounterexample = "FoundCounterexample"
    Exhausted = "Exhausted"
    LimitReached = "LimitReached"


@dataclass(frozen=True)
class SearchConfig:
    n_a: int
    n_b: int
    k: int
    alpha: Fraction
    beta: Fraction
    mode: str = "exhaustive"  # or "randomized"
    eulerian: bool = False
    seed: int = 0
    node_limit: int = DEFAULT_NODE_LIMIT

    def __post_init__(self):
        if min(self.n_a, self.n_b, self.k, self.node_limit) < 1:
            raise InfeasibleConfig("sizes, k and node_limit must be positive")
        if self.mode not in ("exhaustive", "randomized"):
            raise InfeasibleConfig(f"unknown mode {self.mode!r}")
        d_a = math.ceil(self.beta * self.n_b)
        d_b = math.ceil(self.alpha * self.n_a)
        if d_a > self.n_b or d_b > self.n_a:
            raise InfeasibleConfig("required degrees exceed side sizes")
        if self.eulerian and self.n_a * d_a != self.n_b * d_b:
            raise InfeasibleConfig(
                "eulerian balance needs n_a*d_a == n_b*d_b "
                f"(got {self.n_a}*{d_a} vs {self.n_b}*{d_b})")

    @property
    def degrees(self) -> tuple[int, int]:
        return required_degrees(self.n_a, self.n_b, self.alpha, self.beta)


@dataclass(frozen=True)
class SearchReport:
    status: SearchStatus
    witness: Optional[BipartiteDigraph]
    nodes_explored: int
    wall_time: float
    config: SearchConfig

    def to_json_dict(self) -> dict:
        from .io import to_edge_list
        cfg = self.config
        return {
            "schema_version": "2",
            "status": self.status.value,
            "nodes_explored": self.nodes_explored,
            "wall_time_ms": round(self.wall_time * 1000, 3),
            "witness": to_edge_list(self.witness) if self.witness else None,
            "config": {
                "n_a": cfg.n_a, "n_b": cfg.n_b, "k": cfg.k,
                "alpha": str(cfg.alpha), "beta": str(cfg.beta),
                "mode": cfg.mode, "eulerian": cfg.eulerian,
                "seed": cfg.seed, "node_limit": cfg.node_limit,
            },
        }


# ---------------------------------------------------------------------------
# Canonical codes
# ---------------------------------------------------------------------------

def _refine_colors(g: BipartiteDigraph, rounds: int = 3) -> tuple[list, list]:
    """Isomorphism-invariant vertex colors per side (degree pair, then
    iterated neighbour-color multisets)."""
    ca = [(g.a_out[i].bit_count(), g.a_in[i].bit_count()) for i in range(g.a_size)]
    cb = [(g.b_out[j].bit_count(), g.b_in[j].bit_count()) for j in range(g.b_size)]
    for _ in range(rounds):
        na = [(ca[i],
               tuple(sorted(cb[j] for j in _bits(g.a_out[i]))),
               tuple(sorted(cb[j] for j in _bits(g.a_in[i]))))
              for i in range(g.a_size)]
        nb = [(cb[j],
               tuple(sorted(ca[i] for i in _bits(g.b_out[j]))),
               tuple(sorted(ca[i] for i in _bits(g.b_in[j]))))
              for j in range(g.b_size)]
        if len(set(na)) == len(set(ca)) and len(set(nb)) == len(set(cb)):
            break
        ca, cb = na, nb
    return ca, cb


def _cell_perms(colors: list) -> Iterator[tuple[int, ...]]:
    """All permutations (new position -> old index) that respect the color
    cells, cells ordered by color key."""
    order = sorted(range(len(colors)), key=lambda v: (repr(colors[v]), v))
    cells: list[list[int]] = []
    for v in order:
        if cells and colors[cells[-1][0]] == colors[v]:
            cells[-1].append(v)
        else:
            cells.append([v])
    for parts in itertools.product(*(itertools.permutations(c) for c in cells)):
        yield tuple(v for part in parts for v in part)


def _remap(mask: int, pos: list[int]) -> int:
    out = 0
    for b in _bits(mask):
        out |= 1 << pos[b]
    return out


def _encode(g: BipartiteDigraph, pa: tuple[int, ...], pb: tuple[int, ...]) -> tuple:
    pos_b = [0] * g.b_size
    for new, old in enumerate(pb):
        pos_b[old] = new
    pos_a = [0] * g.a_size
    for new, old in enumerate(pa):
        pos_a[old] = new
    return (tuple(_remap(g.a_out[old], pos_b) for old in pa),
            tuple(_remap(g.b_out[old], pos_a) for old in pb))


def canonical_code(g: BipartiteDigraph) -> bytes:
    """Complete invariant for side-preserving isomorphism at fixed sizes:
    the lexicographically minimal relabeled adjacency encoding, minimised
    over color-respecting permutations of each side."""
    ca, cb = _refine_colors(g)
    best = None
    for pa in _cell_perms(ca):
        for pb in _cell_perms(cb):
            enc = _encode(g, pa, pb)
            if best is None or enc < best:
                best = enc
    rows = ",".join(str(r) for r in best[0]) + "|" + ",".join(str(r) for r in best[1])
    return f"{g.a_size} {g.b_size} {rows}".encode()


def automorphism_count(g: BipartiteDigraph) -> int:
    """Number of side-preserving automorphisms.

    Candidate maps send the first cell-respecting arrangement onto each
    other arrangement; refinement colors are isomorphism-invariant, so
    every automorphism appears among the candidates."""
    ca, cb = _refine_colors(g)
    base_a = next(_cell_perms(ca))
    base_b = next(_cell_perms(cb))
    count = 0
    for pa in _cell_perms(ca):
        ma = [0] * len(pa)
        for t, old in enumerate(pa):
            ma[base_a[t]] = old
        for pb in _cell_perms(cb):
            mb = [0] * len(pb)
            for t, old in enumerate(pb):
                mb[base_b[t]] = old
            if (all(_remap(g.a_out[i], mb) == g.a_out[ma[i]]
                    for i in range(g.a_size))
                    and all(_remap(g.b_out[j], ma) == g.b_out[mb[j]]
                            for j in range(g.b_size))):
                count += 1
    return count


def all_digraphs(n_a: int, n_b: int) -> Iterator[BipartiteDigraph]:
    """Every labeled bipartite digraph at the given sizes (2^(2*n_a*n_b))."""
    row_a = 1 << n_b
    row_b = 1 << n_a
    for a_rows in itertools.product(range(row_a), repeat=n_a):
        for b_rows in itertools.product(range(row_b), repeat=n_b):
            yield BipartiteDigraph(n_a, n_b, a_rows, b_rows)


# ---------------------------------------------------------------------------
# Exhaustive search
# ---------------------------------------------------------------------------

class _LimitHit(Exception):
    pass


class _Enumerator:
    def __init__(self, cfg: SearchConfig):
        self.cfg = cfg
        self.d_a, self.d_b = cfg.degrees
        self.max_len = 2 * cfg.k
        self.nodes = 0
        self.witness: Optional[BipartiteDigraph] = None
        self.row_choices_a = [sum(1 << j for j in c)
                              for c in itertools.combinations(range(cfg.n_b), self.d_a)]
        self.row_choices_b = [sum(1 << i for i in c)
                              for c in itertools.combinations(range(cfg.n_a), self.d_b)]

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.cfg.node_limit:
            raise _LimitHit

    def _reach_b(self, a_in: tuple[int, ...], b_rows: list[int]) -> int:
        """A-vertices that reach b_j, j = len(b_rows), within 2k-1 steps
        through B-rows 0..j-1; a row for b_j meeting this mask closes a
        cycle of length <= 2k.  Backward BFS over the transposed A-rows."""
        frontier = reach = a_in[len(b_rows)]
        for _ in range(self.cfg.k - 1):
            nxt_b = sum(1 << i for i, row in enumerate(b_rows) if row & frontier)
            frontier = _expand(a_in, nxt_b) & ~reach
            if not frontier:
                break
            reach |= frontier
        return reach

    def _b_phase(self, a_rows: list[int]) -> bool:
        cfg = self.cfg
        a_in = _transpose(a_rows, cfg.n_b, cfg.n_a)
        col_cap = [0] * cfg.n_a  # in-degree of each A-vertex so far (eulerian)
        b_rows: list[int] = []

        def rec() -> bool:
            j = len(b_rows)
            if j == cfg.n_b:
                self.witness = BipartiteDigraph(
                    cfg.n_a, cfg.n_b, tuple(a_rows), tuple(b_rows))
                return True
            remaining = cfg.n_b - j - 1
            forbidden = self._reach_b(a_in, b_rows)
            for row in self.row_choices_b:
                self._tick()
                if row & forbidden:
                    continue
                if cfg.eulerian:
                    ok = True
                    for i in _bits(row):
                        if col_cap[i] + 1 > self.d_a:
                            ok = False
                            break
                    if not ok:
                        continue
                b_rows.append(row)
                if cfg.eulerian:
                    for i in _bits(row):
                        col_cap[i] += 1
                feasible = True
                if cfg.eulerian:
                    # every A-vertex must still be able to reach in-degree d_a
                    for i in range(cfg.n_a):
                        if self.d_a - col_cap[i] > remaining:
                            feasible = False
                            break
                if feasible and rec():
                    return True
                if cfg.eulerian:
                    for i in _bits(row):
                        col_cap[i] -= 1
                b_rows.pop()
            return False

        return rec()

    def _a_phase(self) -> bool:
        cfg = self.cfg
        rows: list[int] = []
        col = [0] * cfg.n_b  # in-degree of each B-vertex from A-rows

        def rec(min_idx: int) -> bool:
            i = len(rows)
            if i == cfg.n_a:
                if cfg.eulerian and any(c != self.d_b for c in col):
                    return False
                return self._b_phase(rows)
            remaining = cfg.n_a - i - 1
            for idx in range(min_idx, len(self.row_choices_a)):
                row = self.row_choices_a[idx]
                self._tick()
                if cfg.eulerian:
                    ok = True
                    for j in _bits(row):
                        if col[j] + 1 > self.d_b:
                            ok = False
                            break
                    if not ok:
                        continue
                    for j in _bits(row):
                        col[j] += 1
                    if any(self.d_b - col[j] > remaining for j in range(cfg.n_b)):
                        for j in _bits(row):
                            col[j] -= 1
                        continue
                rows.append(row)
                if rec(idx):  # nondecreasing rows break the A-label symmetry
                    return True
                rows.pop()
                if cfg.eulerian:
                    for j in _bits(row):
                        col[j] -= 1
            return False

        return rec(0)


def find_counterexample(cfg: SearchConfig) -> SearchReport:
    """Search for a compliant digraph of girth more than 2k.

    Exhaustive mode is complete over exact-degree digraphs (up to
    isomorphism) and returns the first witness in a fixed DFS order;
    Exhausted certifies none exists.  Randomized mode samples seeded
    random compliant instances up to node_limit.
    """
    start = time.perf_counter()
    if cfg.mode == "randomized":
        nodes = 0
        witness = None
        while nodes < cfg.node_limit:
            nodes += 1
            g = random_compliant(cfg.n_a, cfg.n_b, cfg.alpha, cfg.beta,
                                 seed=cfg.seed + nodes - 1)
            gr = girth(g)
            if gr is None or gr.length > 2 * cfg.k:
                witness = g
                break
        status = (SearchStatus.FoundCounterexample if witness
                  else SearchStatus.LimitReached)
        return SearchReport(status, witness, nodes, time.perf_counter() - start, cfg)

    enum = _Enumerator(cfg)
    try:
        found = enum._a_phase()
        status = (SearchStatus.FoundCounterexample if found
                  else SearchStatus.Exhausted)
    except _LimitHit:
        status = SearchStatus.LimitReached
    witness = enum.witness
    if witness is not None:
        assert is_compliant(witness, cfg.alpha, cfg.beta)
        gr = girth(witness)
        assert gr is None or gr.length > 2 * cfg.k
    return SearchReport(status, witness, enum.nodes, time.perf_counter() - start, cfg)


def verify_conjecture_small(k: int, n_max: int, *, eulerian: bool = False,
                            node_limit: int = DEFAULT_NODE_LIMIT) -> list[SearchReport]:
    """For each n <= n_max, search at the least out-degree exceeding n/(k+1),
    i.e. floor(n/(k+1))+1.  Consistency means every report is Exhausted."""
    reports = []
    for n in range(1, n_max + 1):
        d = n // (k + 1) + 1
        if d > n:
            continue
        ab = Fraction(d, n)
        cfg = SearchConfig(n, n, k, ab, ab, eulerian=eulerian,
                           node_limit=node_limit)
        reports.append(find_counterexample(cfg))
    return reports


def verify_eulerian_small(k: int, n_max: int,
                          node_limit: int = DEFAULT_NODE_LIMIT) -> list[SearchReport]:
    """Regular balanced instances (in-degree = out-degree on both sides)
    with alpha > 1/(k+1); a witness would contradict a proved theorem."""
    return verify_conjecture_small(k, n_max, eulerian=True, node_limit=node_limit)
