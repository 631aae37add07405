"""Exhaustive and randomized search for compliant digraphs of large girth.

Exhaustive mode enumerates digraphs with exact minimum degrees (adding
edges only shortens cycles, so large-girth witnesses exist at exact
degrees if they exist at all) and prunes each B-row candidate by one
mask per depth: the A-vertices that already reach the new B-vertex
within 2k-1 steps.  Randomized mode rejects a seeded sample at the first
B-row that closes a 2-cycle, having drawn the A-rows and the B-rows up to
it; a sample with no 2-cycle is drawn again whole and decided by girth.
The row stream is defined in the program (`constructions._sample_rows`):
`random.sample`'s selection rule over rejection draws of `getrandbits(k)`.
A run builds its two row rules (`constructions._row_rule`) once.
Only `getrandbits` (the MT19937 output) is taken from the stdlib, so a
seed gives the same rows across Python versions that keep `sample`
unchanged, and a later `sample` cannot change them.  Runs are sequential
and fully deterministic.

Relabeling either side maps witnesses to witnesses, so the A-phase needs
one A-matrix (A-rows over B-columns) per class under row and column
permutations: the lex-largest, read row by row from column 0.  Its rows
are lex-nonincreasing (else swapping two makes it larger), and so are its
columns read top-down: if column j+1 first beats column j in row r,
swapping them keeps the rows above r and makes row r larger.  The A-phase
keeps just these double-lex matrices (Flener et al., CP 2002): rows in
nondecreasing itertools.combinations index are lex-nonincreasing, and a
row with 0 in column j and 1 in column j+1 is skipped while those columns
are tied.  The directions must agree: no matrix in the class of
[[1,0],[0,1]] has nonincreasing rows and nondecreasing columns.

The B-phase may use only symmetries that fix the A-matrix, such as
swapping two B-vertices with equal columns (in-neighbourhoods), which
swaps their B-rows; so b_{j+1} takes no earlier row than b_j when their
columns are equal.  Double-lex puts equal columns side by side.

Both phases are one depth-first loop over rows 0..n_a+n_b-1, the A-rows
and then the B-rows, with one stack frame per row being chosen, so a side
of any size runs.  `nodes` counts the candidate rows tried, pruned or not;
a run ends LimitReached when the next candidate would pass node_limit.

Canonical codes and automorphism counts come from one
individualisation-refinement search (McKay & Piperno, "Practical graph
isomorphism II", 2014).  Cells are vertex masks keyed by first position:
side A at 0, side B at a_size, and no cell for an empty side, so n cells
are discrete.  The least queued splitter S splits each cell meeting `hit`
(the neighbours of S) by out- and in-neighbour counts in S; the parts go
in count order, all queued, until the queue empties or the cells are
discrete.  A child individualises v of its node's first non-singleton
cell c (v at c, the rest at c+1) and queues only c, as the node is
equitable: counts into the rest are counts into c less those into v.  The
canonical code is the least leaf code, the adjacency relabeled by position.

A leaf with the first leaf's code gives an automorphism: position p of
the first leaf to position p of this one.  Individualised vertices keep
their positions, so, found depth first, it fixes the prefix of every
first-path node still open.  Off the first path, the subtree holding such
a leaf is the image of the first child's and is abandoned; on it, a child
in the union-find orbit of an earlier child is skipped.  Each child in
the true orbit of the first child is thus merged into its union-find
orbit, and by orbit-stabiliser |Aut| is the product of those orbit sizes
over the first path.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .constructions import _row_rule, _sample_rows, random_compliant, required_degrees
from .digraph import BipartiteDigraph, _bits, _expand, _transpose, girth, is_compliant
from .errors import InfeasibleConfig, InfeasibleDegree
from .io import to_edge_list

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
        if self.seed < 0:  # random.Random(-s) is random.Random(s)
            raise InfeasibleConfig("seed must be nonnegative")
        if self.mode not in ("exhaustive", "randomized"):
            raise InfeasibleConfig(f"unknown mode {self.mode!r}")
        if self.eulerian and self.mode == "randomized":
            raise InfeasibleConfig("randomized mode does not take eulerian")
        try:
            d_a, d_b = self.degrees
        except InfeasibleDegree:
            raise InfeasibleConfig("required degrees lie outside 0..side sizes") from None
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

def _canonical(g: BipartiteDigraph) -> tuple[bytes, int]:
    """Canonical code and automorphism count (see the module docstring)."""
    fwd, bwd = g.out, g.reverse().out
    a, n = g.a_size, len(fwd)
    orbit = list(range(n))  # union-find over the automorphisms found so far
    first = best = None  # first: the code and vertex order of the first leaf
    count = 1

    def find(v: int) -> int:
        while orbit[v] != v:
            orbit[v] = v = orbit[orbit[v]]
        return v

    def search(cells: dict[int, int], queue: set[int], on_first: bool) -> bool:
        """Refine, then explore the node; True means a leaf below gave an automorphism."""
        nonlocal first, best, count
        while queue and len(cells) < n:
            s = min(queue)
            queue.remove(s)
            splitter = cells[s]
            hit = _expand(fwd, splitter) | _expand(bwd, splitter)
            for p, m in [(p, m) for p, m in cells.items() if m & hit and m & (m - 1)]:
                parts: dict[tuple[int, int], int] = {}
                for v in _bits(m):
                    key = (fwd[v] & splitter).bit_count(), (bwd[v] & splitter).bit_count()
                    parts[key] = parts.get(key, 0) | 1 << v
                if len(parts) > 1:
                    for key in sorted(parts):
                        cells[p] = parts[key]
                        queue.add(p)
                        p += parts[key].bit_count()
        if len(cells) == n:
            order = [cells[p].bit_length() - 1 for p in range(n)]
            at = {v: 1 << p for p, v in enumerate(order)}
            code = tuple(_expand(at, fwd[v]) for v in order)
            if first is None:
                first = code, order
            elif code == first[0]:
                for u, v in zip(first[1], order):
                    orbit[find(u)] = find(v)
                return True
            best = code if best is None else min(best, code)
            return False
        c = min(p for p, m in cells.items() if m & (m - 1))
        cell = list(_bits(cells[c]))
        for i, v in enumerate(cell):
            if on_first and any(find(v) == find(u) for u in cell[:i]):
                continue
            child = {**cells, c: 1 << v, c + 1: cells[c] ^ 1 << v}
            if search(child, {c}, on_first and not i) and not on_first:
                return True
        if on_first:
            count *= sum(find(v) == find(cell[0]) for v in cell)
        return False

    root = {p: m for p, m in ((0, (1 << a) - 1), (a, (1 << n) - (1 << a))) if m}
    search(root, set(root), True)
    rows = ",".join(str(r >> a) for r in best[:a]) + "|" + ",".join(map(str, best[a:]))
    return f"{a} {g.b_size} {rows}".encode(), count


def canonical_code(g: BipartiteDigraph) -> bytes:
    """Complete invariant for side-preserving isomorphism at fixed sizes."""
    return _canonical(g)[0]


def automorphism_count(g: BipartiteDigraph) -> int:
    """Number of side-preserving automorphisms."""
    return _canonical(g)[1]


# ---------------------------------------------------------------------------
# Exhaustive search
# ---------------------------------------------------------------------------

class _Rows:
    """Masks with d of n bits in itertools.combinations order, made on
    demand so that a node limit bounds the work."""

    def __init__(self, n: int, d: int):
        self.masks: list[int] = []
        self.more = (sum(1 << i for i in c) for c in itertools.combinations(range(n), d))

    def starting(self, start: int):
        """(index, mask) pairs from index start on."""
        for idx in itertools.count(start):
            if idx == len(self.masks):
                mask = next(self.more, None)
                if mask is None:
                    return
                self.masks.append(mask)
            yield idx, self.masks[idx]


class _Enumerator:
    def __init__(self, cfg: SearchConfig):
        self.cfg = cfg
        self.d_a, self.d_b = cfg.degrees
        self.rows_a = _Rows(cfg.n_b, self.d_a)
        self.rows_b = _Rows(cfg.n_a, self.d_b)

    def _reach_b(self, a_in: tuple[int, ...], b_rows: tuple[int, ...]) -> int:
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

    def run(self) -> tuple[SearchStatus, int, Optional[BipartiteDigraph]]:
        """(status, nodes, witness) of the depth-first search over rows
        0..n_a+n_b-1, the A-rows and then the B-rows."""
        cfg, n_a, n_b = self.cfg, self.cfg.n_a, self.cfg.n_b
        n, limit, eulerian = n_a + n_b, cfg.node_limit, cfg.eulerian
        rows = [0] * n
        nodes = 0
        # a frame per row being chosen: (candidates left, forbidden, tied,
        # whether the next row starts at this row's index, in-degrees);
        # tied has bit j set while A-columns j and j+1 are equal so far
        stack = [(self.rows_a.starting(0), 0, (1 << n_b - 1) - 1, n_a > 1, [0] * n_b)]
        while stack:
            depth = len(stack) - 1
            cands, forbidden, tied, keep, deg = stack[-1]
            new = deg
            if eulerian:  # every in-degree ends at cap, with `left` rows to go
                cap, left = ((self.d_b, n_a - depth - 1) if depth < n_a
                             else (self.d_a, n - depth - 1))
            for idx, row in cands:
                if nodes == limit:
                    return SearchStatus.LimitReached, nodes, None
                nodes += 1
                # a B-row closes a short cycle, or an A-row puts column j+1 past column j
                if row & forbidden or tied & ~row & (row >> 1):
                    continue
                if eulerian:
                    new = [c + (row >> i & 1) for i, c in enumerate(deg)]
                    if any(c > cap or c + left < cap for c in new):
                        continue
                break
            else:
                stack.pop()
                continue
            rows[depth] = row
            depth += 1
            start = idx if keep else 0
            if depth < n_a:  # A-rows nondecreasing
                stack.append((self.rows_a.starting(start), 0, tied & ~(row ^ (row >> 1)),
                              depth + 1 < n_a, new))
                continue
            if depth == n:
                return (SearchStatus.FoundCounterexample, nodes,
                        BipartiteDigraph(n_a, n_b, tuple(rows[:n_a]), tuple(rows[n_a:])))
            if depth == n_a:
                a_in = _transpose(rows[:n_a], n_b)
                new = [0] * n_a
            # b_{j+1} with b_j's in-neighbours takes no earlier row
            j = depth - n_a
            stack.append((self.rows_b.starting(start), self._reach_b(a_in, rows[n_a:depth]), 0,
                          j + 1 < n_b and a_in[j + 1] == a_in[j], new))
        return SearchStatus.Exhausted, nodes, None


def _closes_2_cycle(a_rows: list[int], bits, rule_b, n_b: int) -> bool:
    """Whether one of the n_b B-rows drawn next from `bits` closes a 2-cycle
    b_j -> a_i -> b_j; the draws stop at the first that does."""
    for j in range(n_b):
        for i in _bits(_sample_rows(bits, rule_b, 1)[0]):
            if a_rows[i] >> j & 1:
                return True
    return False


def find_counterexample(cfg: SearchConfig) -> SearchReport:
    """Search for a compliant digraph of girth more than 2k.

    Exhaustive mode is complete over exact-degree digraphs (up to
    isomorphism) and returns the first witness in a fixed DFS order;
    Exhausted certifies none exists.  Randomized mode tries the seeds
    seed, seed+1, ... of random_compliant, up to node_limit samples; a
    sample is rejected at its first 2-cycle (2 <= 2k) while its B-rows are
    drawn, and girth decides the rest.
    """
    start = time.perf_counter()
    if cfg.mode == "randomized":
        d_a, d_b = cfg.degrees
        rule_a, rule_b = _row_rule(cfg.n_b, d_a), _row_rule(cfg.n_a, d_b)
        nodes = 0
        witness = None
        while nodes < cfg.node_limit:
            nodes += 1
            bits = random.Random(cfg.seed + nodes - 1).getrandbits
            if _closes_2_cycle(_sample_rows(bits, rule_a, cfg.n_a), bits, rule_b, cfg.n_b):
                continue  # 2 <= 2k
            g = random_compliant(cfg.n_a, cfg.n_b, cfg.alpha, cfg.beta,
                                 seed=cfg.seed + nodes - 1)
            gr = girth(g)
            if gr is None or gr.length > 2 * cfg.k:
                witness = g
                break
        status = SearchStatus.FoundCounterexample if witness else SearchStatus.LimitReached
        return SearchReport(status, witness, nodes, time.perf_counter() - start, cfg)

    status, nodes, witness = _Enumerator(cfg).run()
    if witness is not None:
        if not is_compliant(witness, cfg.alpha, cfg.beta):
            raise RuntimeError("the search's witness does not comply")
        gr = girth(witness)
        if gr is not None and gr.length <= 2 * cfg.k:
            raise RuntimeError(f"the search's witness has a {gr.length}-cycle")
    return SearchReport(status, witness, nodes, time.perf_counter() - start, cfg)


def verify_conjecture_small(k: int, n_max: int, *, eulerian: bool = False,
                            node_limit: int = DEFAULT_NODE_LIMIT) -> list[SearchReport]:
    """For each n <= n_max, search at the least out-degree exceeding n/(k+1),
    i.e. floor(n/(k+1))+1.  Consistency means every report is Exhausted."""
    if k < 1:
        raise InfeasibleConfig("k must be positive")
    reports = []
    for n in range(1, n_max + 1):
        d = n // (k + 1) + 1
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
