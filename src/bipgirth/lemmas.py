"""Closed-form inequality lab: quadratic lower bounds, summation checks,
the large-k threshold, delta constants, and the numeric fact catalog.

All arithmetic is exact (`Fraction`, or `int` in cleared form).  The fact
scan decides each fact at the points of a grid over its interval in
integers, with its denominators cleared by a multiplier positive there.
Every fact is decided at every point from the grid indices where its
terms, integer polynomials of degree at most 4, change sign, from a few
evaluations of its terms.  The results are still evidence at the stated
resolution, not proofs.  The quadratic minimiser is deliberately
independent of the bound formulas: it solves the minimisation in closed
form and certifies its minimising triple as feasible, so "minimum >= bound"
is an exact check.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

from .digraph import BipartiteDigraph, Side, VertexRef, _bits, girth
from .errors import (
    BadEdgeSets,
    CaseNotApplicable,
    HypothesisViolated,
    IndexOutOfRange,
    InfeasibleTriple,
    UnknownFact,
)

Real = Union[int, Fraction]
Value = Union[Real, float, str]  # what `NewineqInstance` reads exactly

DELTA3 = Fraction(2886, 1000)
DELTA4 = Fraction(34814, 10000)
DELTA12 = Fraction(5219, 1000)  # claimed-only constant of the girth-12 sketch


# ---------------------------------------------------------------------------
# Delta constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaEntry:
    """out-degree >= |V|/delta forces girth <= girth_bound (at this k)."""
    delta: Fraction
    girth_bound: int
    claimed_only: bool = False


def delta_table(k: int) -> list[DeltaEntry]:
    """All CH-approximation constants applicable at k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    entries = []
    if k == 3:
        entries.append(DeltaEntry(DELTA3, 3))
    if k == 4:
        entries.append(DeltaEntry(DELTA4, 4))
    entries.append(DeltaEntry(Fraction(3 * k, 4), k))
    if k > 74:
        entries.append(DeltaEntry(Fraction(k - 74), k - 1))
    if k == 6:
        entries.append(DeltaEntry(DELTA12, 6, claimed_only=True))
    return entries


# ---------------------------------------------------------------------------
# The quadratic lower bound (three cases)
# ---------------------------------------------------------------------------

def _sq_over(num: Real, den: Real) -> Fraction:
    """num^2/den with the stated convention: a zero denominator is taken
    to come with a zero numerator, and the whole term is zero."""
    return Fraction(num * num, den) if den else Fraction(0)


def _over_lcm(values: Sequence[Value]) -> tuple[list[int], int]:
    """The numerators of `values` over their least common denominator, and
    it; a value without `as_integer_ratio` (a `str`) goes through `Fraction`."""
    try:
        ratios = [v.as_integer_ratio() for v in values]
    except AttributeError:
        ratios = [Fraction(v).as_integer_ratio() for v in values]
    d = math.lcm(*[q for _, q in ratios])
    return [p * (d // q) for p, q in ratios], d


def _over_d(i: int) -> property:
    """The exact value of the instance's i-th integer over its D."""
    return property(lambda self: Fraction(self._int[i], self._int[5]))


@dataclass(frozen=True, init=False, repr=False)
class NewineqInstance:
    """Five exact values stored only as integers over their lcm D:
    `_int` = (X, Y, B, G, M, D) with x = X/D, y = Y/D, beta = B/D,
    gamma = G/D and mu = M/D.  Each input is read through its
    `as_integer_ratio()`, so a float is kept exactly; `x`, `y`, `beta`,
    `gamma` and `mu` build their `Fraction` when read."""
    _int: tuple[int, ...]

    def __init__(self, x: Value, y: Value, beta: Value, gamma: Value, mu: Value):
        (X, Y, B, G, M), D = _over_lcm((x, y, beta, gamma, mu))
        if not (0 <= X <= Y <= D):
            raise ValueError(f"need 0 <= x <= y <= 1, got x={Fraction(X, D)}, "
                             f"y={Fraction(Y, D)}")
        if B < 0 or G < 0 or M < 0:
            raise ValueError("beta, gamma, mu must be nonnegative")
        object.__setattr__(self, "_int", (X, Y, B, G, M, D))

    x, y, beta, gamma, mu = map(_over_d, range(5))

    def __repr__(self):
        return (f"{type(self).__qualname__}(x={self.x!r}, y={self.y!r}, "
                f"beta={self.beta!r}, gamma={self.gamma!r}, mu={self.mu!r})")

    def eligible(self, case: str) -> bool:
        X, Y, B, G, M, D = self._int
        if case == "a":
            return B * D <= X * G
        if case == "b":
            return B * D >= X * G
        if case == "c":  # the second test times D^3
            return B * D >= X * G and Y * B * D + X * (D - Y) * G <= M * D * D
        raise ValueError(f"unknown case {case!r}")


def _f_int(inst: NewineqInstance, P: int, Q: int, R: int, E: int) -> tuple[int, int]:
    """f at the triple (P/E, Q/E, R/E), E > 0, as (num, den), once the triple
    is certified feasible; raises `InfeasibleTriple` otherwise."""
    X, Y, B, G, M, D = inst._int
    if P < 0 or Q < 0 or R < 0:
        raise InfeasibleTriple("p, q, r must be nonnegative")
    head = P * X + Q * (Y - X)  # px + q(y-x) over E*D, and the total likewise
    total = head + R * (D - Y)
    if total != B * E:
        raise InfeasibleTriple(f"weights sum to {Fraction(total, E * D)}, expected {inst.beta}")
    if head < M * E:
        raise InfeasibleTriple(f"px+q(y-x) = {Fraction(head, E * D)} below mu = {inst.mu}")
    U = P * D - G * E  # p - gamma over E*D
    return X * U * U + D * D * ((Y - X) * Q * Q + (D - Y) * R * R), D ** 3 * E * E


def f_value(inst: NewineqInstance, p: Real, q: Real, r: Real) -> Real:
    """x(p-gamma)^2 + (y-x)q^2 + (1-y)r^2, in exact rationals; raises
    `InfeasibleTriple` unless the triple (p, q, r) is feasible."""
    (P, Q, R), E = _over_lcm((p, q, r))
    return Fraction(*_f_int(inst, P, Q, R, E))


def newineq_bound(inst: NewineqInstance, case: str) -> Real:
    """Proved lower bound for f over the feasible set, per case: in case c,
    (mu - x*gamma)^2/y + (beta - mu)^2/(1-y), with H = M*D - X*G, is
    H^2/(D^3*Y) + (B-M)^2/(D*(D-Y)), one fraction over D^3*Y*(D-Y) when
    0 < Y < D; at Y = 0 or Y = D each term keeps the convention of
    `_sq_over`."""
    if not inst.eligible(case):
        raise CaseNotApplicable(f"case {case} ineligible for {inst}")
    X, Y, B, G, M, D = inst._int
    C = B * D - X * G  # beta - x*gamma over D^2
    if case == "a":
        return _sq_over(C, D ** 3 * X)
    if case == "b":
        return Fraction(C * C, D ** 4)
    H, Z = M * D - X * G, D - Y
    if Y and Z:
        return Fraction(H * H * Z + (B - M) ** 2 * D * D * Y, D ** 3 * Y * Z)
    return _sq_over(H, D ** 3 * Y) + _sq_over(B - M, D * Z)


def newineq_min_oracle(inst: NewineqInstance) -> Optional[Fraction]:
    """Exact minimum of f over the feasible set, or None when it is empty.

    Independent of `newineq_bound`: it builds the minimising triple from the
    KKT conditions and returns f there through `_f_int`, which certifies the
    triple as feasible.  With u = p - gamma and c = beta - x*gamma the
    weights (x, y-x, 1-y) sum to 1, f = x*u^2 + (y-x)q^2 + (1-y)r^2 and
    x*u + (y-x)q + (1-y)r = c.  Cases:

    - mu > beta, or y = 0 < mu: the head px+q(y-x) = beta - (1-y)r is at
      most beta, and it is 0 when y = 0 (then x = 0 too), so the set is
      empty.
    - c <= 0: q, r >= 0 force x*u <= c, so f >= x*u^2 >= c^2/x, attained by
      (beta/x, 0, 0) with head beta >= mu.  When x = 0, beta = 0 and the
      triple is (0, 0, 0).
    - c > 0 and x*gamma + y*c >= mu: by Cauchy-Schwarz f >= c^2, attained
      by the equal values u = q = r = c, i.e. (gamma+c, c, c), whose head
      x*gamma + y*c is feasible.
    - Otherwise the head constraint is tight (the problem is convex and its
      unconstrained optimum violates it).  With head mass H = x*u + (y-x)q,
      Cauchy-Schwarz on each group gives f >= H^2/y + (c-H)^2/(1-y), convex
      in H with its minimum at H = y*c, below the required
      H >= mu - x*gamma; so H = mu - x*gamma, split equally:
      (gamma+h, h, (beta-mu)/(1-y)) with h = (mu - x*gamma)/y.  Here
      0 < y < 1: y = 0 leaves mu = 0, met by the optimum above, and y = 1
      makes the head equal beta.

    In integers: with the instance over its common denominator D (x = X/D,
    and so on), c = C/D^2 with C = B*D - X*G, and the triple is (P, Q, R)
    over one denominator E: E = X for c <= 0 (E = 1 when x = 0), E = D^2
    for the unconstrained optimum, and E = D*Y*(D-Y) for the tight head.
    Only the minimum becomes a `Fraction`.
    """
    X, Y, B, G, M, D = inst._int
    if M > B or Y == 0 < M:
        return None
    C = B * D - X * G
    if C <= 0:
        P, Q, R, E = B, 0, 0, X or 1
    elif X * G * D + Y * C >= M * D * D:  # x*gamma + y*c >= mu, times D^3
        P, Q, R, E = G * D + C, C, C, D * D
    else:
        H, Z = M * D - X * G, D - Y  # h = H/(D*Y)
        P, Q, R, E = (G * Y + H) * Z, H * Z, (B - M) * D * Y, D * Y * Z
    return Fraction(*_f_int(inst, P, Q, R, E))


def check_newineq(inst: NewineqInstance) -> bool:
    """The exact minimum respects the proved bound in every applicable case."""
    low = newineq_min_oracle(inst)
    return low is None or all(low >= newineq_bound(inst, case)
                              for case in "abc" if inst.eligible(case))


def random_newineq_instance(case: str, rng: random.Random) -> NewineqInstance:
    """Seeded instance eligible for the given case, with a nonempty feasible set.

    The coordinates come from `rng.random()` and are screened in machine
    arithmetic; the instance keeps their exact values and is returned only
    if eligibility and mu <= beta hold on those exact values.
    """
    if case not in ("a", "b", "c"):
        raise ValueError(f"unknown case {case!r}")
    while True:
        x = rng.random()
        y = x + rng.random() * (1 - x)
        beta = rng.random()
        gamma = rng.random()
        lo = y * beta + x * (1 - y) * gamma
        if case == "a" and beta <= x * gamma or case == "b" and beta >= x * gamma:
            mu = rng.random() * beta
        elif case == "c" and beta >= x * gamma and lo <= beta:
            mu = lo + rng.random() * (beta - lo)
        else:
            continue
        inst = NewineqInstance(x, y, beta, gamma, mu)
        if inst.eligible(case) and inst._int[4] <= inst._int[2]:  # M <= B: mu <= beta
            return inst


def newineq_stress(cases: str, count: int, seed: int) -> int:
    """Draw `count` seeded instances per case from one generator and return
    how many have an exact minimum below the case's bound.  The bound is
    proved, so any violation is an implementation bug."""
    if seed < 0:  # random.Random(-s) is random.Random(s)
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = random.Random(seed)
    violations = 0
    for case in cases:
        for _ in range(count):
            inst = random_newineq_instance(case, rng)
            if newineq_min_oracle(inst) < newineq_bound(inst, case):
                violations += 1
    return violations


# ---------------------------------------------------------------------------
# Summation inequality and its on-graph version
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IneqParams:
    x: Real
    y: Real
    beta: Real
    gamma: Real
    lam: Real
    mu: Real


def _conclusion(p: IneqParams) -> Real:
    """The quantity the summation inequality bounds, per vertex of B."""
    return (_sq_over(p.mu - p.x * p.gamma, p.y) + _sq_over(p.beta - p.mu, 1 - p.y)
            + 2 * p.beta * (p.lam + p.gamma) - p.x * p.gamma * p.gamma)


@dataclass(frozen=True)
class CheckReport:
    """The conclusion on an instance whose hypotheses all hold; a failing
    hypothesis raises `HypothesisViolated` instead."""
    conclusion_held: bool
    lhs: Real
    rhs: Real


def appliedineq_check(samples: Sequence[tuple[Real, Real]], params: IneqParams,
                      X_set: Iterable[int], Y_set: Iterable[int]) -> CheckReport:
    """Verify the summation inequality on a concrete sample set.

    samples[v] = (a(v), b(v)); X_set and Y_set index into samples.  The
    five hypothesis bullets are checked, not assumed.
    """
    n = len(samples)
    if n == 0:
        raise HypothesisViolated("bullet 1", "empty sample set")
    X = frozenset(X_set)
    Y = frozenset(Y_set)
    x, y, beta, gamma, lam, mu = (params.x, params.y, params.beta,
                                  params.gamma, params.lam, params.mu)
    if sum(b for _, b in samples) != beta * n:
        raise HypothesisViolated("bullet 1", "sum of b(v) differs from beta|B|")
    if any(a < lam for a, _ in samples):
        raise HypothesisViolated("bullet 2", "some a(v) below lambda")
    if len(X) != x * n:
        raise HypothesisViolated("bullet 3", "|X| differs from x|B|")
    if any(samples[v][0] < gamma + lam for v in range(n) if v not in X):
        raise HypothesisViolated("bullet 3", "a(v) below gamma+lambda off X")
    if len(Y) != y * n:
        raise HypothesisViolated("bullet 4", "|Y| differs from y|B|")
    if sum(samples[v][1] for v in Y) < mu * n:
        raise HypothesisViolated("bullet 4", "sum of b over Y below mu|B|")
    if beta < x * gamma or y * beta + x * (1 - y) * gamma > mu:
        raise HypothesisViolated("bullet 5", "parameter inequalities fail")
    lhs = sum(b * b + 2 * a * b for a, b in samples)
    rhs = _conclusion(params) * n
    return CheckReport(lhs >= rhs, lhs, rhs)


Edge = tuple[VertexRef, VertexRef]


def _mixed_four_cycle(g: BipartiteDigraph, R: frozenset[Edge],
                      S: frozenset[Edge]) -> bool:
    """Is there a directed 4-cycle with an edge in R and a different edge in S?
    g has no 2-cycle (checked first by the caller), so b2 != b1 and a1 != a2."""
    for b1 in range(g.b_size):
        for a2 in _bits(g.b_out[b1]):
            e1 = (VertexRef(Side.B, b1), VertexRef(Side.A, a2))
            for b2 in _bits(g.a_out[a2]):
                for a1 in _bits(g.b_out[b2]):
                    if not (g.a_out[a1] >> b1) & 1:
                        continue
                    e2 = (VertexRef(Side.B, b2), VertexRef(Side.A, a1))
                    if (e1 in R and e2 in S) or (e1 in S and e2 in R):
                        return True
    return False


def bellsandwhistles_check(g: BipartiteDigraph, R: Iterable[Edge], S: Iterable[Edge],
                           params: IneqParams, X_set: Iterable[VertexRef],
                           Y_set: Iterable[VertexRef]) -> CheckReport:
    """Check the six on-graph hypotheses, then the conclusion inequality.

    On hypothesis-holding instances the conclusion must hold (the statement
    is proved); a contrary instance signals an implementation bug.
    """
    R = frozenset(R)
    S = frozenset(S)
    na, nb = g.a_size, g.b_size
    for t, h in R | S:
        if t.side is not Side.B or h.side is not Side.A:
            raise BadEdgeSets(f"edge {t}->{h} does not run from B to A")
        if not (0 <= t.index < nb and 0 <= h.index < na and g.b_out[t.index] >> h.index & 1):
            raise BadEdgeSets(f"edge {t}->{h} not present in the digraph")
    x, y, beta, gamma, lam, mu = (params.x, params.y, params.beta,
                                  params.gamma, params.lam, params.mu)
    tails = [0] * nb  # per B-vertex, its edges in R plus its edges in S
    for t, _ in [*R, *S]:
        tails[t.index] += 1
    a_val = [Fraction(c, 2 * na) for c in tails]

    def b_index(v: VertexRef) -> int:
        if v.side is not Side.B or not 0 <= v.index < nb:
            raise IndexOutOfRange(f"{v} in X or Y is not one of B0..B{nb - 1}")
        return v.index

    X = frozenset(map(b_index, X_set))
    Y = frozenset(map(b_index, Y_set))

    if beta < x * gamma or y * beta + x * (1 - y) * gamma > mu:
        raise HypothesisViolated("bullet 1", "parameter inequalities fail")
    if any(m.bit_count() < beta * nb for m in g.a_out):
        raise HypothesisViolated("bullet 2", "A-vertex with out-degree below beta|B|")
    gr = girth(g)
    if gr is not None and gr.length < 4:
        raise HypothesisViolated("bullet 3", "girth below four")
    if _mixed_four_cycle(g, R, S):
        raise HypothesisViolated("bullet 3", "4-cycle with an R-edge and a different S-edge")
    if any(a < lam for a in a_val):
        raise HypothesisViolated("bullet 4", "some a(v) below lambda")
    if len(X) > x * nb:
        raise HypothesisViolated("bullet 5", "|X| exceeds x|B|")
    if any(a_val[j] < gamma + lam for j in range(nb) if j not in X):
        raise HypothesisViolated("bullet 5", "a(v) below gamma+lambda off X")
    if len(Y) > y * nb:
        raise HypothesisViolated("bullet 6", "|Y| exceeds y|B|")
    heads_in_y = sum(g.b_in[j].bit_count() for j in Y)
    if heads_in_y < mu * na * nb:
        raise HypothesisViolated("bullet 6", "fewer than mu|A||B| edges head in Y")

    lhs = _conclusion(params)
    return CheckReport(lhs <= beta, lhs, beta)


# ---------------------------------------------------------------------------
# Large-k threshold arithmetic
# ---------------------------------------------------------------------------

def threshold_k(r: int) -> int:
    """Threshold for the large-k hypothesis 2k^2 + 4(r+r^2)^2 + 4r^2 >
    k(r^3+8r^2+8r) (the stated inequality cleared of its half-integer term
    by doubling), with k >= r(r+2).

    Returns the least integer above the larger real root of the quadratic,
    rounded outward: the root (b + sqrt(D))/4 is replaced by the integer
    ceiling of (b + isqrt(D))/4 and the threshold sits strictly above it.
    This conservative rounding reproduces the stated thresholds exactly
    (r=0 -> 1, r=1 -> 8, r=74 -> 224539) in pure integer arithmetic; the
    small-root branch is excluded by the k >= r(r+2) side condition.  The
    discriminant b^2 - 8c is r^2((r^2 + 8r - 8)^2 + 192r - 64): 0 at r = 0
    and positive for r >= 1, so the real root always exists.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    b = r ** 3 + 8 * r * r + 8 * r
    c = 4 * (r + r * r) ** 2 + 4 * r * r
    k_lo = max(1, r * (r + 2))
    s = math.isqrt(b * b - 8 * c)
    above_root = -((b + s) // -4) + 1  # ceil((b+s)/4) + 1
    k = max(k_lo, above_root)
    if 2 * k * k + c <= b * k:
        raise RuntimeError("threshold must satisfy the cleared inequality")
    return k


def bigk_params(k: int, r: int) -> IneqParams:
    """Exact parameter substitution used at the end of the large-k argument."""
    return IneqParams(x=Fraction(2 * r, k), y=Fraction(1, 2),
                      beta=Fraction(1, k), gamma=Fraction(r, 2 * k),
                      lam=Fraction(k - r - 1, 2 * k), mu=Fraction(k - r, k * k))


def bigk_simplify_check(k: int, r: int) -> bool:
    """The conclusion expression at the large-k substitution simplifies, times
    k^4, to exactly k^2 + 2(r+r^2)^2 + 2r^2 - k(r^3/2 + 4r^2 + 4r)."""
    if not k > r >= 0:
        raise ValueError("need k > r >= 0")
    p = bigk_params(k, r)
    target = (k * k + 2 * (r + r * r) ** 2 + 2 * r * r
              - k * (Fraction(r ** 3, 2) + 4 * r * r + 4 * r))
    return (_conclusion(p) - p.beta) * k ** 4 == target


# ---------------------------------------------------------------------------
# Numeric fact catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactReport:
    fact_id: str
    description: str
    holds_everywhere: bool
    first_violation: Optional[Fraction]
    margin_min: Optional[Fraction]
    grid_step: Fraction
    points_checked: int  # grid points decided, not check calls


def _grid(lo: Fraction, hi: Fraction, step: Fraction,
          open_lo: bool, open_hi: bool) -> range:
    # the multipliers m whose point m*step lies in the interval
    start = math.ceil(lo / step)
    if open_lo and start * step == lo:
        start += 1
    stop = math.floor(hi / step)
    if open_hi and stop * step == hi:
        stop -= 1
    return range(start, stop + 1)


# A fact is decided at b = n/d (d > 0) in integers: its terms are integer
# polynomials in n, with denominators cleared by a multiplier positive on the
# fact's interval.  Its rule takes the verdict from their signs alone, and its
# margins, pairs (num, den) with den > 0, each linear in n, or concave or
# monotone in b there, so least at an end of a run of constant signs.
# A point fact (F4, F9) has the one-point interval [0, 0]: it reads neither n nor d.
_CAP = 4  # F8's numerators are quartic


def _f1(n, d):
    # (3b - 1/2)(1 - b) >= (1 - 2b)b times 2d^2 > 0 implies b > 0.219 times 1000d
    return (6 * n - d) * (d - n) - 2 * (d - 2 * n) * n, 1000 * n - 219 * d


def _f2(n, d):
    # b*delta3 <= (1 - b*delta3)/(1 - 2b) times 1000d^2(1 - 2b) > 0 on (0, 0.223]
    # implies b < 0.223 times 1000d
    return d * (1000 * d - 2886 * n) - 2886 * n * (d - 2 * n), 223 * d - 1000 * n


def _f3(n, d):
    # (1 - 2b)b/(3b - 1/2) - (1 - b*delta3)/(1 - 2b) over 1000d(6n - d)(d - 2n),
    # which is > 0 as 1/6 < b < 1/2.  The margin falls across (0.219, 0.223):
    # its derivative has real roots near 0.2695 and 1.0572 only, and its poles
    # are at 1/6 and 1/2
    return (2000 * n * (d - 2 * n) ** 2 - d * (6 * n - d) * (1000 * d - 2886 * n),
            1000 * d * (6 * n - d) * (d - 2 * n))


def _f4(_n, _d):
    return (Fraction(258, 1000) - 1 / (1 + DELTA3)).as_integer_ratio()


def _f5(n, d):
    # (1 - b*delta4) - (b/5 + 9/(3 + 5b) - 2) over 10000d(3d + 5n) > 0, as b > 0.
    # The margin 3 - 3.6814b - 9/(3 + 5b) is concave
    return ((3 * d + 5 * n) * (30000 * d - 36814 * n) - 90000 * d * d,
            10000 * d * (3 * d + 5 * n))


def _f6(n, d):
    # (4/5 - 2b)b <= (1 - b)(1/delta4 - b) times 5*34814*d^2 > 0 implies
    # b < 0.19 times 100d
    return (5 * (d - n) * (10000 * d - 34814 * n) - 34814 * n * (4 * d - 10 * n),
            19 * d - 100 * n)


def _f7(n, d):
    # m1 = 5b/(3 + 5b) + 3b/5 - 0.32 over 100d(3d + 5n) > 0, as b > 0;
    # m2 = (2/5 - b)(3/5 + 1/(1 - b)) - 0.38 over 100d(d - n) > 0, as b < 1.
    # m1 = 1 - 3/(3 + 5b) + 3b/5 - 0.32 and m2 = (2/5 - b)3/5 + 1 - (3/5)/(1 - b)
    # - 0.38 are concave, and so is the lesser of them
    return (500 * n * d + (3 * d + 5 * n) * (60 * n - 32 * d), 100 * d * (3 * d + 5 * n),
            4 * (2 * d - 5 * n) * (8 * d - 3 * n) - 38 * d * (d - n), 100 * d * (d - n))


def _f8(n, d):
    # the final display of the girth-8 argument must exceed 1 throughout; the
    # left side is concave in alpha, so its minimum over [2/5 - beta, 1/2] is
    # at an endpoint.  With xp = p/q and u = 2*alpha - 0.38 = w/(50d) there,
    # the display minus 1 is num/(25dnq^2) at each end w; 25dnq^2 > 0, as
    # b > 0.17 > 0.072 makes n > 0 and q > 0.  Both margins are concave on
    # (0.17, 0.19): their second-derivative numerators have roots at 0.1215
    # and 0.5813, and at -1.0628 and 0.1478, and their denominators vanish
    # only at 0 and 0.0714
    p = 44814 * n - 5000 * d
    q = 44814 * n - 3200 * d
    tail = n * q * q * (25 * n - 6 * d)
    return tuple(t for w in (21 * d - 100 * n, 31 * d)
                 for t in (w * p * (n * q - 18 * w * d) + tail, 25 * d * n * q * q))


def _f9(_n, _d):
    m1 = DELTA12 / 49 - Fraction(2667, 10000) * Fraction(3993, 10000)
    m2 = Fraction(2667, 10000) - (1 - DELTA12 / 7)
    return (*m1.as_integer_ratio(), *m2.as_integer_ratio())


# representative values c = delta/k: 1/2, 3/4, delta3/3, 1 - 74/224539
_F10_RATIOS = ((1, 2), (3, 4), (2886, 3000), (224465, 224539))


def _f10(n, d):
    # out-degree-counting step as a biconditional in the ratio xi = |X|/|B|:
    # c <= xi/2 + (1 - xi) times 2d*cd > 0 iff xi <= 2(1 - c) times d*cd > 0.
    # Both terms of each pair expand to 2d*cd - 2d*cn - n*cd: F10 is an
    # identity, and holds at every b
    return tuple(t for cn, cd in _F10_RATIOS
                 for t in (cd * (2 * d - n) - 2 * d * cn, 2 * d * (cd - cn) - n * cd))


def _f11(n, d):
    # 0.36 + 2b + (6b - 0.64)/5 <= 1 times 500d > 0, iff b <= 0.24 times 100d > 0
    return 500 * d - 1600 * n - 116 * d, 24 * d - 100 * n


def _implies(scale):  # F1, F2, F6: P >= 0 implies L > 0, margin L/(scale*d)
    return lambda t, d: (t[1] > 0, [(t[1], scale * d)]) if t[0] >= 0 else (True, [])


def _iff(t, _d):  # F10, F11: a >= 0 iff b >= 0 for each pair (a, b) of terms
    return all((a >= 0) == (b >= 0) for a, b in zip(t[::2], t[1::2])), []


def _least(*strict):  # F3, F4, F5, F7, F8, F9: for each pair (v, w) of terms
    # v > 0, or v >= 0 where its flag is False, and each v/w is a margin
    return lambda t, _d: (all(v > 0 if s else v >= 0 for s, v in zip(strict, t[::2])),
                          list(zip(t[::2], t[1::2])))


@dataclass(frozen=True)
class _Fact:
    terms: Callable  # (n, d) -> the fact's terms
    rule: Callable  # (terms, d) -> (verdict, margins)
    lo: Fraction
    hi: Fraction
    open_lo: bool
    open_hi: bool
    description: str


_CATALOG: dict[str, _Fact] = {
    "F1": _Fact(_f1, _implies(1000), Fraction(0), Fraction(1, 2), True, False,
                "in-degree premise forces beta > 0.219"),
    "F2": _Fact(_f2, _implies(1000), Fraction(0), Fraction(223, 1000), True, False,
                "delta3 comparison forces beta < 0.223"),
    "F3": _Fact(_f3, _least(False), Fraction(219, 1000), Fraction(223, 1000), True, True,
                "second lower bound dominates on (0.219, 0.223)"),
    "F4": _Fact(_f4, _least(True), Fraction(0), Fraction(0), False, False,
                "1/(1+delta3) < 0.258"),
    "F5": _Fact(_f5, _least(True), Fraction(0), Fraction(1, 5), True, False,
                "1 - beta*delta4 exceeds the rational bound on (0, 1/5]"),
    "F6": _Fact(_f6, _implies(100), Fraction(0), Fraction(1, 5), True, False,
                "edge-count premise forces beta < 0.19"),
    "F7": _Fact(_f7, _least(False, False), Fraction(17, 100), Fraction(19, 100), True, True,
                "y >= 0.32 and z >= 0.38 on (0.17, 0.19)"),
    "F8": _Fact(_f8, _least(True, True), Fraction(17, 100), Fraction(19, 100), True, True,
                "final girth-8 display exceeds 1 throughout (0.17, 0.19)"),
    "F9": _Fact(_f9, _least(False, True), Fraction(0), Fraction(0), False, False,
                "girth-12 chain: 0.2667 in-degree and 0.2667 > 1 - delta/7"),
    "F10": _Fact(_f10, _iff, Fraction(0), Fraction(1), False, False,
                 "|X| counting step as a biconditional in |X|/|B|"),
    "F11": _Fact(_f11, _iff, Fraction(0), Fraction(1, 2), True, False,
                 "0.36 + 2b + (6b-0.64)/5 <= 1 iff b <= 0.24"),
}


def _flips(coeffs: list[int], points: range) -> set[int]:
    """The first index of `points` and each index where v >= 0 or v >= 1
    flips, for v(m) = the sum of coeffs[k] * C(m - points.start, k).  Between
    the flips of its forward difference, whose coefficients are coeffs[1:], v
    is monotone, so there each flips at most once, and bisection finds where."""
    if len(coeffs) < 2:
        return set(points[:1])
    cuts = sorted(_flips(coeffs[1:], points)) + [points.stop]

    def v(m):
        return sum(c * math.comb(m - points.start, k) for k, c in enumerate(coeffs))

    starts = set(cuts[:-1])
    for piece in map(range, cuts, cuts[1:]):
        for least in (0, 1):
            first = v(piece[0]) >= least
            if (v(piece[-1]) >= least) != first:
                starts.add(piece[bisect.bisect_left(
                    piece, True, key=lambda m: (v(m) >= least) != first)])
    return starts


def _run_ends(terms: Callable, p: int, q: int, points: range) -> list[int]:
    """The first and last index of each run of `points` on which no term at
    (m*p, q), in forward-difference form from its first _CAP + 2 values, changes sign."""
    starts = set()
    for values in zip(*(terms(m * p, q) for m in range(points.start, points.start + _CAP + 2))):
        coeffs = []
        while values:
            coeffs.append(values[0])
            values = [b - a for a, b in zip(values, values[1:])]
        if coeffs[-1]:
            raise AssertionError(f"a term above degree {_CAP} in n")
        while len(coeffs) > 1 and not coeffs[-1]:
            coeffs.pop()
        starts |= _flips(coeffs, points)
    starts = sorted(starts)
    return [m for a, b in zip(starts, starts[1:] + [points.stop]) for m in (a, b - 1)]


def fact_scan(fact_id: str, step: Fraction = Fraction(1, 100000)) -> FactReport:
    """Decide a catalogued fact at every grid point m*step of its interval.

    With step = p/q the terms see the point as (m*p, q); margins are
    compared by cross-multiplication, and only the reported first violation
    and least margin become Fractions.  The rule is read only at the two ends
    of each run of `_run_ends`: on a run its verdict is constant and its
    margins are least at an end, so each point is decided."""
    fact = _CATALOG.get(fact_id)
    if fact is None:
        raise UnknownFact(f"no fact {fact_id!r} (known: {list(_CATALOG)})")
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    p, q = step.numerator, step.denominator
    points = _grid(fact.lo, fact.hi, step, fact.open_lo, fact.open_hi)
    first_violation = low = None
    for m in _run_ends(fact.terms, p, q, points):
        ok, margins = fact.rule(fact.terms(m * p, q), q)
        if not ok and first_violation is None:
            first_violation = Fraction(m * p, q)
        for margin in margins:
            if low is None or margin[0] * low[1] < low[0] * margin[1]:
                low = margin
    return FactReport(fact_id, fact.description, first_violation is None,
                      first_violation, None if low is None else Fraction(*low),
                      step, len(points))


def all_fact_ids() -> list[str]:
    return list(_CATALOG)


def f1_root_bracket() -> tuple[Fraction, Fraction]:
    """The grid points of step 1/10^9 on either side of the irrational root of
    (3b - 1/2)(1-b) = (1-2b)b near 0.219, at which F1's premise term splits the
    grid over [0.21, 0.23) into exactly two runs."""
    q = 10 ** 9
    _, lo, hi, _ = _run_ends(lambda n, d: _f1(n, d)[:1], 1, q,
                             range(21 * q // 100, 23 * q // 100))
    return Fraction(lo, q), Fraction(hi, q)
