"""Exact classification of compliance points into Good/Bad/Unknown.

A point (alpha, beta) is Good at k when a proved theorem forces girth at
most 2k' for some k' <= k; Bad when a circulant construction (or a
degenerate zero-coordinate witness) complies with it and has girth more
than 2k; Unknown otherwise.  The strictness of every rule matches the
proved statement it encodes.

The point is decided in integers, in O(1) steps.  Written as (x/d, y/d),
with d > 0 the lcm of its two denominators, each rule is compared with
its denominators cleared:

    k'   rule                         integer form
    1    alpha+beta > 1               x+y > d
    2    2*alpha+beta > 1             2x+y > d
    2    alpha+2*beta > 1             x+2y > d
    3    alpha+beta > 1/2             2(x+y) > d
    4    alpha+beta > 2/5             5(x+y) > 2d
    6    min(alpha,beta) > 1/7        7*min(x,y) > d
    k    min(alpha,beta) > 1/(k+1)    (k+1)*min(x,y) > d,  k >= LARGE_K_START

A rule applies at k when k >= k' and both coordinates are positive (the
theorems' hypotheses); the first that applies, in this order, names it.

The bad pair (t/(kt+1), 1/(kt+1)) dominates the point when x(kt+1) <= td
and y(kt+1) <= d.  The first bound reads t(d - kx) >= x: with x > 0 it
can hold only when d > kx, and then it holds exactly from
t = max(1, ceil(x/(d - kx))) on.  The second bound only gets harder as t
grows, so if it fails at that least t it fails at every t the first
bound allows: the least t is the only candidate to test.  The mirrored
pair swaps x and y.  Among the witnesses the least t wins and, at equal
t, the plain pair before the mirrored one.  A zero coordinate is
dominated by the axis witness.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Optional

LARGE_K_START = 224539  # first k of the proved large-k range


@dataclass(frozen=True)
class AlphaBeta:
    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        a, b = self.alpha, self.beta
        if not (0 <= a.numerator <= a.denominator and 0 <= b.numerator <= b.denominator):
            raise ValueError(f"({self.alpha},{self.beta}) outside [0,1]^2")


class Status(Enum):
    GOOD = "good"
    BAD = "bad"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class BadWitness:
    t: Optional[int]      # None for the degenerate zero-coordinate witness
    mirrored: bool = False  # True: witness pair is (1/(kt+1), t/(kt+1))

    def __str__(self) -> str:
        if self.t is None:
            return "axis"
        return f"t={self.t}" + (",mirrored" if self.mirrored else "")


@dataclass(frozen=True)
class Verdict:
    status: Status
    rule: Optional[str] = None          # Good provenance
    witness: Optional[BadWitness] = None  # Bad provenance

    @property
    def provenance(self) -> str:
        if self.status is Status.GOOD:
            return f"rule:{self.rule}"
        if self.status is Status.BAD:
            return f"witness:{self.witness}"
        return ""

    @functools.cached_property
    def _csv(self) -> str:
        # formatted once per Verdict, which `_verdict` shares among points
        return f"{self.status.value},{self.provenance}"


def bad_pairs(k: int, t_max: int) -> list[AlphaBeta]:
    """Maximal bad pairs (t/(kt+1), 1/(kt+1)) and mirrors, t = 1..t_max."""
    if k < 1 or t_max < 1:
        raise ValueError("k and t_max must be positive")
    out = []
    for t in range(1, t_max + 1):
        n = k * t + 1
        out.append(AlphaBeta(Fraction(t, n), Fraction(1, n)))
        if t > 1:
            out.append(AlphaBeta(Fraction(1, n), Fraction(t, n)))
    return out


def _least_t(k: int, x: int, y: int, d: int) -> Optional[int]:
    """Least t >= 1 with x(kt+1) <= td and y(kt+1) <= d, or None (x > 0)."""
    if d <= k * x:
        return None
    t = max(1, -(-x // (d - k * x)))
    return t if y * (k * t + 1) <= d else None


@functools.lru_cache(maxsize=4096)
def _verdict(status: str, rule: Optional[str] = None, t: Optional[int] = None,
             mirrored: bool = False) -> Verdict:
    # keyed on the Status's value: hashing a Status is a Python call
    witness = BadWitness(t, mirrored) if status == "bad" else None
    return Verdict(Status(status), rule, witness)


def _classify(k: int, x: int, y: int, d: int) -> Verdict:
    """Verdict at the point (x/d, y/d), d > 0, by the integer rules and the
    least bad t of the module docstring."""
    if x == 0 or y == 0:
        return _verdict("bad")
    s = x + y
    rule = ("k'=1: alpha+beta>1" if s > d
            else "k'=2: 2*alpha+beta>1" if k >= 2 and 2 * x + y > d
            else "k'=2: alpha+2*beta>1" if k >= 2 and x + 2 * y > d
            else "k'=3: alpha+beta>1/2" if k >= 3 and 2 * s > d
            else "k'=4: alpha+beta>2/5" if k >= 4 and 5 * s > 2 * d
            else "k'=6: min(alpha,beta)>1/7" if k >= 6 and 7 * min(x, y) > d
            else f"k'={k}: min(alpha,beta)>1/{k + 1}"
            if k >= LARGE_K_START and (k + 1) * min(x, y) > d else None)
    plain, mirror = _least_t(k, x, y, d), _least_t(k, y, x, d)
    assert not (rule and (plain or mirror)), f"({x}/{d},{y}/{d}) both Good and Bad"
    if rule:
        return _verdict("good", rule)
    if plain is None and mirror is None:
        return _verdict("unknown")
    mirrored = plain is None or mirror is not None and mirror < plain
    return _verdict("bad", None, mirror if mirrored else plain, mirrored)


def classify(k: int, p: AlphaBeta) -> Verdict:
    """Good/Bad/Unknown verdict with provenance; Good and Bad are checked
    against each other and may never both fire.  The point is put over the
    lcm of its two denominators and decided in integers."""
    if k < 1:
        raise ValueError("k must be >= 1")
    x, d = p.alpha.as_integer_ratio()
    y, e = p.beta.as_integer_ratio()
    m = math.lcm(d, e)
    return _classify(k, x * (m // d), y * (m // e), m)


def region_grid(k: int, resolution: int) -> Iterator[tuple[Fraction, Fraction, Verdict]]:
    """Classify the (resolution+1)^2 lattice over [0,1]^2, lexicographic order."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    axis = [Fraction(i, resolution) for i in range(resolution + 1)]
    for a in axis:
        for b in axis:
            yield a, b, classify(k, AlphaBeta(a, b))


def region_csv(k: int, resolution: int) -> str:
    axis = [str(Fraction(i, resolution)) for i in range(resolution + 1)]
    cells = (f"{a},{b}," for a in axis for b in axis)  # in region_grid's order
    rows = (cell + v._csv for cell, (_, _, v) in zip(cells, region_grid(k, resolution)))
    return "\n".join(["alpha,beta,status,provenance", *rows, ""])  # one copy of the text


_SVG_COLORS = {"good": "#9be29b", "bad": "#e89b9b", "unknown": "#d9d9d9"}  # by Status value


def region_svg(k: int, resolution: int) -> str:
    """Chart of the classified grid, 600 pixels square; for k=2 this mirrors
    the staircase of bad construction points and the lines 2a+b=1, a+2b=1."""
    size = 600
    cell = size / (resolution + 1)  # the (resolution+1)^2 cells tile the canvas
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">']
    for n, (_, _, v) in enumerate(region_grid(k, resolution)):
        i, j = divmod(n, resolution + 1)  # the point (i/resolution, j/resolution)
        x, y = i * cell, size - (j + 1) * cell
        parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell:.2f}" '
                     f'height="{cell:.2f}" fill="{_SVG_COLORS[v.status._value_]}"/>')
    # boundary lines k*a+b=1 and a+k*b=1
    def pt(a: float, b: float) -> str:
        return f"{a * size:.2f},{size - b * size:.2f}"

    parts.append(f'<polyline points="{pt(1 / k, 0)} {pt(0, 1)}" '
                 'stroke="black" stroke-dasharray="4" fill="none"/>')
    parts.append(f'<polyline points="{pt(0, 1 / k)} {pt(1, 0)}" '
                 'stroke="black" stroke-dasharray="4" fill="none"/>')
    for p in bad_pairs(k, 6):
        parts.append(f'<circle cx="{float(p.alpha) * size:.2f}" '
                     f'cy="{size - float(p.beta) * size:.2f}" r="3" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
