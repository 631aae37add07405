"""Exact-rational classification of compliance points into Good/Bad/Unknown.

A point (alpha, beta) is Good at k when a proved theorem forces girth at
most 2k' for some k' <= k; Bad when a circulant construction (or a
degenerate zero-coordinate witness) complies with it and has girth more
than 2k; Unknown otherwise.  All comparisons are exact; the strictness of
every rule matches the proved statement it encodes.
"""

from __future__ import annotations

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
        if not (0 <= self.alpha <= 1 and 0 <= self.beta <= 1):
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


def _good_rule(k: int, p: AlphaBeta) -> Optional[str]:
    """First proved rule forcing girth <= 2k' for some k' <= k, else None.

    All rules require both coordinates positive (the theorems' hypotheses)."""
    a, b = p.alpha, p.beta
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


def _bad_witness(k: int, p: AlphaBeta) -> Optional[BadWitness]:
    a, b = p.alpha, p.beta
    if a == 0 or b == 0:
        return BadWitness(t=None)
    # only t with 1/(kt+1) >= min(a,b) can dominate the point
    t_bound = int((1 / min(a, b) - 1) // k)
    for t in range(1, t_bound + 1):
        n = k * t + 1
        if a <= Fraction(t, n) and b <= Fraction(1, n):
            return BadWitness(t=t)
        if a <= Fraction(1, n) and b <= Fraction(t, n):
            return BadWitness(t=t, mirrored=True)
    return None


def classify(k: int, p: AlphaBeta) -> Verdict:
    """Good/Bad/Unknown verdict with provenance; Good and Bad are checked
    against each other and may never both fire."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rule = _good_rule(k, p)
    witness = _bad_witness(k, p)
    assert not (rule and witness), f"point {p} derivable both Good and Bad"
    if rule:
        return Verdict(Status.GOOD, rule=rule)
    if witness:
        return Verdict(Status.BAD, witness=witness)
    return Verdict(Status.UNKNOWN)


def region_grid(k: int, resolution: int) -> Iterator[tuple[Fraction, Fraction, Verdict]]:
    """Classify the (resolution+1)^2 lattice over [0,1]^2, lexicographic order."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    for i in range(resolution + 1):
        for j in range(resolution + 1):
            a = Fraction(i, resolution)
            b = Fraction(j, resolution)
            yield a, b, classify(k, AlphaBeta(a, b))


def region_csv(k: int, resolution: int) -> str:
    lines = ["alpha,beta,status,provenance"]
    for a, b, v in region_grid(k, resolution):
        lines.append(f"{a},{b},{v.status.value},{v.provenance}")
    return "\n".join(lines) + "\n"


_SVG_COLORS = {Status.GOOD: "#9be29b", Status.BAD: "#e89b9b", Status.UNKNOWN: "#d9d9d9"}


def region_svg(k: int, resolution: int) -> str:
    """Chart of the classified grid, 600 pixels square; for k=2 this mirrors
    the staircase of bad construction points and the lines 2a+b=1, a+2b=1."""
    size = 600
    cell = size / resolution
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">']
    for a, b, v in region_grid(k, resolution):
        x = float(a) * size
        y = size - float(b) * size - cell
        parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell:.2f}" '
                     f'height="{cell:.2f}" fill="{_SVG_COLORS[v.status]}"/>')
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
