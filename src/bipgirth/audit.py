"""Audits that replay the proved layer-size dichotomies on concrete digraphs.

Both theorems audited here are proved, so a reported violation means the
layer machinery (or the audit itself) is buggy; the audits are the
strongest available oracle for that machinery.  The exception is a
`bigset` audit at a claimed-only delta (`DELTA12`): it rests on an unproved
constant, so a violation there may refute the claim, not expose a bug; its
report's detail ends in " (claimed only)".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .digraph import (
    BipartiteDigraph,
    Side,
    VertexRef,
    _layers,
    compliance_profile,
    forward_layers,
    girth,
    is_compliant,
    star_union,
)
from .errors import PreconditionViolated
from .lemmas import CheckReport, IneqParams, bellsandwhistles_check, delta_table


@dataclass(frozen=True)
class AuditEntry:
    i: int
    layer_size: int      # bigindeg: |M1(v)| + |M3(v)|
    ok: bool


@dataclass(frozen=True)
class BigsetEntry(AuditEntry):
    branch: str          # "layer", "star", "both" or "none"
    star_size: int       # |N*_{i-1}(v)|


@dataclass(frozen=True)
class AuditReport:
    kind: str
    passed: bool
    entries: tuple[AuditEntry, ...]  # BigsetEntry from audit_bigset
    detail: str = ""


def audit_bigset(g: BipartiteDigraph, k: int, alpha: Fraction, beta: Fraction,
                 delta: Fraction, v: VertexRef,
                 horizon: Optional[int] = None) -> AuditReport:
    """Check, for each i up to the horizon, that either layer i is large
    or the star union below it is very large (side-appropriate thresholds)."""
    if horizon is not None and horizon < 1:
        raise ValueError(f"horizon {horizon} is below 1")
    entry = next((e for e in delta_table(k) if e.delta == delta), None)
    if entry is None:
        raise PreconditionViolated(f"delta={delta} is not a table entry at k={k}")
    if horizon is None:
        horizon = 2 * k + 2
    layers = forward_layers(g, v, horizon)  # rejects a bad v before the girth BFS
    if not is_compliant(g, alpha, beta):
        raise PreconditionViolated("digraph is not (alpha,beta)-compliant")
    gr = girth(g)
    if gr is not None and gr.length <= 2 * k:
        raise PreconditionViolated(f"girth {gr.length} is not more than 2k={2 * k}")
    entries = []
    for i in range(1, horizon + 1):
        layer = layers[i]
        layer_side = v.side if i % 2 == 0 else v.side.complement
        if layer_side is Side.A:
            layer_bar = alpha * g.a_size
            star_bar = beta * delta * g.b_size
        else:
            layer_bar = beta * g.b_size
            star_bar = alpha * delta * g.a_size
        star_size = len(star_union(layers, i - 1)) if i >= 2 else 0
        by_layer = len(layer) >= layer_bar
        by_star = star_size > star_bar
        branch = {(True, True): "both", (True, False): "layer",
                  (False, True): "star", (False, False): "none"}[(by_layer, by_star)]
        entries.append(BigsetEntry(i, len(layer), by_layer or by_star, branch, star_size))
    passed = all(e.ok for e in entries)
    return AuditReport("bigset", passed, tuple(entries),
                       detail=f"v={v}, k={k}, delta={delta}"
                              + (" (claimed only)" if entry.claimed_only else ""))


def audit_bigindeg(g: BipartiteDigraph, alpha: Fraction, beta: Fraction) -> AuditReport:
    """Some B-vertex has |M1(v)| + |M3(v)| at least (alpha+beta)|A|."""
    if not is_compliant(g, alpha, beta):
        raise PreconditionViolated("digraph is not (alpha,beta)-compliant")
    gr = girth(g)
    if gr is not None and gr.length < 4:
        raise PreconditionViolated(f"girth {gr.length} below four")
    needed = (alpha + beta) * g.a_size
    best = -1
    best_v = None
    entries = []
    # the backward layers as masks: one reversed adjacency, no vertex sets
    radj = g.reverse().out
    for j in range(g.b_size):
        v = VertexRef(Side.B, j)
        masks = _layers(radj, g.a_size + j, 3)
        total = masks[1].bit_count() + masks[3].bit_count()
        if total > best:
            best = total
            best_v = v
        entries.append(AuditEntry(j, total, total >= needed))
    passed = best >= needed
    return AuditReport("bigindeg", passed, tuple(entries),
                       detail=f"max |M1|+|M3| = {best} at {best_v}, "
                              f"needed {needed}")


def audit_bells(g: BipartiteDigraph) -> CheckReport:
    """The bells-and-whistles inequality with R = S = all B-to-A edges and
    the parameters measured from g: (lambda, beta) is its compliance
    profile, mu = beta, x = gamma = 0 and y = 1."""
    edges = [(t, h) for t, h in g.edges() if t.side is Side.B]
    lam, beta = compliance_profile(g)
    params = IneqParams(x=Fraction(0), y=Fraction(1), beta=beta,
                        gamma=Fraction(0), lam=lam, mu=beta)
    y_all = [VertexRef(Side.B, j) for j in range(g.b_size)]
    return bellsandwhistles_check(g, edges, edges, params, [], y_all)
