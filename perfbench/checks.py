"""Reference computations the benchmark checks program output against.

Everything here is written apart from `bipgirth`: plain label strings
("A3", "B12"), adjacency as dicts of lists, and exact `Fraction`s.  A
check returns None when the output is right and a one-line reason when
it is wrong, so that the runner can count the operation as failed and
say why.
"""

from __future__ import annotations

import json
import math
from collections import deque
from fractions import Fraction

# ---------------------------------------------------------------------------
# Edge lists and graph helpers
# ---------------------------------------------------------------------------


def read_edge_list(text):
    """(a_size, b_size, adjacency) from a `bipartite a b` edge-list text."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    head = lines[0]
    if head[0] != "bipartite" or len(head) != 3:
        raise ValueError(f"not a bipartite edge list: {head}")
    a_size, b_size = int(head[1]), int(head[2])
    adj = {f"A{i}": [] for i in range(a_size)}
    adj.update({f"B{j}": [] for j in range(b_size)})
    for tail, head_v in lines[1:]:
        adj[tail].append(head_v)
    return a_size, b_size, adj


def bfs_layers(adj, source, max_i):
    """Exact-distance layers 0..max_i from source, each a set of labels."""
    dist = {source: 0}
    layers = [{source}]
    frontier = [source]
    for d in range(1, max_i + 1):
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        layers.append(set(nxt))
        frontier = nxt
    return layers


def shortest_cycle(adj):
    """Length of the shortest directed cycle, or None if acyclic.

    For each start v, a BFS gives dist(v, u); the shortest cycle through
    v closes with an edge u -> v and has length dist(v, u) + 1.
    """
    best = None
    for v in adj:
        dist = {v: 0}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            if best is not None and dist[u] + 1 >= best:
                break
            for w in adj[u]:
                if w == v:
                    best = dist[u] + 1
                    queue.clear()
                    break
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
    return best


def side_sort_key(label):
    return (label[0], int(label[1:]))


# ---------------------------------------------------------------------------
# girth_large
# ---------------------------------------------------------------------------


def check_girth(out, edges, expected_length):
    """`girth FILE` output: the length must be `expected_length` and the
    printed cycle must run along edges of the file through distinct vertices."""
    lines = out.splitlines()
    if len(lines) != 2 or not lines[0].startswith("girth ") \
            or not lines[1].startswith("cycle "):
        return f"unexpected girth output {out[:60]!r}"
    length = int(lines[0].split()[1])
    if length != expected_length:
        return f"girth {length}, expected {expected_length}"
    cycle = lines[1].split()[1:]
    if len(cycle) != length or len(set(cycle)) != length:
        return f"cycle of {len(cycle)} vertices ({len(set(cycle))} distinct) for girth {length}"
    for i, u in enumerate(cycle):
        w = cycle[(i + 1) % length]
        if (u, w) not in edges:
            return f"cycle edge {u}->{w} is not in the file"
    return None


def check_layers(out, adj, source, max_i):
    expected = bfs_layers(adj, source, max_i)
    lines = out.splitlines()
    if len(lines) != max_i + 1:
        return f"{len(lines)} layer lines, expected {max_i + 1}"
    for i, line in enumerate(lines):
        prefix, _, members = line.partition(":")
        want = " ".join(sorted(expected[i], key=side_sort_key))
        if prefix != str(i) or members.strip() != want:
            return f"layer {i} differs from the reference BFS"
    return None


def check_comply(out, a_size, b_size, adj, alpha, beta):
    """`comply` output against out-degrees counted from the edge list."""
    min_a = min(len(adj[f"A{i}"]) for i in range(a_size))
    min_b = min(len(adj[f"B{j}"]) for j in range(b_size))
    want_profile = (Fraction(min_b, a_size), Fraction(min_a, b_size))
    want_ok = min_a >= beta * b_size and min_b >= alpha * a_size
    want = (f"profile {want_profile[0]} {want_profile[1]}\n"
            f"compliant {str(want_ok).lower()}\n")
    return None if out == want else f"comply printed {out!r}, expected {want!r}"


def check_audit(out):
    rep = json.loads(out)
    if rep.get("kind") != "bigset" or rep.get("passed") is not True:
        return f"audit bigset did not pass: {rep.get('detail')}"
    if not rep.get("entries"):
        return "audit bigset reported no entries"
    return None


# ---------------------------------------------------------------------------
# search_small
# ---------------------------------------------------------------------------


def witness_problem(text, na, nb, k, alpha, beta):
    """Why an edge-list witness is not a compliant digraph of girth > 2k,
    or None if it is one."""
    a_size, b_size, adj = read_edge_list(text)
    if (a_size, b_size) != (na, nb):
        return f"witness is {a_size}x{b_size}, expected {na}x{nb}"
    d_a, d_b = math.ceil(beta * nb), math.ceil(alpha * na)
    for v, outs in adj.items():
        need = d_a if v[0] == "A" else d_b
        if len(set(outs)) < need:
            return f"{v} has out-degree {len(set(outs))} < {need}"
    g = shortest_cycle(adj)
    if g is not None and g <= 2 * k:
        return f"witness has a cycle of length {g} <= 2k = {2 * k}"
    return None


def check_search(out, rc, cfg):
    """A `search` JSON report and exit code against what the paper forces.

    cfg: dict with na, nb, k, alpha, beta, expect ("exhausted", "witness"
    or "limit") and, for "limit", the node limit.
    """
    rep = json.loads(out)
    status = rep["status"]
    if rc != (2 if status == "FoundCounterexample" else 0):
        return f"exit code {rc} with status {status}"
    if status == "FoundCounterexample":
        if cfg["expect"] == "exhausted":
            return "found a witness where the paper forces Exhausted"
        return witness_problem(rep["witness"], cfg["na"], cfg["nb"], cfg["k"],
                               cfg["alpha"], cfg["beta"])
    if cfg["expect"] == "witness":
        return f"status {status}, expected a witness"
    if cfg["expect"] == "exhausted":
        return None if status == "Exhausted" else f"status {status}, expected Exhausted"
    if status != "LimitReached" or rep["nodes_explored"] != cfg["limit"]:
        return (f"status {status} after {rep['nodes_explored']} samples, "
                f"expected LimitReached at {cfg['limit']}")
    return None


def check_eulerian(reports):
    bad = [r.status.value for r in reports if r.status.value != "Exhausted"]
    if not reports or bad:
        return f"eulerian sweep statuses {bad}, all must be Exhausted"
    return None


def automorphisms_by_matcher(n, a_out, b_out):
    """Side-preserving automorphisms counted by networkx DiGraphMatcher."""
    import networkx as nx
    from networkx.algorithms.isomorphism import DiGraphMatcher

    g = nx.DiGraph()
    for i in range(n):
        g.add_node(f"A{i}", side="A")
        g.add_node(f"B{i}", side="B")
    for i, outs in enumerate(a_out):
        g.add_edges_from((f"A{i}", f"B{j}") for j in outs)
    for j, outs in enumerate(b_out):
        g.add_edges_from((f"B{j}", f"A{i}") for i in outs)
    gm = DiGraphMatcher(g, g, node_match=lambda x, y: x["side"] == y["side"])
    return sum(1 for _ in gm.isomorphisms_iter())


def check_automorphisms(count, expected, n):
    if count != expected:
        return f"automorphism_count {count}, DiGraphMatcher counts {expected}"
    if count % n:
        return f"automorphism_count {count} is not a multiple of n = {n}"
    return None


def check_canonical(codes):
    return None if len(set(codes)) == 1 else "canonical_code differs across relabelings"


# ---------------------------------------------------------------------------
# lemma_lab
# ---------------------------------------------------------------------------

# The interval each fact is stated on: (lo, hi, lo open, hi open).
FACT_INTERVALS = {
    "F1": (Fraction(0), Fraction(1, 2), True, False),
    "F2": (Fraction(0), Fraction(223, 1000), True, False),
    "F3": (Fraction(219, 1000), Fraction(223, 1000), True, True),
    "F4": (Fraction(0), Fraction(0), False, False),
    "F5": (Fraction(0), Fraction(1, 5), True, False),
    "F6": (Fraction(0), Fraction(1, 5), True, False),
    "F7": (Fraction(17, 100), Fraction(19, 100), True, True),
    "F8": (Fraction(17, 100), Fraction(19, 100), True, True),
    "F9": (Fraction(0), Fraction(0), False, False),
    "F10": (Fraction(0), Fraction(1), False, False),
    "F11": (Fraction(0), Fraction(1, 2), True, False),
}


def grid_point_count(lo, hi, open_lo, open_hi, step):
    """Multiples of step in the interval; a point fact is one evaluation."""
    if lo == hi:
        return 1
    first, last = lo / step, hi / step
    m_lo = math.floor(first) + 1 if open_lo or first.denominator != 1 else int(first)
    m_hi = math.ceil(last) - 1 if open_hi or last.denominator != 1 else int(last)
    return max(0, m_hi - m_lo + 1)


def check_facts(out):
    entries = json.loads(out)
    ids = [e["fact_id"] for e in entries]
    if ids != list(FACT_INTERVALS):
        return f"fact ids {ids}, expected {list(FACT_INTERVALS)}"
    failing = [e["fact_id"] for e in entries if e["holds"] is not True]
    return f"facts {failing} do not hold" if failing else None


def check_fact_points(reports):
    """Traced `fact_scan` results: (fact_id, points_checked, grid_step)."""
    for fact_id, points, step in reports:
        lo, hi, open_lo, open_hi = FACT_INTERVALS[fact_id]
        want = grid_point_count(lo, hi, open_lo, open_hi, Fraction(step))
        if points != want:
            return f"{fact_id} checked {points} points, its grid has {want}"
    return None


def check_stress(out, count):
    rep = json.loads(out)
    if rep["count"] != count or rep["violations"] != 0:
        return f"stress count {rep['count']} with {rep['violations']} violations"
    return None


def region_status(k, a, b):
    """GOOD, BAD or UNKNOWN at (a, b) from the paper's statements.

    GOOD: both coordinates positive and a proved inequality for some
    k' <= k holds.  BAD: on an axis, or dominated by a circulant pair
    (t/(kt+1), 1/(kt+1)) or its mirror for some t >= 1.
    """
    if a == 0 or b == 0:
        return "bad"
    s, lo = a + b, min(a, b)
    good = (s > 1
            or (k >= 2 and (2 * a + b > 1 or a + 2 * b > 1))
            or (k >= 3 and s > Fraction(1, 2))
            or (k >= 4 and s > Fraction(2, 5))
            or (k >= 6 and lo > Fraction(1, 7))
            or (k >= 224539 and lo > Fraction(1, k + 1)))
    bad = _dominated(k, a, b) or _dominated(k, b, a)
    if good and bad:
        raise AssertionError(f"({a}, {b}) at k={k} is both good and bad")
    return "good" if good else "bad" if bad else "unknown"


def _dominated(k, a, b):
    """Is there t >= 1 with a <= t/(kt+1) and b <= 1/(kt+1)?

    t/(kt+1) grows with t and 1/(kt+1) shrinks, so the t meeting the first
    bound form a ray t >= t_lo and those meeting the second a range t <= t_hi.
    """
    if k * a >= 1:
        return False
    t_lo = max(1, math.ceil(a / (1 - k * a)))
    t_hi = math.floor((1 / b - 1) / k)
    return t_lo <= t_hi


def region_statuses(k, resolution):
    """The reference status of every lattice point, in the CSV's row order."""
    return [region_status(k, Fraction(i, resolution), Fraction(j, resolution))
            for i in range(resolution + 1) for j in range(resolution + 1)]


def check_region(out, k, resolution, statuses):
    lines = out.splitlines()
    if len(lines) != len(statuses) + 1 or lines[0] != "alpha,beta,status,provenance":
        return f"region CSV has {len(lines)} lines"
    row = 0
    for i in range(resolution + 1):
        for j in range(resolution + 1):
            fa, fb, status, _ = lines[row + 1].split(",", 3)
            if fa != str(Fraction(i, resolution)) or fb != str(Fraction(j, resolution)):
                return f"row {row + 1} is at ({fa}, {fb}), expected ({i}/{resolution}, {j}/{resolution})"
            if status != statuses[row]:
                return (f"({fa}, {fb}) at k={k} classified {status}, "
                        f"expected {statuses[row]}")
            row += 1
    return None
