"""The three workloads: seeded inputs, the fixed operation list, the checks.

`setup(modules, seed, workdir)` makes a workload's inputs from the seed,
writes its edge-list files and returns a `Workload`.  Every operation is
a CLI command run in-process through `bipgirth.cli.main(argv)`, or a call
of one public library function, looked up on its module at call time so
that the traced run sees it.  Reference values the checks need are
computed once per run, on first use, outside the timed operations.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import checks


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    # a check that imports networkx runs after the memory reading
    deferred: bool = False


@dataclass
class Workload:
    ops: list
    # checks of a traced pass, given its per-layer metrics and tracer
    trace_check: Callable = lambda metrics, tracer: None


def run_cli(modules, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = modules["cli"].main(argv)
    return rc, out.getvalue(), err.getvalue()


def cli_op(modules, name, argv, check, expect_rc=(0,)):
    def call():
        return run_cli(modules, argv)

    def checked(result):
        rc, out, err = result
        if rc not in expect_rc:
            return f"exit code {rc}, expected {expect_rc}: {err.strip()[:200]}"
        return check(out, rc)
    return Op(name, call, checked)


def normalized(result):
    """An operation's output with wall-time fields removed."""
    if isinstance(result, tuple) and len(result) == 3:
        rc, out, _ = result
        try:
            return rc, _drop_times(json.loads(out))
        except ValueError:
            return rc, out
    if isinstance(result, list):  # SearchReports
        return [(r.status.value, r.nodes_explored) for r in result]
    return result


def _drop_times(obj):
    if isinstance(obj, dict):
        return {k: _drop_times(v) for k, v in obj.items() if k != "wall_time_ms"}
    if isinstance(obj, list):
        return [_drop_times(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# girth_large
# ---------------------------------------------------------------------------


def _relabeled_text(a_size, b_size, a_out, b_out, rng):
    """Edge-list text of the digraph under random side-preserving labels."""
    pa = list(range(a_size))
    pb = list(range(b_size))
    rng.shuffle(pa)
    rng.shuffle(pb)
    lines = [f"bipartite {a_size} {b_size}"]
    for i, outs in enumerate(a_out):
        lines.extend(f"A{pa[i]} B{pb[j]}" for j in outs)
    for j, outs in enumerate(b_out):
        lines.extend(f"B{pb[j]} A{pa[i]}" for i in outs)
    return "\n".join(lines) + "\n"


def circulant_rows(k, s, t):
    """a_i -> b_i..b_{i+s-1}, b_j -> a_{j+1}..a_{j+t}, indices mod k(s+t-1)+1."""
    n = k * (s + t - 1) + 1
    a_out = [[(i + o) % n for o in range(s)] for i in range(n)]
    b_out = [[(j + o) % n for o in range(1, t + 1)] for j in range(n)]
    return n, a_out, b_out


def layered_rows(k, t):
    """2k+2 classes of t vertices, alternating sides, each class joined
    completely to the next; class c is block c//2 of side A (c even) or B."""
    classes = 2 * k + 2
    a_out, b_out = [], []
    for c in range(classes):
        nxt = (c + 1) % classes
        block = list(range((nxt // 2) * t, (nxt // 2) * t + t))
        (a_out if c % 2 == 0 else b_out).extend([block] * t)
    return (k + 1) * t, a_out, b_out


def random_rows(n, d, rng):
    a_out = [rng.sample(range(n), d) for _ in range(n)]
    b_out = [rng.sample(range(n), d) for _ in range(n)]
    return n, a_out, b_out


def setup_girth_large(modules, seed, workdir):
    rng = random.Random(seed)
    graphs = [
        # name, rows, girth the construction forces (None: random)
        ("circulant_30_10_10", circulant_rows(30, 10, 10), 62),
        ("layered_60_20", layered_rows(60, 20), 122),
        ("random_1000_d50", random_rows(1000, 50, rng), None),
    ]
    files = []
    for name, (n, a_out, b_out), girth in graphs:
        path = os.path.join(workdir, f"{name}.txt")
        with open(path, "w") as fh:
            fh.write(_relabeled_text(n, n, a_out, b_out, rng))
        files.append((path, n, girth))

    ops = []
    for path, n, girth in files:
        ref = functools.cache(lambda path=path: _file_reference(path))
        vertex = f"{rng.choice('AB')}{rng.randrange(n)}"
        alpha = Fraction(rng.randint(1, 60), n)
        beta = Fraction(rng.randint(1, 60), n)
        base = os.path.basename(path)
        ops.append(cli_op(
            modules, f"girth {base}", ["girth", path],
            lambda out, rc, ref=ref, g=girth: checks.check_girth(
                out, ref()["edges"], 2 if g is None else g)))
        ops.append(cli_op(
            modules, f"layers {base}", ["layers", path, "--vertex", vertex, "--max", "8"],
            lambda out, rc, ref=ref, v=vertex: checks.check_layers(out, ref()["adj"], v, 8)))
        ops.append(cli_op(
            modules, f"comply {base}",
            ["comply", path, "--alpha", str(alpha), "--beta", str(beta)],
            lambda out, rc, ref=ref, n=n, a=alpha, b=beta: checks.check_comply(
                out, n, n, ref()["adj"], a, b)))
    # audit bigset replays a proved theorem: girth 62 > 2k at k = 30, and
    # the circulant complies with (t/n, s/n); delta 3k/4 is in the k = 30 table
    circ, n, _ = files[0]
    ops.append(cli_op(
        modules, "audit bigset circulant_30_10_10",
        ["audit", "bigset", circ, "--k", "30", "--alpha", f"10/{n}",
         "--beta", f"10/{n}", "--delta", "45/2",
         "--vertex", f"{rng.choice('AB')}{rng.randrange(n)}"],
        lambda out, rc: checks.check_audit(out)))
    return Workload(ops)


def _file_reference(path):
    with open(path) as fh:
        _, _, adj = checks.read_edge_list(fh.read())
    edges = {(u, w) for u, outs in adj.items() for w in outs}
    return {"adj": adj, "edges": edges}


# ---------------------------------------------------------------------------
# search_small
# ---------------------------------------------------------------------------

SEARCHES = [
    # na, nb, k, alpha, beta, what the paper forces
    (5, 5, 2, Fraction(2, 5), Fraction(2, 5), "exhausted"),  # 2a+b > 1
    (6, 6, 2, Fraction(1, 3), Fraction(1, 3), "witness"),
    (5, 5, 3, Fraction(2, 5), Fraction(1, 5), "exhausted"),  # a+b > 1/2 at k=3
    (30, 30, 3, Fraction(1, 5), Fraction(1, 5), "limit"),    # randomized
]
RANDOM_LIMIT = 2000
# vertex-transitive circulants (k, s, t) with 4 or 5 vertices per side
CIRCULANTS = [(1, 2, 2), (3, 1, 1), (2, 1, 2)]


def setup_search_small(modules, seed, workdir):
    rng = random.Random(seed)
    search = modules["search"]
    ops = []
    for na, nb, k, alpha, beta, expect in SEARCHES:
        cfg = dict(na=na, nb=nb, k=k, alpha=alpha, beta=beta, expect=expect,
                   limit=RANDOM_LIMIT)
        argv = ["search", "--na", str(na), "--nb", str(nb), "--k", str(k),
                "--alpha", str(alpha), "--beta", str(beta)]
        if expect == "limit":
            argv += ["--mode", "random", "--node-limit", str(RANDOM_LIMIT),
                     "--seed", str(rng.randrange(10 ** 6))]
        ops.append(cli_op(
            modules, " ".join(argv), argv,
            lambda out, rc, cfg=cfg: checks.check_search(out, rc, cfg),
            expect_rc=(0, 2)))
    ops.append(Op("verify_eulerian_small(2, 6)",
                  lambda: search.verify_eulerian_small(2, 6), checks.check_eulerian))

    digraph = modules["digraph"].BipartiteDigraph
    for k, s, t in CIRCULANTS:
        n, a_out, b_out = circulant_rows(k, s, t)
        g = _bitmask_digraph(digraph, n, a_out, b_out)
        h = _bitmask_digraph(digraph, n, *_relabel(n, a_out, b_out, rng))
        ops.append(Op(f"canonical_code circulant{(k, s, t)} and a relabeling",
                      lambda g=g, h=h: (search.canonical_code(g), search.canonical_code(h)),
                      checks.check_canonical))
        expected = functools.cache(
            lambda n=n, a=a_out, b=b_out: checks.automorphisms_by_matcher(n, a, b))
        ops.append(Op(f"automorphism_count circulant{(k, s, t)}",
                      lambda h=h: search.automorphism_count(h),
                      lambda c, n=n, e=expected: checks.check_automorphisms(c, e(), n),
                      deferred=True))
    return Workload(ops)


def _relabel(n, a_out, b_out, rng):
    pa, pb = list(range(n)), list(range(n))
    rng.shuffle(pa)
    rng.shuffle(pb)
    new_a, new_b = [None] * n, [None] * n
    for i, outs in enumerate(a_out):
        new_a[pa[i]] = [pb[j] for j in outs]
    for j, outs in enumerate(b_out):
        new_b[pb[j]] = [pa[i] for i in outs]
    return new_a, new_b


def _bitmask_digraph(cls, n, a_out, b_out):
    def mask(idx):
        return sum(1 << i for i in set(idx))
    return cls(n, n, tuple(mask(r) for r in a_out), tuple(mask(r) for r in b_out))


# ---------------------------------------------------------------------------
# lemma_lab
# ---------------------------------------------------------------------------

STRESS_COUNT = 1000
REGION_RESOLUTION = 100


def setup_lemma_lab(modules, seed, workdir):
    rng = random.Random(seed)
    ops = [
        cli_op(modules, "lemmas --all", ["lemmas", "--all"],
               lambda out, rc: checks.check_facts(out)),
        cli_op(modules, "lemmas --stress newineq",
               ["lemmas", "--stress", "newineq", "--count", str(STRESS_COUNT),
                "--seed", str(rng.randrange(10 ** 6))],
               lambda out, rc: checks.check_stress(out, STRESS_COUNT)),
    ]
    for k in (2, 4):
        want = functools.cache(lambda k=k: checks.region_statuses(k, REGION_RESOLUTION))
        ops.append(cli_op(
            modules, f"region --k {k}",
            ["region", "--k", str(k), "--resolution", str(REGION_RESOLUTION)],
            lambda out, rc, k=k, want=want: checks.check_region(
                out, k, REGION_RESOLUTION, want())))
    return Workload(ops, trace_check=_lemma_trace_check)


def _lemma_trace_check(metrics, tracer):
    oracle_calls = metrics["lemmas.oracle_calls"][0]
    if oracle_calls != 3 * STRESS_COUNT:
        return f"{oracle_calls} oracle calls, the stress run has 3 x {STRESS_COUNT} instances"
    return checks.check_fact_points(tracer.fact_reports)


SETUPS = {
    "girth_large": setup_girth_large,
    "search_small": setup_search_small,
    "lemma_lab": setup_lemma_lab,
}
