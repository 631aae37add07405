"""The benchmark's reference helpers and output checks.

    python3 -m pytest perfbench/tests -q

The helpers must agree with networkx on small seeded digraphs, and each
check must pass the program's real output and reject a planted wrong
answer.
"""

import io
import os
import random
import re
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import networkx as nx
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from bipgirth import cli, lemmas  # noqa: E402


def run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def random_adj(rng, na, nb, p):
    adj = {f"A{i}": [] for i in range(na)}
    adj.update({f"B{j}": [] for j in range(nb)})
    for i in range(na):
        for j in range(nb):
            if rng.random() < p:
                adj[f"A{i}"].append(f"B{j}")
            if rng.random() < p:
                adj[f"B{j}"].append(f"A{i}")
    return adj


def to_nx(adj):
    g = nx.DiGraph()
    g.add_nodes_from(adj)
    g.add_edges_from((u, w) for u, outs in adj.items() for w in outs)
    return g


@pytest.mark.parametrize("seed", range(40))
def test_shortest_cycle_matches_simple_cycles(seed):
    rng = random.Random(seed)
    adj = random_adj(rng, rng.randint(1, 4), rng.randint(1, 4), rng.choice([0.2, 0.35, 0.5]))
    lengths = [len(c) for c in nx.simple_cycles(to_nx(adj))]
    assert checks.shortest_cycle(adj) == (min(lengths) if lengths else None)


@pytest.mark.parametrize("seed", range(20))
def test_bfs_layers_match_networkx_distances(seed):
    rng = random.Random(seed)
    adj = random_adj(rng, 5, 6, 0.25)
    dist = nx.single_source_shortest_path_length(to_nx(adj), "A0")
    layers = checks.bfs_layers(adj, "A0", 6)
    for i, layer in enumerate(layers):
        assert layer == {v for v, d in dist.items() if d == i}


def write_circulant(tmp_path, k, s, t):
    n, a_out, b_out = workloads.circulant_rows(k, s, t)
    text = workloads._relabeled_text(n, n, a_out, b_out, random.Random(k))
    path = tmp_path / "g.txt"
    path.write_text(text)
    _, _, adj = checks.read_edge_list(text)
    return str(path), adj, {(u, w) for u, outs in adj.items() for w in outs}


def test_girth_check_rejects_planted_errors(tmp_path):
    path, _, edges = write_circulant(tmp_path, 3, 2, 2)
    rc, out = run(["girth", path])
    assert rc == 0 and checks.check_girth(out, edges, 8) is None
    off_by_two = out.replace("girth 8", "girth 10")
    assert checks.check_girth(off_by_two, edges, 8)
    head, cycle = out.splitlines()
    vs = cycle.split()[1:]
    rotated = f"{head}\ncycle {' '.join(vs[1:] + vs[:1])}\n"
    swapped = f"{head}\ncycle {' '.join([vs[1], vs[0]] + vs[2:])}\n"
    assert checks.check_girth(rotated, edges, 8) is None
    assert checks.check_girth(swapped, edges, 8)


def test_layers_and_comply_checks(tmp_path):
    path, adj, _ = write_circulant(tmp_path, 2, 2, 3)
    rc, out = run(["layers", path, "--vertex", "B1", "--max", "5"])
    assert rc == 0 and checks.check_layers(out, adj, "B1", 5) is None
    lines = out.splitlines()
    moved = lines[2].split()
    lines[2] = " ".join(moved[:-1])
    assert checks.check_layers("\n".join(lines) + "\n", adj, "B1", 5)
    n = len(adj) // 2
    rc, out = run(["comply", path, "--alpha", f"3/{n}", "--beta", f"2/{n}"])
    assert rc == 0 and checks.check_comply(out, n, n, adj, Fraction(3, n), Fraction(2, n)) is None
    assert checks.check_comply(out.replace("true", "false"), n, n, adj,
                               Fraction(3, n), Fraction(2, n))


def readme_witness():
    with open(os.path.join(BENCH, "README.md")) as fh:
        text = fh.read()
    block = re.search(r"```\n(bipartite 6 6\n.*?)```", text, re.S)
    return block.group(1)


def test_witness_check_rejects_a_missing_edge():
    args = (6, 6, 2, Fraction(1, 3), Fraction(1, 3))
    text = readme_witness()
    assert checks.witness_problem(text, *args) is None
    lines = text.splitlines()
    for drop in range(1, len(lines)):
        short = "\n".join(lines[:drop] + lines[drop + 1:]) + "\n"
        assert checks.witness_problem(short, *args)


def test_witness_check_rejects_a_short_cycle():
    lines = readme_witness().splitlines()
    a, b = lines[1].split()          # the edge a -> b ...
    extra = f"{b} {a}"               # ... and back closes a 2-cycle
    assert extra not in lines
    text = "\n".join(lines + [extra]) + "\n"
    assert "cycle of length 2" in checks.witness_problem(
        text, 6, 6, 2, Fraction(1, 3), Fraction(1, 3))


def test_grid_point_counts():
    step = Fraction(1, 100000)
    want = {"F1": 50000, "F2": 22300, "F3": 399, "F4": 1, "F7": 1999, "F10": 100001}
    for fact, count in want.items():
        assert checks.grid_point_count(*checks.FACT_INTERVALS[fact], step) == count
    assert checks.grid_point_count(Fraction(1, 3), Fraction(2, 3), False, False,
                                   Fraction(1, 10)) == 3


def test_fact_points_check_rejects_one_point_short():
    reports = [(r.fact_id, r.points_checked, r.grid_step)
               for r in map(lemmas.fact_scan, ["F3", "F4", "F7", "F9"])]
    assert checks.check_fact_points(reports) is None
    for i, (fid, points, step) in enumerate(reports):
        short = reports[:i] + [(fid, points - 1, step)] + reports[i + 1:]
        assert checks.check_fact_points(short)


def test_region_check_rejects_a_flipped_verdict():
    for k in (1, 2, 3, 4, 6):
        rc, out = run(["region", "--k", str(k), "--resolution", "12"])
        statuses = checks.region_statuses(k, 12)
        assert rc == 0 and checks.check_region(out, k, 12, statuses) is None
        lines = out.splitlines()
        row = next(i for i, ln in enumerate(lines) if ",good," in ln)
        lines[row] = lines[row].replace(",good,", ",bad,")
        assert checks.check_region("\n".join(lines) + "\n", k, 12, statuses)


def test_region_status_known_points():
    f = Fraction
    assert checks.region_status(2, f(1, 3), f(1, 3)) == "bad"      # t = 1
    assert checks.region_status(2, f(2, 5), f(1, 5)) == "bad"      # t = 2
    assert checks.region_status(2, f(1, 5), f(2, 5)) == "bad"      # mirrored
    assert checks.region_status(2, f(7, 20), f(3, 10)) == "unknown"
    assert checks.region_status(2, f(1, 2), f(1, 100)) == "good"   # 2a + b > 1
    assert checks.region_status(3, f(1, 4), f(1, 4)) == "bad"      # t = 1 at k = 3
    assert checks.region_status(3, f(1, 4), f(13, 50)) == "good"   # a + b > 1/2
    assert checks.region_status(5, f(0), f(1, 2)) == "bad"         # axis
