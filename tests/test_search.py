import dataclasses
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from bipgirth.constructions import circulant, layered_cycle
from bipgirth import search
from bipgirth.digraph import A, B, BipartiteDigraph, Girth, girth, is_compliant
from bipgirth.errors import InfeasibleConfig
from bipgirth.search import (
    SearchConfig,
    SearchStatus,
    automorphism_count,
    canonical_code,
    find_counterexample,
    verify_conjecture_small,
    verify_eulerian_small,
)

from oracles import (
    all_digraphs,
    brute_canonical,
    recursive_search,
    reference_search,
    relabel,
    whole_draw_search,
)


def F(p, q=1):
    return Fraction(p, q)


def random_relabel(g: BipartiteDigraph, rng: random.Random) -> BipartiteDigraph:
    pa = list(range(g.a_size))
    pb = list(range(g.b_size))
    rng.shuffle(pa)
    rng.shuffle(pb)
    return relabel(g, pa, pb)


def random_small(rng: random.Random) -> BipartiteDigraph:
    # a random density per digraph, so sparse, dense and highly symmetric
    # digraphs all occur
    na, nb, p = rng.randint(1, 4), rng.randint(1, 4), rng.random()
    return BipartiteDigraph(
        na, nb,
        tuple(sum(1 << j for j in range(nb) if rng.random() < p) for _ in range(na)),
        tuple(sum(1 << i for i in range(na) if rng.random() < p) for _ in range(nb)))


def random_regular(rng: random.Random, n: int, d: int) -> BipartiteDigraph:
    # the union of d random matchings each way: equitable refinement cannot
    # split such a digraph, so its cells need not be orbits (say, a 2-cycle
    # beside a 6-cycle)
    def rows():
        perms = [rng.sample(range(n), n) for _ in range(d)]
        return tuple(sum(1 << j for j in {p[i] for p in perms}) for i in range(n))
    return BipartiteDigraph(n, n, rows(), rows())


class TestCanonicalCode:
    def test_relabel_invariance(self):
        rng = random.Random(31)
        small = [random_small(rng) for _ in range(40)]
        small += [random_regular(rng, n, d) for n in (6, 9, 12) for d in (1, 2) for _ in range(3)]
        circulants = [circulant(*kst) for kst in (
            (2, 1, 1), (1, 3, 3), (3, 2, 2), (2, 3, 4), (3, 7, 7), (4, 6, 5), (5, 4, 5))]
        kts = ((1, 10), (1, 15), (1, 20), (2, 6), (3, 5), (4, 4), (9, 2))
        layered = [layered_cycle(k, t) for k, t in kts]
        for g in small + circulants + layered:
            h = random_relabel(g, rng)
            assert canonical_code(g) == canonical_code(h)
            assert automorphism_count(g) == automorphism_count(h)
        for g in circulants:
            assert automorphism_count(g) % g.a_size == 0
        for (k, t), g in zip(kts, layered):
            # t! per class, times the k+1 rotations of the class cycle
            assert automorphism_count(g) == math.factorial(t) ** (2 * k + 2) * (k + 1)

    def test_distinguishes_nonisomorphic(self):
        g = circulant(2, 1, 1)  # 6-cycle
        h = BipartiteDigraph(3, 3, (1, 2, 4), (1, 2, 4))  # three 2-cycles
        assert canonical_code(g) != canonical_code(h)

    def test_matches_brute_force(self):
        # codes agree exactly when the least relabeled adjacencies do, and
        # the automorphism count is the number of relabelings fixing g
        rng = random.Random(32)
        graphs = [random_small(rng) for _ in range(150)]
        graphs += [random_regular(rng, rng.randint(2, 4), rng.randint(1, 2)) for _ in range(60)]
        graphs += [random_relabel(g, rng) for g in graphs]
        code_of = {}
        for g in graphs:
            least, fixed = brute_canonical(g)
            assert code_of.setdefault(least, canonical_code(g)) == canonical_code(g)
            assert automorphism_count(g) == fixed
        assert len(set(code_of.values())) == len(code_of)

    def test_complete_for_2x2(self):
        # codes partition all 256 labeled 2x2 digraphs into the classes of
        # the brute-force minimum, and each class is an orbit of the 4
        # relabelings, so its size times |Aut| is 4
        by_code, by_least = {}, {}
        for g in all_digraphs(2, 2):
            by_code.setdefault(canonical_code(g), []).append(g)
            by_least.setdefault(brute_canonical(g)[0], []).append(g)
        assert sorted(by_code.values(), key=repr) == sorted(by_least.values(), key=repr)
        for members in by_code.values():
            assert all(len(members) * automorphism_count(g) == 4 for g in members)

    def test_automorphism_orbit_formula(self):
        # |orbit| * |Aut| = |A|! * |B|! by orbit-stabilizer
        rng = random.Random(33)
        for _ in range(15):
            g = BipartiteDigraph(
                3, 3,
                tuple(rng.getrandbits(3) for _ in range(3)),
                tuple(rng.getrandbits(3) for _ in range(3)))
            orbit = {relabel(g, pa, pb) for pa in itertools.permutations(range(3))
                     for pb in itertools.permutations(range(3))}
            assert len(orbit) * automorphism_count(g) == 36
            assert automorphism_count(g) == brute_canonical(g)[1]

    def test_empty_side(self):
        # the root partition must not keep an empty cell for the empty side,
        # which would make n cells read as discrete too early
        rng = random.Random(34)
        for g, count in ((BipartiteDigraph(3, 0, (0,) * 3, ()), 6),
                         (BipartiteDigraph(0, 3, (), (0,) * 3), 6),
                         (BipartiteDigraph(2, 0, (0,) * 2, ()), 2),
                         (BipartiteDigraph(4, 1, (1, 1, 0, 0), (0,)), 4)):
            assert automorphism_count(g) == count
            assert canonical_code(random_relabel(g, rng)) == canonical_code(g)

    def test_six_cycle_automorphisms(self):
        assert automorphism_count(circulant(2, 1, 1)) == 3

    def test_forty_per_side_in_a_second(self):
        start = time.perf_counter()
        canonical_code(circulant(3, 7, 7))
        assert time.perf_counter() - start < 1.0

    def test_thirty_per_class_layered_cycle_in_two_seconds(self):
        g = layered_cycle(1, 30)
        start = time.perf_counter()
        canonical_code(g)
        assert automorphism_count(g) == math.factorial(30) ** 4 * 2
        assert time.perf_counter() - start < 2.0


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(InfeasibleConfig):
            SearchConfig(0, 3, 2, F(1, 3), F(1, 3))
        with pytest.raises(InfeasibleConfig):
            SearchConfig(3, 3, 2, F(1, 3), F(1, 3), mode="magic")
        with pytest.raises(InfeasibleConfig):
            SearchConfig(3, 3, 2, F(1, 3), F(1, 3), node_limit=0)
        with pytest.raises(InfeasibleConfig):
            SearchConfig(3, 3, 2, F(1, 3), F(1, 3), mode="randomized", eulerian=True)
        with pytest.raises(InfeasibleConfig, match="seed must be nonnegative"):
            SearchConfig(3, 3, 2, F(1, 3), F(1, 3), mode="randomized", seed=-2)

    def test_eulerian_balance(self):
        with pytest.raises(InfeasibleConfig):
            SearchConfig(3, 4, 2, F(2, 3), F(1, 4), eulerian=True)

    def test_degrees(self):
        cfg = SearchConfig(3, 3, 2, F(1, 3), F(1, 3))
        assert cfg.degrees == (1, 1)


class TestFindCounterexample:
    def test_boundary_six_cycle(self):
        cfg = SearchConfig(3, 3, 2, F(1, 3), F(1, 3))
        rep = find_counterexample(cfg)
        assert rep.status is SearchStatus.FoundCounterexample
        assert canonical_code(rep.witness) == canonical_code(circulant(2, 1, 1))

    def test_witness_properties(self):
        cfg = SearchConfig(3, 3, 2, F(1, 3), F(1, 3))
        rep = find_counterexample(cfg)
        g = rep.witness
        assert is_compliant(g, F(1, 3), F(1, 3))
        gr = girth(g)
        assert gr is None or gr.length > 4

    def test_witness_checks_raise(self, monkeypatch):
        # the checks are explicit raises, so they hold under `python -O` too
        cfg = SearchConfig(3, 3, 2, F(1, 3), F(1, 3))
        with monkeypatch.context() as m:
            m.setattr(search, "girth", lambda g: Girth(2, (A(0), B(0))))
            with pytest.raises(RuntimeError, match="has a 2-cycle"):
                find_counterexample(cfg)
        monkeypatch.setattr(search, "is_compliant", lambda g, a, b: False)
        with pytest.raises(RuntimeError, match="does not comply"):
            find_counterexample(cfg)

    def test_exhausted_above_threshold(self):
        cfg = SearchConfig(3, 3, 2, F(2, 3), F(2, 3))
        rep = find_counterexample(cfg)
        assert rep.status is SearchStatus.Exhausted
        assert rep.witness is None

    def test_deterministic(self):
        cfg = SearchConfig(4, 4, 2, F(1, 4), F(1, 4))
        a = find_counterexample(cfg)
        b = find_counterexample(cfg)
        assert a.status == b.status
        assert a.witness == b.witness
        assert a.nodes_explored == b.nodes_explored

    @pytest.mark.parametrize("cfg, limit, status", [
        ((4, 4, 2, F(1, 2), F(1, 2)), 3, SearchStatus.LimitReached),  # in the A-phase
        ((4, 4, 2, F(1, 2), F(1, 2)), 5, SearchStatus.LimitReached),  # in the B-phase
        # the run takes 9,586 nodes: a limit one short stops before the last
        ((5, 5, 2, F(2, 5), F(2, 5)), 9_585, SearchStatus.LimitReached),
        ((5, 5, 2, F(2, 5), F(2, 5)), 9_586, SearchStatus.Exhausted),
    ], ids=["a-phase", "b-phase", "one-short", "exact"])
    def test_node_limit(self, cfg, limit, status):
        rep = find_counterexample(SearchConfig(*cfg, node_limit=limit))
        assert rep.status is status
        assert rep.nodes_explored == limit

    def test_node_limit_bounds_the_work(self):
        # C(100, 50) rows per side: rows must be made as the search reaches them
        start = time.perf_counter()
        rep = find_counterexample(SearchConfig(100, 100, 2, F(1, 2), F(1, 2), node_limit=5))
        assert rep.status is SearchStatus.LimitReached
        assert rep.nodes_explored == 5
        assert time.perf_counter() - start < 1.0

    def test_statuses_match_reference(self):
        # every config with sides <= 4, k <= 3 and exact degrees d_a, d_b
        # against the search whose only symmetry rule is nondecreasing A-rows,
        # and against the recursive enumerator at the full run and at every
        # node limit below it, so in both phases
        for n_a, n_b, k in itertools.product(range(1, 5), range(1, 5), (1, 2, 3)):
            for d_a, d_b in itertools.product(range(1, n_b + 1), range(1, n_a + 1)):
                for eulerian in {False, n_a * d_a == n_b * d_b}:
                    alpha, beta = F(d_b, n_a), F(d_a, n_b)
                    cfg = SearchConfig(n_a, n_b, k, alpha, beta, eulerian=eulerian)
                    assert cfg.degrees == (d_a, d_b)
                    rep = find_counterexample(cfg)
                    assert (rep.status, rep.nodes_explored, rep.witness) == recursive_search(cfg)
                    for limit in range(1, rep.nodes_explored):
                        c = dataclasses.replace(cfg, node_limit=limit)
                        r = find_counterexample(c)
                        assert (r.status, r.nodes_explored, r.witness) == recursive_search(c), c
                    ref = reference_search(n_a, n_b, k, d_a, d_b, eulerian)
                    assert rep.status is (SearchStatus.Exhausted if ref is None
                                          else SearchStatus.FoundCounterexample), cfg
                    if rep.witness is not None:
                        assert is_compliant(rep.witness, alpha, beta)
                        gr = girth(rep.witness)
                        assert gr is None or gr.length > 2 * k

    def test_exhaustive_matches_brute_force(self):
        # cross-check Exhausted against a naive scan over all digraphs
        # with the exact forced degrees
        for n, k in ((3, 2), (3, 3)):
            d = n // (k + 1) + 1
            ab = F(d, n)
            cfg = SearchConfig(n, n, k, ab, ab)
            rep = find_counterexample(cfg)
            found = False
            rows = [m for m in range(1 << n) if m.bit_count() == d]
            for a_rows in itertools.combinations_with_replacement(rows, n):
                for b_rows in itertools.product(rows, repeat=n):
                    g = BipartiteDigraph(n, n, a_rows, b_rows)
                    gr = girth(g)
                    if gr is None or gr.length > 2 * k:
                        found = True
                        break
                if found:
                    break
            assert (rep.status is SearchStatus.FoundCounterexample) == found

    def test_randomized_mode(self):
        cfg = SearchConfig(3, 3, 1, F(1, 3), F(1, 3), mode="randomized",
                           seed=5, node_limit=500)
        rep = find_counterexample(cfg)
        # girth > 2 just needs a digraph without a 2-cycle
        assert rep.status is SearchStatus.FoundCounterexample
        gr = girth(rep.witness)
        assert gr is None or gr.length > 2

    # witnesses at k = 1, 2, 3 (two with unequal sides), then configs where
    # many samples have no 2-cycle and still have girth <= 2k
    RANDOMIZED_GRID = [
        (3, 3, 1, F(1, 3), F(1, 3)), (9, 6, 1, F(1, 9), F(1, 3)),
        (6, 6, 2, F(1, 6), F(1, 6)), (10, 10, 2, F(1, 10), F(1, 10)),
        (30, 30, 3, F(1, 30), F(1, 30)), (12, 7, 3, F(1, 12), F(1, 7)),
        (16, 16, 3, F(1, 8), F(1, 16)), (10, 10, 4, F(1, 5), F(1, 10)),
        (5, 12, 2, F(1, 5), F(1, 6)),
        (22, 26, 2, F(1, 22), F(1, 13)),  # rows of width 26 and 22: `sample`'s set
    ]

    @pytest.mark.parametrize("cfg", RANDOMIZED_GRID, ids=str)
    def test_randomized_matches_whole_draws(self, cfg):
        # screening a sample for a 2-cycle while its B-rows are drawn gives
        # what drawing it whole and running girth on it gives
        for seed in range(6):
            c = SearchConfig(*cfg, mode="randomized", seed=seed, node_limit=120)
            rep = find_counterexample(c)
            assert (rep.status, rep.nodes_explored, rep.witness) == whole_draw_search(c)[:3]

    def test_report_json(self):
        cfg = SearchConfig(3, 3, 2, F(1, 3), F(1, 3))
        rep = find_counterexample(cfg)
        blob = json.loads(json.dumps(rep.to_json_dict()))
        assert blob["schema_version"] == "2"
        assert "canonical_classes_seen" not in blob
        assert blob["status"] == "FoundCounterexample"
        assert blob["witness"].startswith("bipartite 3 3")
        assert blob["config"]["alpha"] == "1/3"


class TestPinnedWork:
    """Node counts, statuses and witnesses of fixed exhaustive runs: a
    change that only makes the search faster leaves them as they are; a
    change to the pruning re-pins the counts and keeps the statuses."""

    @pytest.mark.parametrize("cfg, status, nodes, witness", [
        ((5, 5, 2, F(2, 5), F(2, 5)), SearchStatus.Exhausted, 9_586, None),
        ((6, 6, 2, F(1, 3), F(1, 3)), SearchStatus.FoundCounterexample,
         39_530, ((3, 3, 12, 12, 48, 48), (12, 12, 48, 48, 3, 3))),
        ((5, 5, 3, F(2, 5), F(1, 5)), SearchStatus.Exhausted, 3_583, None),
        # a side of 3,000 vertices: one frame per row, so no recursion limit
        ((3000, 1, 1, F(0), F(1)), SearchStatus.FoundCounterexample,
         3_001, ((1,) * 3000, (0,))),
        ((1, 3000, 1, F(1), F(0)), SearchStatus.FoundCounterexample,
         3_001, ((0,), (1,) * 3000)),
        # ids without the counts, which re-pinning changes
    ], ids=["n5-k2", "n6-k2", "n5-k3", "a3000", "b3000"])
    def test_exhaustive_runs(self, cfg, status, nodes, witness):
        rep = find_counterexample(SearchConfig(*cfg))
        assert rep.status is status
        assert rep.nodes_explored == nodes
        if witness is None:
            assert rep.witness is None
        else:
            assert (rep.witness.a_out, rep.witness.b_out) == witness

    def test_eulerian_sweep(self):
        reports = verify_eulerian_small(2, 6)
        assert [r.nodes_explored for r in reports] == [2, 8, 11, 54, 330, 1763]
        assert all(r.status is SearchStatus.Exhausted for r in reports)

    def test_limited_sweep(self):
        reports = verify_conjecture_small(3, 6, node_limit=300_000)
        assert [r.nodes_explored for r in reports] == [2, 10, 47, 305, 9_586, 300_000]
        assert [r.status for r in reports] == [SearchStatus.Exhausted] * 5 + [
            SearchStatus.LimitReached]
        assert all(r.witness is None for r in reports)

    def test_conjecture_sweep_k3(self):
        reports = verify_conjecture_small(3, 6)
        assert [r.nodes_explored for r in reports] == [2, 10, 47, 305, 9_586, 721_027]
        assert all(r.status is SearchStatus.Exhausted for r in reports)

    @pytest.mark.parametrize("alpha, beta", [
        (F(1, 3), F(1, 3)), (F(1, 6), F(1, 3)), (F(1, 3), F(1, 6))])
    def test_open_points_k3(self, alpha, beta):
        # (1/6, 1/3) and (1/3, 1/6) lie where frontier.classify says Unknown
        rep = find_counterexample(SearchConfig(6, 6, 3, alpha, beta, node_limit=2_000_000))
        assert rep.status is SearchStatus.Exhausted


class TestVerifySmall:
    def test_conjecture_consistency(self):
        for rep in verify_conjecture_small(2, 4):
            assert rep.status is SearchStatus.Exhausted

    def test_eulerian_consistency(self):
        for rep in verify_eulerian_small(2, 5):
            assert rep.status is SearchStatus.Exhausted

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_nonpositive_k(self, k):
        for sweep in (verify_conjecture_small, verify_eulerian_small):
            with pytest.raises(InfeasibleConfig, match="k must be positive"):
                sweep(k, 5)

    def test_eulerian_skips_unbalanced(self):
        reports = verify_eulerian_small(2, 4)
        assert all(r.config.n_a == r.config.n_b for r in reports)
