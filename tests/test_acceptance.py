"""Acceptance criteria, one test and one printed pass/fail line each.

The printed lines bypass pytest capture so the criterion verdicts are
always visible in the run log, alongside the usual assertions.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from bipgirth import lemmas
from bipgirth.audit import audit_bells, audit_bigindeg, audit_bigset
from bipgirth.constructions import ch_reduce, circulant, layered_cycle
from bipgirth.digraph import A, compliance_profile, distance_power, girth
from bipgirth.errors import HypothesisViolated
from bipgirth.lemmas import (
    all_fact_ids,
    delta_table,
    f1_root_bracket,
    fact_scan,
    newineq_stress,
    threshold_k,
)
from bipgirth.search import (
    SearchConfig,
    SearchStatus,
    canonical_code,
    find_counterexample,
    verify_conjecture_small,
    verify_eulerian_small,
)

from oracles import brute_girth, random_general


@pytest.fixture
def report(capsys):
    def emit(criterion: int, ok: bool, detail: str):
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"\nacceptance criterion {criterion}: {verdict} ({detail})",
                  flush=True)
    return emit


def test_criterion_1_circulant_girth_table(report):
    t0 = time.perf_counter()
    ok = True
    for k in range(1, 6):
        for s in range(1, 5):
            for t in range(1, 5):
                g = circulant(k, s, t)
                n = k * (s + t - 1) + 1
                gr = girth(g)
                if gr is None or gr.length <= 2 * k:
                    ok = False
                if compliance_profile(g) != (Fraction(t, n), Fraction(s, n)):
                    ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report(1, ok, f"80 circulants, exact profiles, {elapsed:.2f}s")
    assert ok


def test_criterion_2_layered_extremal(report):
    t0 = time.perf_counter()
    ok = True
    for k in range(1, 7):
        for t in range(1, 4):
            g = layered_cycle(k, t)
            if girth(g).length != 2 * k + 2:
                ok = False
            if compliance_profile(g) != (Fraction(1, k + 1), Fraction(1, k + 1)):
                ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(2, ok, f"girth 2k+2 and ratio 1/(k+1) exact, {elapsed:.2f}s")
    assert ok


def test_criterion_3_threshold(report):
    t0 = time.perf_counter()
    got = threshold_k(74)
    elapsed = time.perf_counter() - t0
    ok = got == 224539 and elapsed < 1.0
    report(3, ok, f"threshold_k(74) = {got}, {elapsed:.3f}s")
    assert ok


def test_criterion_4_fact_catalog(report):
    t0 = time.perf_counter()
    ok = all(fact_scan(fid).holds_everywhere for fid in all_fact_ids())
    lo, hi = f1_root_bracket()
    ok = ok and Fraction(2191, 10000) < lo < hi < Fraction(2193, 10000)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report(4, ok, f"F1-F11 hold at step 1e-5, root in (0.2191, 0.2193), "
                  f"{elapsed:.1f}s")
    assert ok


def test_criterion_5_oracle_suite(report, monkeypatch):
    class Counted(lemmas.NewineqInstance):
        # every instance the sampler builds is a draw its screen accepted
        built = 0

        def __init__(self, *values):
            Counted.built += 1
            super().__init__(*values)

    monkeypatch.setattr(lemmas, "NewineqInstance", Counted)
    t0 = time.perf_counter()
    per_case = 10 ** 5
    violations = newineq_stress("abc", per_case, 20260823)
    elapsed = time.perf_counter() - t0
    rejected = Counted.built - 3 * per_case
    ok = violations == 0 and rejected == 0 and elapsed < 60.0
    report(5, ok, f"3x{per_case} instances, {violations} violations at zero "
                  f"tolerance, {rejected} screened draws rejected as exact "
                  f"values, {elapsed:.1f}s")
    assert ok


def test_criterion_6_brute_force_3x3(report):
    t0 = time.perf_counter()
    rows = list(range(8))
    pop = [m.bit_count() for m in rows]
    # per B-side triple, the transposed masks seen from each A-vertex
    failures = 0
    for b_rows in itertools.product(rows, repeat=3):
        tb = [sum(1 << j for j in range(3) if b_rows[j] >> i & 1)
              for i in range(3)]
        b_edges = pop[b_rows[0]] + pop[b_rows[1]] + pop[b_rows[2]]
        for a_rows in itertools.product(rows, repeat=3):
            edges = b_edges + pop[a_rows[0]] + pop[a_rows[1]] + pop[a_rows[2]]
            if edges > 9:
                has_2cycle = (a_rows[0] & tb[0] or a_rows[1] & tb[1]
                              or a_rows[2] & tb[2])
                if not has_2cycle:
                    failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 60.0
    report(6, ok, f"2^18 digraphs, edges>9 forces a 2-cycle, "
                  f"{failures} failures, {elapsed:.1f}s")
    assert ok


def test_criterion_7_exhaustive_consistency(report):
    t0 = time.perf_counter()
    reports = verify_conjecture_small(2, 4)
    ok = bool(reports) and all(r.status is SearchStatus.Exhausted
                               for r in reports)
    # the boundary below the forced degree: exactly the 6-cycle survives
    cfg = SearchConfig(3, 3, 2, Fraction(1, 3), Fraction(1, 3))
    rep = find_counterexample(cfg)
    ok = ok and rep.status is SearchStatus.FoundCounterexample
    ok = ok and canonical_code(rep.witness) == canonical_code(circulant(2, 1, 1))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    report(7, ok, f"n<=4 exhausted at forced degree, 6-cycle at boundary, "
                  f"{elapsed:.1f}s")
    assert ok


def test_criterion_8_eulerian_consistency(report):
    t0 = time.perf_counter()
    reports = verify_eulerian_small(2, 5)
    ok = bool(reports) and all(r.status is SearchStatus.Exhausted
                               for r in reports)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    report(8, ok, f"{len(reports)} eulerian configs exhausted, {elapsed:.1f}s")
    assert ok


def test_criterion_9_ch_reduce_doubling(report):
    t0 = time.perf_counter()
    rng = random.Random(77)
    mismatches = 0
    for _ in range(200):
        h = random_general(rng)
        expect = brute_girth(h)
        got = girth(ch_reduce(h))
        got_len = got.length if got else None
        if got_len != (2 * expect if expect else None):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30.0
    report(9, ok, f"200 digraphs vs cycle-enumeration oracle, "
                  f"{mismatches} mismatches, {elapsed:.1f}s")
    assert ok


def test_criterion_10_audit_suites(report):
    t0 = time.perf_counter()
    violations = 0
    corpus = []
    for k in range(1, 6):
        for s in range(1, 5):
            for t in range(1, 5):
                n = k * (s + t - 1) + 1
                corpus.append((k, circulant(k, s, t),
                               Fraction(t, n), Fraction(s, n)))
    for k in range(1, 7):
        for t in range(1, 4):
            ab = Fraction(1, k + 1)
            corpus.append((k, layered_cycle(k, t), ab, ab))
    for k, g, alpha, beta in corpus:
        for entry in delta_table(k):
            rep = audit_bigset(g, k, alpha, beta, entry.delta, A(0))
            if not rep.passed:
                violations += 1
        if not audit_bigindeg(g, alpha, beta).passed:
            violations += 1
    # bells over the distance-power corpus with measured parameters
    checked = 0
    for k in range(2, 7):
        base = circulant(k, 1, 1)
        for d in range(1, k, 2):
            try:
                rep = audit_bells(distance_power(base, d))
            except HypothesisViolated:
                continue  # hypothesis-failing instances are out of scope
            checked += 1
            if not rep.conclusion_held:
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and checked > 0 and elapsed < 120.0
    report(10, ok, f"{len(corpus)} audited instances, {checked} bells checks, "
                   f"{violations} violations, {elapsed:.1f}s")
    assert ok
