import dataclasses
import functools
import hashlib
import itertools
import math
import random
import re
import types
from fractions import Fraction

import pytest

import oracles
from bipgirth import lemmas
from bipgirth.audit import audit_bells
from bipgirth.constructions import circulant
from bipgirth.digraph import A, B, Side, VertexRef, distance_power, from_edges
from bipgirth.errors import (
    BadEdgeSets,
    CaseNotApplicable,
    HypothesisViolated,
    InfeasibleTriple,
    UnknownFact,
)
from bipgirth.lemmas import (
    DELTA3,
    DELTA4,
    CheckReport,
    IneqParams,
    NewineqInstance,
    all_fact_ids,
    appliedineq_check,
    bellsandwhistles_check,
    bigk_params,
    bigk_simplify_check,
    check_newineq,
    delta_table,
    f1_root_bracket,
    f_value,
    fact_scan,
    newineq_bound,
    newineq_min_oracle,
    newineq_stress,
    random_newineq_instance,
    threshold_k,
)


def F(p, q=1):
    return Fraction(p, q)


class TestDeltaTable:
    def test_k3(self):
        entries = {(e.delta, e.girth_bound) for e in delta_table(3)}
        assert (F(2886, 1000), 3) in entries
        assert (F(9, 4), 3) in entries

    def test_k100(self):
        entries = {(e.delta, e.girth_bound) for e in delta_table(100)}
        assert (F(26), 99) in entries
        assert (F(75), 100) in entries

    def test_k1_vacuous(self):
        entries = delta_table(1)
        assert len(entries) == 1
        assert entries[0].delta == F(3, 4)
        assert entries[0].girth_bound == 1

    def test_k6_claimed_flag(self):
        claimed = [e for e in delta_table(6) if e.claimed_only]
        assert len(claimed) == 1
        assert claimed[0].delta == F(5219, 1000)


class TestNewineqInstance:
    def test_equal_values_equal_instances(self):
        a = NewineqInstance(0.5, 1, 0.25, 0, 0)
        b = NewineqInstance(F(1, 2), 1, F(1, 4), 0, 0)
        assert a == b and hash(a) == hash(b)
        assert NewineqInstance("1/2", 1, "0.25", 0, 0) == b
        assert a != NewineqInstance(0.5, 1, 0.25, 0, F(1, 8))

    def test_fields_read_back_exactly(self):
        x = 0.1  # stored exactly as the double nearest 1/10, not as 1/10
        inst = NewineqInstance(x, 1, F(2, 3), 7, 0)
        read = (inst.x, inst.y, inst.beta, inst.gamma, inst.mu)
        assert all(type(v) is Fraction for v in read)
        assert read == (Fraction(x), 1, F(2, 3), 7, 0) and inst.x != F(1, 10)

    def test_frozen(self):
        inst = NewineqInstance(0, 1, F(1, 4), 0, 0)
        for name in ("x", "mu", "_int"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(inst, name, 0)

    def test_rejected_values(self):
        with pytest.raises(ValueError, match="^cannot convert NaN to integer ratio$"):
            NewineqInstance(0, 1, float("nan"), 0, 0)
        with pytest.raises(OverflowError, match="^cannot convert Infinity to integer ratio$"):
            NewineqInstance(0, 1, 0, float("inf"), 0)
        with pytest.raises(ValueError, match=r"^need 0 <= x <= y <= 1, got x=1/2, y=1/4$"):
            NewineqInstance(F(1, 2), 0.25, 0, 0, 0)
        with pytest.raises(ValueError, match="^beta, gamma, mu must be nonnegative$"):
            NewineqInstance(0, 1, 0, 0, F(-1, 3))

    def test_repr_in_case_message(self):
        with pytest.raises(CaseNotApplicable) as err:
            newineq_bound(NewineqInstance(1, 1, F(1, 5), F(1, 2), 0), "b")
        assert str(err.value) == (
            "case b ineligible for NewineqInstance(x=Fraction(1, 1), "
            "y=Fraction(1, 1), beta=Fraction(1, 5), gamma=Fraction(1, 2), "
            "mu=Fraction(0, 1))")

    def test_seeded_draws_pinned(self):
        # the integers of 3x1,000 draws from one generator, as the stress
        # run draws them; the digest was taken before the instance dropped
        # its Fraction fields
        rng = random.Random(12345)
        digest = hashlib.sha256()
        for case in "abc":
            for _ in range(1000):
                digest.update(repr(random_newineq_instance(case, rng)._int).encode())
        assert digest.hexdigest()[:16] == "f419ff6bb65c2424"


class TestFValue:
    def test_collapses_to_square(self):
        inst = NewineqInstance(1, 1, F(1, 5), 0, 0)
        assert f_value(inst, F(1, 5), 0, 0) == F(1, 25)

    def test_single_active_term(self):
        inst = NewineqInstance(0, 1, F(3, 10), 0, 0)
        assert f_value(inst, 0, F(3, 10), 0) == F(9, 100)

    def test_infeasible_rejected(self):
        inst = NewineqInstance(1, 1, F(1, 5), 0, 0)
        with pytest.raises(InfeasibleTriple):
            f_value(inst, F(1, 2), 0, 0)
        with pytest.raises(InfeasibleTriple):
            f_value(inst, F(1, 5), -1, 0)

    def test_bigk_instance_expansion(self):
        # the large-k substitution evaluated at its stationary triple
        # matches the exact rational expansion of the conclusion quadratic
        k, r = 10, 1
        p = bigk_params(k, r)
        inst = NewineqInstance(p.x, p.y, p.beta, p.gamma, p.mu)
        bound = newineq_bound(inst, "c")
        assert bound == ((p.mu - p.x * p.gamma) ** 2 / p.y
                         + (p.beta - p.mu) ** 2 / (1 - p.y))


class TestNewineqBound:
    def test_case_a(self):
        inst = NewineqInstance(1, 1, F(1, 5), F(1, 2), 0)
        assert newineq_bound(inst, "a") == F(9, 100)

    def test_case_b_zero_x(self):
        inst = NewineqInstance(0, F(1, 2), F(3, 10), F(7), 0)
        assert newineq_bound(inst, "b") == F(9, 100)

    def test_case_c_exact(self):
        inst = NewineqInstance(F(1, 4), F(1, 2), F(1, 8), F(1, 16), F(7, 64))
        assert newineq_bound(inst, "c") == F(74, 4096)

    def test_not_applicable(self):
        inst = NewineqInstance(1, 1, F(1, 5), F(1, 2), 0)  # beta < x*gamma
        with pytest.raises(CaseNotApplicable):
            newineq_bound(inst, "b")

    def test_zero_denominator_convention(self):
        # case a with x = 0 forces beta <= 0, so beta = 0; bound is 0/0 -> 0
        inst = NewineqInstance(0, 1, 0, F(1, 2), 0)
        assert newineq_bound(inst, "a") == 0
        # case c with y = 1: the (beta-mu)^2/(1-y) term vanishes
        inst2 = NewineqInstance(0, 1, F(1, 4), 0, F(1, 4))
        assert newineq_bound(inst2, "c") == F(1, 16)


class TestOracle:
    def test_matches_case_b(self):
        inst = NewineqInstance(0, F(1, 2), F(3, 10), 0, 0)
        assert newineq_min_oracle(inst) == F(9, 100)

    def test_matches_case_a(self):
        inst = NewineqInstance(1, 1, F(1, 5), F(1, 2), 0)
        assert newineq_min_oracle(inst) == F(9, 100)

    def test_quadratic_mean_floor(self):
        rng = random.Random(41)
        for _ in range(20):
            x = rng.random()
            y = x + rng.random() * (1 - x)
            inst = NewineqInstance(x, y, rng.random(), 0, 0)
            assert newineq_min_oracle(inst) == inst.beta ** 2

    def test_empty_feasible_set(self):
        assert newineq_min_oracle(NewineqInstance(0, 1, F(1, 4), 0, F(1, 2))) is None
        # y = 0 leaves the head px+q(y-x) at 0, below any positive mu
        assert newineq_min_oracle(NewineqInstance(0, 0, F(1, 2), 0, F(1, 4))) is None

    def test_check_examples(self):
        assert check_newineq(NewineqInstance(1, 1, F(1, 5), F(1, 2), 0))
        assert check_newineq(NewineqInstance(0, F(1, 2), F(3, 10), 0, 0))
        assert check_newineq(
            NewineqInstance(F(1, 4), F(1, 2), F(1, 8), F(1, 16), F(7, 64)))

    @pytest.mark.parametrize("case", ["a", "b", "c"])
    def test_stress_sample(self, case):
        assert newineq_stress(case, 300, ord(case)) == 0

    def test_stress_rejects_negative_seed(self):
        # random.Random(-3) would run seed 3
        with pytest.raises(ValueError, match="seed must be nonnegative, got -3"):
            newineq_stress("abc", 5, -3)

    @pytest.mark.parametrize("case", ["a", "b", "c"])
    def test_min_equals_bound(self, case):
        # cases a and c are attained; case b exactly when the unconstrained
        # optimum (gamma+c, c, c) meets the head constraint
        rng = random.Random(1000 + ord(case))
        for _ in range(300):
            inst = random_newineq_instance(case, rng)
            x, y, b, g, m = inst.x, inst.y, inst.beta, inst.gamma, inst.mu
            low, bound = newineq_min_oracle(inst), newineq_bound(inst, case)
            attained = case != "b" or x * g + y * (b - x * g) >= m
            assert (low == bound) if attained else (low > bound)

    def test_random_triples_never_beat_minimum(self):
        # the independent reference: any feasible triple, including the
        # boundary weights x = 0, y = x and y = 1, costs at least the minimum
        rng = random.Random(44)
        grid = [F(i, 6) for i in range(7)]
        for _ in range(3000):
            x, y = sorted(rng.choice(grid) for _ in range(2))
            p, q, r = (F(rng.randint(0, 12), rng.randint(1, 6)) for _ in range(3))
            head = x * p + (y - x) * q
            beta = head + (1 - y) * r
            inst = NewineqInstance(x, y, beta, F(rng.randint(0, 12), 6),
                                   head * F(rng.randint(0, 4), 4))
            low = newineq_min_oracle(inst)
            assert low is not None and f_value(inst, p, q, r) >= low

    def test_planted_overstated_bound_is_caught(self, monkeypatch):
        exact = lemmas.newineq_bound
        monkeypatch.setattr(lemmas, "newineq_bound",
                            lambda inst, case: exact(inst, case) + F(1, 10 ** 15))
        # cases a and c are attained on every instance, so each one violates
        assert newineq_stress("ac", 50, 1) == 100


def _outcome(fn, *args):
    """A call's value, or the type and message of the library error it raised."""
    try:
        return fn(*args)
    except (CaseNotApplicable, InfeasibleTriple) as exc:
        return type(exc), str(exc)


class TestIntegerKernel:
    """The integer oracle, bound, eligibility and f against the `Fraction`
    kernel they replaced, compared exactly."""

    @staticmethod
    def check(inst, triples=()):
        assert inst._int == oracles.fraction_instance_ints(inst)
        assert _outcome(newineq_min_oracle, inst) == oracles.fraction_min_oracle(inst)
        for case in "abc":
            assert inst.eligible(case) == oracles.fraction_eligible(inst, case)
            assert (_outcome(newineq_bound, inst, case)
                    == _outcome(oracles.fraction_bound, inst, case))
        for t in triples:
            assert (_outcome(f_value, inst, *t)
                    == _outcome(oracles.fraction_f_value, inst, *t))

    @pytest.mark.parametrize("case", ["a", "b", "c"])
    def test_seeded_instances(self, case):
        rng = random.Random(2000 + ord(case))
        for _ in range(2000):
            self.check(random_newineq_instance(case, rng))

    def test_quarter_grid(self):
        # every boundary the kernel branches on: x = 0, y = x, y = 1,
        # beta = x*gamma (c = 0), mu = beta, and mu > beta
        grid = [F(i, 4) for i in range(5)]
        eligible = set()
        for x, y, beta, gamma, mu in itertools.product(grid, repeat=5):
            if y >= x:
                inst = NewineqInstance(x, y, beta, gamma, mu)
                self.check(inst, [(beta, 0, 0), grid[1:4]])
                eligible.update(case for case in "abc" if inst.eligible(case))
        assert eligible == {"a", "b", "c"}

    def test_unrelated_denominators(self):
        # thirds, sevenths, ...: the common denominator is a true lcm
        rng = random.Random(47)

        def draw(top):
            q = rng.choice([3, 5, 7, 9, 11, 13, 49])
            return F(rng.randint(0, top * q), q)

        for _ in range(1500):
            x, y = sorted((draw(1), draw(1)))
            t = p, q, r = draw(2), draw(2), draw(2)
            head = x * p + (y - x) * q
            beta = head + (1 - y) * r
            inst = NewineqInstance(x, y, beta, draw(2), head * F(rng.randint(0, 5), 4))
            self.check(inst, [t, (draw(2), draw(2), draw(2))])
            self.check(NewineqInstance(x, y, draw(2), draw(2), draw(2)), [t])

    def test_planted_weight_sum_off_by_1e18(self):
        x, y = F(2, 7), F(5, 9)
        t = p, q, r = F(4, 3), F(6, 11), F(2, 13)
        beta = x * p + (y - x) * q + (1 - y) * r
        assert f_value(NewineqInstance(x, y, beta, F(1, 3), 0), *t) >= 0
        with pytest.raises(InfeasibleTriple, match="weights sum"):
            f_value(NewineqInstance(x, y, beta - F(1, 10 ** 18), F(1, 3), 0), *t)

    def test_planted_head_short_of_mu_by_1e18(self):
        x, y = F(2, 7), F(5, 9)
        t = p, q, r = F(4, 3), F(6, 11), F(2, 13)
        head = x * p + (y - x) * q
        beta = head + (1 - y) * r
        assert f_value(NewineqInstance(x, y, beta, F(1, 3), head), *t) >= 0
        with pytest.raises(InfeasibleTriple, match="below mu"):
            f_value(NewineqInstance(x, y, beta, F(1, 3), head + F(1, 10 ** 18)), *t)


class TestAppliedineq:
    def test_equality_boundary(self):
        params = IneqParams(0, 1, F(1, 4), 0, F(1, 4), F(1, 4))
        rep = appliedineq_check([(F(1, 4), F(1, 4))] * 4, params, [], range(4))
        assert rep.conclusion_held
        assert rep.lhs == rep.rhs

    def test_strict_case(self):
        params = IneqParams(0, 1, F(1, 4), 0, F(1, 4), F(1, 4))
        rep = appliedineq_check([(F(1, 4), F(1, 2)), (F(1, 4), 0)],
                                params, [], range(2))
        assert rep.conclusion_held
        assert rep.lhs > rep.rhs

    def test_bullet1_guard(self):
        params = IneqParams(0, 1, F(1, 4), 0, F(1, 4), F(1, 4))
        with pytest.raises(HypothesisViolated) as exc:
            appliedineq_check([(F(1, 4), F(1, 2))] * 2, params, [], range(2))
        assert exc.value.bullet == "bullet 1"

    def test_other_bullets(self):
        params = IneqParams(0, 1, F(1, 4), 0, F(1, 2), F(1, 4))
        with pytest.raises(HypothesisViolated) as exc:
            appliedineq_check([(F(1, 4), F(1, 4))] * 4, params, [], range(4))
        assert exc.value.bullet == "bullet 2"

    @pytest.mark.parametrize("samples, params, X, Y, bullet, message", [
        ([], IneqParams(0, 1, 0, 0, 0, 0), [], [], "bullet 1", "empty sample set"),
        ([(F(1, 4), F(1, 4))] * 4, IneqParams(0, 1, F(1, 4), 0, F(1, 4), F(1, 4)),
         [0], range(4), "bullet 3", "|X| differs from x|B|"),
        ([(F(1, 4), F(1, 4))] * 4, IneqParams(0, 1, F(1, 4), F(1, 4), F(1, 4), F(1, 4)),
         [], range(4), "bullet 3", "a(v) below gamma+lambda off X"),
        ([(F(1, 4), F(1, 4))] * 4, IneqParams(0, 1, F(1, 4), 0, F(1, 4), F(1, 4)),
         [], range(3), "bullet 4", "|Y| differs from y|B|"),
        ([(F(1, 4), F(1, 4))] * 4, IneqParams(0, 1, F(1, 4), 0, F(1, 4), F(1, 2)),
         [], range(4), "bullet 4", "sum of b over Y below mu|B|"),
        ([(F(1, 4), F(1, 4))] * 4, IneqParams(0, 1, F(1, 4), 0, F(1, 4), F(1, 8)),
         [], range(4), "bullet 5", "parameter inequalities fail"),
    ], ids=["empty", "x_size", "off_x", "y_size", "y_sum", "params"])
    def test_planted_violation(self, samples, params, X, Y, bullet, message):
        # each instance breaks one check; without it the check after it passes
        with pytest.raises(HypothesisViolated, match=re.escape(message)) as exc:
            appliedineq_check(samples, params, X, Y)
        assert exc.value.bullet == bullet

    def test_random_stress(self):
        # hypothesis-satisfying instances never fail the conclusion
        rng = random.Random(43)
        checked = 0
        while checked < 400:
            n = rng.randint(2, 8)
            lam = F(rng.randint(0, 4), 16)
            gamma = F(rng.randint(0, 4), 16)
            bvals = [F(rng.randint(0, 8), 16) for _ in range(n)]
            avals = [lam + gamma + F(rng.randint(0, 4), 16) for _ in range(n)]
            beta = sum(bvals) / n
            samples = list(zip(avals, bvals))
            params = IneqParams(0, 1, beta, gamma, lam, beta)
            try:
                rep = appliedineq_check(samples, params, [], range(n))
            except HypothesisViolated:
                continue
            assert rep.conclusion_held
            checked += 1


class TestBellsAndWhistles:
    def test_distance_power_instance(self):
        g = distance_power(circulant(4, 1, 1), 3)
        rep = audit_bells(g)
        assert rep.conclusion_held

    def test_six_cycle(self):
        rep = audit_bells(circulant(2, 1, 1))
        assert rep.conclusion_held

    def test_bad_edge_sets(self):
        g = circulant(2, 1, 1)
        params = IneqParams(F(0), F(1), F(1, 3), F(0), F(1, 3), F(1, 3))
        with pytest.raises(BadEdgeSets):
            bellsandwhistles_check(
                g, [(VertexRef(Side.A, 0), VertexRef(Side.B, 0))], [],
                params, [], [B(0), B(1), B(2)])

    def test_absent_edge(self):
        # the six-cycle has b0 -> a1, not b0 -> a0
        params = IneqParams(F(0), F(1), F(1, 3), F(0), F(1, 3), F(1, 3))
        with pytest.raises(BadEdgeSets, match="not present in the digraph"):
            bellsandwhistles_check(circulant(2, 1, 1), [(B(0), A(0))], [],
                                   params, [], [B(0), B(1), B(2)])

    @pytest.mark.parametrize("params, X, Y, bullet, message", [
        ((0, 1, F(1, 3), 0, F(1, 3), F(1, 4)), [], [0, 1, 2],
         "bullet 1", "parameter inequalities fail"),
        ((0, 1, F(1, 2), 0, F(1, 3), F(1, 2)), [], [0, 1, 2],
         "bullet 2", "A-vertex with out-degree below beta|B|"),
        ((0, 1, F(1, 3), 0, F(1, 2), F(1, 3)), [], [0, 1, 2],
         "bullet 4", "some a(v) below lambda"),
        ((0, 1, F(1, 3), 0, F(1, 3), F(1, 3)), [0], [0, 1, 2],
         "bullet 5", "|X| exceeds x|B|"),
        ((0, 1, F(1, 3), F(1, 3), F(1, 3), F(1, 3)), [], [0, 1, 2],
         "bullet 5", "a(v) below gamma+lambda off X"),
        ((0, F(2, 3), F(1, 3), 0, F(1, 3), F(1, 3)), [], [0, 1, 2],
         "bullet 6", "|Y| exceeds y|B|"),
        ((0, 1, F(1, 3), 0, F(1, 3), F(1, 3)), [], [0, 1],
         "bullet 6", "fewer than mu|A||B| edges head in Y"),
    ], ids=["params", "out_degree", "lambda", "x_size", "off_x", "y_size", "y_heads"])
    def test_planted_violation(self, params, X, Y, bullet, message):
        # the six-cycle with R = S = its B->A edges; each instance breaks one
        # check, and without it the checks after it pass or raise another
        g = circulant(2, 1, 1)
        edges = [(t, h) for t, h in g.edges() if t.side is Side.B]
        with pytest.raises(HypothesisViolated, match=re.escape(message)) as exc:
            bellsandwhistles_check(g, edges, edges, IneqParams(*params),
                                   [B(j) for j in X], [B(j) for j in Y])
        assert exc.value.bullet == bullet

    def test_two_cycle(self):
        g = from_edges(1, 1, [(A(0), B(0)), (B(0), A(0))])
        edges = [(B(0), A(0))]
        with pytest.raises(HypothesisViolated, match="girth below four") as exc:
            bellsandwhistles_check(g, edges, edges, IneqParams(0, 1, 1, 0, 1, 1), [], [B(0)])
        assert exc.value.bullet == "bullet 3"

    def test_mixed_four_cycle_guard(self):
        # a1->b1->a2->b2->a1 with the two B->A edges split across R and S
        g = from_edges(2, 2, [
            (VertexRef(Side.A, 0), VertexRef(Side.B, 0)),
            (VertexRef(Side.B, 0), VertexRef(Side.A, 1)),
            (VertexRef(Side.A, 1), VertexRef(Side.B, 1)),
            (VertexRef(Side.B, 1), VertexRef(Side.A, 0)),
        ])
        R = [(VertexRef(Side.B, 0), VertexRef(Side.A, 1))]
        S = [(VertexRef(Side.B, 1), VertexRef(Side.A, 0))]
        params = IneqParams(F(0), F(1), F(1, 2), F(0), F(0), F(1, 2))
        with pytest.raises(HypothesisViolated) as exc:
            bellsandwhistles_check(g, R, S, params, [], [B(0), B(1)])
        assert exc.value.bullet == "bullet 3"
        # with R = S the same 4-cycle is allowed (same edge rule)
        rep = bellsandwhistles_check(g, R, R, params, [], [B(0), B(1)])
        assert isinstance(rep, CheckReport)


# threshold_k(0..100), as computed when the function still had a branch for a
# negative discriminant
THRESHOLDS = [
    1, 8, 26, 57, 105, 173, 264, 380, 525, 702, 915, 1165, 1456, 1791, 2172, 2604,
    3089, 3630, 4230, 4892, 5618, 6413, 7279, 8218, 9235, 10332, 11512, 12777, 14132,
    15578, 17120, 18760, 20500, 22345, 24297, 26358, 28533, 30823, 33233, 35765, 38421,
    41206, 44121, 47171, 50357, 53684, 57154, 60769, 64534, 68450, 72522, 76751, 81142,
    85697, 90418, 95310, 100374, 105615, 111034, 116636, 122422, 128397, 134562, 140922,
    147479, 154235, 161195, 168360, 175735, 183321, 191123, 199142, 207383, 215847,
    224539, 233460, 242615, 252005, 261635, 271506, 281623, 291988, 302603, 313473,
    324599, 335986, 347635, 359551, 371735, 384192, 396923, 409933, 423223, 436798,
    450659, 464811, 479255, 493996, 509035, 524377, 540023]


class TestThreshold:
    def test_headline(self):
        assert threshold_k(74) == 224539

    def test_trivial(self):
        assert threshold_k(0) == 1

    def test_r1(self):
        assert threshold_k(1) == 8

    def test_monotone(self):
        vals = [threshold_k(r) for r in range(2, 101)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            threshold_k(-1)

    def test_discriminant_is_never_negative(self):
        # b^2 - 8c = r^2((r^2 + 8r - 8)^2 + 192r - 64), and 192r - 64 > 0 for r >= 1
        for r in range(10 ** 4 + 1):
            b = r ** 3 + 8 * r * r + 8 * r
            c = 4 * (r + r * r) ** 2 + 4 * r * r
            assert b * b - 8 * c == r * r * ((r * r + 8 * r - 8) ** 2 + 192 * r - 64)

    def test_values_up_to_100(self):
        assert [threshold_k(r) for r in range(101)] == THRESHOLDS

    def test_check_raises(self, monkeypatch):
        # an isqrt of 0 puts k = 6 below the root at r = 1
        monkeypatch.setattr(lemmas, "math", types.SimpleNamespace(isqrt=lambda n: 0))
        with pytest.raises(RuntimeError, match="cleared inequality"):
            threshold_k(1)


class TestBigkSimplify:
    def test_headline_point(self):
        assert bigk_simplify_check(224539, 74)

    def test_small_points(self):
        assert bigk_simplify_check(10, 1)
        assert bigk_simplify_check(2, 0)

    def test_many_points(self):
        for k, r in ((5, 2), (30, 3), (100, 7), (5624, 74)):
            assert bigk_simplify_check(k, r)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            bigk_simplify_check(3, 3)


class TestFactScan:
    def test_all_hold(self):
        for fid in all_fact_ids():
            rep = fact_scan(fid)
            assert rep.holds_everywhere, fid
            assert rep.first_violation is None

    def test_unknown_fact(self):
        # the known ids are listed in catalog order, F2 before F10
        known = ", ".join(repr(f"F{i}") for i in range(1, 12))
        with pytest.raises(UnknownFact, match=re.escape(f"(known: [{known}])")):
            fact_scan("F99")

    def test_f4_margin(self):
        rep = fact_scan("F4")
        assert rep.margin_min == F(258, 1000) - 1 / (1 + DELTA3)
        assert rep.points_checked == 1

    def test_f1_bracket(self):
        lo, hi = f1_root_bracket()
        assert F(2191, 10000) < lo < hi < F(2193, 10000)
        assert hi - lo <= F(1, 10 ** 9)

    def test_f5_positive_margin(self):
        rep = fact_scan("F5")
        assert rep.margin_min > 0

    def test_violation_reporting(self, monkeypatch):
        # F7's check on a widened interval where it fails at both ends:
        # m1 < 0 at 0.16 and m2 < 0 at 0.20
        widened = dataclasses.replace(lemmas._CATALOG["F7"], lo=F(16, 100),
                                      hi=F(20, 100))
        monkeypatch.setitem(lemmas._CATALOG, "F7", widened)
        for step in (F(1, 1000), F(3, 10000)):
            rep = fact_scan("F7", step=step)
            ref = oracles.reference_scan("F7", step)
            assert rep.holds_everywhere is False
            assert rep.first_violation == ref.first_violation
            assert rep.margin_min == ref.margin_min < 0
            assert rep == ref

    def test_matches_reference_scan(self):
        for fid in all_fact_ids():
            step = F(1, 10000)
            assert fact_scan(fid, step=step) == oracles.reference_scan(fid, step), fid


STEPS = (F(1, 100000), F(1, 99991), F(1, 997), F(3, 10000), F(1, 7), F(7, 3))
THRESHOLD_FACTS = ("F1", "F2", "F5", "F6", "F7", "F10", "F11")


@pytest.mark.parametrize("step", STEPS, ids=str)
@pytest.mark.parametrize("fid", all_fact_ids())
def test_scan_matches_point_scan(fid, step):
    assert fact_scan(fid, step) == oracles.point_scan(fid, step)


@pytest.mark.parametrize("step", STEPS, ids=str)
@pytest.mark.parametrize("fid", [f for f in THRESHOLD_FACTS if f != "F7"])
def test_widened_scan_matches_point_scan(monkeypatch, fid, step):
    # on the closed [0, 1] F2's quadratic premise changes sign on both sides
    # of its vertex, at about 0.223 and 0.777; F7's m2 has its pole at b = 1
    widened = dataclasses.replace(lemmas._CATALOG[fid], lo=F(0), hi=F(1),
                                  open_lo=False, open_hi=False)
    monkeypatch.setitem(lemmas._CATALOG, fid, widened)
    assert fact_scan(fid, step) == oracles.point_scan(fid, step)


def _f10_conclusion_times(two):
    # F10's terms with the 2 of its conclusion xi <= 2(1 - c) replaced
    return lambda n, d: tuple(t for cn, cd in lemmas._F10_RATIOS for t in (
        cd * (2 * d - n) - 2 * d * cn, two * d * (cd - cn) - n * cd))


def _f8_tail_times(c):
    # F8's terms with the 25 of its tail n*q^2*(25n - 6d) replaced
    def terms(n, d):
        extra = (c - 25) * n * n * (44814 * n - 3200 * d) ** 2
        return tuple(t + extra * (i % 2 == 0) for i, t in enumerate(lemmas._f8(n, d)))
    return terms


# a planted violation of each fact with an interval: its terms with one
# constant moved, and the former check with that move.  F3's 2000 becomes
# 1750, which fails from b = 0.22254 at step 1/100000; F5's delta4 = 3.6814
# becomes 3.7814, which fails near b = 1/5; F7's 0.32 becomes 0.33, which
# fails near b = 0.17; F8's 25n - 6d becomes 24n - 6d, which fails from
# b = 0.18417
PLANTED = {
    "F1": (lambda n, d: (lemmas._f1(n, d)[0], 1000 * n - 220 * d),
           functools.partial(oracles.int_f1, cut=220)),
    "F2": (lambda n, d: (lemmas._f2(n, d)[0], 222 * d - 1000 * n),
           functools.partial(oracles.int_f2, cut=222)),
    "F3": (lambda n, d: (lemmas._f3(n, d)[0] - 250 * n * (d - 2 * n) ** 2, lemmas._f3(n, d)[1]),
           functools.partial(oracles.int_f3, coef=1750)),
    "F5": (lambda n, d: (lemmas._f5(n, d)[0] - 1000 * n * (3 * d + 5 * n), lemmas._f5(n, d)[1]),
           functools.partial(oracles.int_f5, delta4=37814)),
    "F6": (lambda n, d: (lemmas._f6(n, d)[0], 18 * d - 100 * n),
           functools.partial(oracles.int_f6, cut=18)),
    "F7": (lambda n, d: (lemmas._f7(n, d)[0] - d * (3 * d + 5 * n), *lemmas._f7(n, d)[1:]),
           functools.partial(oracles.int_f7, y=33)),
    "F8": (_f8_tail_times(24), functools.partial(oracles.int_f8, coef=24)),
    "F10": (_f10_conclusion_times(3), functools.partial(oracles.int_f10, two=3)),
    "F11": (lambda n, d: (lemmas._f11(n, d)[0], 23 * d - 100 * n),
            functools.partial(oracles.int_f11, cut=23)),
}


@pytest.mark.parametrize("step", STEPS[:4], ids=str)
@pytest.mark.parametrize("fid", PLANTED)
def test_planted_violation_matches_point_scan(monkeypatch, fid, step):
    terms, former = PLANTED[fid]
    planted = dataclasses.replace(lemmas._CATALOG[fid], terms=terms)
    monkeypatch.setitem(lemmas._CATALOG, fid, planted)
    rep = fact_scan(fid, step)
    assert rep.holds_everywhere is False
    assert rep == oracles.point_scan(fid, step, former)


def test_runs_tile_the_grid_and_keep_every_sign():
    # random terms in (n, d) of every degree up to the cap, products of small
    # linear factors and so often zero at a grid point, on grids that
    # straddle their turning points
    rng = random.Random(17)
    for _ in range(400):
        factors = [[(rng.randint(-4, 4), rng.randint(-9, 9)) for _ in range(rng.randint(0, 4))]
                   for _ in range(rng.randint(1, 3))]
        scales = [rng.choice((-1, 1)) * rng.randint(1, 3) for _ in factors]

        def terms(n, d):
            return tuple(s * math.prod(a * n + b * d for a, b in f)
                         for s, f in zip(scales, factors))

        def signs(m):
            return [(v > 0) - (v < 0) for v in terms(m * p, q)]

        p, q = rng.randint(1, 3), rng.randint(1, 3)
        points = range(rng.randint(-20, 5), rng.randint(-5, 30))
        ends = lemmas._run_ends(terms, p, q, points)
        if not points:
            assert ends == []
            continue
        assert ends[0] == points.start and ends[-1] == points[-1]
        assert ends[2::2] == [b + 1 for b in ends[1:-1:2]]
        for a, b in zip(ends[::2], ends[1::2]):
            assert all(signs(m) == signs(a) for m in range(a, b + 1)), (factors, p, q, a, b)


def test_run_ends_rejects_a_term_above_the_cap():
    lemmas._run_ends(lambda n, d: (n ** 4 - d ** 4,), 1, 1, range(10))
    with pytest.raises(AssertionError, match="above degree 4"):
        lemmas._run_ends(lambda n, d: (n ** 5 - d ** 5,), 1, 1, range(10))


# the grid points of each fact with an interval at the default step 1/100000
GRID_POINTS = {"F1": 50000, "F2": 22300, "F3": 399, "F5": 20000, "F6": 20000,
               "F7": 1999, "F8": 1999, "F10": 100001, "F11": 50000}


@pytest.mark.parametrize("fid", GRID_POINTS)
def test_threshold_fact_reads_few_points(monkeypatch, fid):
    # a fact is decided from its sign changes, not point by point
    fact = lemmas._CATALOG[fid]
    reads = []
    monkeypatch.setitem(lemmas._CATALOG, fid, dataclasses.replace(
        fact, terms=lambda n, d: reads.append(n) or fact.terms(n, d)))
    assert fact_scan(fid).points_checked == GRID_POINTS[fid] and len(reads) < 500


def _margins(fid, step=F(1, 1000)):
    fact = lemmas._CATALOG[fid]
    grid = lemmas._grid(fact.lo, fact.hi, step, fact.open_lo, fact.open_hi)
    return [[F(v, w) for v, w in zip(t[::2], t[1::2])]
            for t in (fact.terms(m * step.numerator, step.denominator) for m in grid)]


@pytest.mark.parametrize("fid", ["F5", "F7", "F8"])
def test_margins_are_concave(fid):
    # the scan reads F5's, F7's and F8's margins only at the ends of each run
    # of constant signs, which is exact because each margin v/w is concave:
    # its exact second differences at step 1/1000 are <= 0
    margins = _margins(fid)
    assert len(margins) >= 19
    for u, v, w in zip(margins, margins[1:], margins[2:]):
        assert all(a - 2 * b + c <= 0 for a, b, c in zip(u, v, w)), (fid, u)


def test_f3_margin_falls():
    # F3's margin is least at the right end of each run because it falls:
    # its exact first differences at step 1/10000 are < 0
    margins = _margins("F3", F(1, 10000))
    assert len(margins) == 39
    assert all(b[0] < a[0] for a, b in zip(margins, margins[1:]))


def test_f10_premise_and_conclusion_are_one_polynomial():
    # cd*(2d - n) - 2d*cn and 2d*(cd - cn) - n*cd, for each of the four ratios
    rng = random.Random(10)
    for _ in range(1000):
        n, d = rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 9)
        terms = lemmas._f10(n, d)
        assert len(terms) == 8 and terms[::2] == terms[1::2], (n, d)


@pytest.mark.parametrize("step", [F(0), F(-1, 100)])
def test_nonpositive_step_is_rejected(step):
    with pytest.raises(ValueError, match=re.escape(f"grid step must be positive, got {step}")):
        fact_scan("F1", step)


def _inside(fact, b):
    return ((fact.lo < b if fact.open_lo else fact.lo <= b)
            and (b < fact.hi if fact.open_hi else b <= fact.hi))


def _boundary_points(reference, points):
    """The rationals within 1e-12 on either side of each place where the
    statement's verdict, or whether it reports a margin, changes between
    neighbouring points."""
    def state(b):
        ok, margin = reference(b)
        return ok, margin is None

    found = []
    for lo, hi in zip(points, points[1:]):
        if state(lo) != state(hi):
            while hi - lo > F(1, 10 ** 12):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if state(mid) == state(lo) else (lo, mid)
            found += [lo, hi]
    return found


@pytest.mark.parametrize("fid", all_fact_ids())
def test_integer_check_matches_fraction_statement(fid):
    """The cleared integer check at (n, d) and the Fraction statement at n/d
    give the same verdict and the same exact margin: at grid points, next to
    each boundary of the statement's condition, and at random rationals."""
    fact = lemmas._CATALOG[fid]
    reference = oracles.FRACTION_FACTS[fid]
    pairs = []
    for step in (F(1, 1000), F(1, 997), F(3, 1000)):
        grid = lemmas._grid(fact.lo, fact.hi, step, fact.open_lo, fact.open_hi)
        pairs += [(m * step.numerator, step.denominator) for m in grid]
    grid = [m * F(1, 1000) for m in lemmas._grid(
        fact.lo, fact.hi, F(1, 1000), fact.open_lo, fact.open_hi)]
    pairs += [(b.numerator, b.denominator)
              for b in _boundary_points(reference, grid)]
    rng = random.Random(fid)
    drawn = 0
    while drawn < 200:
        d = rng.randint(1, 10 ** 7)
        n = rng.randint(int(fact.lo * d), int(fact.hi * d) + 1)
        if _inside(fact, F(n, d)):
            pairs.append((n, d))
            drawn += 1
    for n, d in pairs:
        ok, margins = fact.rule(fact.terms(n, d), d)
        ref_ok, ref_margin = reference(F(n, d))
        assert ok == ref_ok, (fid, n, d)
        assert all(w > 0 for _, w in margins), (fid, n, d)
        assert min((F(*m) for m in margins), default=None) == ref_margin, (fid, n, d)
