import random
import re
from fractions import Fraction

import pytest

import oracles
from bipgirth.constructions import circulant
from bipgirth.digraph import compliance_profile, girth, is_compliant
from bipgirth import frontier
from bipgirth.frontier import (
    LARGE_K_START,
    BadWitness,
    Status,
    bad_pairs,
    classify,
    region_csv,
    region_grid,
    region_svg,
)


def F(p, q=1):
    return Fraction(p, q)


class TestRange:
    def test_range_validation(self):
        with pytest.raises(ValueError, match=re.escape("(3/2,0) outside [0,1]^2")):
            classify(2, F(3, 2), F(0))
        # the range is checked before k
        with pytest.raises(ValueError, match=re.escape("(3/2,1/3) outside [0,1]^2")):
            classify(0, F(3, 2), F(1, 3))

    def test_float_read_exactly(self):
        # through as_integer_ratio: 0.1 is 3602879701896397/2^55, not 1/10
        assert classify(2, 0.5, 0.25) == classify(2, F(1, 2), F(1, 4))
        assert classify(1, 0.1, 0.9) == classify(1, Fraction(0.1), Fraction(0.9))
        assert classify(1, 0.1, 0.9) != classify(1, F(1, 10), F(9, 10))


class TestBadPairs:
    def test_k2_values(self):
        pairs = bad_pairs(2, 2)
        assert (F(1, 3), F(1, 3)) in pairs
        assert (F(2, 5), F(1, 5)) in pairs
        assert (F(1, 5), F(2, 5)) in pairs

    def test_t1_not_duplicated(self):
        assert len(bad_pairs(3, 1)) == 1

    def test_witnessed_by_circulant(self):
        # every bad pair is realised by a circulant with girth > 2k
        for k in (1, 2, 3):
            for t in (1, 2, 3):
                g = circulant(k, 1, t)
                n = k * t + 1
                assert compliance_profile(g) == (F(t, n), F(1, n))
                assert girth(g).length > 2 * k


class TestClassify:
    def test_bad_one_third(self):
        v = classify(2, F(1, 3), F(1, 3))
        assert v.status is Status.BAD
        assert v.witness == BadWitness(s=1, t=1)
        assert v.provenance == "witness:s=1,t=1"

    def test_mirrored_witness(self):
        v = classify(2, F(1, 5), F(2, 5))
        assert v.status is Status.BAD
        assert v.witness == BadWitness(s=2, t=1)

    def test_axis_witness(self):
        v = classify(2, F(1), F(0))
        assert v.status is Status.BAD
        assert v.witness == BadWitness(s=None, t=None)
        assert v.provenance == "witness:axis"

    def test_good_rules(self):
        assert classify(1, F(3, 5), F(3, 5)).rule.startswith("k'=1")
        assert classify(2, F(2, 5), F(1, 4)).rule.startswith("k'=2")
        assert classify(3, F(3, 10), F(27, 100)).rule.startswith("k'=3")
        assert classify(4, F(22, 100), F(20, 100)).rule.startswith("k'=4")
        assert classify(6, F(1, 6), F(1, 6)).rule.startswith("k'=6")

    def test_large_k_rule(self):
        k = LARGE_K_START
        v = classify(k, F(1, k), F(1, k))
        assert v.status is Status.GOOD
        # at k-1 the same point coincides with the t=1 bad pair
        v2 = classify(k - 1, F(1, k), F(1, k))
        assert v2.status is Status.BAD
        # just inside the diagonal at k-1 nothing proved applies
        v3 = classify(k - 1, F(1, k - 1), F(1, k - 1))
        assert v3.status is Status.UNKNOWN

    def test_unknown_point(self):
        # 2a+b = 190/200 here, short of 1
        v = classify(2, F(9, 25), F(23, 100))
        assert v.status is Status.UNKNOWN
        assert v.provenance == ""

    def test_good_and_bad_exclusive_on_grid(self):
        for k in (1, 2, 3, 4):
            for _a, _b, v in region_grid(k, 30):
                assert not (v.rule and v.witness)

    def test_good_and_bad_check_raises(self, monkeypatch):
        monkeypatch.setattr(frontier, "_least_t", lambda k, x, y, d: 1)
        with pytest.raises(RuntimeError, match=re.escape("(8/20,5/20) both Good and Bad")):
            classify(2, F(2, 5), F(1, 4))

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            classify(0, F(1, 2), F(1, 2))


@pytest.mark.parametrize("k", range(2, 8))
def test_circulant_family_is_bad(k):
    # every circulant(k, s, t) point (t/n, s/n) is BAD; k = 1 is left out, as
    # most of its points are dominated by no s = 1 or t = 1 pair (UNKNOWN)
    for s in range(1, 41):
        for t in range(1, 41):
            n = k * (s + t - 1) + 1
            assert classify(k, F(t, n), F(s, n)).status is Status.BAD, (k, s, t)


@pytest.mark.parametrize("k", range(1, 5))
def test_bad_cells_name_a_witness(k):
    # the named circulant complies with the cell's point and has girth > 2k
    built = {}
    for a, b, v in region_grid(k, 40):
        w = v.witness
        if v.status is Status.BAD and w.t is not None:
            if (w.s, w.t) not in built:
                built[w.s, w.t] = g = circulant(k, w.s, w.t)
                assert girth(g).length > 2 * k, (k, w)
            assert is_compliant(built[w.s, w.t], a, b), (k, a, b, w)


def _key(v):
    if v.witness is None:
        return v.status.value, None, None
    return v.status.value, v.witness.s, v.witness.t


def _agrees(k, a, b):
    """classify at (a, b) against the former loop kernel, verdict for
    verdict, and against the closed-form reference."""
    v = classify(k, a, b)
    assert v == oracles.loop_classify(k, a, b), (k, a, b)
    assert _key(v) == oracles.reference_classify(k, a, b), (k, a, b)


@pytest.mark.parametrize("k", range(1, 9))
def test_classify_matches_reference_on_grid(k):
    for a, b, _v in region_grid(k, 40):
        _agrees(k, a, b)


@pytest.mark.parametrize("k", [LARGE_K_START - 1, LARGE_K_START, LARGE_K_START + 1])
def test_classify_matches_reference_near_large_k(k):
    # the diagonal thresholds 1/(k'+1) and the bad pairs around this k
    values = {F(0), F(1, 7), F(1, 2), F(1)}
    values |= {F(1, k + d) for d in (-1, 0, 1, 2)}
    values |= {x for t in (1, 2, 3) for x in (F(t, k * t + 1), F(1, k * t + 1))}
    for a in values:
        for b in values:
            _agrees(k, a, b)


def test_classify_matches_reference_on_unrelated_denominators():
    # alpha and beta over different denominators, so classify works over their lcm
    rng = random.Random(13)
    for _ in range(3000):
        qa, qb = rng.randint(1, 90), rng.randint(1, 90)
        a, b = F(rng.randint(0, qa), qa), F(rng.randint(0, qb), qb)
        _agrees(rng.choice((1, 2, 3, 4, 5, 6, 7, 8, 11)), a, b)


def _loop_csv(k, resolution):
    lines = ["alpha,beta,status,provenance"]
    for i in range(resolution + 1):
        for j in range(resolution + 1):
            a, b = F(i, resolution), F(j, resolution)
            v = oracles.loop_classify(k, a, b)
            lines.append(f"{a},{b},{v.status.value},{v.provenance}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("resolution", [2, 3, 100])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
def test_region_csv_matches_loop_kernel(k, resolution):
    assert region_csv(k, resolution) == _loop_csv(k, resolution)


def test_region_svg_matches_loop_kernel(monkeypatch):
    svg = region_svg(2, 40)
    monkeypatch.setattr(frontier, "classify", oracles.loop_classify)
    assert svg == region_svg(2, 40)


class TestRegion:
    def test_csv_shape(self):
        csv = region_csv(2, 10)
        lines = csv.strip().split("\n")
        assert lines[0] == "alpha,beta,status,provenance"
        assert len(lines) == 1 + 11 * 11

    def test_csv_no_contradictions(self):
        for line in region_csv(2, 40).strip().split("\n")[1:]:
            status = line.split(",")[2]
            assert status in ("good", "bad", "unknown")

    @pytest.mark.parametrize("resolution", [2, 3, 40])
    def test_svg_cells_tile_the_canvas(self, resolution):
        # one cell per lattice point, each inside the 600x600 viewBox, in
        # resolution+1 columns and rows that meet edge to edge
        rects = [tuple(map(float, m)) for m in re.findall(
            r'<rect x="(-?[\d.]+)" y="(-?[\d.]+)" width="([\d.]+)" height="([\d.]+)"',
            region_svg(2, resolution))]
        n = resolution + 1
        assert len(rects) == len({(x, y) for x, y, _, _ in rects}) == n * n
        assert all(0 <= x and 0 <= y and x + w <= 600.005 and y + h <= 600.005
                   for x, y, w, h in rects)
        for edges in ({x for x, *_ in rects}, {y for _, y, *_ in rects}):
            assert sorted(edges) == pytest.approx([i * 600 / n for i in range(n)], abs=0.005)
        assert {(w, h) for *_, w, h in rects} == {(round(600 / n, 2),) * 2}

    def test_svg_wellformed(self):
        svg = region_svg(2, 8)
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "<rect" in svg
