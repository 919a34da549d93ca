"""Geodesic dictionary: depth, canonical fractions, Ford balls with exact
packing checks, Poincare series partial sums and convergence verdicts."""

import dataclasses
import math
import random
import warnings
from fractions import Fraction

import pytest

from horocount.counting import phi
from horocount.field import RingElement, arch_norm_sq, make_field, mul, norm, sub, units
from horocount.geodesics import (
    DisjointnessReport,
    MixedFieldError,
    NonCoprimeError,
    SeriesPartialSum,
    canonical_balls,
    check_disjoint,
    convergence_verdict,
    depth_counting,
    ford_ball,
    growth_rate,
    horoball_of,
    make_geodesic,
    parabolic_poincare_partial,
    parabolic_poincare_partials,
    relative_poincare_partial,
    relative_poincare_partials,
)
from horocount.ideals import InvalidDenominatorError, is_coprime


# ----------------------------------------------------------------------
# make_geodesic
# ----------------------------------------------------------------------

def test_depth_examples(Q, K1):
    g = make_geodesic(Q, RingElement(1), RingElement(2))
    assert g.depth == pytest.approx(2 * math.log(2), abs=1e-12)
    for f, q in ((Q, RingElement(1)), (K1, RingElement(0, 1))):
        assert make_geodesic(f, RingElement(0), q).depth == 0.0
    g1 = make_geodesic(K1, RingElement(1), RingElement(1, 1))
    assert g1.depth == pytest.approx(math.log(2), abs=1e-12)


def test_make_geodesic_errors(Q, K1):
    with pytest.raises(InvalidDenominatorError):
        make_geodesic(Q, RingElement(1), RingElement(0))
    with pytest.raises(NonCoprimeError):
        make_geodesic(K1, RingElement(1, 1), RingElement(2, 0))
    with pytest.raises(NonCoprimeError):
        make_geodesic(Q, RingElement(2), RingElement(4))


def test_unit_invariance(K1, K3):
    rng = random.Random(71)
    for f in (K1, K3):
        for _ in range(100):
            while True:
                p = RingElement(rng.randint(-9, 9), rng.randint(-9, 9))
                q = RingElement(rng.randint(-9, 9), rng.randint(-9, 9))
                if not q.is_zero() and is_coprime(f, p, q):
                    break
            base = make_geodesic(f, p, q)
            for u in units(f):
                assert make_geodesic(f, mul(f, u, p), mul(f, u, q)) == base


def test_canonicalization_idempotent(K1, K3, Q):
    rng = random.Random(73)
    for f in (K1, K3, Q):
        for _ in range(100):
            while True:
                b1 = 0 if f.is_rational else rng.randint(-9, 9)
                b2 = 0 if f.is_rational else rng.randint(-9, 9)
                p = RingElement(rng.randint(-9, 9), b1)
                q = RingElement(rng.randint(-9, 9), b2)
                if not q.is_zero() and is_coprime(f, p, q):
                    break
            g = make_geodesic(f, p, q)
            assert make_geodesic(f, g.p, g.q) == g


def test_translates_collapse_to_one_class(K1):
    # p/q and p/q + t are the same rational geodesic for t in O
    g = make_geodesic(K1, RingElement(1, 0), RingElement(1, 2))
    for t in (RingElement(1, 0), RingElement(-3, 2), RingElement(0, 5)):
        tq = mul(K1, t, g.q)
        p2 = RingElement(g.p.a + tq.a, g.p.b + tq.b)
        assert make_geodesic(K1, p2, g.q) == g


# ----------------------------------------------------------------------
# depth counting and growth
# ----------------------------------------------------------------------

def test_depth_counting_examples(Q, K1):
    assert depth_counting(Q, 2 * math.log(5)) == 10
    assert depth_counting(K1, math.log(2)) == 2
    assert depth_counting(Q, 0.0) == 1
    assert depth_counting(K1, 0.0) == 1
    assert depth_counting(K1, -0.5) == 0


def test_depth_counting_matches_phi_on_grid(Q, K1, K3):
    # bijection consistency at 50 grid points per field
    for f in (Q, K1, K3):
        for n in range(1, 51):
            t = 2 * math.log(n) if f.is_rational else math.log(n)
            assert depth_counting(f, t) == phi(f, n), (f, n)


def test_growth_rate_small_grids(Q, K1):
    slope_q = growth_rate(Q, [2 * math.log(x) for x in (50, 100, 200, 400)])
    assert 0.9 <= slope_q <= 1.1
    slope_1 = growth_rate(K1, [math.log(x) for x in (50, 100, 200, 400)])
    assert 1.8 <= slope_1 <= 2.2


def test_growth_rate_rejects_bad_grid(Q):
    with pytest.raises(ValueError):
        growth_rate(Q, [2.0, 1.0, 3.0])
    with pytest.raises(ValueError):
        growth_rate(Q, [-10.0, -9.0, -8.5])  # N_e = 0 on that range


# ----------------------------------------------------------------------
# Horoballs
# ----------------------------------------------------------------------

def test_horoball_examples(Q, K1):
    b0 = horoball_of(make_geodesic(Q, RingElement(0), RingElement(1)))
    assert b0.center == Fraction(0) and b0.diameter == Fraction(1)
    bh = horoball_of(make_geodesic(Q, RingElement(1), RingElement(2)))
    assert bh.diameter == Fraction(1, 4)
    b1 = horoball_of(make_geodesic(K1, RingElement(1), RingElement(1, 1)))
    assert b1.center == (Fraction(1, 2), Fraction(-1, 2))
    assert b1.diameter == Fraction(1, 2)


def test_diameter_depth_duality(K1, K3, Q):
    rng = random.Random(79)
    for f in (K1, K3, Q):
        for _ in range(60):
            while True:
                b1 = 0 if f.is_rational else rng.randint(-9, 9)
                b2 = 0 if f.is_rational else rng.randint(-9, 9)
                p = RingElement(rng.randint(-9, 9), b1)
                q = RingElement(rng.randint(-9, 9), b2)
                if not q.is_zero() and is_coprime(f, p, q):
                    break
            ball = horoball_of(make_geodesic(f, p, q))
            assert abs(float(ball.diameter) - math.exp(-ball.source.depth)) <= 1e-12
            if norm(f, ball.source.q) > 1:
                assert ball.diameter < 1


def test_check_disjoint_examples(Q):
    b01 = ford_ball(Q, RingElement(0), RingElement(1))
    b11 = ford_ball(Q, RingElement(1), RingElement(1))
    b12 = ford_ball(Q, RingElement(1), RingElement(2))
    b13 = ford_ball(Q, RingElement(1), RingElement(3))
    b15 = ford_ball(Q, RingElement(1), RingElement(5))
    b25 = ford_ball(Q, RingElement(2), RingElement(5))
    report = check_disjoint([b01, b11, b12, b13, b15, b25])
    assert report.overlaps == []
    assert report.unimodular_mismatches == []
    assert (0, 1) in report.tangencies  # 0/1 and 1/1: |0*1 - 1*1| = 1
    assert (2, 3) in report.tangencies  # 1/2 and 1/3
    assert (4, 5) not in report.tangencies  # 1/5 and 2/5: same denominator


def test_check_disjoint_rejects_mixed_fields(Q, K1):
    a = ford_ball(Q, RingElement(0), RingElement(1))
    b = ford_ball(K1, RingElement(0, 0), RingElement(1, 0))
    with pytest.raises(MixedFieldError):
        check_disjoint([a, b])


def test_packing_small_windows(Q, K1):
    report_q = check_disjoint(canonical_balls(Q, 20))
    assert report_q.overlaps == [] and report_q.unimodular_mismatches == []
    report_1 = check_disjoint(canonical_balls(K1, 12))
    assert report_1.overlaps == [] and report_1.unimodular_mismatches == []


def test_raw_window_packing(Q):
    # Ford circles over a whole unit interval, unreduced representatives
    balls = [
        ford_ball(Q, RingElement(p), RingElement(q))
        for q in range(1, 16)
        for p in range(q + 1)
        if math.gcd(p, q) == 1
    ]
    report = check_disjoint(balls)
    assert report.overlaps == [] and report.unimodular_mismatches == []


def test_canonical_balls_one_per_class(Q, K1, K5):
    for f, bound in ((Q, 30), (K1, 20), (K5, 20)):
        balls = canonical_balls(f, bound)
        assert len(balls) == phi(f, bound)
        assert len({(b.source.p, b.source.q) for b in balls}) == len(balls)
        assert all(b == horoball_of(make_geodesic(f, b.source.p, b.source.q)) for b in balls)


def _pairwise_report(balls):
    """The reference check_disjoint: every one of the n(n-1)/2 pairs, in
    Fraction arithmetic, in (i, j) order."""
    if not balls:
        return DisjointnessReport([], [], [])
    f = balls[0].field
    overlaps, tangencies, mismatches = [], [], []
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            a, b = balls[i], balls[j]
            if f.is_rational:
                dist_sq = (a.center - b.center) ** 2
            else:
                (re1, im1), (re2, im2) = a.center, b.center
                dist_sq = (re1 - re2) ** 2 + f.d * (im1 - im2) ** 2
            prod = a.diameter * b.diameter
            tangent = dist_sq == prod
            if dist_sq < prod:
                overlaps.append((i, j))
            elif tangent:
                tangencies.append((i, j))
            cross = sub(mul(f, a.source.p, b.source.q), mul(f, a.source.q, b.source.p))
            if tangent != (arch_norm_sq(f, cross) == 1):
                mismatches.append((i, j))
    return DisjointnessReport(overlaps, tangencies, mismatches)


def _raw_window(f, denominators, numerators):
    return [
        ford_ball(f, p, q)
        for q in denominators
        for p in numerators
        if not q.is_zero() and is_coprime(f, p, q)
    ]


def _corrupted(seed):
    """Canonical balls with one ball's center, diameter or source fraction
    altered, plus one ball listed twice."""
    rng = random.Random(seed)
    f = make_field("rational") if seed % 2 else make_field(1)
    balls = canonical_balls(f, 14 if f.is_rational else 8)
    k = rng.randrange(len(balls))
    ball = balls[k]
    kind = seed % 3
    if kind == 0:
        ball = dataclasses.replace(ball, diameter=ball.diameter * Fraction(rng.choice((2, 3)), 5))
    elif kind == 1:
        shift = Fraction(1, rng.choice((3, 7, 11)))
        center = (
            ball.center + shift
            if f.is_rational
            else (ball.center[0] + shift, ball.center[1])
        )
        ball = dataclasses.replace(ball, center=center)
    else:
        src = ball.source
        moved = RingElement(src.p.a + rng.choice((1, 2)), src.p.b)
        ball = dataclasses.replace(ball, source=dataclasses.replace(src, p=moved))
    balls[k] = ball
    balls.append(balls[rng.randrange(len(balls))])
    return balls


_ZI = [RingElement(a, b) for a in range(-3, 4) for b in range(-3, 4)]
_SWEEP_INPUTS = {
    "Q-50": lambda: canonical_balls(make_field("rational"), 50),
    **{
        f"d={d}": (lambda d=d, b=b: canonical_balls(make_field(d), b))
        for d, b in ((1, 20), (2, 20), (3, 24), (5, 16), (7, 24), (15, 16), (58, 12), (123, 12))
    },
    "raw-Q": lambda: _raw_window(
        make_field("rational"),
        [RingElement(q) for q in range(1, 16)],
        [RingElement(p) for p in range(-15, 31)],
    ),
    "raw-d=1": lambda: _raw_window(
        make_field(1), [q for q in _ZI if norm(make_field(1), q) <= 5], _ZI[::2]
    ),
    # every center has real part 0
    "ties": lambda: _raw_window(
        make_field(1),
        [RingElement(q) for q in range(1, 5)],
        [RingElement(0, b) for b in range(-4, 5)],
    ),
    "empty": lambda: [],
    "single": lambda: canonical_balls(make_field(2), 1),
    **{f"corrupted-{seed}": (lambda seed=seed: _corrupted(seed)) for seed in range(20)},
}


@pytest.mark.parametrize("name", sorted(_SWEEP_INPUTS))
def test_check_disjoint_equals_pairwise(name):
    balls = _SWEEP_INPUTS[name]()
    assert check_disjoint(balls) == _pairwise_report(balls)


def test_sweep_oracle_inputs_hit_every_list():
    overlapping = _SWEEP_INPUTS["raw-d=1"]()
    assert check_disjoint(overlapping).overlaps
    assert any(
        check_disjoint(_corrupted(seed)).unimodular_mismatches for seed in range(20)
    )
    ties = _SWEEP_INPUTS["ties"]()
    assert len({ball.center[0] for ball in ties}) == 1 < len(ties)


# ----------------------------------------------------------------------
# Poincare series
# ----------------------------------------------------------------------

def test_series_trivial_cutoff(Q, K1, K3):
    for f in (Q, K1, K3):
        assert relative_poincare_partial(f, 2.0, 1).value == pytest.approx(1.0)


def test_series_cutoff_monotone(K1, Q):
    for f in (K1, Q):
        for s in (1.5, 2.5):
            vals = [relative_poincare_partial(f, s, c).value for c in (10, 40, 160)]
            assert vals[0] <= vals[1] <= vals[2]
            pvals = [parabolic_poincare_partial(f, s, c).value for c in (5, 20, 80)]
            assert pvals[0] <= pvals[1] <= pvals[2]


def test_series_strictly_decreasing_in_s(K1, Q):
    for f in (K1, Q):
        for fn, cutoff in (
            (relative_poincare_partial, 50),
            (parabolic_poincare_partial, 20),
        ):
            vals = [fn(f, s, cutoff).value for s in (1.2, 1.8, 2.6)]
            assert vals[0] > vals[1] > vals[2]


@pytest.mark.parametrize("d", ["rational", 1, 3, 5])
def test_series_partials_equal_scalar_sums(d):
    # one profile / histogram at the largest cutoff, read at every prefix,
    # gives each scalar sum exactly; the cutoffs need not be sorted
    f = make_field(d)
    cutoffs = [40, 1, 7.5, 23, 100]
    for s in (0.7, 1.5, 2.5):
        for plural, scalar in (
            (relative_poincare_partials, relative_poincare_partial),
            (parabolic_poincare_partials, parabolic_poincare_partial),
        ):
            sums = plural(f, s, cutoffs)
            assert [ps.cutoff for ps in sums] == cutoffs
            assert sums == [scalar(f, s, c) for c in cutoffs]


def test_relative_series_rational_s2(Q):
    # example: s = 2 > delta = 1; sums increase and the increments die out
    sums = [relative_poincare_partial(Q, 2.0, c) for c in (100, 1000, 10000)]
    vals = [ps.value for ps in sums]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] - vals[1] < 1e-6
    assert convergence_verdict(sums).verdict == "converges"


def test_relative_series_gaussian_divergence_trend(K1):
    # s = 1.5 < 2: partial sums track cutoff^(1/2)
    sums = [relative_poincare_partial(K1, 1.5, c) for c in (250, 500, 1000, 2000)]
    v = convergence_verdict(sums)
    assert v.verdict == "diverges"
    assert 0.3 <= v.growth_exponent <= 0.7


def test_parabolic_series_examples(K1, Q):
    conv = [parabolic_poincare_partial(K1, 1.5, c) for c in (60, 120, 240)]
    assert convergence_verdict(conv).verdict == "converges"
    div = [parabolic_poincare_partial(K1, 0.8, c) for c in (60, 120, 240)]
    v = convergence_verdict(div)
    assert v.verdict == "diverges"
    assert 0.25 <= v.growth_exponent <= 0.55  # tracks cutoff^(2-2s) = c^0.4
    rat = [parabolic_poincare_partial(Q, 1.0, c) for c in (200, 400, 800)]
    assert convergence_verdict(rat).verdict == "converges"


def test_theorem_factorization_surrogate(K1):
    # P(s) behaves like P0(s) * (translation sum)^2; with the translation
    # factor convergent for s > 1, the surrogate must share P0's verdict
    for s, expected in ((1.5, "diverges"), (2.5, "converges")):
        cutoffs = [100, 1000, 2000]
        rel = [relative_poincare_partial(K1, s, c) for c in cutoffs]
        surrogate = []
        for ps in rel:
            par = parabolic_poincare_partial(K1, s, math.sqrt(ps.cutoff))
            factor = (1.0 + par.value) ** 2
            surrogate.append(
                SeriesPartialSum(s=s, cutoff=ps.cutoff, value=ps.value * factor, kind="relative")
            )
        assert convergence_verdict(rel).verdict == expected
        assert convergence_verdict(surrogate).verdict == expected


def test_verdict_protocol_attached_and_cases():
    mk = lambda vals, cuts: [
        SeriesPartialSum(s=1.0, cutoff=c, value=v, kind="relative")
        for v, c in zip(vals, cuts)
    ]
    v = convergence_verdict(mk([1.0, 2.0, 4.0], [10, 20, 40]))
    assert v.verdict == "diverges" and "slope" in v.protocol
    v = convergence_verdict(mk([1.0, 1.0 + 1e-9, 1.0 + 2e-9], [10, 20, 40]))
    assert v.verdict == "converges"
    v = convergence_verdict(mk([10.0, 10.001, 10.003], [10, 20, 40]))
    assert v.verdict == "inconclusive"
    with pytest.raises(ValueError):
        convergence_verdict(mk([1.0, 2.0], [10, 20]))


def test_verdict_without_slope_on_nonpositive_sums():
    # all-zero sums (an underflowed parabolic series) have no log-log slope;
    # the Cauchy test decides and no RuntimeWarning is raised
    mk = lambda vals: [
        SeriesPartialSum(s=1000.0, cutoff=c, value=v, kind="parabolic")
        for v, c in zip(vals, (10, 20, 40))
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = convergence_verdict(mk([0.0, 0.0, 0.0]))
    assert v.verdict == "converges" and v.growth_exponent is None
    assert v.cauchy_difference == 0.0
    assert convergence_verdict(mk([0.0, 1.0, 2.0])).growth_exponent is None


def test_series_cutoff_validation(K1):
    with pytest.raises(ValueError):
        relative_poincare_partial(K1, 2.0, 0.5)
    with pytest.raises(ValueError):
        parabolic_poincare_partial(K1, 2.0, 0.0)
    with pytest.raises(ValueError):
        relative_poincare_partials(K1, 2.0, [10, math.inf])
    with pytest.raises(ValueError):
        parabolic_poincare_partials(K1, 2.0, [math.nan])
    with pytest.raises(ValueError):
        relative_poincare_partials(K1, 2.0, [])
