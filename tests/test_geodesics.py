"""Geodesic dictionary: depth, canonical fractions, Ford balls with exact
packing checks, Poincare series partial sums and convergence verdicts."""

import dataclasses
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from horocount import counting, field, geodesics
from horocount.arith import _slope
from horocount.counting import phi, phi_profile, resolve_method, unit_orbit_reps
from horocount.field import (
    RingElement,
    _canonical_associate,
    arch_norm_sq,
    make_field,
    mul,
    norm,
    sub,
    units,
)
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
from horocount.ideals import InvalidDenominatorError, is_coprime, norm_histogram, unit_ideal


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


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from(["rational", 1, 2, 3, 5, 7, 15]),
    a=st.integers(-12, 12),
    b=st.integers(-12, 12),
)
def test_one_associate_rule(d, a, b):
    """unit_orbit_reps keeps, and make_geodesic gives, the one canonical
    associate of each denominator orbit, its (y, x)-lex maximum."""
    f = make_field(d)
    q = RingElement(a, 0 if f.is_rational else b)
    assume(not q.is_zero())
    orbit = {mul(f, u, q) for u in units(f)}
    (canon,) = {_canonical_associate(f, e)[0] for e in orbit}
    assert canon == max(orbit, key=lambda e: (e.b, e.a))
    reps = unit_orbit_reps(f, norm(f, q))
    assert canon in reps
    assert sum(r in orbit for r in reps) == 1
    for r in reps:
        assert make_geodesic(f, RingElement(1), r).q == r


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


def test_cutoffs_snap_only_within_float_error(Q, K1):
    """A depth of log n (2 log n over Q) is the norm cutoff n, and one 0.05
    below n is n - 1, for n up to 10^9; so are the series cutoffs n and
    sqrt(n)^2, and n - 0.05.  A 1e-9 band snapped 99 999 999.95 to 10^8."""
    rng = random.Random(20261019)
    ns = sorted({rng.randint(2, 10**9) for _ in range(2000)} | {2, 10**8, 10**9})
    for n in ns:
        assert geodesics.depth_cutoff(Q, 2 * math.log(n)) == n
        assert geodesics.depth_cutoff(K1, math.log(n)) == n
        assert geodesics.depth_cutoff(Q, 2 * math.log(n - 0.05)) == n - 1
        assert geodesics.depth_cutoff(K1, math.log(n - 0.05)) == n - 1
    series_bounds = geodesics._series_bounds
    assert series_bounds([float(n) for n in ns], square=False) == ns
    assert series_bounds([math.sqrt(n) for n in ns], square=True) == ns
    assert series_bounds([n - 0.05 for n in ns], square=False) == [n - 1 for n in ns]


def test_growth_rate_small_grids(Q, K1):
    slope_q = growth_rate(Q, [2 * math.log(x) for x in (50, 100, 200, 400)])
    assert 0.9 <= slope_q <= 1.1
    slope_1 = growth_rate(K1, [math.log(x) for x in (50, 100, 200, 400)])
    assert 1.8 <= slope_1 <= 2.2


def test_growth_rate_runs_one_kernel(Q, K1, monkeypatch):
    real, calls = counting._increments, []
    for f, scale in ((Q, 2), (K1, 1)):
        grid = [scale * math.log(x) for x in (50, 100, 200, 400)]
        per_t = [depth_counting(f, t) for t in grid]
        slope = _slope(grid, np.log(np.asarray(per_t, float)).tolist())
        calls.clear()
        monkeypatch.setattr(counting, "_increments", lambda *a: calls.append(a) or real(*a))
        assert growth_rate(f, grid) == slope
        assert len(calls) == 1
        monkeypatch.undo()


def _exact_slope(xs, ys):
    """The least-squares slope of the float points, in Fractions, then rounded."""
    xs, ys = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return float(sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                 / sum((x - mx) ** 2 for x in xs))


def _assert_within_two_ulps(got, xs, ys):
    exact = _exact_slope(xs, ys)
    assert abs(got - exact) <= 2 * math.ulp(exact), (got, exact)


@pytest.mark.parametrize("d, cutoffs", [("rational", [500, 1000, 2000]), (1, [100, 200, 400])])
@pytest.mark.parametrize("s", [0.4, 1.5, 2.7, 3.5])
def test_growth_exponent_is_the_exact_slope(d, cutoffs, s):
    # np.polyfit's LAPACK fit was 2.7 * 10^7 ulps off at Q, s = 2.7 and gave
    # the wrong sign at Q, s = 3.5, where the converging sums barely move
    f = make_field(d)
    for partials in (relative_poincare_partials, parabolic_poincare_partials):
        sums = partials(f, s, cutoffs)
        got = convergence_verdict(f, sums).growth_exponent
        _assert_within_two_ulps(got, np.log(cutoffs).tolist(),
                                np.log([ps.value for ps in sums]).tolist())


def test_growth_rate_and_exponent_estimate_are_the_exact_slope(Q, K1):
    for f, scale in ((Q, 2), (K1, 1)):
        grid = [scale * math.log(x) for x in (50, 100, 200, 400, 800)]
        counts = [depth_counting(f, t) for t in grid]
        _assert_within_two_ulps(growth_rate(f, grid), grid, np.log(counts).tolist())
        xs = [37, 100, 250.5, 1000]
        samples = [counting.CountSample(x, phi(f, x), "auto", f) for x in xs]
        _assert_within_two_ulps(counting.exponent_estimate(samples), np.log(xs).tolist(),
                                np.log([float(ps.phi) for ps in samples]).tolist())


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
            assert abs(float(ball.diameter) - math.exp(-ball.depth)) <= 1e-12
            if norm(f, ball.q) > 1:
                assert ball.diameter < 1


def test_a_geodesic_is_its_own_ball(Q, K1):
    for f, q in ((Q, RingElement(3)), (K1, RingElement(1, 2))):
        g = make_geodesic(f, RingElement(1), q)
        assert horoball_of(g) is g
        assert ford_ball(f, g.p, g.q) == g


def test_canonical_balls_in_bounded_memory(Q, traced_peak_mb):
    # 27 398 balls of three slotted records each; the ball list itself
    # with a per-ball wrapper and instance dicts traced 7.5 MB
    assert traced_peak_mb(lambda: canonical_balls(Q, 300)) < 4.5


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
        assert len({(b.p, b.q) for b in balls}) == len(balls)
        assert all(b == horoball_of(make_geodesic(f, b.p, b.q)) for b in balls)
        # RingElement equality would hide numpy integers, which json.dumps rejects
        coords = [c for b in balls for e in (b.p, b.q) for c in (e.a, e.b)]
        assert all(type(c) is int for c in coords)


def _pairwise_report(balls):
    """The reference check_disjoint: every one of the n(n-1)/2 pairs, in
    Fraction arithmetic, in (i, j) order."""
    if not balls:
        return DisjointnessReport([], [], [])
    f = balls[0].field
    centers = [ball.center for ball in balls]
    diameters = [ball.diameter for ball in balls]
    overlaps, tangencies, mismatches = [], [], []
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            a, b = balls[i], balls[j]
            if f.is_rational:
                dist_sq = (centers[i] - centers[j]) ** 2
            else:
                (re1, im1), (re2, im2) = centers[i], centers[j]
                dist_sq = (re1 - re2) ** 2 + f.d * (im1 - im2) ** 2
            prod = diameters[i] * diameters[j]
            tangent = dist_sq == prod
            if dist_sq < prod:
                overlaps.append((i, j))
            elif tangent:
                tangencies.append((i, j))
            cross = sub(mul(f, a.p, b.q), mul(f, a.q, b.p))
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
    """Canonical balls with one ball's numerator moved, so that it may share
    a factor with q, plus one ball listed twice."""
    rng = random.Random(seed)
    f = make_field("rational") if seed % 2 else make_field(1)
    balls = canonical_balls(f, 14 if f.is_rational else 8)
    k = rng.randrange(len(balls))
    ball = balls[k]
    moved = RingElement(ball.p.a + rng.choice((1, 2)), ball.p.b)
    balls[k] = dataclasses.replace(ball, p=moved)
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
    # q and -q, so each fraction is also listed as -p/-q
    "raw-Q-signs": lambda: _raw_window(
        make_field("rational"),
        [RingElement(q) for q in range(-9, 10)],
        [RingElement(p) for p in range(-9, 10)],
    ),
    # every associate of each small q (t = 1, w = 6), not only the canonical one
    "raw-d=3-associates": lambda: _raw_window(
        make_field(3), [q for q in _ZI if norm(make_field(3), q) <= 4], _ZI[::4]
    ),
    # every center has real part 0
    "ties": lambda: _raw_window(
        make_field(1),
        [RingElement(q) for q in range(1, 5)],
        [RingElement(0, b) for b in range(-4, 5)],
    ),
    # (2^60 + 1)/2^60 and 1 round to one float, so only an exact sort key puts
    # the ball at 1, tangent to the ball at 0, before the one just past it
    "float-ties": lambda: [
        ford_ball(make_field("rational"), RingElement(p), RingElement(q))
        for p, q in ((0, 1), (2**60 + 1, 2**60), (1, 1))
    ],
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
    ties = _SWEEP_INPUTS["ties"]()
    assert len({ball.center[0] for ball in ties}) == 1 < len(ties)
    signs = _SWEEP_INPUTS["raw-Q-signs"]()
    assert {b.q.a < 0 for b in signs} == {True, False}
    associates = _SWEEP_INPUTS["raw-d=3-associates"]()
    f3 = make_field(3)
    assert any(_canonical_associate(f3, b.q)[0] != b.q for b in associates)
    zero, past, one = _SWEEP_INPUTS["float-ties"]()
    assert float(past.center) == float(one.center) and past.center > one.center
    assert arch_norm_sq(past.field, past.q) > 2**53
    assert (0, 2) in _pairwise_report([zero, past, one]).tangencies


@pytest.mark.parametrize("d, target", [("rational", 4), (1, 2)])
def test_enlarged_ball_shows_as_mismatches(monkeypatch, d, target):
    # the geometry and the determinant are two routes: a ball whose geometry
    # is doubled in diameter (center kept) turns each of its tangencies into
    # an overlap of a unimodular pair, which the cross-check must flag
    f = make_field(d)
    balls = canonical_balls(f, 14 if f.is_rational else 8)
    (k,) = [i for i, b in enumerate(balls) if arch_norm_sq(f, b.q) == target]
    touched = [pair for pair in check_disjoint(balls).tangencies if k in pair]
    assert touched
    ford_form = geodesics._ford_form

    def enlarged(f, p, q):
        x, y, m = ford_form(f, p, q)
        if m == target:  # x and y are even here, so the center is unchanged
            return x // 2, y // 2, m // 2
        return x, y, m

    monkeypatch.setattr(geodesics, "_ford_form", enlarged)
    report = check_disjoint(balls)
    assert set(touched) <= set(report.unimodular_mismatches)
    assert set(touched) <= set(report.overlaps)


@pytest.mark.parametrize("d", ["rational", 1])
def test_check_disjoint_builds_no_fraction(monkeypatch, d):
    f = make_field(d)
    balls = canonical_balls(f, 40 if f.is_rational else 20)
    expected = check_disjoint(balls)
    assert expected.tangencies

    def no_fraction(*args):
        raise AssertionError("check_disjoint built a Fraction")

    monkeypatch.setattr(geodesics, "Fraction", no_fraction)
    assert check_disjoint(balls) == expected


def test_replaced_source_moves_the_ball(Q, K3):
    # center, diameter and depth are read off (p, q), never stored
    ball = ford_ball(Q, RingElement(1), RingElement(2))
    moved = dataclasses.replace(ball, p=RingElement(2), q=RingElement(-3))
    assert (moved.center, moved.diameter) == (Fraction(-2, 3), Fraction(1, 9))
    assert moved.depth == pytest.approx(math.log(9), abs=1e-12)
    ball = ford_ball(K3, RingElement(1), RingElement(2))
    assert (ball.center, ball.diameter) == ((Fraction(1, 2), Fraction(0)), Fraction(1, 4))
    # 1/(1 + omega) = (1 + conj(omega))/3 = 1/2 - sqrt(-3)/6 with omega = (1 + sqrt(-3))/2
    moved = dataclasses.replace(ball, q=RingElement(1, 1))
    assert (moved.center, moved.diameter) == ((Fraction(1, 2), Fraction(-1, 6)), Fraction(1, 3))
    assert moved.depth == pytest.approx(math.log(3), abs=1e-12)
    assert moved == ford_ball(K3, RingElement(1), RingElement(1, 1))


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


def relative_products(f, s, cutoffs):
    """Oracle: the relative series' products w[n] * n^(-2s) (n^(-s) over
    Q(sqrt(-d))) up to each cutoff, the weights differenced from one phi profile
    (the formula before the weights came from the increments) and the terms in
    a new array."""
    top = max(cutoffs)
    profile = phi_profile(f, top, resolve_method(f))
    weights = np.diff(np.asarray(profile, dtype=np.int64), prepend=0).astype(np.float64)
    n = np.arange(top + 1, dtype=np.float64)
    n[0] = 1.0
    exponent = 2.0 * s if f.is_rational else s
    with np.errstate(over="ignore", invalid="ignore"):
        terms = n ** (-exponent)
        return [weights[: b + 1] * terms[: b + 1] for b in cutoffs]


def parabolic_products(f, s, cutoffs):
    """Oracle: the parabolic series' products, of the norm histogram with the
    terms, from norm 1 up to each cutoff's bound, each step of the terms in a
    new array (the formula before they were built in place)."""
    bounds = [c if f.is_rational else c * c for c in cutoffs]
    top = max(bounds)
    hist = norm_histogram(f, unit_ideal(f), top).astype(np.float64)
    n = np.arange(top + 1, dtype=np.float64)
    abs_c = n if f.is_rational else np.sqrt(n)
    t = abs_c / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        terms = (t + np.sqrt(1.0 + t * t)) ** (-2.0 * s)
        return [hist[1 : b + 1] * terms[1 : b + 1] for b in bounds]


def _assert_equal_to_the_one_pass_formulas(d, s, cutoffs):
    f = make_field(d)
    for plural, oracle in (
        (relative_poincare_partials, relative_products),
        (parabolic_poincare_partials, parabolic_products),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [ps.value for ps in plural(f, s, cutoffs)]
        want = [float(np.sum(products)) for products in oracle(f, s, cutoffs)]
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert all(math.isfinite(v) for v in got) == (s > 0)


@pytest.mark.parametrize("d", ["rational", 1])
@pytest.mark.parametrize("s", [0.4, 0.5, 1.7, -1000.0])
def test_series_partials_equal_the_one_pass_formulas(d, s):
    # bit for bit, the np.sum of each prefix of the products; s = 0.5 takes
    # numpy's x ** -1 shortcut in both the fresh and the blockwise power; at
    # s = -1000 the terms overflow and the sums stay non-finite (inf, or nan
    # where a zero weight meets an infinite term)
    _assert_equal_to_the_one_pass_formulas(d, s, [7, 20, 60])


_BLOCK = field._SUM_BLOCK


@pytest.mark.parametrize(
    "d, cutoffs",
    [
        (1, [200, 400, 800]),  # parabolic top 640 000, not a multiple of the block
        ("rational", [500, 1000, 2000]),
        # prefixes of a block less one cell and of exactly one block, and a
        # top of two blocks and two cells: sums end on both sides of a seam
        ("rational", [_BLOCK - 2, _BLOCK - 1, 2 * _BLOCK + 1]),
    ],
    ids=["K1-640000", "Q-2000", "Q-seams"],
)
@pytest.mark.parametrize("s", [0.5, 1.7, -1000.0])
def test_series_partials_equal_the_one_pass_formulas_across_blocks(d, cutoffs, s):
    # the products are written a block at a time: the seams change no bit
    _assert_equal_to_the_one_pass_formulas(d, s, cutoffs)


@pytest.mark.parametrize("d", ["rational", 1])
@pytest.mark.parametrize("s", [0.7, 1.7, 2.3])
def test_series_partials_within_the_pairwise_bound_of_fsum(d, s):
    # each sum of n products, all >= 0, lies within ceil(log2 n) * 2^-53 * S
    # of S, their correctly rounded sum by math.fsum: the bound for a pairwise
    # sum, fixed before any sum was measured
    f = make_field(d)
    for plural, oracle, cutoffs in (
        (relative_poincare_partials, relative_products, [1000, 30000, 100000]),
        (parabolic_poincare_partials, parabolic_products, [50, 200, 400]),
    ):
        for ps, products in zip(plural(f, s, cutoffs), oracle(f, s, cutoffs)):
            exact = math.fsum(products.tolist())
            bound = math.ceil(math.log2(products.size)) * 2.0**-53 * exact
            assert abs(ps.value - exact) <= bound, (plural.__name__, ps.cutoff)


def test_parabolic_working_memory_is_bounded(K1, traced_peak_mb):
    # tops 640 000 and 4 * 10^6: a band's arrays hold at most _SUM_BLOCK
    # cells or one entry per lattice row, whatever the top.  With the norm
    # histogram as one float64 array of top + 1 cells the peaks were 5.99 and
    # 32.98 MB
    for cutoffs in ([200, 400, 800], [2000]):
        assert traced_peak_mb(lambda: parabolic_poincare_partials(K1, 1.7, cutoffs)) < 2


def test_relative_working_memory_is_one_array(Q, traced_peak_mb):
    # top = 10^6: the int64 increments, top + 1 cells, are 8 MB, and the
    # products are built a block at a time beside them.  With a float64 copy
    # of the increments the peak was 16 MB
    assert traced_peak_mb(lambda: relative_poincare_partials(Q, 1.5, [10**6])) < 12


def test_relative_series_rational_s2(Q):
    # example: s = 2 > delta = 1; sums increase and the increments die out
    sums = [relative_poincare_partial(Q, 2.0, c) for c in (100, 1000, 10000)]
    vals = [ps.value for ps in sums]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] - vals[1] < 1e-6
    assert convergence_verdict(Q, sums).verdict == "converges"


def test_relative_series_gaussian_divergence_trend(K1):
    # s = 1.5 < 2: partial sums track cutoff^(1/2)
    sums = [relative_poincare_partial(K1, 1.5, c) for c in (250, 500, 1000, 2000)]
    v = convergence_verdict(K1, sums)
    assert v.verdict == "diverges"
    assert 0.3 <= v.growth_exponent <= 0.7


def test_parabolic_series_examples(K1, Q):
    conv = [parabolic_poincare_partial(K1, 1.5, c) for c in (60, 120, 240)]
    assert convergence_verdict(K1, conv).verdict == "converges"
    div = [parabolic_poincare_partial(K1, 0.8, c) for c in (60, 120, 240)]
    v = convergence_verdict(K1, div)
    assert v.verdict == "diverges"
    assert 0.25 <= v.growth_exponent <= 0.55  # tracks cutoff^(2-2s) = c^0.4
    rat = [parabolic_poincare_partial(Q, 1.0, c) for c in (200, 400, 800)]
    assert convergence_verdict(Q, rat).verdict == "converges"


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
        assert convergence_verdict(K1, rel).verdict == expected
        assert convergence_verdict(K1, surrogate).verdict == expected


# the critical exponent delta of each series: the relative series is Gamma's,
# the parabolic one the cusp stabilizer's, a lattice of rank 1 over Q and 2
# over Q(sqrt(-d))
CRITICAL_EXPONENTS = {
    ("rational", "relative"): 1.0,
    ("rational", "parabolic"): 0.5,
    (1, "relative"): 2.0,
    (1, "parabolic"): 1.0,
    (5, "relative"): 2.0,  # h = 2
    (5, "parabolic"): 1.0,
}


@pytest.mark.parametrize("d, kind", sorted(CRITICAL_EXPONENTS, key=str))
def test_verdict_is_s_against_the_critical_exponent(d, kind):
    # real partial sums, on cutoffs where the growth of the sums of every
    # convergent series here (s = delta + 0.05) still looks like divergence
    f = make_field(d)
    partials = relative_poincare_partials if kind == "relative" else parabolic_poincare_partials
    delta = CRITICAL_EXPONENTS[d, kind]
    for s, expected in ((delta - 0.05, "diverges"), (delta, "diverges"),
                        (delta + 0.05, "converges")):
        sums = partials(f, s, [100, 300, 1000])
        assert all(ps.kind == kind for ps in sums)
        assert convergence_verdict(f, sums).verdict == expected, (d, kind, s)


def test_verdict_protocol_attached_and_cases(Q, K1):
    # the verdict is s against delta whatever the sums do; they give data only
    mk = lambda s, vals, cuts=(10, 20, 40): [
        SeriesPartialSum(s=s, cutoff=c, value=v, kind="relative")
        for v, c in zip(vals, cuts)
    ]
    v = convergence_verdict(Q, mk(1.5, [1.0, 2.0, 4.0]))
    assert v.verdict == "converges"
    assert v.cauchy_difference == 2.0 and v.growth_exponent == pytest.approx(1.0)
    assert "critical exponent" in v.protocol and "Dal'bo" in v.protocol
    assert convergence_verdict(K1, mk(1.5, [1.0, 1.0 + 1e-9, 1.0 + 2e-9])).verdict == "diverges"
    assert convergence_verdict(K1, mk(2.0, [10.0, 10.001, 10.003])).verdict == "diverges"
    with pytest.raises(ValueError):
        convergence_verdict(Q, mk(1.5, [1.0, 2.0], [10, 20]))
    with pytest.raises(ValueError):
        convergence_verdict(Q, mk(1.5, [1.0, 2.0, 3.0])[:2] + mk(2.5, [4.0], [40]))
    for vals in ([1.0, 2.0, 3.0], [0.0, 0.0, 0.0]):  # with a slope to fit, and without
        with pytest.raises(ValueError):
            convergence_verdict(Q, mk(1.5, vals, [10, 10, 10]))


def test_verdict_without_slope_on_nonpositive_sums(K1):
    # all-zero sums (an underflowed parabolic series) have no log-log slope,
    # and no RuntimeWarning is raised
    mk = lambda vals: [
        SeriesPartialSum(s=1000.0, cutoff=c, value=v, kind="parabolic")
        for v, c in zip(vals, (10, 20, 40))
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = convergence_verdict(K1, mk([0.0, 0.0, 0.0]))
    assert v.verdict == "converges" and v.growth_exponent is None
    assert v.cauchy_difference == 0.0
    assert convergence_verdict(K1, mk([0.0, 1.0, 2.0])).growth_exponent is None


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
