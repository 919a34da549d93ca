"""The geometric dictionary: fractions as geodesics, depth, Ford horoballs,
and partial sums of the relative and parabolic Poincare series.

Conventions (fixed once):
  * the base horosphere sits at Euclidean height 1 in the upper half space,
    so a fraction p/q has depth log|q|^2 exactly;
  * the depth-0 class is the single fraction class with unit denominator;
  * centers and diameters are exact rationals -- for the complex case the
    center is stored as (re, im/sqrt(d)), both Fractions, so squared
    distances stay rational.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .counting import phi, phi_profile, resolve_method, unit_orbit_reps
from .field import (
    FieldSpec,
    RingElement,
    arch_norm_sq,
    conj,
    mul,
    norm,
    sub,
    units,
)
from .ideals import (
    InvalidDenominatorError,
    is_coprime,
    norm_histogram,
    principal_ideal,
    reduce_mod,
    unit_ideal,
)


class NonCoprimeError(ValueError):
    """Raised for a fraction whose numerator and denominator share a prime."""


class MixedFieldError(ValueError):
    """Raised when horoballs from different fields are compared."""


@dataclass(frozen=True)
class RationalGeodesic:
    """A fraction p/q mod O with (p, q) = 1, plus its depth log|q|^2.

    Use make_geodesic to build the canonical representative; the dataclass
    itself does not re-normalize.
    """

    field: FieldSpec
    p: RingElement
    q: RingElement
    depth: float


@dataclass(frozen=True)
class Horoball:
    """A Ford circle/sphere tangent to the boundary at p/q.

    center: a single Fraction over Q; over Q(sqrt(-d)) the pair
    (re, im/sqrt(d)) of Fractions.  diameter = 1/|q|^2 exactly.
    """

    field: FieldSpec
    center: Fraction | tuple[Fraction, Fraction]
    diameter: Fraction
    source: RationalGeodesic


@dataclass(frozen=True)
class SeriesPartialSum:
    s: float
    cutoff: float
    value: float
    kind: str  # relative | parabolic


@dataclass(frozen=True)
class DisjointnessReport:
    overlaps: list[tuple[int, int]]
    tangencies: list[tuple[int, int]]
    unimodular_mismatches: list[tuple[int, int]]


# ----------------------------------------------------------------------
# Geodesics
# ----------------------------------------------------------------------

def _orbit_max(f: FieldSpec, q: RingElement) -> tuple[RingElement, RingElement]:
    """(canonical associate, the unit u with u*q canonical); (y, x)-lex maximum."""
    best: RingElement | None = None
    best_u: RingElement | None = None
    for u in units(f):
        cand = mul(f, u, q)
        if best is None or (cand.b, cand.a) > (best.b, best.a):
            best, best_u = cand, u
    assert best is not None and best_u is not None
    return best, best_u


def make_geodesic(f: FieldSpec, p: RingElement, q: RingElement) -> RationalGeodesic:
    """Canonical geodesic for the fraction class p/q mod O.

    q is replaced by the lexicographically largest associate and p reduced
    into the residue box of (q), so associates and O-translates of the same
    class all map to the identical object.
    """
    if q.is_zero():
        raise InvalidDenominatorError("q = 0 is the cusp itself, not a rational line")
    if not is_coprime(f, p, q):
        raise NonCoprimeError(f"({p!r}, {q!r}) is not a coprime pair")
    q_canon, u = _orbit_max(f, q)
    p_canon = reduce_mod(f, mul(f, u, p), principal_ideal(f, q_canon))
    return RationalGeodesic(f, p_canon, q_canon, math.log(arch_norm_sq(f, q_canon)))


def _snap_to_int(x: float) -> int:
    """floor(x), except that values within 1e-9 (relative) of an integer snap
    to it; cutoffs arrive as exp(t) and must not lose exact integer norms."""
    nearest = round(x)
    if abs(x - nearest) <= 1e-9 * max(1.0, abs(nearest)):
        return int(nearest)
    return int(math.floor(x))


def depth_cutoff(f: FieldSpec, t: float) -> int:
    """The norm cutoff of depth t: depth log|q|^2 <= t means N(q) <= e^(t/2)
    over Q and N(q) <= e^t over an imaginary quadratic field."""
    return _snap_to_int(math.exp(t / 2 if f.is_rational else t))


def depth_counting(f: FieldSpec, t: float, method: str = "auto") -> int:
    """N_e(t): number of fraction classes with depth <= t.

    phi at depth_cutoff(f, t); negative t admits no class (minimum depth
    is 0).
    """
    cutoff = depth_cutoff(f, t)
    if cutoff < 1:
        return 0
    return phi(f, cutoff, method=method)


def growth_rate(f: FieldSpec, t_grid: list[float], method: str = "auto") -> float:
    """Least-squares slope of log N_e(t) against t; approaches the critical
    exponent (1 for the modular orbifold, 2 for the Bianchi ones)."""
    if len(t_grid) < 2 or any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("t_grid must be strictly increasing with >= 2 points")
    counts = [depth_counting(f, t, method=method) for t in t_grid]
    if any(c <= 0 for c in counts):
        raise ValueError("N_e must be positive on the whole grid")
    slope, _ = np.polyfit(np.asarray(t_grid), np.log(np.asarray(counts, float)), 1)
    return float(slope)


# ----------------------------------------------------------------------
# Horoballs
# ----------------------------------------------------------------------

def _center_of(f: FieldSpec, p: RingElement, q: RingElement):
    if f.is_rational:
        return Fraction(p.a, q.a)
    n = norm(f, q)
    num = mul(f, p, conj(f, q))  # p/q = num / n
    if f.half_basis:
        # a + b*omega = (a + b/2) + (b/2) sqrt(-d)
        return (Fraction(2 * num.a + num.b, 2 * n), Fraction(num.b, 2 * n))
    return (Fraction(num.a, n), Fraction(num.b, n))


def horoball_of(g: RationalGeodesic) -> Horoball:
    """The Ford ball of the geodesic: tangent at p/q, diameter 1/|q|^2."""
    f = g.field
    return Horoball(
        field=f,
        center=_center_of(f, g.p, g.q),
        diameter=Fraction(1, arch_norm_sq(f, g.q)),
        source=g,
    )


def ford_ball(f: FieldSpec, p: RingElement, q: RingElement) -> Horoball:
    """Ford ball at the fraction p/q as written (no reduction mod O).

    Useful for packing checks over a window of raw fractions; horoball_of
    gives the ball of the canonical class representative instead.
    """
    if q.is_zero():
        raise InvalidDenominatorError("q = 0 has no Ford ball")
    if not is_coprime(f, p, q):
        raise NonCoprimeError(f"({p!r}, {q!r}) is not a coprime pair")
    g = RationalGeodesic(f, p, q, math.log(arch_norm_sq(f, q)))
    return horoball_of(g)


def canonical_balls(f: FieldSpec, bound: int) -> list[Horoball]:
    """One Ford ball per fraction class with 1 <= N(q) <= bound: the ball of
    the canonical representative of each coprime residue p in the HNF box of
    (q), for one denominator q per unit orbit."""
    balls = []
    for q in unit_orbit_reps(f, bound):
        ideal = principal_ideal(f, q)
        for y in range(ideal.gamma):
            for x in range(ideal.alpha):
                p = RingElement(x, y)
                if is_coprime(f, p, q):
                    balls.append(horoball_of(make_geodesic(f, p, q)))
    return balls


def _integer_form(f: FieldSpec, ball: Horoball) -> tuple[int, int, int, int, int]:
    """(X, Y, D, dn, dd): the center (X/D, Y/D) over one denominator D > 0
    (Y = 0 over Q) and the diameter dn/dd with dd > 0."""
    re, im = (ball.center, 0) if f.is_rational else ball.center
    den = math.lcm(re.denominator, im.denominator)
    return (
        re.numerator * (den // re.denominator),
        im.numerator * (den // im.denominator),
        den,
        ball.diameter.numerator,
        ball.diameter.denominator,
    )


def _is_ford_ball_of_source(f: FieldSpec, ball: Horoball) -> bool:
    """Whether the ball is exactly the Ford ball of its source fraction p/q:
    center p/q as _center_of writes it, diameter 1/|q|^2."""
    src = ball.source
    n = arch_norm_sq(f, src.q)
    return (
        n != 0
        and ball.diameter == Fraction(1, n)
        and ball.center == _center_of(f, src.p, src.q)
    )


def check_disjoint(balls: list[Horoball]) -> DisjointnessReport:
    """Exact disjointness of horoball interiors, by a sweep along Re.

    Two balls tangent to the boundary at c1, c2 with diameters d1, d2 have
    disjoint interiors iff |c1 - c2|^2 >= d1*d2, with equality exactly at
    tangency.  Each verdict is cross-checked against the unimodularity
    criterion |p1*q2 - p2*q1|^2 = 1 on the source fractions; a pair whose
    verdict says tangent and whose sources are not unimodular, or the
    reverse, is a mismatch.  Pairs are reported as (i, j), i < j, in
    lexicographic order.

    Only pairs that can touch are compared.  A pair with
    |c1 - c2|^2 > d1*d2 is neither an overlap nor a tangency, and it is no
    mismatch either, by the identity
    |p1*q2 - p2*q1|^2 = |c1 - c2|^2 * N(q1) * N(q2) > d1*d2 * N(q1) * N(q2) = 1,
    which holds when each ball is exactly the Ford ball of its source
    (center p/q, diameter 1/|q|^2).  That is checked once per ball.  The
    balls that pass are sorted by their real center, and each scans out in
    both directions for partners no larger than itself (d2 <= d1), stopping
    at the first ball with dRe^2 > d1^2: since |c1 - c2|^2 >= dRe^2 and
    d1*d2 <= d1^2, every smaller partner farther out is apart.  Each pair
    is looked at once, from its larger ball, and only a pair found touching
    gets the cross-check.  A ball that fails the source check is compared
    with every other ball, verdict and cross-check, so the report equals
    that of a comparison of all n(n-1)/2 pairs.

    Every test is exact integer arithmetic on (X, Y, D, dn, dd), the center
    (X/D, Y/D) and the diameter dn/dd, by cross-multiplication.
    """
    if not balls:
        return DisjointnessReport([], [], [])
    f = balls[0].field
    if any(ball.field != f for ball in balls):
        raise MixedFieldError("all horoballs must come from the same field")
    form = [_integer_form(f, ball) for ball in balls]
    dim_weight = 0 if f.is_rational else f.d  # |c|^2 = re^2 + d * (im/sqrt(d))^2
    overlaps: list[tuple[int, int]] = []
    tangencies: list[tuple[int, int]] = []
    mismatches: list[tuple[int, int]] = []

    def gap(i: int, j: int) -> int:
        """The sign of |c_i - c_j|^2 - d_i*d_j: -1 overlap, 0 tangency, 1 apart.
        Both sides are taken times (D_i*D_j)^2 * dd_i * dd_j > 0."""
        xi, yi, di, ni, mi = form[i]
        xj, yj, dj, nj, mj = form[j]
        dist = ((xi * dj - xj * di) ** 2 + dim_weight * (yi * dj - yj * di) ** 2) * mi * mj
        prod = ni * nj * (di * dj) ** 2
        return (dist > prod) - (dist < prod)

    def record(i: int, j: int, sign: int) -> None:
        if sign < 0:
            overlaps.append((i, j))
        elif sign == 0:
            tangencies.append((i, j))
        a, b = balls[i].source, balls[j].source
        cross = sub(mul(f, a.p, b.q), mul(f, a.q, b.p))
        if (sign == 0) != (arch_norm_sq(f, cross) == 1):
            mismatches.append((i, j))

    faithful = [_is_ford_ball_of_source(f, ball) for ball in balls]
    order = sorted(
        (i for i, ok in enumerate(faithful) if ok),
        key=lambda i: Fraction(form[i][0], form[i][2]),
    )
    # a pair is looked at from its larger ball (by diameter, ties by position)
    rank = [0] * len(balls)
    for r, i in enumerate(sorted(order, key=lambda i: balls[i].diameter)):
        rank[i] = r
    for k, i in enumerate(order):
        xi, _, di, ni, mi = form[i]
        for step in (1, -1):
            pos = k + step
            while 0 <= pos < len(order):
                j = order[pos]
                pos += step
                xj, _, dj, _, _ = form[j]
                # dRe^2 > d_i^2, times (D_i*D_j)^2 * dd_i^2
                if (xj * di - xi * dj) ** 2 * mi * mi > ni * ni * (di * dj) ** 2:
                    break
                if rank[j] < rank[i]:
                    sign = gap(i, j)
                    if sign <= 0:
                        record(min(i, j), max(i, j), sign)
    for i, ok in enumerate(faithful):
        if not ok:
            for j in range(len(balls)):
                if j != i and (faithful[j] or i < j):
                    record(min(i, j), max(i, j), gap(i, j))
    for pairs in (overlaps, tangencies, mismatches):
        pairs.sort()
    return DisjointnessReport(overlaps, tangencies, mismatches)


# ----------------------------------------------------------------------
# Poincare series partial sums
# ----------------------------------------------------------------------

def _series_bounds(cutoffs: Sequence[float], square: bool) -> list[int]:
    """The integer norm bound of each cutoff: snap(c), or snap(c^2) when the
    cutoff is on |c| and the norm is |c|^2."""
    if not cutoffs or not all(1 <= c < math.inf for c in cutoffs):
        raise ValueError("need at least one cutoff, each finite and >= 1")
    return [_snap_to_int(c * c if square else c) for c in cutoffs]


def relative_poincare_partials(
    f: FieldSpec, s: float, cutoffs: Sequence[float]
) -> list[SeriesPartialSum]:
    """Partial sums of the relative series over double cosets, one per cutoff:
    the depth-0 term plus Phi(q) * e^(-s * depth) over denominators with
    N(q) <= cutoff.

    Expanded over fractions, e^(-s*depth(q)) is |q|^(-2s): N(q)^(-s) in the
    quadratic case and q^(-2s) over Q.  The weight w[n] (sum of Phi(q) over
    N(q) = n) comes from one phi profile up to the largest cutoff, by the
    method resolve_method picks for 'auto'; each sum is a dot product over
    a prefix of the same arrays.  An s so negative that a term overflows
    gives a non-finite value (inf, or nan where a zero weight meets an
    infinite term), without a warning.
    """
    bounds = _series_bounds(cutoffs, square=False)
    top = max(bounds)
    profile = phi_profile(f, top, resolve_method(f))
    weights = np.diff(np.asarray(profile, dtype=np.int64), prepend=0).astype(np.float64)
    n = np.arange(top + 1, dtype=np.float64)
    n[0] = 1.0
    exponent = 2.0 * s if f.is_rational else s
    with np.errstate(over="ignore", invalid="ignore"):
        terms = n ** (-exponent)
        return [
            SeriesPartialSum(s=s, cutoff=c, value=float(np.dot(weights[: b + 1], terms[: b + 1])),
                             kind="relative")
            for c, b in zip(cutoffs, bounds)
        ]


def parabolic_poincare_partials(
    f: FieldSpec, s: float, cutoffs: Sequence[float]
) -> list[SeriesPartialSum]:
    """Partial sums of the stabilizer's series, one per cutoff: e^(-s * d(x0,
    x0 + c)) over nonzero c in O with |c| <= cutoff, where d is the upper
    half-space distance between height-1 points, d = 2 * arcsinh(|c| / 2).

    One norm histogram of O up to the largest cutoff; each sum is a dot
    product over a prefix of it.  As for the relative series, an s so
    negative that a term overflows gives a non-finite value, without a
    warning.
    """
    bounds = _series_bounds(cutoffs, square=not f.is_rational)
    top = max(bounds)
    hist = norm_histogram(f, unit_ideal(f), top).astype(np.float64)
    n = np.arange(top + 1, dtype=np.float64)
    abs_c = n if f.is_rational else np.sqrt(n)
    # e^(-2s*arcsinh(t)) = (t + sqrt(1 + t^2))^(-2s) with t = |c|/2
    t = abs_c / 2.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        terms = (t + np.sqrt(1.0 + t * t)) ** (-2.0 * s)
        return [
            SeriesPartialSum(s=s, cutoff=c, value=float(np.dot(hist[1 : b + 1], terms[1 : b + 1])),
                             kind="parabolic")
            for c, b in zip(cutoffs, bounds)
        ]


def relative_poincare_partial(f: FieldSpec, s: float, cutoff: float) -> SeriesPartialSum:
    """The relative series' partial sum at one cutoff (see relative_poincare_partials)."""
    return relative_poincare_partials(f, s, [cutoff])[0]


def parabolic_poincare_partial(f: FieldSpec, s: float, cutoff: float) -> SeriesPartialSum:
    """The parabolic series' partial sum at one cutoff (see parabolic_poincare_partials)."""
    return parabolic_poincare_partials(f, s, [cutoff])[0]


# ----------------------------------------------------------------------
# Empirical convergence verdicts
# ----------------------------------------------------------------------

_PROTOCOL = (
    "diverges: monotone growth of the partial sums with log-log slope > 0.1; "
    "converges: last Cauchy increment < 1e-6, or increments strictly decreasing "
    "while the slope stays <= 0.1; inconclusive otherwise"
)


@dataclass(frozen=True)
class SeriesVerdict:
    verdict: str  # converges | diverges | inconclusive
    cauchy_difference: float
    growth_exponent: float | None  # None unless every sum is positive and finite
    protocol: str = _PROTOCOL


def convergence_verdict(sums: list[SeriesPartialSum]) -> SeriesVerdict:
    """Classify a series from partial sums at >= 3 increasing cutoffs.

    Divergence is not decidable from finite sums; the verdict names its
    protocol so downstream consumers never see a bare boolean.  The log-log
    slope is fitted only when every partial sum is positive and finite;
    otherwise growth_exponent is None and the Cauchy tests decide.
    """
    if len(sums) < 3:
        raise ValueError("need partial sums at >= 3 cutoffs")
    ordered = sorted(sums, key=lambda ps: ps.cutoff)
    if len({ps.kind for ps in ordered}) > 1 or len({ps.s for ps in ordered}) > 1:
        raise ValueError("partial sums must share the same series and exponent")
    values = [ps.value for ps in ordered]
    cuts = [ps.cutoff for ps in ordered]
    diffs = [b - a for a, b in zip(values, values[1:])]
    slope = None
    if all(0.0 < v < math.inf for v in values):
        slope = float(np.polyfit(np.log(cuts), np.log(values), 1)[0])
    cauchy = diffs[-1]
    if slope is not None and slope > 0.1:
        verdict = "diverges"
    elif cauchy < 1e-6:
        verdict = "converges"
    elif all(b < a for a, b in zip(diffs, diffs[1:])):
        verdict = "converges"
    else:
        verdict = "inconclusive"
    return SeriesVerdict(verdict=verdict, cauchy_difference=cauchy, growth_exponent=slope)


__all__ = [
    "NonCoprimeError",
    "MixedFieldError",
    "RationalGeodesic",
    "Horoball",
    "SeriesPartialSum",
    "SeriesVerdict",
    "DisjointnessReport",
    "make_geodesic",
    "depth_cutoff",
    "depth_counting",
    "growth_rate",
    "horoball_of",
    "ford_ball",
    "canonical_balls",
    "check_disjoint",
    "relative_poincare_partial",
    "parabolic_poincare_partial",
    "relative_poincare_partials",
    "parabolic_poincare_partials",
    "convergence_verdict",
]
