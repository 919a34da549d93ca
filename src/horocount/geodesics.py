"""The geometric dictionary: fractions as geodesics, depth, Ford horoballs,
and partial sums of the relative and parabolic Poincare series.

Conventions (fixed once):
  * the base horosphere sits at Euclidean height 1 in the upper half space,
    so a fraction p/q has depth log|q|^2 exactly;
  * the depth-0 class is the single fraction class with unit denominator;
  * a fraction class is one record, RationalGeodesic(field, p, q), and that
    record is also its Ford ball: the depth log|q|^2, the center p/q and the
    diameter 1/|q|^2 are read off (p, q), never stored.  The center is a
    Fraction over Q and the pair (re, im/sqrt(d)) of Fractions over
    Q(sqrt(-d)), so squared distances stay rational;
  * a series converges iff s > delta, its critical exponent, and diverges at
    s = delta (Dal'bo, Otal & Peigne, Israel J. Math. 118 (2000)).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import _norm_bound, _slope
from .counting import _increments, _profile_bound, phi_at, unit_orbit_reps
from .field import (
    _MAX_TERMS,
    FieldSpec,
    RingElement,
    _canonical_associate,
    _pairwise_sum,
    arch_norm_sq,
    conj,
    mul,
    sub,
)
from .ideals import (
    InvalidDenominatorError,
    _unit_norm_band,
    coprime_box,
    is_coprime,
    principal_ideal,
    reduce_mod,
)


class NonCoprimeError(ValueError):
    """Raised for a fraction whose numerator and denominator share a prime."""


class MixedFieldError(ValueError):
    """Raised when horoballs from different fields are compared."""


@dataclass(frozen=True, slots=True)
class RationalGeodesic:
    """A fraction p/q with (p, q) = 1, which is also its Ford ball: depth
    log|q|^2, center p/q and diameter 1/|q|^2 are derived from (p, q).

    make_geodesic builds the canonical representative mod O and ford_ball
    keeps the fraction as written; the dataclass itself checks nothing.
    """

    field: FieldSpec
    p: RingElement
    q: RingElement

    @property
    def depth(self) -> float:
        return math.log(arch_norm_sq(self.field, self.q))

    @property
    def center(self) -> Fraction | tuple[Fraction, Fraction]:
        return _center_of(self.field, self.p, self.q)

    @property
    def diameter(self) -> Fraction:
        return Fraction(1, arch_norm_sq(self.field, self.q))


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

def _checked_fraction(f: FieldSpec, p: RingElement, q: RingElement) -> None:
    """Refuse q = 0 (the cusp itself) and a pair (p, q) that shares a prime."""
    if q.is_zero():
        raise InvalidDenominatorError("q = 0 is the cusp itself, not a fraction")
    if not is_coprime(f, p, q):
        raise NonCoprimeError(f"({p!r}, {q!r}) is not a coprime pair")


def make_geodesic(f: FieldSpec, p: RingElement, q: RingElement) -> RationalGeodesic:
    """Canonical geodesic for the fraction class p/q mod O.

    q is replaced by its (y, x)-lexicographically largest associate and p
    reduced into the residue box of (q), so associates and O-translates of the
    same class all map to the identical object.
    """
    _checked_fraction(f, p, q)
    q_canon, u = _canonical_associate(f, q)
    p_canon = reduce_mod(f, mul(f, u, p), principal_ideal(f, q_canon))
    return RationalGeodesic(f, p_canon, q_canon)


def _depth_norm(f: FieldSpec, t: float) -> float:
    """The norm of depth t: depth log|q|^2 <= t means N(q) <= e^(t/2) over Q
    and N(q) <= e^t over an imaginary quadratic field."""
    return math.exp(t / 2 if f.is_rational else t)


def depth_cutoff(f: FieldSpec, t: float) -> int:
    """The norm bound (arith._norm_bound) of _depth_norm at t, in the band of
    exp's float error: a t read in one rounding is off by |t| * 2^-53, which
    exp turns into that relative error, and exp adds about an ulp of its own;
    twice (|t| + 1) ulps covers both, so exp(log n) gives n."""
    return _norm_bound(_depth_norm(f, t), 2 * (abs(t) + 1))


def depth_counting(f: FieldSpec, t: float, method: str = "auto") -> int:
    """N_e(t): number of fraction classes with depth <= t.

    phi at depth_cutoff(f, t); negative t admits no class (minimum depth
    is 0).
    """
    return phi_at(f, [depth_cutoff(f, t)], method)[0]


def growth_rate(f: FieldSpec, t_grid: list[float], method: str = "auto") -> float:
    """Least-squares slope of log N_e(t) against t; approaches the critical
    exponent (1 for the modular orbifold, 2 for the Bianchi ones)."""
    if len(t_grid) < 2 or any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("t_grid must be strictly increasing with >= 2 points")
    counts = phi_at(f, [depth_cutoff(f, t) for t in t_grid], method)
    if any(c <= 0 for c in counts):
        raise ValueError("N_e must be positive on the whole grid")
    return _slope(t_grid, np.log(np.asarray(counts, float)).tolist())


# ----------------------------------------------------------------------
# Horoballs
# ----------------------------------------------------------------------

def _ford_form(f: FieldSpec, p: RingElement, q: RingElement) -> tuple[int, int, int]:
    """(X, Y, M) with M = |q|^2 > 0: the Ford ball at p/q has center
    (X, Y)/(2M), written (re, im/sqrt(d)) with Y = 0 over Q, and diameter 1/M."""
    num = mul(f, p, conj(f, q))  # p/q = num / |q|^2
    # a + b*omega = (a + t*b/2) + ((2 - t)*b/2) sqrt(-d), since omega is
    # sqrt(-d) for t = 0 and (1 + sqrt(-d))/2 for t = 1
    return 2 * num.a + f.t * num.b, (2 - f.t) * num.b, arch_norm_sq(f, q)


def _center_of(f: FieldSpec, p: RingElement, q: RingElement):
    x, y, m = _ford_form(f, p, q)
    if f.is_rational:
        return Fraction(x, 2 * m)
    return Fraction(x, 2 * m), Fraction(y, 2 * m)


def horoball_of(g: RationalGeodesic) -> RationalGeodesic:
    """The Ford ball of the geodesic, tangent at p/q with diameter 1/|q|^2:
    g itself, since the record of a fraction is its own ball."""
    return g


def ford_ball(f: FieldSpec, p: RingElement, q: RingElement) -> RationalGeodesic:
    """Ford ball at the fraction p/q as written: make_geodesic without the
    reduction mod O.

    Useful for packing checks over a window of raw fractions; make_geodesic
    gives the ball of the canonical class representative instead.
    """
    _checked_fraction(f, p, q)
    return RationalGeodesic(f, p, q)


def canonical_balls(f: FieldSpec, bound: int) -> list[RationalGeodesic]:
    """One Ford ball per fraction class with 1 <= N(q) <= bound, in order of
    q, then row-major over the box: for each denominator q of unit_orbit_reps,
    the (y, x)-lex maximum of its associates, the ball of each coprime residue
    p in the HNF box of (q).  Each (p, q) is already the canonical
    representative make_geodesic would give."""
    balls = []
    for q in unit_orbit_reps(f, bound):
        ys, xs = np.nonzero(coprime_box(f, q))  # row-major: y, then x
        for y, x in zip(ys.tolist(), xs.tolist()):
            balls.append(RationalGeodesic(f, RingElement(x, y), q))
    return balls


def check_disjoint(balls: list[RationalGeodesic]) -> DisjointnessReport:
    """Exact disjointness of horoball interiors, by a sweep along Re.

    Two balls tangent to the boundary at c1, c2 with diameters d1, d2 have
    disjoint interiors iff |c1 - c2|^2 >= d1*d2, with equality exactly at
    tangency.  Each verdict is cross-checked against the unimodularity
    criterion |p1*q2 - p2*q1|^2 = 1 on the fractions; a pair whose verdict
    says tangent and whose fractions are not unimodular, or the reverse, is
    a mismatch.  Pairs are reported as (i, j), i < j, in lexicographic order.

    Only pairs that can touch are compared.  A ball is the Ford ball of its
    fraction by construction, center p/q and diameter 1/|q|^2, so the identity
    |p1*q2 - p2*q1|^2 = |c1 - c2|^2 * |q1|^2 * |q2|^2 holds for every pair,
    coprime or not.  A pair with |c1 - c2|^2 > d1*d2 is then neither an
    overlap nor a tangency, and no mismatch either: its determinant has
    |p1*q2 - p2*q1|^2 > d1*d2 * |q1|^2 * |q2|^2 = 1.  The balls are sorted
    by their real center, and each scans out in both directions for partners
    no larger than itself (d2 <= d1), stopping at the first ball with
    dRe^2 > d1^2: since |c1 - c2|^2 >= dRe^2 and d1*d2 <= d1^2, every
    smaller partner farther out is apart.  Each pair is looked at once, from
    its larger ball, and only a pair found touching gets the cross-check, so
    the report equals that of a comparison of all n(n-1)/2 pairs.

    The sort key and every test are exact integer arithmetic on the (X, Y, M)
    of _ford_form, by cross-multiplication; the cross-check takes its determinant from the
    ring arithmetic on (p, q) instead.
    """
    if not balls:
        return DisjointnessReport([], [], [])
    f = balls[0].field
    if any(ball.field != f for ball in balls):
        raise MixedFieldError("all horoballs must come from the same field")
    form = [_ford_form(f, ball.p, ball.q) for ball in balls]
    dim_weight = 0 if f.is_rational else f.d  # |c|^2 = re^2 + d * (im/sqrt(d))^2
    overlaps: list[tuple[int, int]] = []
    tangencies: list[tuple[int, int]] = []
    mismatches: list[tuple[int, int]] = []

    def gap(i: int, j: int) -> int:
        """The sign of |c_i - c_j|^2 - d_i*d_j: -1 overlap, 0 tangency, 1 apart.
        Both sides are taken times 4 * (M_i*M_j)^2 > 0."""
        xi, yi, mi = form[i]
        xj, yj, mj = form[j]
        dist = (xi * mj - xj * mi) ** 2 + dim_weight * (yi * mj - yj * mi) ** 2
        prod = 4 * mi * mj
        return (dist > prod) - (dist < prod)

    def record(i: int, j: int, sign: int) -> None:
        if sign < 0:
            overlaps.append((i, j))
        elif sign == 0:
            tangencies.append((i, j))
        a, b = balls[i], balls[j]
        cross = sub(mul(f, a.p, b.q), mul(f, a.q, b.p))
        if (sign == 0) != (arch_norm_sq(f, cross) == 1):
            mismatches.append((i, j))

    # X * S // M orders the centers X/M exactly: two distinct ones differ by at
    # least 1/(M1*M2) >= 2/S, so their keys stay apart, and equal ones tie
    scale = 2 * max(m for _, _, m in form) ** 2
    order = sorted(range(len(balls)), key=lambda i: form[i][0] * scale // form[i][2])
    for k, i in enumerate(order):
        xi, _, mi = form[i]
        for step in (1, -1):
            pos = k + step
            while 0 <= pos < len(order):
                j = order[pos]
                pos += step
                xj, _, mj = form[j]
                # dRe^2 > d_i^2, times 4 * (M_i*M_j)^2
                if (xj * mi - xi * mj) ** 2 > 4 * mj * mj:
                    break
                # a pair is looked at from its larger ball (ties by index)
                if mj > mi or (mj == mi and j > i):
                    sign = gap(i, j)
                    if sign <= 0:
                        record(min(i, j), max(i, j), sign)
    for pairs in (overlaps, tangencies, mismatches):
        pairs.sort()
    return DisjointnessReport(overlaps, tangencies, mismatches)


# ----------------------------------------------------------------------
# Poincare series partial sums
# ----------------------------------------------------------------------

def _series_bounds(cutoffs: Sequence[float], square: bool) -> list[int]:
    """counting._profile_bound of each cutoff c, or of c^2 when the cutoff is
    on |c| and the norm is |c|^2.  A bound past field._MAX_TERMS, the work
    budget of one series (zeta_K_2's), raises OverflowError before any work,
    as _profile_bound does past ssize_t."""
    if not cutoffs or not all(1 <= c < math.inf for c in cutoffs):
        raise ValueError("need at least one cutoff, each finite and >= 1")
    bounds = [_profile_bound(c * c if square else c) for c in cutoffs]
    if max(bounds) > _MAX_TERMS:
        raise OverflowError(
            f"a series to the norm bound {max(bounds):,} is past the {_MAX_TERMS:,} terms "
            "one call sums"
        )
    return bounds


def relative_poincare_partials(
    f: FieldSpec, s: float, cutoffs: Sequence[float]
) -> list[SeriesPartialSum]:
    """Partial sums of the relative series over double cosets, one per cutoff:
    the depth-0 term plus Phi(q) * e^(-s * depth) over denominators with
    N(q) <= cutoff.

    Expanded over fractions, e^(-s*depth(q)) is |q|^(-2s): N(q)^(-s) in the
    quadratic case and q^(-2s) over Q.  The weight w[n] (sum of Phi(q) over
    N(q) = n) is the phi increment at n, from one kernel run up to the
    largest cutoff by the method resolve_method picks for 'auto'; its top + 1
    int64 cells, top the largest norm bound, are the one full array.  Each
    sum is field._pairwise_sum of the products w[n] * |q|^(-2s) from n = 0
    to its bound, built one block at a time: bit for bit the np.sum of that
    prefix, which no BLAS thread count and no other cutoff changes.  An s so
    negative that a term overflows gives a non-finite value (inf, or nan
    where it meets a zero weight), without a warning.
    """
    bounds = _series_bounds(cutoffs, square=False)
    weights = _increments(f, max(bounds), "auto")
    exponent = 2.0 * s if f.is_rational else s

    def products(lo: int, hi: int) -> np.ndarray:  # w[n] * n^(-exponent), n = 0 read as 1
        n = np.arange(lo, hi, dtype=np.float64)
        if lo == 0:
            n[0] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            n **= -exponent
            n *= weights[lo:hi]
        return n

    values = [_pairwise_sum(products, 0, b + 1) for b in bounds]
    return [SeriesPartialSum(s=s, cutoff=c, value=v, kind="relative")
            for c, v in zip(cutoffs, values)]


def parabolic_poincare_partials(
    f: FieldSpec, s: float, cutoffs: Sequence[float]
) -> list[SeriesPartialSum]:
    """Partial sums of the stabilizer's series, one per cutoff: e^(-s * d(x0,
    x0 + c)) over nonzero c in O with |c| <= cutoff, where d is the upper
    half-space distance between height-1 points, d = 2 * arcsinh(|c| / 2).

    The products, each term times the number of c of its norm
    (ideals._unit_norm_band), are built in place one band of norms at a
    time, and each sum is field._pairwise_sum of them from norm 1 to its
    bound: bit for bit the np.sum of the products of O's norm histogram with
    the terms, with no array of top + 1 cells (top the largest norm bound).
    A band's arrays hold at most field._SUM_BLOCK cells, or one entry per
    lattice row.  As for the relative series, a term that overflows gives a
    non-finite value.
    """
    bounds = _series_bounds(cutoffs, square=not f.is_rational)

    def products(lo: int, hi: int) -> np.ndarray:
        # e^(-2s*arcsinh(t)) = (t + sqrt(1 + t^2))^(-2s) with t = |c|/2
        t = np.arange(lo, hi, dtype=np.float64)  # N(c) = |c|^2, or |c| over Q
        if not f.is_rational:
            np.sqrt(t, out=t)
        t /= 2.0
        out = t * t
        out += 1.0
        np.sqrt(out, out=out)
        out += t
        with np.errstate(over="ignore", invalid="ignore"):
            out **= -2.0 * s
            out *= _unit_norm_band(f, lo, hi)
        return out

    values = [_pairwise_sum(products, 1, b + 1) for b in bounds]
    return [SeriesPartialSum(s=s, cutoff=c, value=v, kind="parabolic")
            for c, v in zip(cutoffs, values)]


def relative_poincare_partial(f: FieldSpec, s: float, cutoff: float) -> SeriesPartialSum:
    """The relative series' partial sum at one cutoff (see relative_poincare_partials)."""
    return relative_poincare_partials(f, s, [cutoff])[0]


def parabolic_poincare_partial(f: FieldSpec, s: float, cutoff: float) -> SeriesPartialSum:
    """The parabolic series' partial sum at one cutoff (see parabolic_poincare_partials)."""
    return parabolic_poincare_partials(f, s, [cutoff])[0]


# ----------------------------------------------------------------------
# Convergence verdicts, by the critical exponent
# ----------------------------------------------------------------------

_PROTOCOL = (
    "theorem (Dal'bo, Otal & Peigne 2000): the series converges iff s > delta, the "
    "critical exponent, and diverges at s = delta; relative delta = 1 over Q and 2 "
    "over Q(sqrt(-d)), parabolic delta = rank(O)/2 = 1/2 over Q and 1 over Q(sqrt(-d))"
)


@dataclass(frozen=True)
class SeriesVerdict:
    verdict: str  # converges | diverges
    cauchy_difference: float
    growth_exponent: float | None  # None unless every sum is positive and finite
    protocol: str = _PROTOCOL


def convergence_verdict(f: FieldSpec, sums: list[SeriesPartialSum]) -> SeriesVerdict:
    """The verdict on a series over f from its partial sums at >= 3 cutoffs, two
    of them distinct: it converges iff s > delta, its critical exponent, and
    diverges at s = delta (Dal'bo, Otal & Peigne, Israel J. Math. 118 (2000)).
    For the relative series delta is 1 for PSL(2, Z) and 2 for a Bianchi
    group; the parabolic series is the cusp stabilizer's, with delta =
    rank(O)/2 (Elstrodt, Grunewald & Mennicke, "Groups Acting on Hyperbolic
    Space", 1998).  The sums give data only: the last increment, and the
    log-log slope (arith._slope) where every sum is positive and finite.
    """
    if len(sums) < 3:
        raise ValueError("need partial sums at >= 3 cutoffs")
    ordered = sorted(sums, key=lambda ps: ps.cutoff)
    if len({ps.kind for ps in ordered}) > 1 or len({ps.s for ps in ordered}) > 1:
        raise ValueError("partial sums must share the same series and exponent")
    if len({ps.cutoff for ps in ordered}) < 2:
        raise ValueError("need partial sums at two or more distinct cutoffs")
    values = [ps.value for ps in ordered]
    slope = None
    if all(0.0 < v < math.inf for v in values):
        slope = _slope(np.log([ps.cutoff for ps in ordered]).tolist(), np.log(values).tolist())
    rank = 1 if f.is_rational else 2  # of O as a lattice
    delta = rank if ordered[0].kind == "relative" else rank / 2
    verdict = "converges" if ordered[0].s > delta else "diverges"
    return SeriesVerdict(verdict, cauchy_difference=values[-1] - values[-2], growth_exponent=slope)


__all__ = [
    "NonCoprimeError",
    "MixedFieldError",
    "RationalGeodesic",
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
