"""Exact arithmetic in rings of integers of Q and Q(sqrt(-d)), plus the
analytic constants attached to such a field: the quadratic character, the
Dedekind zeta value at 2, the class number and the residue at 1.

Elements are stored as integer coordinate pairs (a, b) meaning a + b*omega,
where omega = sqrt(-d), or (1 + sqrt(-d))/2 when d = 3 mod 4, so that
coprimality and norm tests stay exact.  Every formula is written once from
the minimal polynomial omega^2 = t*omega - n, with t and n the trace and norm
of omega: (0, d) for sqrt(-d), (1, (1 + d)/4) for (1 + sqrt(-d))/2.  Its
discriminant t^2 - 4n is -D.  The rational field is the degenerate case
b = 0, with t = n = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

from .arith import _power_mod, is_squarefree, multiplicative_fill

RATIONAL = "rational"
IMAGINARY_QUADRATIC = "imaginary_quadratic"

_FIELD_CACHE = 64  # entries of each per-field cache; a run touches a few fields
# residues of the largest character table, one Python _kronecker call each:
# D = 4 194 303 took 9.5 s on one CPU of a 2-vCPU VM (zeta: 9.2 s, 95 MB RSS)
_MAX_PERIOD = 1 << 22
# the largest D whose class number is counted by reduced forms, in time linear
# in D: classnum on D = 2 399 999 999 took 9.2-9.7 s on one CPU of a 2-vCPU VM
_MAX_FORM_D = 2_400_000_000


class InvalidFieldError(ValueError):
    """Raised when a field parameter is not a positive squarefree integer below 2^61."""


class UnsupportedFieldError(ValueError):
    """Raised when an operation is not defined for the given field."""


@dataclass(frozen=True, slots=True)
class RingElement:
    """The element a + b*omega in the basis (1, omega); b = 0 over Q."""

    a: int
    b: int = 0

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __repr__(self) -> str:
        if self.b == 0:
            return f"{self.a}"
        return f"({self.a}{self.b:+d}w)"


class FieldSpec:
    """The base field: Q, or Q(sqrt(-d)) for squarefree d > 0.

    Derived constants: D (the positive discriminant magnitude, d or 4d),
    w (number of roots of unity), and t and n, the trace and norm of omega,
    so that omega^2 = t*omega - n: (0, d) for omega = sqrt(-d), and
    (1, (1 + d)/4) for omega = (1 + sqrt(-d))/2 when d = 3 mod 4.  Over Q,
    t = n = 0.  The class number h is computed lazily, on first use.
    """

    __slots__ = ("kind", "d", "D", "w", "t", "n", "_h")

    def __init__(self, kind: str, d: int | None):
        self.kind = kind
        self.d = d
        if kind == RATIONAL:
            self.D = 1
            self.w = 2
            self.t = self.n = 0
        else:
            assert d is not None
            self.t = 1 if d % 4 == 3 else 0
            self.n = (1 + d) // 4 if self.t else d
            self.D = 4 * self.n - self.t * self.t  # -D = t^2 - 4n, the discriminant
            self.w = 4 if d == 1 else 6 if d == 3 else 2
        self._h: int | None = 1 if kind == RATIONAL else None

    @property
    def is_rational(self) -> bool:
        return self.kind == RATIONAL

    @property
    def h(self) -> int:
        """Class number, computed on first use (reduced binary quadratic forms);
        OverflowError past the budget of _reduced_form_count."""
        if self._h is None:
            self._h = _reduced_form_count(self.D)
        return self._h

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldSpec)
            and self.kind == other.kind
            and self.d == other.d
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.d))

    def __repr__(self) -> str:
        if self.is_rational:
            return "Q"
        return f"Q(sqrt(-{self.d}))"


def make_field(d: int | str) -> FieldSpec:
    """Build a FieldSpec from a positive squarefree d < 2^61, or the marker 'rational'."""
    if d == RATIONAL:
        return FieldSpec(RATIONAL, None)
    if not isinstance(d, int) or isinstance(d, bool):
        raise InvalidFieldError(f"field parameter must be 'rational' or an integer, got {d!r}")
    if d <= 0:
        raise InvalidFieldError(f"d must be positive, got {d}")
    if d >= 2**61:  # below it D <= 4d fits in int64, and is_squarefree takes d^(1/3) steps
        raise InvalidFieldError(f"d must be below 2^61, got {d}")
    if not is_squarefree(d):
        raise InvalidFieldError(f"d must be squarefree, got {d}")
    return FieldSpec(IMAGINARY_QUADRATIC, d)


# ----------------------------------------------------------------------
# Ring arithmetic
# ----------------------------------------------------------------------

def norm(f: FieldSpec, x: RingElement) -> int:
    """Field norm; |a| over Q, a*(a + t*b) + n*b^2 over Q(sqrt(-d))."""
    if f.is_rational:
        return abs(x.a)
    return x.a * (x.a + f.t * x.b) + f.n * x.b * x.b


def arch_norm_sq(f: FieldSpec, x: RingElement) -> int:
    """Squared archimedean absolute value |x|^2, an exact integer.

    Equals norm(x) for imaginary quadratic fields and a^2 over Q.
    """
    if f.is_rational:
        return x.a * x.a
    return norm(f, x)


def sub(x: RingElement, y: RingElement) -> RingElement:
    return RingElement(x.a - y.a, x.b - y.b)


def mul(f: FieldSpec, x: RingElement, y: RingElement) -> RingElement:
    """x * y, reducing omega^2 = t*omega - n."""
    bd = x.b * y.b
    return RingElement(x.a * y.a - f.n * bd, x.a * y.b + x.b * y.a + f.t * bd)


def conj(f: FieldSpec, x: RingElement) -> RingElement:
    """Complex conjugation: fixes the rational part, negates the sqrt(-d) part;
    conj(omega) = t - omega."""
    return RingElement(x.a + f.t * x.b, -x.b)


def omega_times(f: FieldSpec, x: RingElement) -> RingElement:
    """x * omega; the O-module action used throughout the lattice code."""
    if f.is_rational:
        raise UnsupportedFieldError("omega is undefined over the rational field")
    return RingElement(-f.n * x.b, x.a + f.t * x.b)


@lru_cache(maxsize=_FIELD_CACHE)
def units(f: FieldSpec) -> tuple[RingElement, ...]:
    """The w roots of unity of O, in (b, a)-lexicographic order."""
    if f.is_rational:
        out = [RingElement(-1, 0), RingElement(1, 0)]
    else:
        out = [
            RingElement(a, b)
            for b in range(-2, 3)
            for a in range(-2, 3)
            if norm(f, RingElement(a, b)) == 1
        ]
    assert len(out) == f.w
    return tuple(sorted(out, key=lambda u: (u.b, u.a)))


def _canonical_associate(f: FieldSpec, q: RingElement) -> tuple[RingElement, RingElement]:
    """(u*q, u) for the unit u that makes u*q the (y, x)-lexicographic maximum
    of the w associates of q: the one denominator kept per unit orbit.

    q holds ints, or int64 arrays to take the rule elementwise (u then holds
    arrays too); ints give ints.
    """
    first, *rest = units(f)
    best, best_u = mul(f, first, q), first
    for u in rest:
        c = mul(f, u, q)
        above = (c.b > best.b) | ((c.b == best.b) & (c.a > best.a))
        if isinstance(above, np.ndarray):
            best = RingElement(np.where(above, c.a, best.a), np.where(above, c.b, best.b))
            best_u = RingElement(np.where(above, u.a, best_u.a), np.where(above, u.b, best_u.b))
        elif above:
            best, best_u = c, u
    return best, best_u


# ----------------------------------------------------------------------
# The quadratic character chi_{-D}
# ----------------------------------------------------------------------

def _kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a | n) for n >= 0."""
    if n == 0:
        return 1 if abs(a) == 1 else 0
    result = 1
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        e = 0
        while n % 2 == 0:
            n //= 2
            e += 1
        if e % 2 == 1 and a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def kronecker_character(f: FieldSpec, n: int) -> int:
    """chi_{-D}(n): +1 on split primes, -1 on inert, 0 on primes dividing D."""
    if f.is_rational:
        raise UnsupportedFieldError("the splitting character needs an imaginary quadratic field")
    if n < 0:
        raise ValueError("character is evaluated at nonnegative integers here")
    return _kronecker(-f.D, n)


@lru_cache(maxsize=_FIELD_CACHE)
def _character_table(f: FieldSpec) -> tuple[tuple[int, ...], int]:
    """(chi values on 0..D-1, max |partial sum| over a period).

    chi is periodic mod D and sums to zero over a full period, which gives
    the Abel tail bound used by zeta_K_2.
    """
    D = f.D
    if D > _MAX_PERIOD:  # refused before the first symbol
        raise OverflowError(f"chi's table of {D:,} residues is past the {_MAX_PERIOD:,} budget")
    tab = tuple(kronecker_character(f, n) for n in range(D))
    partial = 0
    m = 0
    for v in tab[1:]:
        partial += v
        m = max(m, abs(partial))
    assert partial + tab[0] == 0 if D > 1 else True
    assert sum(tab) == 0
    return tab, m


# ----------------------------------------------------------------------
# zeta_K(2): two independent pipelines
# ----------------------------------------------------------------------

_ZETA2 = math.pi * math.pi / 6.0
_SUM_BLOCK = 1 << 14  # terms of a series built at once, 128 kB of float64
# A work budget, about 20 s of blocks on one CPU.  2^30 terms certify tol =
# 4*M*zeta(2)/2^60, under 6e-16 (a few float64 spacings near zeta_K(2))
# while M < 100, so it refuses no tolerance float64 could honour there.
_MAX_TERMS = 1 << 30


def _pairwise_sum(terms, lo: int, hi: int) -> float:
    """The sum of the float64 terms lo <= k < hi, bit for bit the np.sum of
    their one array, with terms(lo, hi) building one block of at most
    _SUM_BLOCK of them at a time.

    numpy sums a contiguous float64 array pairwise: a run longer than its
    128-term base case splits at half = len // 2 rounded down to a multiple
    of 8, and the two halves' sums are added.  Splitting at the same points
    and handing each range of at most _SUM_BLOCK terms to np.sum rebuilds
    the same tree of additions.  So _SUM_BLOCK must be at least 128: a
    smaller block would split a run that numpy sums in its base case, with
    eight running sums and no split.
    """
    size = hi - lo
    if size > _SUM_BLOCK:
        half = size // 2
        half -= half % 8
        return _pairwise_sum(terms, lo, lo + half) + _pairwise_sum(terms, lo + half, hi)
    return float(np.sum(terms(lo, hi)))


@lru_cache(maxsize=_FIELD_CACHE)
def zeta_K_2(f: FieldSpec, tol: float = 1e-10) -> float:
    """zeta_K(2) = zeta(2) * L(2, chi_{-D}) within tol.

    The L-series is truncated at N terms with the Abel bound
    |tail| <= 2*M/(N+1)^2, M the maximal character partial sum, so the
    returned value is certified to tol (floating point summation error is
    orders of magnitude below the bound at the N involved).  A tol that needs
    more than 2^30 terms raises OverflowError before any work is done.

    Working memory is one block of 2^14 terms (a few arrays of 128 kB),
    whatever N is: _pairwise_sum splits the N terms where numpy's pairwise
    summation splits the one N-term array, so the value is that array's
    np.sum to the last bit.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if f.is_rational:
        return _ZETA2
    tab, m = _character_table(f)
    # the term count in floats first: 4*M*zeta(2)/tol is inf for tol below about 1e-308
    approx_terms = math.sqrt(4 * m * _ZETA2) / math.sqrt(tol)
    if approx_terms > _MAX_TERMS:
        raise OverflowError(
            f"zeta_K(2) to tol={tol:g} needs {approx_terms:.3g} terms, more than the "
            f"{_MAX_TERMS:,} one call sums"
        )
    n_terms = isqrt(int(4 * m * _ZETA2 / tol)) + 1
    chi = np.asarray(tab, dtype=np.float64)

    def terms(lo: int, hi: int) -> np.ndarray:
        k = np.arange(lo, hi, dtype=np.int64)
        return chi[k % f.D] / (k.astype(np.float64) ** 2)

    return _ZETA2 * _pairwise_sum(terms, 1, n_terms + 1)


def _splitting_kinds(f: FieldSpec, p: np.ndarray) -> np.ndarray:
    """chi(p) for an int64 array of primes p: 1 where p splits, -1 where it is
    inert, 0 where it ramifies.  Over Q every p has one prime of norm p, so
    all kinds are 0, the ramified row of every table.

    The one rule, run by the fill and squarefree_ideals: p | D ramifies, p = 2
    with D odd splits iff n is even (x^2 - x + n has roots mod 2), and an odd p
    by Euler's criterion on -D (arith._power_mod, exact for p below 3.03 * 10^9).
    It never calls kronecker_character, its check in the tests and in verify's
    character-coefficients; squarefree_ideals asserts Tonelli-Shanks agrees.
    """
    if f.is_rational:
        return np.zeros_like(p)
    kind = np.where(_power_mod(-f.D % p, (p - 1) // 2, p) == 1, 1, -1)
    kind[p == 2] = 1 if f.n % 2 == 0 else -1
    kind[f.D % p == 0] = 0
    return kind


def _prime_power_ideal_count(kind: np.ndarray, p: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Ideals of norm p^e, elementwise: e + 1 where p splits, 1 where it
    ramifies, and 1 or 0 where it is inert, as e is even or odd."""
    return np.where(kind == 1, e + 1, np.where(kind == 0, 1, 1 - e % 2))


def _multiplicative_fill(f: FieldSpec, n_max: int, table) -> np.ndarray:
    """a[0..n_max] of the multiplicative function with a[0] = 0, a[1] = 1 and
    a[p^e] = table(kind, p, e), for every field: the table takes int64
    arrays, kind from _splitting_kinds.

    arith.multiplicative_fill fills it block by block, so the working memory
    besides a is one block of at most 2^16 numbers, with no Python call per
    prime.
    """
    return multiplicative_fill(n_max, lambda p, e: table(_splitting_kinds(f, p), p, e))


def ideal_count_coefficients(f: FieldSpec, n_max: int) -> list[int]:
    """a[n] = number of ideals of O of norm n, for 0 <= n <= n_max (a[0] = 0).

    Multiplicative fill from the prime splitting types; over Q every a[n]
    is 1.  Index n directly: result[n] is the coefficient of n^(-s) in
    zeta_K(s).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return _multiplicative_fill(f, n_max, _prime_power_ideal_count).tolist()


def zeta_K_2_via_ideal_counts(f: FieldSpec, n_max: int = 200_000) -> float:
    """Independent zeta_K(2) estimate: sum a_n / n^2 plus the Abel tail term.

    The ideal-counting function is Res_K * t + O(t^(1/3)), so the corrected
    partial sum carries an O(n_max^(-5/3)) error; at the default n_max that
    is comfortably below 1e-8.

    Working memory besides the int64 counts a_n is one block: the fill's,
    then one float64 array of 2^14 terms a_n / n^2.  The blocks split where
    numpy's pairwise sum splits the one array of all n_max + 1 terms, so the
    sum is that array's np.sum to the last bit.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    a = _multiplicative_fill(f, n_max, _prime_power_ideal_count)

    def terms(lo: int, hi: int) -> np.ndarray:
        n = np.arange(lo, hi, dtype=np.float64)
        if lo == 0:
            n[0] = 1.0  # avoid 0/0; a[0] = 0
        n *= n
        return np.divide(a[lo:hi], n, out=n)

    return _pairwise_sum(terms, 0, n_max + 1) + residue_K(f) / n_max


# ----------------------------------------------------------------------
# Class number and residue
# ----------------------------------------------------------------------

def _reduced_form_count(D: int) -> int:
    """Number of reduced primitive forms (A, B, C), B^2 - 4AC = -D.

    Reduction: |B| <= A <= C, with B >= 0 when |B| = A or A = C.  Raises
    OverflowError for a D past _MAX_FORM_D before the first form is counted.
    """
    if D > _MAX_FORM_D:
        raise OverflowError(
            f"the class number of D = {D} by reduced forms takes time linear in D, "
            f"and D is past the budget {_MAX_FORM_D:,}"
        )
    h = 0
    for b in range(D % 2, isqrt(D // 3) + 1, 2):
        t = b * b + D
        assert t % 4 == 0
        n = t // 4
        for a_coef in range(max(b, 1), isqrt(n) + 1):
            if n % a_coef:
                continue
            c_coef = n // a_coef
            if gcd(gcd(a_coef, b), c_coef) != 1:
                continue
            h += 1 if (b == 0 or b == a_coef or a_coef == c_coef) else 2
    return h


def class_number(f: FieldSpec) -> int:
    """h_K via reduced-form enumeration; 1 over the rational field."""
    return f.h


def residue_K(f: FieldSpec) -> float:
    """Residue of zeta_K at s = 1: 2*pi*h/(w*sqrt(D)); 1 for the Riemann zeta."""
    if f.is_rational:
        return 1.0
    return 2.0 * math.pi * f.h / (f.w * math.sqrt(f.D))


__all__ = [
    "RATIONAL",
    "IMAGINARY_QUADRATIC",
    "InvalidFieldError",
    "UnsupportedFieldError",
    "RingElement",
    "FieldSpec",
    "make_field",
    "norm",
    "arch_norm_sq",
    "sub",
    "mul",
    "conj",
    "omega_times",
    "units",
    "kronecker_character",
    "zeta_K_2",
    "ideal_count_coefficients",
    "zeta_K_2_via_ideal_counts",
    "class_number",
    "residue_K",
]
