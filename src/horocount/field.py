"""Exact arithmetic in rings of integers of Q and Q(sqrt(-d)), plus the
analytic constants attached to such a field: the quadratic character, the
Dedekind zeta value at 2, the class number and the residue at 1.

Elements are stored as integer coordinate pairs (a, b) meaning a + b*omega,
where omega = sqrt(-d), or (1 + sqrt(-d))/2 when d = 3 mod 4, so that
coprimality and norm tests stay exact.  The rational field is the degenerate
case b = 0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

from .arith import factorize, is_squarefree, smallest_prime_factors

RATIONAL = "rational"
IMAGINARY_QUADRATIC = "imaginary_quadratic"


class InvalidFieldError(ValueError):
    """Raised when a field parameter is not a positive squarefree integer."""


class UnsupportedFieldError(ValueError):
    """Raised when an operation is not defined for the given field."""


@dataclass(frozen=True)
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


ZERO = RingElement(0, 0)
ONE = RingElement(1, 0)


class FieldSpec:
    """The base field: Q, or Q(sqrt(-d)) for squarefree d > 0.

    Derived constants: D (the positive discriminant magnitude, d or 4d),
    w (number of roots of unity), half_basis (omega = (1+sqrt(-d))/2 iff
    d = 3 mod 4).  The class number h is computed lazily, on first use; the
    computation is pure, so threads sharing a FieldSpec that race on the
    first use can only repeat it, never disagree.
    """

    __slots__ = ("kind", "d", "D", "w", "half_basis", "_h")

    def __init__(self, kind: str, d: int | None):
        self.kind = kind
        self.d = d
        if kind == RATIONAL:
            self.D = 1
            self.w = 2
            self.half_basis = False
        else:
            assert d is not None
            self.half_basis = d % 4 == 3
            self.D = d if self.half_basis else 4 * d
            self.w = 4 if d == 1 else 6 if d == 3 else 2
        self._h: int | None = 1 if kind == RATIONAL else None

    @property
    def is_rational(self) -> bool:
        return self.kind == RATIONAL

    @property
    def h(self) -> int:
        """Class number, computed on first use (reduced binary quadratic forms)."""
        if self._h is None:
            self._h = _reduced_form_count(self.D)
        return self._h

    @property
    def half_m(self) -> int:
        """The constant m in omega^2 = omega - m for the half-integer basis."""
        assert self.half_basis and self.d is not None
        return (1 + self.d) // 4

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
    """Build a FieldSpec from a positive squarefree d, or the marker 'rational'."""
    if d == RATIONAL:
        return FieldSpec(RATIONAL, None)
    if not isinstance(d, int) or isinstance(d, bool):
        raise InvalidFieldError(f"field parameter must be 'rational' or an integer, got {d!r}")
    if d <= 0:
        raise InvalidFieldError(f"d must be positive, got {d}")
    if not is_squarefree(d):
        raise InvalidFieldError(f"d must be squarefree, got {d}")
    return FieldSpec(IMAGINARY_QUADRATIC, d)


# ----------------------------------------------------------------------
# Ring arithmetic
# ----------------------------------------------------------------------

def norm(f: FieldSpec, x: RingElement) -> int:
    """Field norm; |a| over Q, a^2 + d b^2 or a^2 + ab + m b^2 over Q(sqrt(-d))."""
    if f.is_rational:
        return abs(x.a)
    if f.half_basis:
        return x.a * x.a + x.a * x.b + f.half_m * x.b * x.b
    return x.a * x.a + f.d * x.b * x.b


def arch_norm_sq(f: FieldSpec, x: RingElement) -> int:
    """Squared archimedean absolute value |x|^2, an exact integer.

    Equals norm(x) for imaginary quadratic fields and a^2 over Q.
    """
    if f.is_rational:
        return x.a * x.a
    return norm(f, x)


def add(x: RingElement, y: RingElement) -> RingElement:
    return RingElement(x.a + y.a, x.b + y.b)


def sub(x: RingElement, y: RingElement) -> RingElement:
    return RingElement(x.a - y.a, x.b - y.b)


def mul(f: FieldSpec, x: RingElement, y: RingElement) -> RingElement:
    if f.is_rational:
        return RingElement(x.a * y.a, 0)
    cross = x.a * y.b + x.b * y.a
    if f.half_basis:
        # omega^2 = omega - m
        return RingElement(x.a * y.a - f.half_m * x.b * y.b, cross + x.b * y.b)
    return RingElement(x.a * y.a - f.d * x.b * y.b, cross)


def conj(f: FieldSpec, x: RingElement) -> RingElement:
    """Complex conjugation: fixes the rational part, negates the sqrt(-d) part."""
    if f.is_rational:
        return x
    if f.half_basis:
        # conj(omega) = 1 - omega
        return RingElement(x.a + x.b, -x.b)
    return RingElement(x.a, -x.b)


def ring_arith(f: FieldSpec, op: str, x: RingElement, y: RingElement) -> RingElement:
    """Dispatch for the four exact ring operations; conj ignores y."""
    if op == "add":
        return add(x, y)
    if op == "sub":
        return sub(x, y)
    if op == "mul":
        return mul(f, x, y)
    if op == "conj":
        return conj(f, x)
    raise ValueError(f"unknown ring operation {op!r}")


def omega_times(f: FieldSpec, x: RingElement) -> RingElement:
    """x * omega; the O-module action used throughout the lattice code."""
    if f.is_rational:
        raise UnsupportedFieldError("omega is undefined over the rational field")
    if f.half_basis:
        return RingElement(-f.half_m * x.b, x.a + x.b)
    return RingElement(-f.d * x.b, x.a)


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def _character_table(f: FieldSpec) -> tuple[tuple[int, ...], int]:
    """(chi values on 0..D-1, max |partial sum| over a period).

    chi is periodic mod D and sums to zero over a full period, which gives
    the Abel tail bound used by zeta_K_2.
    """
    D = f.D
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


@lru_cache(maxsize=None)
def zeta_K_2(f: FieldSpec, tol: float = 1e-10) -> float:
    """zeta_K(2) = zeta(2) * L(2, chi_{-D}) within tol.

    The L-series is truncated at N terms with the Abel bound
    |tail| <= 2*M/(N+1)^2, M the maximal character partial sum, so the
    returned value is certified to tol (floating point summation error is
    orders of magnitude below the bound at the N involved).  A tol so small
    that the N-term array could not be indexed raises OverflowError before
    anything is allocated.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if f.is_rational:
        return _ZETA2
    tab, m = _character_table(f)
    n_terms = isqrt(int(4 * m * _ZETA2 / tol)) + 1
    if n_terms > sys.maxsize // 8:  # the int64 array of n would pass ssize_t bytes
        raise OverflowError(
            f"zeta_K(2) to tol={tol:g} needs {float(n_terms):.3g} terms, past the largest "
            "array this machine can index"
        )
    n = np.arange(1, n_terms + 1, dtype=np.int64)
    chi = np.asarray(tab, dtype=np.float64)[n % f.D]
    l_value = float(np.sum(chi / (n.astype(np.float64) ** 2)))
    return _ZETA2 * l_value


def splitting_type(f: FieldSpec, p: int) -> str:
    """How the rational prime p splits in O: 'split', 'inert' or 'ramified'.

    Determined by counting roots of the minimal polynomial of omega mod p
    (Euler's criterion for the odd primes), deliberately not going through
    kronecker_character so the two can be cross-checked.
    """
    if f.is_rational:
        raise UnsupportedFieldError("splitting types need an imaginary quadratic field")
    d = f.d
    assert d is not None
    if f.half_basis:
        if p == 2:
            # x^2 - x + m mod 2: two roots iff m even
            return "split" if f.half_m % 2 == 0 else "inert"
        if d % p == 0:
            return "ramified"
    else:
        if p == 2 or d % p == 0:
            return "ramified"
    euler = pow(-d % p, (p - 1) // 2, p)
    return "split" if euler == 1 else "inert"


def _prime_power_ideal_count(split: str, e: int) -> int:
    if split == "split":
        return e + 1
    if split == "ramified":
        return 1
    return 1 if e % 2 == 0 else 0


def _multiplicative_fill(f: FieldSpec, n_max: int, prime_power) -> list[int]:
    """a[0..n_max] of the multiplicative function with a[0] = 0, a[1] = 1 and
    a[p^e] = prime_power(splitting_type(f, p), e); imaginary quadratic f only.
    """
    spf = smallest_prime_factors(n_max)
    split_of: dict[int, str] = {}
    a = [0] * (n_max + 1)
    if n_max >= 1:
        a[1] = 1
    for n in range(2, n_max + 1):
        p = spf[n]
        m, e = n, 0
        while m % p == 0:
            m //= p
            e += 1
        s = split_of.get(p)
        if s is None:
            s = split_of[p] = splitting_type(f, p)
        a[n] = a[m] * prime_power(s, e)
    return a


def ideal_count_coefficients(f: FieldSpec, n_max: int) -> list[int]:
    """a[n] = number of ideals of O of norm n, for 0 <= n <= n_max (a[0] = 0).

    Multiplicative fill from the prime splitting types; over Q every a[n]
    is 1.  Index n directly: result[n] is the coefficient of n^(-s) in
    zeta_K(s).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if f.is_rational:
        return [0] + [1] * n_max
    return _multiplicative_fill(f, n_max, _prime_power_ideal_count)


def zeta_K_2_via_ideal_counts(f: FieldSpec, n_max: int = 200_000) -> float:
    """Independent zeta_K(2) estimate: sum a_n / n^2 plus the Abel tail term.

    The ideal-counting function is Res_K * t + O(t^(1/3)), so the corrected
    partial sum carries an O(n_max^(-5/3)) error; at the default n_max that
    is comfortably below 1e-8.
    """
    a = np.asarray(ideal_count_coefficients(f, n_max), dtype=np.float64)
    n = np.arange(n_max + 1, dtype=np.float64)
    n[0] = 1.0  # avoid 0/0; a[0] = 0
    partial = float(np.sum(a / (n * n)))
    return partial + residue_K(f) / n_max


# ----------------------------------------------------------------------
# Class number and residue
# ----------------------------------------------------------------------

def _reduced_form_count(D: int) -> int:
    """Number of reduced primitive forms (A, B, C), B^2 - 4AC = -D.

    Reduction: |B| <= A <= C, with B >= 0 when |B| = A or A = C.
    """
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
    "ZERO",
    "ONE",
    "FieldSpec",
    "make_field",
    "norm",
    "arch_norm_sq",
    "add",
    "sub",
    "mul",
    "conj",
    "ring_arith",
    "omega_times",
    "units",
    "kronecker_character",
    "zeta_K_2",
    "splitting_type",
    "ideal_count_coefficients",
    "zeta_K_2_via_ideal_counts",
    "class_number",
    "residue_K",
]
