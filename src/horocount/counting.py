"""Counting coprime fractions p/q mod O by denominator norm.

phi(x) counts the classes p/q mod O with (p, q) = 1 and 0 < N(q) <= x.  It
changes value only at integer cutoffs, so each method is a kernel that
returns the increments inc[n], the classes with N(q) = n, for every n up to
the norm bound of x (arith._norm_bound) in one pass.  _increments is the one
dispatcher: it runs a kernel.  phi_at reads phi at cutoffs from one kernel run
up to the largest bound, and phi(x) is its one-cutoff case; phi_profile keeps
every [phi(0), ..., phi(bound)], and the relative Poincare series weighs its
terms by the increments themselves.  Where two methods apply they must agree
integer-for-integer:

* brute -- for one denominator q per unit orbit, Q included, count the
  coprime residues of its box, ideals.coprime_box(f, q), which reads the gcd
  of each cell's minors with N(q) from a table of gcd(k, N(q)); every field.
  The representatives of one norm n share one run of ideals._pair_norm_boxes:
  one table for n, one lookup of the first minor N(p) per box shape, and one
  of det(p, q) per q, each residue by arith._mod.  It is the oracle, so it
  shares no logic with the other two: no primes, no factorization, no sieve;
* mobius -- phi(x) = sum over squarefree ideals I of mu(I) * T_I(x) / N(I),
  with T_I(x) the norm sum over principal ideals inside I; every field, Q
  included.  ideals.squarefree_ideals builds them as int64 HNF arrays by the
  CRT, mu by construction, chi(p) from field._splitting_kinds as the sieve
  does.  One blocked pass over the lattice rows of all of them at once fills
  a ragged histogram, cell (I, k) for the elements of I of norm k * N(I);
* sieve -- the multiplicative fill of n -> sum of Phi(I) over the ideals of
  norm n; every field with h = 1 (Q included), where every ideal is principal.
  arith.multiplicative_fill runs it as a segmented sieve, a block of at most
  2^16 norms at a time, with the prime-power table and the splitting kinds
  evaluated as arrays, so no Python call is made per prime.

resolve_method maps 'auto' to the sieve wherever h = 1 and to mobius
elsewhere, and rejects a method the field does not support.

Int64 ceilings:
* the brute box's largest minor, N(p), is below (d + 2) * N(q)^2, so the box
  is exact for N(q) below 3 * 10^9 / sqrt(d + 2) (ideals.coprime_box);
* the squarefree ideals' HNF entries are at most x, and the CRT step
  multiplies residues below a prime p <= x, so they are exact for x below
  3.03 * 10^9;
* the Moebius inc[n] sums terms mu(I) * (elements of norm n in I) / w * n / N(I),
  each below n times the lattice points of norm n, and the cumsum of any
  kernel is phi(x), about c * x^2 with c <= 3/pi^2, so both are exact for x
  below about 5 * 10^9, far past the memory the (x + 1)-cell arrays need;
* the sieve's inc[n], which is each product its fill forms, sums Phi(I) <= n
  over at most tau(n) ideals, so it is at most n * tau(n); its cumsum is phi(x).
  Its table forms p^2 and its splitting kinds square residues below p, both
  exact for x below 3.03 * 10^9.
"""

from __future__ import annotations

import sys
import warnings
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .arith import _norm_bound, _slope
from .field import (
    FieldSpec,
    RingElement,
    UnsupportedFieldError,
    _canonical_associate,
    _multiplicative_fill,
    make_field,
    norm,
    residue_K,
    zeta_K_2,
)
from .ideals import (
    LatticeIdeal,
    _pair_norm_boxes,
    _lattice_points,
    _relative_norm_histograms,
    count_and_sum_norms,
    squarefree_ideals,
    unit_ideal,
)

METHODS = ("brute", "mobius", "sieve")


@dataclass(frozen=True)
class CountSample:
    """One measured value of the fraction-counting function."""

    x: float
    phi: int
    method: str
    field: FieldSpec


# ----------------------------------------------------------------------
# Denominator enumeration
# ----------------------------------------------------------------------

def unit_orbit_reps(f: FieldSpec, x: float) -> list[RingElement]:
    """One denominator per unit orbit with 1 <= N(q) <= x, in (y, x)-lex
    order; x is read as its norm bound, arith._norm_bound.

    The representative kept is the (y, x)-lexicographic maximum of its w
    associates, the canonical denominator of make_geodesic: a lattice point is
    kept when it is its own canonical associate, tested a block at a time.
    """
    reps: list[RingElement] = []
    for u, v in _lattice_points(f, unit_ideal(f), _norm_bound(x)):
        canon, _ = _canonical_associate(f, RingElement(u, v))
        keep = (canon.a == u) & (canon.b == v) & ((u != 0) | (v != 0))
        reps.extend(map(RingElement, u[keep].tolist(), v[keep].tolist()))
    return reps


def _brute_increments(f: FieldSpec, bound: int) -> np.ndarray:
    """inc[n] = sum of Phi(q) over orbit representatives with N(q) = n, Phi(q)
    the cells of q's box where N((p, q)) = 1, the true cells of coprime_box,
    which ring_totient counts and verify's totient-product compares with the
    Euler product; the representatives of one norm share one run of
    ideals._pair_norm_boxes."""
    by_norm = defaultdict(list)
    for q in unit_orbit_reps(f, bound):
        by_norm[norm(f, q)].append(q)
    inc = np.zeros(bound + 1, dtype=np.int64)
    for n, qs in by_norm.items():
        inc[n] = sum(np.count_nonzero(norms == 1) for _, norms in _pair_norm_boxes(f, n, qs))
    return inc


def _mobius_increments(f: FieldSpec, bound: int) -> np.ndarray:
    """inc[n] = the norm-n terms of sum over squarefree I of mu(I) T_I / N(I).

    A principal ideal (q) inside I with N(q) = k * N(I) adds mu(I) * k, so a
    cell of hits elements of I of norm k * N(I) adds mu(I) * k * hits / w at
    k * N(I); the cells of every squarefree ideal come from one blocked pass.
    """
    mu, alpha, beta, gamma = squarefree_ideals(f, bound)
    inc = np.zeros(bound + 1, dtype=np.int64)
    for owner, k, hits in _relative_norm_histograms(f, alpha, beta, gamma, bound):
        assert not (hits % f.w).any()  # the w units act freely
        np.add.at(inc, k * alpha[owner] * gamma[owner], mu[owner] * k * (hits // f.w))
    return inc


def _totient_prime_power(kind: np.ndarray, p: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Sum of Phi(I) over the ideals I of norm p^e, elementwise, by how p
    splits (kind as field._splitting_kinds gives it).

    Ramified: the one ideal P^e, Phi = p^(e-1) (p - 1).  Inert: (p)^(e/2)
    for even e, Phi = p^(e-2) (p^2 - 1).  Split: P^i conj(P)^(e-i) for
    0 <= i <= e, Phi(P^i) = p^(i-1) (p - 1) and Phi(P^0) = 1, so the two
    ends add 2 p^(e-1) (p - 1) and each of the e - 1 others p^(e-2) (p - 1)^2.
    """
    top = p ** (e - 1)
    below = top // p  # p^(e-2), and 0 where e = 1
    ramified = top * (p - 1)
    inert = np.where(e % 2 == 0, below * (p * p - 1), 0)
    split = 2 * ramified + (e - 1) * below * (p - 1) ** 2
    return np.where(kind == 1, split, np.where(kind == 0, ramified, inert))


# ----------------------------------------------------------------------
# phi: the one dispatcher
# ----------------------------------------------------------------------

def _field_methods(f: FieldSpec) -> tuple[str, ...]:
    """The methods the field supports, fastest last: the sieve, the one method
    a field can lack, needs h = 1 (Q included), where every ideal is principal."""
    return METHODS if f.h == 1 else ("brute", "mobius")


def resolve_method(f: FieldSpec, method: str = "auto") -> str:
    """The method _increments runs: 'auto' is the fastest the field supports,
    the sieve (the multiplicative fill of Phi) where h = 1 and the Moebius
    route where h > 1.

    Raises UnsupportedFieldError for a method the field lacks and ValueError
    for an unknown method.
    """
    if method == "auto":
        return _field_methods(f)[-1]
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "sieve" and f.h > 1:  # brute and mobius run on every field: h is not read
        raise UnsupportedFieldError(f"the totient sieve needs h = 1, and {f!r} has h = {f.h}")
    return method


def _profile_bound(x: float) -> int:
    """The norm bound of x (arith._norm_bound), the last index of a table of
    norms up to x, a phi profile's or a series'; a bound whose bound + 1 cells
    of 8 bytes could not be indexed raises OverflowError."""
    bound = _norm_bound(x)
    if bound + 1 > sys.maxsize // 8:  # the array would pass ssize_t bytes
        raise OverflowError(
            f"a table of norms up to {x:g} needs {bound + 1:.4g} cells, past the "
            "largest array this machine can index"
        )
    return bound


def _increments(f: FieldSpec, x: float, method: str) -> np.ndarray:
    """inc[n] for 0 <= n <= _profile_bound(x), as int64: the classes with
    N(q) = n, from the kernel that resolve_method picks for method.

    An x whose bound + 1 int64 cells could not be indexed raises
    OverflowError before anything is allocated.
    """
    method = resolve_method(f, method)
    bound = _profile_bound(x)
    if bound < 1:
        return np.zeros(max(bound + 1, 0), dtype=np.int64)
    if method == "brute":
        return _brute_increments(f, bound)
    if method == "mobius":
        return _mobius_increments(f, bound)
    return _multiplicative_fill(f, bound, _totient_prime_power)


def phi_at(f: FieldSpec, cutoffs: list[float], method: str = "auto") -> list[int]:
    """phi at each cutoff as Python ints: one kernel run up to the largest norm
    bound (arith._norm_bound), summed in place and read at each bound; a bound
    below 1 reads 0.  A bound past what can be indexed raises OverflowError
    before anything is allocated."""
    bounds = [_norm_bound(x) for x in cutoffs]
    inc = _increments(f, max(bounds, default=0), method)
    np.cumsum(inc, out=inc)
    return [int(inc[b]) if b >= 1 else 0 for b in bounds]


def phi_profile(f: FieldSpec, x: float, method: str = "brute") -> list[int]:
    """[phi(0), phi(1), ..., phi(bound)] in one pass, bound = _profile_bound(x):
    the list verify's phi-cross-method, its one caller outside the tests,
    compares entry by entry at every integer x <= 300; phi_at reads cutoffs.
    An x whose bound + 1 int64 cells could not be indexed raises
    OverflowError before anything is allocated."""
    return np.cumsum(_increments(f, x, method)).tolist()


def phi(f: FieldSpec, x: float, method: str = "auto") -> int:
    """phi(x): fractions p/q mod O with (p, q) = 1 and 0 < N(q) <= x.

    The one-cutoff case of phi_at; 'auto' is resolved by resolve_method.
    """
    if x < 1 and _norm_bound(max(x, 0.0)) < 1:  # -inf has no bound; 1 - 1 ulp snaps to 1
        resolve_method(f, method)
        warnings.warn("phi(x) with x < 1 counts no denominators", RuntimeWarning)
        return 0
    return phi_at(f, [x], method)[0]


def phi_bruteforce(f: FieldSpec, x: float) -> int:
    """phi(x) by direct residue counting; every field."""
    return phi(f, x, "brute")


def phi_mobius(f: FieldSpec, x: float) -> int:
    """phi(x) via the Moebius sum over squarefree ideals; every field."""
    return phi(f, x, "mobius")


def totient_summatory(x: int) -> int:
    """sum_{k <= x} EulerTotient(k) by the totient sieve (rational field)."""
    return phi_at(make_field("rational"), [x], "sieve")[0]


# ----------------------------------------------------------------------
# The lemma quantities S and T
# ----------------------------------------------------------------------

def _orbit_count_sum(f: FieldSpec, ideal: LatticeIdeal, bound: int) -> tuple[int, int]:
    """(S, T) for the ideal: count of principal ideals inside it with norm
    <= bound, and the sum of their norms.  Element totals are exact
    multiples of w (units act freely), which is asserted.
    """
    count, total = count_and_sum_norms(f, ideal, bound)
    assert count % f.w == 0 and total % f.w == 0
    return count // f.w, total // f.w


def S_count(f: FieldSpec, ideal: LatticeIdeal, x: float) -> int:
    """Number of nonzero principal ideals (q) inside the ideal with N(q) <= x."""
    return _orbit_count_sum(f, ideal, _norm_bound(x))[0]


def T_sum(f: FieldSpec, ideal: LatticeIdeal, x: float) -> int:
    """Sum of N(q) over the principal-ideal set counted by S_count."""
    return _orbit_count_sum(f, ideal, _norm_bound(x))[1]


# ----------------------------------------------------------------------
# Asymptotics
# ----------------------------------------------------------------------

def phi_asymptotic(f: FieldSpec, x: float, tol: float = 1e-10) -> float:
    """Main term Res_K * x^2 / (2 h zeta_K(2)).

    For imaginary quadratic fields the h in Res_K cancels the explicit h,
    collapsing to pi * x^2 / (w * zeta_K(2) * sqrt(D)).  zeta_K(2) comes
    first, so a D past its character table's budget raises OverflowError
    before h, linear in D, is computed.
    """
    zeta = zeta_K_2(f, tol)
    return residue_K(f) * x * x / (2.0 * f.h * zeta)


def exponent_estimate(samples: list[CountSample]) -> float:
    """Least-squares slope of log(phi) against log(x); should approach 2."""
    if len(samples) < 3:
        raise ValueError("need at least 3 samples")
    xs = [s.x for s in samples]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("sample cutoffs must be strictly increasing")
    if any(s.phi <= 0 for s in samples):
        raise ValueError("samples with phi = 0 cannot be log-fitted")
    return _slope(np.log(xs).tolist(), np.log([float(s.phi) for s in samples]).tolist())


__all__ = [
    "METHODS",
    "CountSample",
    "unit_orbit_reps",
    "resolve_method",
    "phi_at",
    "phi_profile",
    "phi_bruteforce",
    "phi_mobius",
    "phi",
    "totient_summatory",
    "S_count",
    "T_sum",
    "phi_asymptotic",
    "exponent_estimate",
]
