"""Ideals of O as rank-2 integer lattices in Hermite normal form.

An ideal is stored as the canonical matrix [[alpha, beta], [0, gamma]]
(alpha, gamma > 0, 0 <= beta < alpha) whose columns, read in the basis
(1, omega), generate the lattice: the elements are x*alpha + y*beta + y*gamma*omega.
Equal ideals therefore have equal matrices, and norm(I) = alpha*gamma is the
index of the lattice in O.

Over Q the ring has rank 1; the ideal (n) is stored as [[|n|, 0], [0, 1]]
with the omega row unused, which keeps every formula below valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import gcd, isqrt
from typing import Iterable, Iterator

import numpy as np

from .arith import factorize, primes_up_to, sqrt_mod_prime, xgcd
from .field import (
    FieldSpec,
    RingElement,
    _multiplicative_fill,
    conj,
    mul,
    norm,
    omega_times,
    splitting_type,
)


class ZeroIdealError(ValueError):
    """Raised when generators span the zero ideal."""


class InvalidDenominatorError(ValueError):
    """Raised when a modulus/denominator is zero."""


@dataclass(frozen=True)
class LatticeIdeal:
    field: FieldSpec
    alpha: int
    beta: int
    gamma: int

    @property
    def norm(self) -> int:
        return self.alpha * self.gamma

    @property
    def entries(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.alpha, self.beta), (0, self.gamma))

    @property
    def is_unit_ideal(self) -> bool:
        return self.alpha == 1 and self.gamma == 1

    def contains(self, x: RingElement) -> bool:
        if x.b % self.gamma:
            return False
        k = x.b // self.gamma
        return (x.a - k * self.beta) % self.alpha == 0

    def __repr__(self) -> str:
        return f"[[{self.alpha},{self.beta}],[0,{self.gamma}]]/{self.field!r}"


def _hnf2(vectors: list[tuple[int, int]]) -> tuple[int, int, int]:
    """Column-style HNF of the lattice spanned by integer pairs (x, y).

    Returns (alpha, beta, gamma); raises ZeroIdealError on rank < 2.
    """
    vecs = [v for v in vectors if v != (0, 0)]
    if not vecs:
        raise ZeroIdealError("all generators are zero")
    px, py = 0, 0  # running pivot with smallest positive y
    xs: list[int] = []
    for x, y in vecs:
        if y == 0:
            xs.append(x)
            continue
        if py == 0:
            px, py = x, y
            continue
        g, s, t = xgcd(py, y)
        nx = s * px + t * x
        xs.append(px - (py // g) * nx)
        xs.append(x - (y // g) * nx)
        px, py = nx, g
    if py < 0:
        px, py = -px, -py
    alpha = 0
    for x in xs:
        alpha = gcd(alpha, x)
    if py == 0 or alpha == 0:
        raise ZeroIdealError("generators do not span a rank-2 lattice")
    return alpha, px % alpha, py


def hnf_from_generators(f: FieldSpec, gens: list[RingElement]) -> LatticeIdeal:
    """Canonical HNF of the O-module generated by gens (spanned by g and g*omega)."""
    live = [g for g in gens if not g.is_zero()]
    if not live:
        raise ZeroIdealError("all generators are zero")
    if f.is_rational:
        a = 0
        for g in live:
            a = gcd(a, g.a)
        return LatticeIdeal(f, a, 0, 1)
    vecs: list[tuple[int, int]] = []
    for g in live:
        vecs.append((g.a, g.b))
        gw = omega_times(f, g)
        vecs.append((gw.a, gw.b))
    alpha, beta, gamma = _hnf2(vecs)
    return LatticeIdeal(f, alpha, beta, gamma)


def unit_ideal(f: FieldSpec) -> LatticeIdeal:
    return LatticeIdeal(f, 1, 0, 1)


def principal_ideal(f: FieldSpec, q: RingElement) -> LatticeIdeal:
    if q.is_zero():
        raise InvalidDenominatorError("zero generates the zero ideal")
    return hnf_from_generators(f, [q])


def ideal_mul(f: FieldSpec, lhs: LatticeIdeal, rhs: LatticeIdeal) -> LatticeIdeal:
    """Product ideal, generated by the pairwise products of the HNF columns."""
    cols_l = (RingElement(lhs.alpha, 0), RingElement(lhs.beta, lhs.gamma))
    cols_r = (RingElement(rhs.alpha, 0), RingElement(rhs.beta, rhs.gamma))
    return hnf_from_generators(f, [mul(f, u, v) for u in cols_l for v in cols_r])


def ideal_conj(f: FieldSpec, ideal: LatticeIdeal) -> LatticeIdeal:
    cols = (RingElement(ideal.alpha, 0), RingElement(ideal.beta, ideal.gamma))
    return hnf_from_generators(f, [conj(f, c) for c in cols])


def ideal_contains_ideal(outer: LatticeIdeal, inner: LatticeIdeal) -> bool:
    """outer | inner as ideals, i.e. inner is a sublattice of outer."""
    return outer.contains(RingElement(inner.alpha, 0)) and outer.contains(
        RingElement(inner.beta, inner.gamma)
    )


# ----------------------------------------------------------------------
# Coprimality and residues
# ----------------------------------------------------------------------

def _pair_minors(f: FieldSpec, p: RingElement, q: RingElement) -> tuple:
    """Values whose gcd is the norm of the ideal (p, q); ints, or int64 arrays
    elementwise when p holds arrays.

    The generators of (p, q) as a Z-lattice are p, p*omega, q, q*omega, and the
    index of a full-rank sublattice of Z^2 equals the gcd of all 2x2 minors;
    det(p*omega, q*omega) = N(omega)*det(p, q) is redundant and skipped.  Over
    Q the lattice has rank 1 and the generators p, q are their own minors.
    """
    if f.is_rational:
        return p.a, q.a
    pw = omega_times(f, p)
    qw = omega_times(f, q)
    return (
        norm(f, p),
        norm(f, q),
        p.a * q.b - q.a * p.b,
        p.a * qw.b - qw.a * p.b,
        pw.a * q.b - q.a * pw.b,
    )


def pair_ideal_norm(f: FieldSpec, p: RingElement, q: RingElement) -> int:
    """Norm of the ideal (p, q), the gcd of the minors of its generators."""
    if q.is_zero() and p.is_zero():
        raise ZeroIdealError("(0, 0) is the zero ideal")
    return gcd(*_pair_minors(f, p, q))


def is_coprime(f: FieldSpec, p: RingElement, q: RingElement) -> bool:
    """True iff the ideal (p, q) is all of O."""
    if q.is_zero():
        raise InvalidDenominatorError("denominator must be nonzero")
    return pair_ideal_norm(f, p, q) == 1


def residues_mod(f: FieldSpec, q: RingElement) -> list[RingElement]:
    """The N(q) residues {x + y*omega : 0 <= x < alpha, 0 <= y < gamma} mod (q)."""
    if q.is_zero():
        raise InvalidDenominatorError("denominator must be nonzero")
    ideal = principal_ideal(f, q)
    return [
        RingElement(x, y) for y in range(ideal.gamma) for x in range(ideal.alpha)
    ]


def reduce_mod(f: FieldSpec, x: RingElement, ideal: LatticeIdeal) -> RingElement:
    """The unique representative of x in the residue box of the ideal."""
    k, y = divmod(x.b, ideal.gamma)
    return RingElement((x.a - k * ideal.beta) % ideal.alpha, y)


def coprime_box(f: FieldSpec, q: RingElement) -> np.ndarray:
    """mask[y, x]: whether x + y*omega is coprime to q, over the residue box
    0 <= x < alpha, 0 <= y < gamma of (q); shape (1, |q|) over Q.  principal_ideal
    raises InvalidDenominatorError for q = 0.

    pair_ideal_norm on the whole box at once, with int64 arrays for the
    coordinates of p.  The largest minor, N(p), is below (d + 2) * N(q)^2 on
    the box, so int64 is exact for N(q) below 3 * 10^9 / sqrt(d + 2).
    """
    ideal = principal_ideal(f, q)
    r = np.arange(ideal.alpha, dtype=np.int64)  # gamma divides alpha in an ideal's HNF
    p = RingElement(r[None, :], r[: ideal.gamma, None])
    return reduce(np.gcd, _pair_minors(f, p, q)) == 1


def ring_totient(f: FieldSpec, q: RingElement) -> int:
    """Number of residues mod (q) coprime to q: the true cells of coprime_box."""
    return int(np.count_nonzero(coprime_box(f, q)))


def ring_totient_product(f: FieldSpec, q: RingElement) -> int:
    """The same count via N(q) * prod_{P | (q)} (1 - 1/N(P)); exact integers."""
    if q.is_zero():
        raise InvalidDenominatorError("denominator must be nonzero")
    total = norm(f, q)
    for tag, _ in factor_ideal(f, principal_ideal(f, q)):
        np_ = tag.norm
        total = total // np_ * (np_ - 1)
    return total


# ----------------------------------------------------------------------
# Prime ideals and factorization
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PrimeIdealTag:
    """A prime ideal, named by its rational prime and splitting type.

    'split-first' is the prime (p, omega - r) for the smaller root r of the
    minimal polynomial of omega mod p; 'split-second' the other root.
    Over Q the tag is the rational prime itself ('rational').
    """

    p: int
    splitting: str  # split-first | split-second | inert | ramified | rational

    @property
    def norm(self) -> int:
        return self.p * self.p if self.splitting == "inert" else self.p


def _minpoly_roots_mod_p(f: FieldSpec, p: int) -> list[int]:
    """Distinct roots of the minimal polynomial of omega modulo p, sorted."""
    d = f.d
    assert d is not None
    if f.half_basis:
        if p == 2:
            return [0, 1] if f.half_m % 2 == 0 else []
        if d % p == 0:
            return [(p + 1) // 2]  # double root 1/2 mod p
        s = sqrt_mod_prime(-d % p, p)
        if s is None:
            return []
        inv2 = (p + 1) // 2
        roots = {(1 + s) * inv2 % p, (1 - s) * inv2 % p}
        return sorted(roots)
    if p == 2:
        return [1] if d % 2 else [0]  # x^2 + d has the double root d mod 2
    if d % p == 0:
        return [0]
    s = sqrt_mod_prime(-d % p, p)
    if s is None:
        return []
    return sorted({s, p - s})


@lru_cache(maxsize=None)
def prime_ideals_above(f: FieldSpec, p: int) -> tuple[tuple[PrimeIdealTag, LatticeIdeal], ...]:
    """The prime ideals of O above the rational prime p, with their lattices."""
    if f.is_rational:
        return ((PrimeIdealTag(p, "rational"), LatticeIdeal(f, p, 0, 1)),)
    s = splitting_type(f, p)
    if s == "inert":
        lat = principal_ideal(f, RingElement(p, 0))
        assert lat.norm == p * p
        return ((PrimeIdealTag(p, "inert"), lat),)
    roots = _minpoly_roots_mod_p(f, p)

    def lat_of(r: int) -> LatticeIdeal:
        # the prime (p, omega - r)
        return hnf_from_generators(f, [RingElement(p, 0), RingElement(-r, 1)])

    if s == "ramified":
        (r,) = roots
        lat = lat_of(r)
        assert lat.norm == p
        return ((PrimeIdealTag(p, "ramified"), lat),)
    r1, r2 = roots
    lat1 = lat_of(r1)
    lat2 = lat_of(r2)
    assert lat1.norm == p and lat2.norm == p and lat1 != lat2
    return (
        (PrimeIdealTag(p, "split-first"), lat1),
        (PrimeIdealTag(p, "split-second"), lat2),
    )


def prime_ideal_lattice(f: FieldSpec, tag: PrimeIdealTag) -> LatticeIdeal:
    for t, lat in prime_ideals_above(f, tag.p):
        if t == tag:
            return lat
    raise ValueError(f"{tag} is not a prime of {f!r}")


def _scale_down(ideal: LatticeIdeal, p: int) -> LatticeIdeal:
    assert ideal.alpha % p == 0 and ideal.beta % p == 0 and ideal.gamma % p == 0
    return LatticeIdeal(ideal.field, ideal.alpha // p, ideal.beta // p, ideal.gamma // p)


def _quotient_by_prime(
    f: FieldSpec, ideal: LatticeIdeal, tag: PrimeIdealTag, lat: LatticeIdeal
) -> LatticeIdeal:
    """ideal / P, assuming P | ideal: multiply by the conjugate prime, divide by N(P)."""
    if tag.splitting == "rational":
        assert ideal.alpha % tag.p == 0
        return LatticeIdeal(f, ideal.alpha // tag.p, 0, 1)
    if tag.splitting == "inert":
        return _scale_down(ideal, tag.p)
    cofactor = ideal_conj(f, lat)
    return _scale_down(ideal_mul(f, ideal, cofactor), tag.p)


def factor_ideal(f: FieldSpec, ideal: LatticeIdeal) -> list[tuple[PrimeIdealTag, int]]:
    """Prime-ideal factorization, multiplicities by repeated exact divisibility."""
    if ideal.norm < 1:
        raise ZeroIdealError("cannot factor the zero ideal")
    out: list[tuple[PrimeIdealTag, int]] = []
    remaining = ideal
    for p, e_norm in factorize(ideal.norm):
        e_seen = 0
        for tag, lat in prime_ideals_above(f, p):
            e = 0
            while ideal_contains_ideal(lat, remaining):
                remaining = _quotient_by_prime(f, remaining, tag, lat)
                e += 1
            if e:
                out.append((tag, e))
            e_seen += e * (2 if tag.splitting == "inert" else 1)
        assert e_seen == e_norm, f"valuations above {p} do not add up for {ideal}"
    assert remaining.is_unit_ideal
    return out


def mobius_ideal(f: FieldSpec, ideal: LatticeIdeal) -> int:
    """mu(I): 1 on O, (-1)^k on products of k distinct primes, else 0."""
    if ideal.is_unit_ideal:
        return 1
    factors = factor_ideal(f, ideal)
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


def squarefree_ideals(f: FieldSpec, bound: int) -> Iterator[tuple[int, LatticeIdeal]]:
    """(mu(I), I) for every squarefree ideal I with N(I) <= bound, each once.

    The ideals are the products of distinct primes, built by a depth-first
    search over the primes in order of norm; mu(I) = (-1)^k for k primes is
    known by construction, and a branch stops where the next prime would
    push the norm past bound.
    """
    if bound < 1:
        return
    primes = sorted(
        (lat for p in primes_up_to(bound) for _, lat in prime_ideals_above(f, p)
         if lat.norm <= bound),
        key=lambda lat: lat.norm,
    )
    stack = [(unit_ideal(f), 1, 0)]  # (ideal, mu, index of the next prime to try)
    while stack:
        ideal, mu, start = stack.pop()
        yield mu, ideal
        for i in range(start, len(primes)):
            if ideal.norm * primes[i].norm > bound:
                break
            stack.append((ideal_mul(f, ideal, primes[i]), -mu, i + 1))


def ideal_divisors(f: FieldSpec, ideal: LatticeIdeal) -> list[LatticeIdeal]:
    """All ideals dividing the given one (products over its prime support)."""
    divs = [unit_ideal(f)]
    for tag, e in factor_ideal(f, ideal):
        lat = prime_ideal_lattice(f, tag)
        extended = list(divs)
        power = unit_ideal(f)
        for _ in range(e):
            power = ideal_mul(f, power, lat)
            extended.extend(ideal_mul(f, d, power) for d in divs)
        divs = extended
    return divs


def is_principal(f: FieldSpec, ideal: LatticeIdeal) -> bool:
    """True iff the ideal contains an element of norm equal to its norm."""
    target = ideal.norm
    for x in enumerate_norm_le(f, ideal, target):
        if norm(f, x) == target:
            return True
    return False


# ----------------------------------------------------------------------
# Lattice-point enumeration inside the norm ellipse
# ----------------------------------------------------------------------

def _rows_norm_le(
    f: FieldSpec, lattice: LatticeIdeal, bound: int
) -> Iterator[tuple[int, int, int]]:
    """Rows (v, u0, count) covering all lattice points of norm <= bound.

    Row elements are u = u0 + j*alpha (0 <= j < count) with fixed
    omega-coordinate v; the zero element is included when it qualifies.
    """
    if bound < 0:
        return
    alpha, beta, gamma = lattice.alpha, lattice.beta, lattice.gamma
    if f.is_rational:
        if bound >= alpha:
            n = bound // alpha
            yield 0, -n * alpha, 2 * n + 1
        else:
            yield 0, 0, 1  # just the zero element; callers filter norm > 0
        return
    d = f.d
    assert d is not None
    if f.half_basis:
        vmax = isqrt(4 * bound // d)
    else:
        vmax = isqrt(bound // d)
    for k in range(-(vmax // gamma), vmax // gamma + 1):
        v = k * gamma
        r = (k * beta) % alpha
        if f.half_basis:
            t_hi = isqrt(4 * bound - d * v * v)
            lo = -((t_hi + v) // 2)
            hi = (t_hi - v) // 2
        else:
            u_hi = isqrt(bound - d * v * v)
            lo, hi = -u_hi, u_hi
        u0 = lo + (r - lo) % alpha
        if u0 > hi:
            continue
        yield v, u0, (hi - u0) // alpha + 1


def enumerate_norm_le(
    f: FieldSpec, lattice: LatticeIdeal, x: float
) -> Iterator[RingElement]:
    """Every nonzero lattice element of norm <= x, exactly once, in (y, x)-lex order."""
    bound = int(x)
    for v, u0, count in _rows_norm_le(f, lattice, bound):
        for j in range(count):
            u = u0 + j * lattice.alpha
            if u == 0 and v == 0:
                continue
            yield RingElement(u, v)


_HISTOGRAM_BLOCK = 1 << 18  # values (2 MB of int64) per block of _blocks


def _row_norms(f: FieldSpec, lattice: LatticeIdeal, bound: int) -> Iterator[np.ndarray]:
    """The norms of the lattice points of each row of _rows_norm_le, as int64 arrays."""
    for v, u0, n_pts in _rows_norm_le(f, lattice, bound):
        # int64 holds N(u + v*omega) while each term u^2, u*v and d*v^2 stays
        # below 2^63; on a row each is a few times bound at most, so every
        # bound below 2^60 is exact
        u = u0 + lattice.alpha * np.arange(n_pts, dtype=np.int64)
        yield norm(f, RingElement(u, v))


def count_and_sum_norms(
    f: FieldSpec, lattice: LatticeIdeal, bound: int
) -> tuple[int, int]:
    """(#nonzero elements with norm <= bound, sum of their norms); vectorized."""
    count = 0
    total = 0
    for norms in _row_norms(f, lattice, bound):
        nz = norms > 0
        count += int(np.count_nonzero(nz))
        total += int(norms[nz].sum())
    return count, total


def _blocks(rows: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """The rows concatenated into blocks of about _HISTOGRAM_BLOCK values: a
    histogram that adds one bincount per block holds one block at a time."""
    block: list[np.ndarray] = []
    filled = 0
    for row in rows:
        block.append(row)
        filled += len(row)
        if filled >= _HISTOGRAM_BLOCK:
            yield np.concatenate(block)
            block, filled = [], 0
    if block:
        yield np.concatenate(block)


def norm_histogram(f: FieldSpec, lattice: LatticeIdeal, bound: int) -> np.ndarray:
    """counts[n] = number of nonzero lattice elements of norm exactly n <= bound."""
    counts = np.zeros(bound + 1, dtype=np.int64)
    for norms in _blocks(_row_norms(f, lattice, bound)):
        counts += np.bincount(norms, minlength=bound + 1)
    if bound >= 0:
        counts[0] = 0
    return counts


def relative_norm_histogram(f: FieldSpec, ideal: LatticeIdeal, bound: int) -> np.ndarray:
    """counts[k] = number of nonzero elements of the ideal of norm k * N(I) <= bound,
    in bound // N(I) + 1 cells: N(I) divides the norm of every element of I."""
    size = bound // ideal.norm + 1
    counts = np.zeros(size, dtype=np.int64)
    for norms in _blocks(_row_norms(f, ideal, bound)):
        quot, rem = np.divmod(norms, ideal.norm)
        assert not rem.any(), f"a norm in {ideal} is not a multiple of N(I)"
        counts += np.bincount(quot, minlength=size)
    if bound >= 0:
        counts[0] = 0
    return counts


# ----------------------------------------------------------------------
# Moebius sums over ideals
# ----------------------------------------------------------------------

def _mobius_prime_power(split: str, p: int, e: int) -> int:
    if split == "split":
        return -2 if e == 1 else 1 if e == 2 else 0
    if split == "ramified":
        return -1 if e == 1 else 0
    return -1 if e == 2 else 0


def mobius_norm_coefficients(f: FieldSpec, bound: int) -> list[int]:
    """m[n] = sum of mu(I) over ideals of norm n, multiplicatively sieved.

    Per split prime: m_p = -2, m_{p^2} = +1; ramified: m_p = -1; inert:
    m_{p^2} = -1; all other prime powers contribute 0.  Over Q this is the
    ordinary Moebius function.
    """
    return _multiplicative_fill(f, bound, _mobius_prime_power).tolist()


def mobius_reciprocal_partial(f: FieldSpec, bound: int) -> float:
    """Partial sum of mu(I)/N(I)^2 over N(I) <= bound, converging to 1/zeta_K(2)."""
    m = np.asarray(mobius_norm_coefficients(f, bound), dtype=np.float64)
    n = np.arange(bound + 1, dtype=np.float64)
    n[0] = 1.0
    return float(np.sum(m / (n * n)))


__all__ = [
    "ZeroIdealError",
    "InvalidDenominatorError",
    "LatticeIdeal",
    "hnf_from_generators",
    "unit_ideal",
    "principal_ideal",
    "ideal_mul",
    "ideal_conj",
    "ideal_contains_ideal",
    "pair_ideal_norm",
    "is_coprime",
    "coprime_box",
    "residues_mod",
    "reduce_mod",
    "ring_totient",
    "ring_totient_product",
    "PrimeIdealTag",
    "prime_ideals_above",
    "prime_ideal_lattice",
    "factor_ideal",
    "mobius_ideal",
    "squarefree_ideals",
    "ideal_divisors",
    "is_principal",
    "enumerate_norm_le",
    "count_and_sum_norms",
    "norm_histogram",
    "relative_norm_histogram",
    "mobius_norm_coefficients",
    "mobius_reciprocal_partial",
]
