"""Ideals of O as rank-2 integer lattices in Hermite normal form.

An ideal is stored as the canonical matrix [[alpha, beta], [0, gamma]]
(alpha, gamma > 0, 0 <= beta < alpha) whose columns, read in the basis
(1, omega), generate the lattice: the elements are x*alpha + y*beta + y*gamma*omega.
Equal ideals therefore have equal matrices, and norm(I) = alpha*gamma is the
index of the lattice in O.

Over Q the ring has rank 1; the ideal (n) is stored as [[|n|, 0], [0, 1]]
with the omega row unused, which keeps every formula below valid.

A prime ideal is its lattice in closed form: (p, omega - r) = [[p, -r mod p],
[0, 1]] for each root r of omega's minimal polynomial mod p, else (p), which
is [[p, 0], [0, p]] for an inert p and [[p, 0], [0, 1]] over Q.  Factoring
finds them by the roots (prime_ideals_above); squarefree_ideals reads how p
splits from field._splitting_kinds, the sieve's rule, and builds none.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from typing import Iterable, Iterator

import numpy as np

from .arith import _mod, _norm_bound, _power_mod, factorize, primes_up_to, sqrt_mod_prime, xgcd
from .field import (
    FieldSpec,
    RingElement,
    _multiplicative_fill,
    _splitting_kinds,
    conj,
    mul,
    norm,
    omega_times,
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
    """The HNF of (q), in closed form; q = 0 raises InvalidDenominatorError.

    With q = a + b*omega, (q) is spanned as a lattice by q = (a, b) and
    q*omega = (-n*b, a + t*b).  Its omega coordinates are the multiples of
    gamma = gcd(b, a + t*b), which is gcd(a, b) since a = (a + t*b) - t*b.
    Its index alpha*gamma is the determinant a*(a + t*b) + n*b^2 = N(q), so
    alpha = N(q) / gamma.  With xgcd(b, a + t*b) = (gamma, s, u), the element
    s*q + u*q*omega = (s*a - u*n*b, gamma) lies in (q) at height gamma, and
    beta is its first coordinate reduced mod alpha, since (alpha, 0) lies in
    (q) too.  Over Q the ideal is (|a|), [[|a|, 0], [0, 1]].  The same triple
    as hnf_from_generators(f, [q]), without its general elimination.
    """
    if q.is_zero():
        raise InvalidDenominatorError("zero generates the zero ideal")
    if f.is_rational:
        return LatticeIdeal(f, abs(q.a), 0, 1)
    gamma, s, u = xgcd(q.b, q.a + f.t * q.b)
    alpha = norm(f, q) // gamma
    return LatticeIdeal(f, alpha, (s * q.a - u * f.n * q.b) % alpha, gamma)


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
    index of a full-rank sublattice of Z^2 equals the gcd of all 2x2 minors.
    Three of the six are kept: N(p) = det(p, p*omega), N(q) and det(p, q).
    Two others are integer combinations of det(p, q) and A = det(p, q*omega),
    since det(Mx, y) + det(x, My) = tr(M) * det(x, y) for multiplication by
    omega: det(p*omega, q) = t*det(p, q) - A, and det(p*omega, q*omega) =
    n*det(p, q).  A itself is redundant too: p*conj(q) = A - det(p, q)*omega,
    so N(p)*N(q) = A^2 - t*A*det(p, q) + n*det(p, q)^2.  If a prime l divided
    G = gcd(N(p), N(q), det(p, q)) k times and A only j < k times, the right
    side would have l-valuation exactly 2j (the other two terms have at least
    j + k and 2k) and the left at least 2k; so G | A.  Over Q the lattice has
    rank 1 and the generators p, q are their own minors.
    """
    if f.is_rational:
        return p.a, q.a
    return norm(f, p), norm(f, q), _cross(p, q)


def _cross(p: RingElement, q: RingElement):
    """det(p, q) = p.a * q.b - q.a * p.b, the minor of p and q in the basis
    (1, omega)."""
    return p.a * q.b - q.a * p.b


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


def reduce_mod(f: FieldSpec, x: RingElement, ideal: LatticeIdeal) -> RingElement:
    """The unique representative of x in the residue box of the ideal."""
    k, y = divmod(x.b, ideal.gamma)
    return RingElement((x.a - k * ideal.beta) % ideal.alpha, y)


def _gcd_table(n: int) -> np.ndarray:
    """t[k] = gcd(k, n) for 0 <= k < n, as int64: each divisor e of n, in
    ascending order, written into t[::e], so the largest divisor of n that
    divides k is written last; the divisors come from trial division up to
    isqrt(n).  The brute oracle builds one per norm (_pair_norm_boxes)."""
    low = [e for e in range(1, isqrt(n) + 1) if n % e == 0]
    table = np.empty(n, dtype=np.int64)
    for e in low + [n // e for e in reversed(low) if e * e != n]:
        table[::e] = e
    return table


def _pair_norm_boxes(
    f: FieldSpec, n: int, qs: Iterable[RingElement]
) -> Iterator[tuple[RingElement, np.ndarray]]:
    """(q, norms) for each q of qs, all of norm n, with norms[y, x] =
    N((x + y*omega, q)) over the box of coprime_box(f, q), whose true cells
    are where it is 1; the qs grouped by the shape of their box.

    t = _gcd_table(n) is built once.  Over Q the box of (n) is the row
    0 <= x < n, and the norms are t itself.  Over a field the box of q
    depends on q only through its shape: gamma divides n, and alpha = n /
    gamma.  So the first minor, t[N(p) mod n], is looked up once per shape;
    a gamma = 1 box is the 1-D row of x, with y = 0.  Each q then reads only
    t[det(p, q) mod n], and its norms are the gcd of the two lookups.  Every
    residue goes through arith._mod, which divides by n through a
    multiplication, in about half the time of %.

    One shape's arrays are alive at a time, the caller makes each mask, and
    boxes stay one denominator at a time.  Keeping every shape's first minor
    to the end of the norm, or yielding the masks, which left two alive at
    once for numpy's small-block cache to keep, raised the peak memory of
    the brute kernel; so did stacking a norm's boxes into one array.
    """
    table = _gcd_table(n)
    shapes: dict[int, list[RingElement]] = {}
    for q in qs:
        shapes.setdefault(principal_ideal(f, q).gamma, []).append(q)
    for gamma, group in shapes.items():
        if f.is_rational:
            yield from ((q, table[None, :]) for q in group)
            continue
        x = np.arange(n // gamma, dtype=np.int64)  # gamma divides alpha in an HNF
        p = RingElement(x, 0) if gamma == 1 else RingElement(x[None, :], x[:gamma, None])
        first = table[_mod(norm(f, p), n)]
        for q in group:
            norms = np.gcd(first, table[_mod(_cross(p, q), n)])
            yield q, (norms if gamma > 1 else norms[None, :])


def coprime_box(f: FieldSpec, q: RingElement) -> np.ndarray:
    """mask[y, x]: whether x + y*omega is coprime to q, over the residue box
    0 <= x < alpha, 0 <= y < gamma of (q); shape (1, |q|) over Q.  principal_ideal
    raises InvalidDenominatorError for q = 0.

    pair_ideal_norm on the whole box at once, with int64 arrays for the
    coordinates of p, and a gcd table in place of Euclid per cell.  N = N(q)
    is one of the minors, so N((p, q)), the gcd of the minors, is the gcd of
    the gcd(minor, N), which t = _gcd_table(N) holds at minor mod N.  The
    minor N(q) itself is skipped, since t[0] = N adds nothing.  Over Q a cell
    is coprime iff t[x] == 1; otherwise iff gcd(t[N(p) mod N], t[det(p, q)
    mod N]) == 1, a short gcd of two divisors of N.  The table holds N cells,
    as many as the box.  This is the one-denominator case of
    _pair_norm_boxes, which the brute oracle runs once per norm: one table
    per norm, one first-minor lookup per box shape.

    This is the brute oracle of counting, and it shares no logic with the
    Moebius route or the sieve: it reads the minors of _pair_minors
    (field.norm and _cross) and a table whose divisors come from trial
    division, never a prime, a prime ideal, a factorization, a Moebius value
    or a multiplicative fill.  The largest minor, N(p), is below
    (d + 2) * N(q)^2 on the box; it is never negative, and _mod is exact on
    every nonnegative int64, so the box is exact for N(q) below
    3 * 10^9 / sqrt(d + 2).
    """
    return next(_pair_norm_boxes(f, norm(f, q), [q]))[1] == 1


def ring_totient(f: FieldSpec, q: RingElement) -> int:
    """Number of residues mod (q) coprime to q: the true cells of coprime_box."""
    return int(np.count_nonzero(coprime_box(f, q)))


def ring_totient_product(f: FieldSpec, q: RingElement) -> int:
    """The same count via N(q) * prod_{P | (q)} (1 - 1/N(P)), over the prime
    lattices of factor_ideal; exact integers."""
    if q.is_zero():
        raise InvalidDenominatorError("denominator must be nonzero")
    total = norm(f, q)
    for prime, _ in factor_ideal(f, principal_ideal(f, q)):
        total = total // prime.norm * (prime.norm - 1)
    return total


# ----------------------------------------------------------------------
# Prime ideals and factorization
# ----------------------------------------------------------------------

def _minpoly_roots_mod_p(f: FieldSpec, p: int) -> list[int]:
    """Distinct roots of the minimal polynomial x^2 - t*x + n of omega modulo p,
    sorted: a scan of {0, 1} for p = 2, else (t +- s)/2 with s^2 = -D, the
    discriminant."""
    if p == 2:
        return [r for r in (0, 1) if (r * r - f.t * r + f.n) % 2 == 0]
    s = sqrt_mod_prime(-f.D % p, p)
    if s is None:
        return []
    inv2 = (p + 1) // 2
    return sorted({(f.t + s) * inv2 % p, (f.t - s) * inv2 % p})


def prime_ideals_above(f: FieldSpec, p: int) -> tuple[LatticeIdeal, ...]:
    """The prime ideals of O above the rational prime p, as lattices.

    (p) itself when p is inert, [[p, 0], [0, p]], and over Q, [[p, 0], [0, 1]];
    otherwise (p, omega - r) for each root r of the minimal polynomial of omega
    mod p, smaller root first: two roots when p splits, one when it ramifies.
    (p, omega - r) is [[p, -r mod p], [0, 1]]: it holds omega - r, and its
    index p is N(P).  The root count is this oracle's own splitting rule.
    """
    roots = [] if f.is_rational else _minpoly_roots_mod_p(f, p)
    if not roots:
        return (LatticeIdeal(f, p, 0, 1 if f.is_rational else p),)
    primes = tuple(LatticeIdeal(f, p, -r % p, 1) for r in roots)
    assert all(P.norm == p for P in primes) and len(set(primes)) == len(primes)
    return primes


def _quotient_by_prime(f: FieldSpec, ideal: LatticeIdeal, prime: LatticeIdeal) -> LatticeIdeal:
    """ideal / P, assuming P | ideal: multiply by conj(P), divide by N(P).

    Over Q the lattice has rank 1 and P * conj(P) = (p^2), so the quotient
    divides the generator by p instead.
    """
    if f.is_rational:
        assert ideal.alpha % prime.alpha == 0
        return LatticeIdeal(f, ideal.alpha // prime.alpha, 0, 1)
    n = prime.norm
    product = ideal_mul(f, ideal, ideal_conj(f, prime))
    assert product.alpha % n == 0 and product.beta % n == 0 and product.gamma % n == 0
    return LatticeIdeal(f, product.alpha // n, product.beta // n, product.gamma // n)


def factor_ideal(f: FieldSpec, ideal: LatticeIdeal) -> list[tuple[LatticeIdeal, int]]:
    """Prime-ideal factorization as (P, e) pairs, the primes of
    prime_ideals_above; multiplicities by repeated exact divisibility."""
    if ideal.norm < 1:
        raise ZeroIdealError("cannot factor the zero ideal")
    out: list[tuple[LatticeIdeal, int]] = []
    remaining = ideal
    for p, e_norm in factorize(ideal.norm):
        norm_above = 1
        for prime in prime_ideals_above(f, p):
            e = 0
            while ideal_contains_ideal(prime, remaining):
                remaining = _quotient_by_prime(f, remaining, prime)
                e += 1
            if e:
                out.append((prime, e))
            norm_above *= prime.norm**e
        assert norm_above == p**e_norm, f"valuations above {p} do not add up for {ideal}"
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


def _times_prime(alpha, beta, gamma, p, b):
    """HNF (alpha, beta, gamma) of I * P for the degree-1 prime P = [[p, b], [0, 1]]
    and p not dividing N(I), elementwise.

    I * P = I cap P, of index alpha * gamma * p: its omega coordinates keep the
    step gamma (p does not divide gamma), and its first column beta + alpha * t
    is beta mod alpha (in I) and b * gamma mod p (in P) by the CRT, with
    t = (b * gamma - beta) / alpha mod p; so [[alpha * p, beta + alpha * t], [0, gamma]].
    """
    t = (b * (gamma % p) - beta) % p * _power_mod(alpha, p - 2, p) % p  # 1/alpha: Fermat
    return alpha * p, beta + alpha * t, gamma


def squarefree_ideals(
    f: FieldSpec, bound: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(mu, alpha, beta, gamma), int64 arrays: mu(I) and the HNF of every
    squarefree ideal I with N(I) <= bound, each once, O included; empty for
    bound < 1.

    The ideals are the products of distinct primes, built by the CRT on
    arrays.  chi(p) comes from one field._splitting_kinds call for all p <=
    bound, and the roots r of omega's polynomial mod p (over Q the one root 0)
    only where p splits or ramifies.  The primes p <= sqrt(bound) are taken in
    order, each multiplying every ideal built so far (all prime to p) whose
    product stays within bound: by each P = [[p, -r mod p], [0, 1]], mu flips
    (_times_prime), and, where chi(p) != 0, by (p), p * I, with sign chi(p).
    An ideal of norm <= bound has at most one prime above a larger p, of
    degree 1, so the primes past sqrt(bound) multiply the ideals of norm
    <= bound // p in one vectorized step, in blocks of pairs.

    Every HNF entry is at most bound, and the inverses mod p multiply values
    below p <= bound, so int64 is exact for bound below 3.03 * 10^9.
    """
    if bound < 1:
        return (np.zeros(0, dtype=np.int64),) * 4
    mu = alpha = gamma = np.ones(1, dtype=np.int64)  # O itself, [[1, 0], [0, 1]]
    beta = np.zeros(1, dtype=np.int64)
    large_p, large_b = [], []
    ps = primes_up_to(bound)
    for p, kind in zip(ps, _splitting_kinds(f, np.array(ps, dtype=np.int64)).tolist()):
        roots = [] if kind < 0 else [0] if f.is_rational else _minpoly_roots_mod_p(f, p)
        assert len(roots) == kind + 1, f"Euler's criterion and the roots disagree at {p}"
        degree_1 = [-r % p for r in roots]  # P = [[p, -r mod p], [0, 1]]
        if p * p > bound:
            large_p += [p] * len(degree_1)
            large_b += degree_1
            continue
        norms = alpha * gamma
        parts = [(mu, alpha, beta, gamma)]
        for b in degree_1:
            fit = norms <= bound // p
            parts.append((-mu[fit], *_times_prime(alpha[fit], beta[fit], gamma[fit], p, b)))
        if kind:  # (p) is P * conj(P), mu kept, or inert, mu flips
            fit = norms <= bound // (p * p)
            parts.append((kind * mu[fit], p * alpha[fit], p * beta[fit], p * gamma[fit]))
        mu, alpha, beta, gamma = (np.concatenate(c) for c in zip(*parts))
    order = np.argsort(alpha * gamma, kind="stable")
    mu, alpha, beta, gamma = mu[order], alpha[order], beta[order], gamma[order]
    parts = [(mu, alpha, beta, gamma)]
    large_p = np.array(large_p, dtype=np.int64)
    large_b = np.array(large_b, dtype=np.int64)
    # partners of the k-th large prime: the ideals of norm <= bound // p, a prefix
    partners = np.searchsorted(alpha * gamma, bound // large_p, side="right")
    for lo, hi in _runs(partners, _HISTOGRAM_BLOCK):
        which = np.repeat(np.arange(lo, hi), partners[lo:hi])
        first = np.cumsum(partners[lo:hi]) - partners[lo:hi]
        i = np.arange(which.size) - np.repeat(first, partners[lo:hi])
        p = large_p[which]
        parts.append((-mu[i], *_times_prime(alpha[i], beta[i], gamma[i], p, large_b[which])))
    return tuple(np.concatenate(c) for c in zip(*parts))


def ideal_divisors(f: FieldSpec, ideal: LatticeIdeal) -> list[LatticeIdeal]:
    """All ideals dividing the given one: the products P1^i1 * ... * Pk^ik with
    0 <= ij <= ej over the (Pj, ej) of factor_ideal."""
    divs = [unit_ideal(f)]
    for prime, e in factor_ideal(f, ideal):
        levels = [divs]  # the divisors found so far, times P^0, ..., P^e
        for _ in range(e):
            levels.append([ideal_mul(f, d, prime) for d in levels[-1]])
        divs = [d for level in levels for d in level]
    return divs


# ----------------------------------------------------------------------
# Lattice-point enumeration inside the norm ellipse
# ----------------------------------------------------------------------

# lattice points (128 KB of int64) per block of _point_blocks, rows plus cells
# per run of ideals in _relative_norm_histograms, and products per run of
# squarefree_ideals' large primes.  A block's temporaries, a few arrays of
# this size, are live at once beside any full-size array being filled, so
# they add to its peak.  _unit_norm_band takes its band width from its caller.
_HISTOGRAM_BLOCK = 1 << 14


def _isqrt(n: np.ndarray) -> np.ndarray:
    """floor(sqrt(n)) for a nonnegative int64 array: the float root, moved by one
    where it is off; below 2^62 the float root is off by less than one."""
    s = np.sqrt(n.astype(np.float64)).astype(np.int64)
    s -= s * s > n
    s += (s + 1) * (s + 1) <= n
    return s


def _k_max(f: FieldSpec, gamma: np.ndarray, bound: int) -> np.ndarray:
    """k_max per lattice: its rows v = k*gamma inside the norm ellipse, where
    D*v^2 <= 4*bound, have |k| <= k_max; 0 over Q, whose lattices have the one
    row v = 0."""
    if f.is_rational:
        return np.zeros_like(gamma)
    return isqrt(4 * bound // f.D) // gamma


def _hnf_arrays(lattices: Iterable[LatticeIdeal]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(alpha, beta, gamma) of one or more lattices as three int64 arrays."""
    hnfs = zip(*((L.alpha, L.beta, L.gamma) for L in lattices))
    return tuple(np.array(c, dtype=np.int64) for c in hnfs)


def _rows_norm_le(
    f: FieldSpec, alpha: np.ndarray, beta: np.ndarray, gamma: np.ndarray, bound: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rows (owner, v, u0, count), int64 arrays, covering every point of norm
    <= bound of the lattices [[alpha[i], beta[i]], [0, gamma[i]]] (one lattice
    or many, as from _hnf_arrays).

    A row holds the elements u + v*omega of lattice i = owner with
    u = u0 + j*alpha[i], 0 <= j < count; rows run by owner, then by v, and
    empty rows are dropped.  The zero element is included when it qualifies.

    A row solves 4*N(u + v*omega) = (2u + t*v)^2 + D*v^2 <= 4*bound for u.
    Exact for bound below 2^60: D*v^2 <= 4*bound, the array isqrt squares
    values below 2^31, and each term u^2, t*u*v and n*v^2 of a norm on a row
    is at most a few times bound.
    """
    if bound < 0:
        return (np.zeros(0, dtype=np.int64),) * 4
    k_max = _k_max(f, gamma, bound)
    n_rows = 2 * k_max + 1
    owner = np.repeat(np.arange(len(alpha)), n_rows)
    k = np.arange(owner.size) - np.repeat(np.cumsum(n_rows) - n_rows + k_max, n_rows)
    step = alpha[owner]
    v = k * gamma[owner]
    if f.is_rational:
        lo, hi = -bound, bound
    else:
        s = _isqrt(4 * bound - f.D * v * v)  # |2u + t*v| <= s
        lo, hi = -((s + f.t * v) // 2), (s - f.t * v) // 2
    u0 = lo + (k * beta[owner] - lo) % step  # the row's first u = k*beta mod alpha
    live = u0 <= hi
    return owner[live], v[live], u0[live], ((hi - u0) // step + 1)[live]


def _runs(sizes: np.ndarray, cap: int) -> Iterator[tuple[int, int]]:
    """Consecutive index ranges [lo, hi) whose sizes sum to at most cap, or
    that hold one item larger than cap."""
    ends = np.cumsum(sizes)
    lo = 0
    while lo < len(sizes):
        filled = int(ends[lo - 1]) if lo else 0
        hi = max(int(np.searchsorted(ends, filled + cap, side="right")), lo + 1)
        yield lo, hi
        lo = hi


def _point_blocks(
    alpha: np.ndarray, rows: tuple[np.ndarray, ...]
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The points of rows (owner, v, u0, count) in row order, in blocks of at
    most _HISTOGRAM_BLOCK: (owner, count, u, v) per block, the first two for
    the block's rows.  A row longer than a block is cut into pieces first."""
    owner, v, u0, count = rows
    block = _HISTOGRAM_BLOCK
    pieces = -(-count // block)
    if (pieces > 1).any():
        row = np.repeat(np.arange(len(count)), pieces)
        j = block * (np.arange(row.size) - np.repeat(np.cumsum(pieces) - pieces, pieces))
        owner, v = owner[row], v[row]
        u0 = u0[row] + j * alpha[owner]
        count = np.minimum(count[row] - j, block)
    for lo, hi in _runs(count, block):
        n = count[lo:hi]
        first = np.cumsum(n) - n
        step = alpha[owner[lo:hi]]
        pos = np.arange(first[-1] + n[-1], dtype=np.int64)
        u = np.repeat(u0[lo:hi] - step * first, n) + np.repeat(step, n) * pos
        yield owner[lo:hi], n, u, np.repeat(v[lo:hi], n)


def _lattice_points(
    f: FieldSpec, lattice: LatticeIdeal, bound: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(u, v) int64 blocks of the elements u + v*omega of norm <= bound, zero
    included, in (y, x)-lex order."""
    alpha, beta, gamma = _hnf_arrays([lattice])
    for _, _, u, v in _point_blocks(alpha, _rows_norm_le(f, alpha, beta, gamma, bound)):
        yield u, v


def enumerate_norm_le(
    f: FieldSpec, lattice: LatticeIdeal, x: float
) -> Iterator[RingElement]:
    """Every nonzero lattice element of norm <= x, exactly once, in (y, x)-lex order."""
    for u, v in _lattice_points(f, lattice, _norm_bound(x)):
        nonzero = (u != 0) | (v != 0)
        yield from map(RingElement, u[nonzero].tolist(), v[nonzero].tolist())


def count_and_sum_norms(
    f: FieldSpec, lattice: LatticeIdeal, bound: int
) -> tuple[int, int]:
    """(#nonzero elements with norm <= bound, sum of their norms) from the
    ideal's bound // N(I) + 1 cells in the Moebius kernel's pass: the sum of
    hits, and N(I) times the int64 sum of k * hits.  That sum is about
    pi * bound^2 / (sqrt(D) * N(I)^2) (bound^2 / N(I)^2 over Q), exact for bound
    below 2.2 * 10^9; the cells' memory binds first.  enumerate_norm_le checks it.
    """
    _, k, hits = next(_relative_norm_histograms(f, *_hnf_arrays([lattice]), bound))
    return int(hits.sum()), lattice.norm * int((k * hits).sum())


def norm_histogram(f: FieldSpec, lattice: LatticeIdeal, bound: int) -> np.ndarray:
    """counts[n] = number of nonzero lattice elements of norm exactly n <= bound.

    Each block adds its norms in place (np.add.at): a bincount per block would
    make and add a second array of bound + 1 cells for every block.  On O it
    is the oracle of _unit_norm_band, which shares only the norm form with it.
    """
    counts = np.zeros(bound + 1, dtype=np.int64)
    for u, v in _lattice_points(f, lattice, bound):
        np.add.at(counts, norm(f, RingElement(u, v)), 1)
    if bound >= 0:
        counts[0] = 0
    return counts


def _unit_norm_band(f: FieldSpec, lo: int, hi: int) -> np.ndarray:
    """counts[k] = number of nonzero c in O with N(c) = lo + k, for the band
    1 <= lo <= N(c) < hi, as int64: the cells [lo, hi) of norm_histogram on
    O, with no array of hi cells.

    Over Q every norm n counts 2, for +-n.  Otherwise c = u + v*omega has
    4*N(c) = x^2 + D*v^2 with x = 2u + t*v, so the points of O are the (x, v)
    with x = t*v mod 2, a set that x -> -x and v -> -v keep.  Only x >= 0,
    v >= 0 is walked: a point with x, v > 0 stands for its 4 images, one on
    either axis for 2.  On row v the band is inner < x <= outer, with outer =
    isqrt(4*(hi - 1) - D*v^2) and inner = isqrt(4*(lo - 1) - D*v^2), or -1
    where that is negative (x = 0 then qualifies; on the row v = 0, inner >= 0
    since lo >= 1, which leaves out the origin), and the rows run to D*v^2 <=
    4*(hi - 1).  One bincount of the walked points counts the band.  Exact
    in int64 for hi below 2^60 (see _rows_norm_le).
    """
    if f.is_rational:
        return np.full(hi - lo, 2, dtype=np.int64)
    v = np.arange(isqrt(4 * (hi - 1) // f.D) + 1, dtype=np.int64)
    dv2 = f.D * v * v
    outer = _isqrt(4 * (hi - 1) - dv2)
    inner = 4 * (lo - 1) - dv2
    inner = np.where(inner < 0, -1, _isqrt(np.maximum(inner, 0)))
    first = inner + 1
    first += (first - f.t * v) % 2  # x of the row's parity
    count = np.maximum((outer - first) // 2 + 1, 0)
    start = np.cumsum(count) - count
    # a point's cell N(c) - lo = (x^2 + D*v^2 - 4*lo) / 4, built in place
    cell = np.arange(int(start[-1] + count[-1]), dtype=np.int64)
    cell *= 2
    cell += np.repeat(first - 2 * start, count)  # x
    cell *= cell
    cell += np.repeat(dv2 - 4 * lo, count)
    cell >>= 2
    counts = np.bincount(cell, minlength=hi - lo)
    counts *= 4
    # on an axis a point stands for 2 images: the row v = 0, and x = 0 on the others
    np.subtract.at(counts, cell[: count[0]], 2)
    np.subtract.at(counts, cell[start[first == 0]], 2)
    return counts


def _relative_norm_histograms(
    f: FieldSpec, alpha: np.ndarray, beta: np.ndarray, gamma: np.ndarray, bound: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Relative norm histograms of the ideals [[alpha[i], beta[i]], [0, gamma[i]]]
    in one blocked pass, as (owner, k, hits) cell arrays: hits counts the
    nonzero elements of ideal owner of norm k * N(owner), in bound // N + 1
    cells per ideal (N(I) divides the norm of every element of I; asserted).

    The ideals go in runs whose rows and cells stay near _HISTOGRAM_BLOCK, and
    each run yields its cells once its points are counted, one bincount per
    point block into the run's ragged histogram.
    """
    norms = alpha * gamma
    size = np.maximum(bound // norms + 1, 0)
    cost = size + 2 * _k_max(f, gamma, max(bound, 0)) + 1
    for lo, hi in _runs(cost, _HISTOGRAM_BLOCK):
        start = np.cumsum(size[lo:hi]) - size[lo:hi]
        hits = np.zeros(int(size[lo:hi].sum()), dtype=np.int64)
        rows = _rows_norm_le(f, alpha[lo:hi], beta[lo:hi], gamma[lo:hi], bound)
        for owner, n, u, v in _point_blocks(alpha[lo:hi], rows):
            owner = np.repeat(owner, n)
            quot, rem = np.divmod(norm(f, RingElement(u, v)), norms[lo:hi][owner])
            assert not rem.any(), "a norm in an ideal is not a multiple of N(I)"
            hits += np.bincount(start[owner] + quot, minlength=hits.size)
        owner = np.repeat(np.arange(lo, hi), size[lo:hi])
        k = np.arange(hits.size) - start[owner - lo]
        hits[k == 0] = 0  # the zero element
        yield owner, k, hits


# ----------------------------------------------------------------------
# Moebius sums over ideals
# ----------------------------------------------------------------------

def _mobius_prime_power(kind: np.ndarray, p: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Sum of mu(I) over the ideals I of norm p^e, elementwise, by how p
    splits (kind as field._splitting_kinds gives it)."""
    split, ramified, inert = kind == 1, kind == 0, kind == -1
    return np.select(
        [split & (e == 1), split & (e == 2), ramified & (e == 1), inert & (e == 2)],
        [-2, 1, -1, -1],
        0,
    )


def mobius_norm_coefficients(f: FieldSpec, bound: int) -> list[int]:
    """m[n] = sum of mu(I) over ideals of norm n, multiplicatively sieved.

    Per split prime: m_p = -2, m_{p^2} = +1; ramified: m_p = -1; inert:
    m_{p^2} = -1; all other prime powers contribute 0.  Over Q this is the
    ordinary Moebius function.
    """
    return _multiplicative_fill(f, bound, _mobius_prime_power).tolist()


def mobius_reciprocal_partial(f: FieldSpec, bound: int) -> float:
    """Partial sum of mu(I)/N(I)^2 over N(I) <= bound, converging to 1/zeta_K(2)."""
    m = _multiplicative_fill(f, bound, _mobius_prime_power).astype(np.float64)
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
    "reduce_mod",
    "ring_totient",
    "ring_totient_product",
    "prime_ideals_above",
    "factor_ideal",
    "mobius_ideal",
    "squarefree_ideals",
    "ideal_divisors",
    "enumerate_norm_le",
    "count_and_sum_norms",
    "norm_histogram",
    "mobius_norm_coefficients",
    "mobius_reciprocal_partial",
]
