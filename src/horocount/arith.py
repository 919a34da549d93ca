"""Elementary integer arithmetic helpers shared across the package.

Everything here is exact integer math: sieves, modular square roots,
factorization of machine-sized integers, and multiplicative_fill, the one
sieve behind every multiplicative table of the package.  No field logic.
"""

from __future__ import annotations

from math import gcd, isqrt

import numpy as np


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def smallest_prime_factors(n: int) -> np.ndarray:
    """spf[k] = smallest prime factor of k for 0 <= k <= n (spf[0]=spf[1]=0)."""
    spf = np.zeros(n + 1, dtype=np.int64)
    for p in range(2, isqrt(n) + 1):
        if spf[p] == 0:
            multiples = spf[p * p :: p]  # a view: p marks what no smaller prime did
            multiples[multiples == 0] = p
    spf[2:] = np.where(spf[2:] == 0, np.arange(2, n + 1), spf[2:])  # the primes
    return spf


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization [(p, e), ...] of n >= 1 by trial division."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: list[tuple[int, int]] = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    f, step = 5, 2
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            out.append((f, e))
        f += step
        step = 6 - step
    if n > 1:
        out.append((n, 1))
    return out


def is_squarefree(n: int) -> bool:
    return n >= 1 and all(e == 1 for _, e in factorize(n))


def multiplicative_fill(n: int, prime_power) -> np.ndarray:
    """a[0..n] (int64) of the multiplicative function with a[0] = 0, a[1] = 1
    and a[p^e] = prime_power(p, e), called once per prime power p^e <= n.

    Each k >= 2 splits as p^e * rest with p its smallest prime factor, and
    a[k] = a[rest] * a[p^e].  rest has one distinct prime fewer than k, so
    pass j fills every k with j distinct primes and the passes number at most
    the largest such count below n (7 below 9 699 690).
    """
    a = np.zeros(max(n + 1, 0), dtype=np.int64)
    if n < 1:
        return a
    a[1] = 1
    p = smallest_prime_factors(n)[2:]  # p[i] and rest[i] belong to k = i + 2
    rest = np.arange(2, n + 1, dtype=np.int64) // p
    e = np.ones(n - 1, dtype=np.int8)
    more = np.flatnonzero(rest % p == 0)
    while more.size:
        rest[more] //= p[more]
        e[more] += 1
        more = more[rest[more] % p[more] == 0]
    powers = np.flatnonzero(rest == 1)
    a[powers + 2] = [prime_power(int(q), int(x)) for q, x in zip(p[powers], e[powers])]
    done = np.concatenate(([False, True], rest == 1))
    pending = np.flatnonzero(rest > 1)
    while pending.size:
        ready = done[rest[pending]]
        now, pending = pending[ready], pending[~ready]
        a[now + 2] = a[rest[now]] * a[(now + 2) // rest[now]]
        done[now + 2] = True
    return a


def totient_sieve(n: int) -> list[int]:
    """phi[0..n] with phi[k] the Euler totient."""
    return multiplicative_fill(n, lambda p, e: p ** (e - 1) * (p - 1)).tolist()


def mobius_sieve(n: int) -> list[int]:
    """mu[0..n] for the ordinary Moebius function (mu[0] = 0)."""
    return multiplicative_fill(n, lambda p, e: -1 if e == 1 else 0).tolist()


def primes_up_to(n: int) -> list[int]:
    """The primes p <= n, ascending: the k >= 2 with smallest_prime_factors k."""
    if n < 2:
        return []
    ks = np.arange(2, n + 1)
    return ks[smallest_prime_factors(n)[2:] == ks].tolist()


def sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of a modulo an odd prime p, or None if a is a non-residue.

    Tonelli-Shanks; the p % 4 == 3 shortcut covers half the cases.
    """
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p - 1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return r


__all__ = [
    "xgcd",
    "is_squarefree",
    "smallest_prime_factors",
    "factorize",
    "multiplicative_fill",
    "totient_sieve",
    "mobius_sieve",
    "primes_up_to",
    "sqrt_mod_prime",
]
