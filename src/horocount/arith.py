"""Elementary integer arithmetic helpers shared across the package.

Everything here is exact integer math: sieves, modular square roots,
factorization of machine-sized integers.  No field-specific logic.
"""

from __future__ import annotations

from math import gcd, isqrt


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


def is_squarefree(n: int) -> bool:
    if n < 1:
        return False
    if n % 4 == 0:
        return False
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        if n % p == 0:
            n //= p
        p += 1 if p == 2 else 2
    return True


def smallest_prime_factors(n: int) -> list[int]:
    """spf[k] = smallest prime factor of k for 0 <= k <= n (spf[0]=spf[1]=0)."""
    spf = list(range(n + 1))
    if n >= 1:
        spf[1] = 0
    for p in range(2, isqrt(n) + 1):
        if spf[p] == p:
            for m in range(p * p, n + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def factorize(n: int, spf: list[int] | None = None) -> list[tuple[int, int]]:
    """Prime factorization [(p, e), ...] of n >= 1 by trial division (or spf table)."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: list[tuple[int, int]] = []
    if spf is not None and n < len(spf):
        while n > 1:
            p = spf[n]
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        return out
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


def totient_sieve(n: int) -> list[int]:
    """phi[0..n] with phi[k] the Euler totient, via the standard prime sweep."""
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:  # p prime
            for m in range(p, n + 1, p):
                phi[m] -= phi[m] // p
    return phi


def mobius_sieve(n: int) -> list[int]:
    """mu[0..n] for the ordinary Moebius function (mu[0] = 0)."""
    mu = [1] * (n + 1)
    if n >= 0:
        mu[0] = 0
    primes: list[int] = []
    is_comp = bytearray(n + 1)
    for k in range(2, n + 1):
        if not is_comp[k]:
            primes.append(k)
            mu[k] = -1
        for p in primes:
            if k * p > n:
                break
            is_comp[k * p] = 1
            if k % p == 0:
                mu[k * p] = 0
                break
            mu[k * p] = -mu[k]
    return mu


def primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            start = p * p
            sieve[start : n + 1 : p] = bytearray(len(range(start, n + 1, p)))
    return [i for i in range(2, n + 1) if sieve[i]]


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
    "gcd",
    "isqrt",
    "is_squarefree",
    "smallest_prime_factors",
    "factorize",
    "totient_sieve",
    "mobius_sieve",
    "primes_up_to",
    "sqrt_mod_prime",
]
