"""Elementary integer arithmetic helpers shared across the package.

Exact integer math: sieves, modular roots and powers, factorization of
machine-sized integers, and multiplicative_fill, the one segmented sieve behind
every multiplicative table of the package; _norm_bound, the one path from a
float cutoff to its integer norm bound; and _slope, the one least-squares
slope.  No field logic.
"""

from __future__ import annotations

from math import fsum, gcd, isqrt

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


def _norm_bound(x: float, ulps: float = 2) -> int:
    """The integer norm bound of the cutoff x: floor(x), except that an x
    within ulps float spacings (relative) of an integer is that integer.

    Two ulps is the error of a value read or squared in one rounding; a wider
    band snaps values truly below an integer up to it (at 1e-9 relative,
    99 999 999.95 became 10^8).  A negative x, which no command passes,
    truncates toward 0.  An infinite x raises OverflowError, a NaN ValueError.
    """
    nearest = round(x)
    if abs(x - nearest) <= ulps * 2.0**-52 * max(1.0, abs(nearest)):
        return int(nearest)
    return int(x)


def _slope(xs: list[float], ys: list[float]) -> float:
    """The least-squares slope of ys against xs, in closed form: the sum of
    (x - mx) * (y - my) over the sum of (x - mx)^2, mx and my the means, every
    sum a math.fsum.  Centring on rounded means moves neither sum to first
    order, so the slope is within a few ulps of the exact one; at least two
    distinct xs are needed, else ValueError."""
    if len(set(xs)) < 2:
        raise ValueError("a slope needs points at two or more distinct x")
    mx, my = fsum(xs) / len(xs), fsum(ys) / len(ys)
    dx = [x - mx for x in xs]
    return fsum(d * (y - my) for d, y in zip(dx, ys)) / fsum(d * d for d in dx)


def _power_mod(base: np.ndarray, exponent, p) -> np.ndarray:
    """base^exponent mod p elementwise by square-and-multiply, base an int64
    array and exponent, p nonnegative ints or arrays like it; each product is
    of two residues below p, so it is exact for p below 3.03 * 10^9."""
    exponent = np.asarray(exponent)
    base = base % p
    out = np.ones_like(base)
    while exponent.any():
        out = np.where(exponent & 1, out * base % p, out)
        base = base * base % p
        exponent = exponent >> 1
    return out


def smallest_prime_factors(n: int) -> np.ndarray:
    """spf[k] = smallest prime factor of k for 0 <= k <= n (spf[0]=spf[1]=0).

    primes_up_to reads the primes off it; multiplicative_fill asks it only
    for the primes up to isqrt(n).
    """
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
    """Whether n >= 1 has no square factor but 1, by trial division while
    f^3 <= m, m what is left of n: then every prime factor of m exceeds the
    cube root of m, so m is 1, a prime, two distinct primes or a prime squared."""
    if n < 1:
        return False
    m, f = n, 2
    while f * f * f <= m:
        if m % f == 0:
            m //= f
            if m % f == 0:
                return False
        f += 1 if f == 2 else 2
    return m == 1 or isqrt(m) ** 2 != m


# The most numbers filled at once, in int64 arrays of 512 kB.  Below it a
# block holds 32 * isqrt(n) numbers: a block costs a few numpy calls per
# prime up to isqrt(n), so its size grows with their count.
_FILL_BLOCK = 1 << 16


def multiplicative_fill(n: int, prime_power) -> np.ndarray:
    """a[0..n] (int64) of the multiplicative function with a[0] = 0, a[1] = 1
    and a[p^e] = prime_power(p, e).

    prime_power takes int64 arrays p and e of one length, possibly empty, and
    returns the int64 array of the values.  Over all its calls it is handed every
    prime power p^e <= n exactly once: the powers of the primes p <= isqrt(n)
    in one call, then, block by block, the primes above isqrt(n), whose
    squares pass n.

    A segmented sieve (Bays & Hudson, BIT 17 (1977)) over blocks of at most
    _FILL_BLOCK = 2^16 numbers, so the working memory besides a is a few
    block-sized arrays.  In a block every prime p <= isqrt(n) is stripped
    from its multiples by strided slices, and one factor array per prime
    takes a[p^e] at the multiples of p^e, level by level.  What is left of m
    is 1 or one prime r > isqrt(n), and a[m] takes the factor a[r]: a prime's
    value is written when its own block is reached, and r <= m/2 otherwise,
    so a[r] is already there.

    Int64: the fill forms no number above n, so it is exact for every n an
    array can index, and a[k] is the product of its prime-power values, exact
    while those products fit (each caller states its ceiling).  A prime_power
    that squares residues b < p, as the field's vectorised Euler criterion
    does, is exact for n below 3.03 * 10^9.
    """
    a = np.zeros(max(n + 1, 0), dtype=np.int64)
    if n < 1:
        return a
    a[1] = 1
    block = min(32 * isqrt(n), _FILL_BLOCK)
    ladders = []  # [p, p^2, ...] up to n, for each prime p <= isqrt(n)
    for p in primes_up_to(isqrt(n)):
        ladders.append([p])
        while ladders[-1][-1] * p <= n:
            ladders[-1].append(ladders[-1][-1] * p)
    values = iter(prime_power(
        np.array([ladder[0] for ladder in ladders for _ in ladder], dtype=np.int64),
        np.array([e for ladder in ladders for e in range(1, len(ladder) + 1)], dtype=np.int64),
    ).tolist())
    values = [[next(values) for _ in ladder] for ladder in ladders]  # a[p^e], ladder by ladder
    for lo in range(2, n + 1, block):
        size = min(block, n + 1 - lo)
        m = np.arange(lo, lo + size, dtype=np.int64)
        rest = m.copy()
        val = np.ones(size, dtype=np.int64)
        for (p, *higher), (factor, *levels) in zip(ladders, values):
            first = -lo % p
            if first >= size:
                continue
            rest[first::p] //= p
            for q, level in zip(higher, levels):  # factor: a[p], then an array
                start = -lo % q
                if start >= size:
                    break
                if q == p * p:
                    factor = np.full(len(range(first, size, p)), factor, dtype=np.int64)
                factor[(start - first) // p :: q // p] = level
                rest[start::q] //= p
            val[first::p] *= factor
        primes = np.flatnonzero(rest == m)  # the primes above isqrt(n)
        a[lo + primes] = prime_power(m[primes], np.ones(primes.size, dtype=np.int64))
        np.multiply(val, a[rest], out=a[lo : lo + size])
    return a


def totient_sieve(n: int) -> list[int]:
    """phi[0..n] with phi[k] the Euler totient."""
    return multiplicative_fill(n, lambda p, e: p ** (e - 1) * (p - 1)).tolist()


def mobius_sieve(n: int) -> list[int]:
    """mu[0..n] for the ordinary Moebius function (mu[0] = 0)."""
    return multiplicative_fill(n, lambda p, e: np.where(e == 1, -1, 0)).tolist()


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
