"""The one multiplicative fill, checked against trial-division factorization,
and _mod against %."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from horocount import arith
from horocount.arith import factorize, multiplicative_fill
from horocount.counting import _totient_prime_power
from horocount.field import _multiplicative_fill, _prime_power_ideal_count, make_field
from horocount.ideals import _mobius_prime_power


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 3000), seed=st.integers(0, 2**32 - 1))
@example(n=0, seed=0)
@example(n=1, seed=0)
@example(n=2, seed=0)
def test_multiplicative_fill_matches_factorize(n, seed):
    rng = random.Random(seed)
    table: dict[tuple[int, int], int] = {}
    calls: list[tuple[int, int]] = []

    def prime_power(p, e):
        assert p.dtype == e.dtype == np.int64 and p.shape == e.shape
        pairs = list(zip(p.tolist(), e.tolist()))
        calls.extend(pairs)
        return np.array([table.setdefault(pe, rng.randint(-9, 9)) for pe in pairs], dtype=np.int64)

    a = multiplicative_fill(n, prime_power)
    assert len(a) == n + 1 and a[0] == 0
    assert n < 1 or a[1] == 1
    factorizations = {k: factorize(k) for k in range(2, n + 1)}
    powers = sorted(fs[0] for fs in factorizations.values() if len(fs) == 1)
    assert sorted(calls) == powers  # once per prime power p^e <= n, over all calls
    for k, fs in factorizations.items():
        assert a[k] == math.prod(table[pe] for pe in fs), k


@pytest.mark.parametrize("table", [_prime_power_ideal_count, _totient_prime_power, _mobius_prime_power])
@pytest.mark.parametrize("d", ["rational", 1, 2, 3, 5, 23, 47])
def test_fill_is_the_same_for_every_block_size(d, table, monkeypatch):
    """Blocks of 1, 7 and 64 numbers put a prime power, a prime above sqrt(n)
    and its multiples on every side of a block boundary."""
    f = make_field(d)
    want = _multiplicative_fill(f, 3000, table)
    for block in (1, 7, 64):
        monkeypatch.setattr(arith, "_FILL_BLOCK", block)
        assert np.array_equal(_multiplicative_fill(f, 3000, table), want), block


@settings(max_examples=200, deadline=None)
@given(base=st.integers(1, 10**6), square=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
@example(base=1, square=1, seed=0)
@example(base=999983 * 1000003, square=1, seed=0)  # two primes above the cube root
@example(base=1, square=999983, seed=1)  # a prime squared above the cube root
def test_is_squarefree_matches_factorize(base, square, seed):
    # the cube-root trial division against the full factorization; half the
    # cases carry a square factor by construction (seed 1 does, seed 0 not)
    n = base * (square * square if random.Random(seed).random() < 0.5 else square)
    assert arith.is_squarefree(n) == all(e == 1 for _, e in factorize(n))


@settings(max_examples=200, deadline=None)
@given(
    x=hnp.arrays(np.int64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=40),
                 elements=st.integers(-2**62, 2**62)),
    n=st.integers(1, 2**31),
)
@example(x=np.array([-2**62, -1, 0, 1, 2**62], dtype=np.int64), n=1)
@example(x=np.array([-2**62, -2**31, -1, 2**31 - 1, 2**62], dtype=np.int64), n=2**31)
@example(x=np.array([[-7, 7], [-3, 3]], dtype=np.int64), n=3)
def test_mod_is_percent(x, n):
    got, want = arith._mod(x, n), x % n
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)
