"""The one multiplicative fill, checked against trial-division factorization."""

import math
import random

from hypothesis import example, given, settings, strategies as st

from horocount.arith import factorize, multiplicative_fill


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
        calls.append((p, e))
        return table.setdefault((p, e), rng.randint(-9, 9))

    a = multiplicative_fill(n, prime_power)
    assert len(a) == n + 1 and a[0] == 0
    assert n < 1 or a[1] == 1
    factorizations = {k: factorize(k) for k in range(2, n + 1)}
    powers = sorted(fs[0] for fs in factorizations.values() if len(fs) == 1)
    assert sorted(calls) == powers  # once per prime power p^e <= n
    for k, fs in factorizations.items():
        assert a[k] == math.prod(table[pe] for pe in fs), k
