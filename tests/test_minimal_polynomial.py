"""Property tests of the formulas written once from omega^2 = t*omega - n.

Every oracle here is built from d alone -- omega from d mod 4, the minimal
polynomial of omega from d -- and never reads the field's t or n, so a wrong
trace or norm of omega cannot hide in both sides of a comparison.
"""

import cmath
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from horocount.arith import primes_up_to
from horocount.field import RingElement, _splitting_kinds, conj, make_field, mul, norm, omega_times
from horocount.geodesics import _center_of
from horocount.ideals import (
    _hnf2,
    _minpoly_roots_mod_p,
    enumerate_norm_le,
    pair_ideal_norm,
    unit_ideal,
)

DS = (1, 2, 3, 5, 6, 7, 11, 15, 19, 23, 59, 163)
coordinate = st.integers(-60, 60)


def omega(d: int) -> complex:
    root = cmath.sqrt(complex(-d))
    return (1 + root) / 2 if d % 4 == 3 else root


def embed(d: int, x: RingElement) -> complex:
    return x.a + x.b * omega(d)


def norm_times_4(d: int, x: RingElement) -> int:
    """4 * |a + b*omega|^2, exactly: (2a + b)^2 + d*b^2 or 4*(a^2 + d*b^2)."""
    if d % 4 == 3:
        return (2 * x.a + x.b) ** 2 + d * x.b**2
    return 4 * (x.a**2 + d * x.b**2)


def omega_times_oracle(d: int, x: RingElement) -> RingElement:
    """x * omega, with omega^2 = omega - (1 + d)/4 or omega^2 = -d."""
    if d % 4 == 3:
        return RingElement(-(1 + d) // 4 * x.b, x.a + x.b)
    return RingElement(-d * x.b, x.a)


def root_scan(d: int, p: int) -> list[int]:
    """The r mod p with p | N(r - omega), the minimal polynomial of omega at r."""
    return [r for r in range(p) if norm_times_4(d, RingElement(r, -1)) % (4 * p) == 0]


def close(z: complex, w: complex) -> bool:
    return abs(z - w) <= 1e-9 * max(1.0, abs(w))


@settings(max_examples=300, deadline=None)
@given(d=st.sampled_from(DS), a=coordinate, b=coordinate, c=coordinate, e=coordinate)
def test_ring_formulas_match_complex_arithmetic(d, a, b, c, e):
    f = make_field(d)
    x, y = RingElement(a, b), RingElement(c, e)
    assert norm(f, x) == round(abs(embed(d, x)) ** 2)
    assert close(embed(d, mul(f, x, y)), embed(d, x) * embed(d, y))
    assert close(embed(d, conj(f, x)), embed(d, x).conjugate())
    assert close(embed(d, omega_times(f, x)), embed(d, x) * omega(d))
    assert omega_times(f, x) == omega_times_oracle(d, x)


@pytest.mark.parametrize("d", DS)
def test_minpoly_roots_equal_a_scan(d):
    f = make_field(d)
    for p in primes_up_to(200):
        assert _minpoly_roots_mod_p(f, p) == root_scan(d, p), (d, p)


@pytest.mark.parametrize("d", DS)
def test_splitting_type_agrees_with_the_root_count(d):
    f = make_field(d)
    primes = primes_up_to(200)
    kinds = _splitting_kinds(f, np.array(primes, dtype=np.int64)).tolist()
    assert kinds == [len(root_scan(d, p)) - 1 for p in primes], d


@settings(max_examples=300, deadline=None)
@given(d=st.sampled_from(DS), a=coordinate, b=coordinate, c=coordinate, e=coordinate)
def test_pair_ideal_norm_is_the_hnf_norm(d, a, b, c, e):
    f = make_field(d)
    p, q = RingElement(a, b), RingElement(c, e)
    if q.is_zero():
        q = RingElement(1, 0)
    # the Z-lattice spanned by p, p*omega, q, q*omega; p = 0 leaves q's lattice
    gens = [g for x in (p, q) for g in (x, omega_times_oracle(d, x))]
    alpha, _, gamma = _hnf2([(g.a, g.b) for g in gens])
    assert pair_ideal_norm(f, p, q) == alpha * gamma


@settings(max_examples=200, deadline=None)
@given(d=st.sampled_from(DS), a=coordinate, b=coordinate, c=coordinate, e=coordinate)
def test_ball_center_is_the_complex_quotient(d, a, b, c, e):
    f = make_field(d)
    p, q = RingElement(a, b), RingElement(c, e)
    if q.is_zero():
        q = RingElement(1, 0)
    z = embed(d, p) / embed(d, q)
    re, im_over_root_d = _center_of(f, p, q)
    assert close(complex(float(re), float(im_over_root_d) * d**0.5), z)


@pytest.mark.parametrize("d", DS)
def test_norm_rows_hold_every_element_of_small_norm(d):
    f = make_field(d)
    bound = 60
    reach = 2 * isqrt(bound) + 2  # |a|, |b| <= reach wherever the norm is <= bound
    want = {
        (u, v)
        for u in range(-reach, reach + 1)
        for v in range(-reach, reach + 1)
        if 0 < norm_times_4(d, RingElement(u, v)) <= 4 * bound
    }
    got = [(x.a, x.b) for x in enumerate_norm_le(f, unit_ideal(f), bound)]
    assert len(got) == len(set(got))
    assert set(got) == want
