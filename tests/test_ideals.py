"""HNF ideal lattices: construction, coprimality, residues, factorization,
Moebius function, and the norm-ellipse enumeration engine."""

import math
import random
from collections import Counter
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from horocount import ideals as ideals_module
from horocount.arith import is_squarefree, primes_up_to
from horocount.field import (
    RingElement,
    kronecker_character,
    make_field,
    mul,
    norm,
    omega_times,
    units,
    zeta_K_2,
)
from horocount.ideals import (
    InvalidDenominatorError,
    LatticeIdeal,
    ZeroIdealError,
    _gcd_table,
    _minpoly_roots_mod_p,
    coprime_box,
    count_and_sum_norms,
    enumerate_norm_le,
    factor_ideal,
    hnf_from_generators,
    ideal_conj,
    ideal_contains_ideal,
    ideal_divisors,
    ideal_mul,
    is_coprime,
    mobius_ideal,
    mobius_norm_coefficients,
    mobius_reciprocal_partial,
    norm_histogram,
    pair_ideal_norm,
    prime_ideals_above,
    principal_ideal,
    reduce_mod,
    squarefree_ideals,
    ring_totient,
    ring_totient_product,
    unit_ideal,
)


def rand_elem(rng, lo=-20, hi=20, nonzero=False):
    while True:
        x = RingElement(rng.randint(lo, hi), rng.randint(lo, hi))
        if not (nonzero and x.is_zero()):
            return x


# ----------------------------------------------------------------------
# HNF construction
# ----------------------------------------------------------------------

def test_hnf_examples(K1):
    two = hnf_from_generators(K1, [RingElement(2, 0)])
    assert (two.alpha, two.beta, two.gamma) == (2, 0, 2) and two.norm == 4
    onepi = hnf_from_generators(K1, [RingElement(1, 1)])
    assert onepi.norm == 2
    one = hnf_from_generators(K1, [RingElement(1, 0)])
    assert (one.alpha, one.beta, one.gamma) == (1, 0, 1) and one.norm == 1


def test_hnf_zero_generators(K1, Q):
    for f in (K1, Q):
        with pytest.raises(ZeroIdealError):
            hnf_from_generators(f, [RingElement(0, 0)])
        with pytest.raises(ZeroIdealError):
            hnf_from_generators(f, [])


def test_hnf_canonical_under_regeneration(K1, K3, K5):
    # the same O-module from different generating sets gives the same matrix
    rng = random.Random(23)
    for f in (K1, K3, K5):
        for _ in range(200):
            g1 = rand_elem(rng, nonzero=True)
            g2 = rand_elem(rng)
            lam = rand_elem(rng, -3, 3)
            u = random.Random(rng.random()).choice(units(f))
            ideal_a = hnf_from_generators(f, [g1, g2])
            shuffled = [
                mul(f, u, g2),
                ring_add(g1, mul(f, lam, g2)),
                g2,
            ]
            ideal_b = hnf_from_generators(f, shuffled)
            assert ideal_a == ideal_b


def ring_add(x, y):
    return RingElement(x.a + y.a, x.b + y.b)


def test_hnf_is_o_module(K1, K3, K5):
    rng = random.Random(29)
    for f in (K1, K3, K5):
        for _ in range(100):
            ideal = hnf_from_generators(f, [rand_elem(rng, nonzero=True), rand_elem(rng)])
            for col in (RingElement(ideal.alpha, 0), RingElement(ideal.beta, ideal.gamma)):
                assert ideal.contains(omega_times(f, col))


def test_principal_norm_matches_field_norm(K1, K3, K5, Q):
    rng = random.Random(31)
    for f in (K1, K3, K5):
        for _ in range(100):
            q = rand_elem(rng, nonzero=True)
            assert principal_ideal(f, q).norm == norm(f, q)
    for _ in range(50):
        q = RingElement(rng.randint(1, 500), 0)
        assert principal_ideal(Q, q).norm == norm(Q, q)


def test_ideal_norm_multiplicative_on_principal(K1, K3, K5):
    rng = random.Random(37)
    for f in (K1, K3, K5):
        for _ in range(100):
            p = rand_elem(rng, nonzero=True)
            q = rand_elem(rng, nonzero=True)
            prod = ideal_mul(f, principal_ideal(f, p), principal_ideal(f, q))
            assert prod.norm == norm(f, p) * norm(f, q)
            assert prod == principal_ideal(f, mul(f, p, q))


# ----------------------------------------------------------------------
# Coprimality
# ----------------------------------------------------------------------

def test_is_coprime_examples(K1, Q):
    assert not is_coprime(K1, RingElement(1, 1), RingElement(2, 0))
    assert is_coprime(K1, RingElement(2, 1), RingElement(2, -1))
    rng = random.Random(41)
    for f in (K1, Q):
        for _ in range(20):
            q = (
                RingElement(rng.randint(1, 50), 0)
                if f.is_rational
                else rand_elem(rng, nonzero=True)
            )
            assert is_coprime(f, RingElement(1, 0), q)


def test_is_coprime_rejects_zero_denominator(K1):
    with pytest.raises(InvalidDenominatorError):
        is_coprime(K1, RingElement(1, 0), RingElement(0, 0))


def test_pair_norm_matches_hnf(K1, K3, K5):
    # the minor-gcd shortcut must equal norm(hnf_from_generators({p, q}))
    rng = random.Random(43)
    for f in (K1, K3, K5):
        for _ in range(500):
            p = rand_elem(rng)
            q = rand_elem(rng, nonzero=True)
            assert pair_ideal_norm(f, p, q) == hnf_from_generators(f, [p, q]).norm


# ----------------------------------------------------------------------
# Residues
# ----------------------------------------------------------------------

def box_residues(f, q):
    """The residues x + y*omega of the box coprime_box covers, row-major."""
    rows, cols = coprime_box(f, q).shape
    return [RingElement(x, y) for y in range(rows) for x in range(cols)]


def test_residues_examples(K1, Q):
    r = box_residues(K1, RingElement(1, 1))
    assert [(x.a, x.b) for x in r] == [(0, 0), (1, 0)]
    r2 = box_residues(K1, RingElement(2, 0))
    assert {(x.a, x.b) for x in r2} == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert [x.a for x in box_residues(Q, RingElement(3, 0))] == [0, 1, 2]


def test_residues_count_and_incongruence(K1, K3):
    rng = random.Random(47)
    for f in (K1, K3):
        for _ in range(25):
            q = rand_elem(rng, -7, 7, nonzero=True)
            res = box_residues(f, q)
            assert len(res) == norm(f, q)
            lattice = principal_ideal(f, q)
            for i in range(len(res)):
                for j in range(i + 1, len(res)):
                    diff = RingElement(res[i].a - res[j].a, res[i].b - res[j].b)
                    assert not lattice.contains(diff)


def test_reduce_mod_lands_in_box(K1, K3):
    rng = random.Random(53)
    for f in (K1, K3):
        for _ in range(200):
            q = rand_elem(rng, -9, 9, nonzero=True)
            lattice = principal_ideal(f, q)
            x = rand_elem(rng, -99, 99)
            r = reduce_mod(f, x, lattice)
            assert 0 <= r.a < lattice.alpha and 0 <= r.b < lattice.gamma
            assert lattice.contains(RingElement(x.a - r.a, x.b - r.b))


# ----------------------------------------------------------------------
# Totient
# ----------------------------------------------------------------------

def test_ring_totient_examples(Q, K1):
    assert ring_totient(Q, RingElement(6, 0)) == 2
    assert ring_totient(K1, RingElement(1, 1)) == 1
    assert ring_totient(K1, RingElement(2, 0)) == 2


def test_ring_totient_matches_euler_product(small_fields):
    from horocount.counting import unit_orbit_reps

    for f in small_fields:
        for q in unit_orbit_reps(f, 500):
            assert ring_totient(f, q) == ring_totient_product(f, q), (f, q)


@pytest.mark.parametrize("d", ["rational", 1, 2, 3, 5, 7, 15, 23])
def test_coprime_box_matches_scalar_coprimality(d):
    from horocount.counting import unit_orbit_reps

    f = make_field(d)
    for q in unit_orbit_reps(f, 60):
        mask = coprime_box(f, q)
        lattice = principal_ideal(f, q)
        assert mask.shape == (lattice.gamma, lattice.alpha)
        for (y, x), cell in np.ndenumerate(mask):
            assert cell == is_coprime(f, RingElement(x, y), q), (f, q, x, y)


def _five_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def _hard_denominators(f):
    """Denominators whose norms have many divisors or are prime powers: the
    highly composite rational ones, the 5-smooth norms 500..1000 of
    unit_orbit_reps over a field, and 27 (N = 729)."""
    from horocount.counting import unit_orbit_reps

    if f.is_rational:
        return [RingElement(q, 0) for q in (360, 720, 2520)]
    smooth = [q for q in unit_orbit_reps(f, 1000) if norm(f, q) >= 500 and _five_smooth(norm(f, q))]
    return smooth[::4] + [RingElement(27, 0)]


@pytest.mark.parametrize("d", ["rational", 1, 2])
def test_coprime_box_on_hard_norms(d):
    f = make_field(d)
    qs = _hard_denominators(f)
    assert len(qs) >= 3 and any(norm(f, q) >= 900 for q in qs)
    for q in qs:
        mask = coprime_box(f, q)
        for (y, x), cell in np.ndenumerate(mask):
            assert cell == is_coprime(f, RingElement(x, y), q), (f, q, x, y)
        assert ring_totient(f, q) == ring_totient_product(f, q), (f, q)


def test_gcd_table_is_gcd_with_the_norm():
    for n in range(1, 3001):
        assert np.array_equal(_gcd_table(n), np.gcd(np.arange(n), n)), n


def test_ring_totient_zero_denominator(Q):
    with pytest.raises(InvalidDenominatorError):
        ring_totient(Q, RingElement(0, 0))


# ----------------------------------------------------------------------
# The HNF of (q), in closed form
# ----------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(
    d=st.sampled_from(["rational", 1, 2, 3, 5, 6, 7, 15, 23, 107]),
    a=st.integers(-10**6, 10**6),
    b=st.integers(-10**6, 10**6),
)
def test_principal_ideal_is_the_canonical_hnf(d, a, b):
    f = make_field(d)
    q = RingElement(a, 0 if f.is_rational else b)
    if q.is_zero():
        with pytest.raises(InvalidDenominatorError):
            principal_ideal(f, q)
        return
    ideal = principal_ideal(f, q)
    assert ideal == hnf_from_generators(f, [q])
    assert 0 <= ideal.beta < ideal.alpha and ideal.alpha % ideal.gamma == 0
    assert ideal.alpha * ideal.gamma == norm(f, q)
    assert all(principal_ideal(f, mul(f, u, q)) == ideal for u in units(f))


# ----------------------------------------------------------------------
# Factorization and Moebius
# ----------------------------------------------------------------------

def test_factor_examples(K1):
    fac2 = factor_ideal(K1, principal_ideal(K1, RingElement(2, 0)))
    # ramified: (2) = P^2 with P = (1 + i) of norm 2
    assert len(fac2) == 1 and fac2[0][0].norm == 2 and fac2[0][1] == 2
    assert fac2[0][0] == principal_ideal(K1, RingElement(1, 1))
    fac5 = factor_ideal(K1, principal_ideal(K1, RingElement(5, 0)))
    # split: two conjugate primes of norm 5
    assert [P.norm for P, _ in fac5] == [5, 5]
    assert fac5[0][0] != fac5[1][0] and fac5[1][0] == ideal_conj(K1, fac5[0][0])
    assert all(e == 1 for _, e in fac5)
    fac3 = factor_ideal(K1, principal_ideal(K1, RingElement(3, 0)))
    # inert: (3) itself is prime
    assert fac3[0][0] == principal_ideal(K1, RingElement(3, 0)) and fac3[0][1] == 1
    assert fac3[0][0].norm == 9


def test_factorization_reconstructs_ideal(K1, K3, K5):
    rng = random.Random(59)
    for f in (K1, K3, K5):
        for _ in range(60):
            q = rand_elem(rng, -9, 9, nonzero=True)
            ideal = principal_ideal(f, q)
            product = unit_ideal(f)
            norm_prod = 1
            for prime, e in factor_ideal(f, ideal):
                for _ in range(e):
                    product = ideal_mul(f, product, prime)
                norm_prod *= prime.norm**e
            assert product == ideal
            assert norm_prod == ideal.norm


def test_split_primes_multiply_to_p(K1, K3, K5):
    for f, p in ((K1, 5), (K1, 13), (K3, 7), (K5, 3), (K5, 7)):
        above = prime_ideals_above(f, p)
        assert len(above) == 2
        prod = ideal_mul(f, above[0], above[1])
        assert prod == principal_ideal(f, RingElement(p, 0))


@pytest.mark.parametrize("d", ["rational", 1, 2, 3, 7, 5, 6, 23, 31, 14, 17, 47, 26])
def test_prime_ideals_in_closed_form_are_the_hnf_of_their_generators(d):
    """Over Q and fields of class number 1 to 6, for every prime p < 5000,
    prime_ideals_above gives hnf_from_generators of (p, omega - r) for each
    root r, or of (p) where there is none."""
    f = make_field(d)
    for p in primes_up_to(4999):
        roots = [] if f.is_rational else _minpoly_roots_mod_p(f, p)
        gens = [[RingElement(p, 0), RingElement(-r, 1)] for r in roots] or [[RingElement(p, 0)]]
        above = prime_ideals_above(f, p)
        assert list(above) == [hnf_from_generators(f, g) for g in gens], (d, p)


def test_mobius_examples(K1):
    assert mobius_ideal(K1, unit_ideal(K1)) == 1
    assert mobius_ideal(K1, principal_ideal(K1, RingElement(2, 0))) == 0
    assert mobius_ideal(K1, principal_ideal(K1, RingElement(2, 1))) == -1


def test_mobius_summatory_over_divisors():
    from horocount.counting import unit_orbit_reps

    for d in (1, 2, 3):
        f = make_field(d)
        for q in unit_orbit_reps(f, 200):
            ideal = principal_ideal(f, q)
            total = sum(mobius_ideal(f, div) for div in ideal_divisors(f, ideal))
            assert total == (1 if ideal.is_unit_ideal else 0), (d, q)


@settings(max_examples=200, deadline=None)
@given(d=st.sampled_from(["rational", 1, 2, 3, 5, 6, 23]), data=st.data())
def test_factoring_undoes_multiplying(d, data):
    """A product of primes above p <= 50 factors back into the same multiset,
    and mu of it is (-1)^k for k distinct primes, 0 once one repeats."""
    f = make_field(d)
    above = {p: prime_ideals_above(f, p) for p in primes_up_to(50)}
    pool = [P for primes in above.values() for P in primes]
    if not f.is_rational:  # split (two primes), ramified (one of norm p), inert (one of norm p^2)
        kinds = {(len(primes), primes[0].norm == p) for p, primes in above.items()}
        assert kinds == {(2, True), (1, True), (1, False)}
    picks = data.draw(st.lists(st.sampled_from(pool), max_size=6))
    ideal = reduce(lambda acc, P: ideal_mul(f, acc, P), picks, unit_ideal(f))
    want = Counter(picks)
    assert Counter(dict(factor_ideal(f, ideal))) == want
    squarefree = all(e == 1 for e in want.values())
    assert mobius_ideal(f, ideal) == ((-1) ** len(picks) if squarefree else 0)


def minpoly_value(f, b: int) -> int:
    """The minimal polynomial of omega at b, from d alone (see test_field)."""
    return b * b - b + (1 + f.d) // 4 if f.d % 4 == 3 else b * b + f.d


def brute_ideals_of_norm(f, n):
    """Independent enumeration of the ideals of norm n (see test_field)."""
    out = []
    g = 1
    while g * g <= n:
        if n % (g * g) == 0:
            a = n // (g * g)
            for b in range(a):
                if minpoly_value(f, b) % a == 0:
                    ideal = hnf_from_generators(
                        f, [RingElement(g * a, 0), RingElement(-g * b, g)]
                    )
                    assert ideal.norm == n
                    out.append(ideal)
        g += 1
    assert len(set(out)) == len(out)
    return out


def test_mobius_norm_coefficients_match_objects():
    for d in (1, 2, 3, 5):
        f = make_field(d)
        m = mobius_norm_coefficients(f, 200)
        for n in range(1, 201):
            want = sum(mobius_ideal(f, ideal) for ideal in brute_ideals_of_norm(f, n))
            assert m[n] == want, (d, n)


def _squarefree_records(f, x):
    """The (mu, LatticeIdeal) pairs of the arrays of squarefree_ideals."""
    mu, alpha, beta, gamma = squarefree_ideals(f, x)
    assert all(a.dtype == np.int64 for a in (mu, alpha, beta, gamma))
    return [(m, LatticeIdeal(f, a, b, g))
            for m, a, b, g in zip(mu.tolist(), alpha.tolist(), beta.tolist(), gamma.tolist())]


@settings(max_examples=30, deadline=None)
@given(d=st.integers(1, 400).filter(is_squarefree), x=st.integers(0, 300))
def test_squarefree_ideals_enumeration(d, x):
    f = make_field(d)
    found = _squarefree_records(f, x)
    ideals = [ideal for _, ideal in found]
    assert len(set(ideals)) == len(ideals)
    want = {
        ideal
        for n in range(1, x + 1)
        for ideal in brute_ideals_of_norm(f, n)
        if mobius_ideal(f, ideal) != 0
    }
    assert set(ideals) == want
    m = mobius_norm_coefficients(f, x)
    by_norm = Counter()
    for mu, ideal in found:
        assert mu == mobius_ideal(f, ideal), ideal
        by_norm[ideal.norm] += mu
    assert all(by_norm[n] == m[n] for n in range(1, x + 1))


def _squarefree_by_search(f, bound):
    """(mu, alpha, beta, gamma) of every squarefree ideal of norm <= bound: a
    depth-first search over the prime ideals in order of norm, building each
    product of distinct primes with ideal_mul; an oracle that shares no step
    with the CRT construction of squarefree_ideals."""
    if bound < 1:
        return set()
    primes = sorted(
        (P for p in primes_up_to(bound) for P in prime_ideals_above(f, p) if P.norm <= bound),
        key=lambda P: P.norm,
    )
    found = set()
    stack = [(unit_ideal(f), 1, 0)]  # (ideal, mu, index of the next prime to try)
    while stack:
        ideal, mu, start = stack.pop()
        found.add((mu, ideal.alpha, ideal.beta, ideal.gamma))
        for i in range(start, len(primes)):
            if ideal.norm * primes[i].norm > bound:
                break
            stack.append((ideal_mul(f, ideal, primes[i]), -mu, i + 1))
    return found


# Q and twelve fields with h = 1..6: split, inert and ramified primes below
# sqrt(x), and split and ramified ones above it (D = 23, 47 from x = 60 on,
# D = 107, 163 from x = 997 on)
SEARCH_FIELDS = ["rational", 1, 2, 3, 7, 163, 5, 10, 23, 107, 14, 47, 26]


@pytest.mark.parametrize("d", SEARCH_FIELDS)
def test_squarefree_arrays_equal_the_search(d):
    f = make_field(d)
    for x in (1, 2, 10, 60, 997, 3000):
        arrays = squarefree_ideals(f, x)
        got = list(zip(*(a.tolist() for a in arrays)))
        assert len(set(got)) == len(got), (d, x)
        assert set(got) == _squarefree_by_search(f, x), (d, x)


@pytest.mark.parametrize("d", [5, 23])
def test_squarefree_ideals_find_roots_only_where_p_is_not_inert(d, monkeypatch):
    """The builder reads how p splits from field._splitting_kinds: it finds
    the roots mod p once for each p <= 2000 that splits or ramifies (by the
    Kronecker symbol, a rule of its own), never for an inert p, and never
    calls prime_ideals_above."""
    f = make_field(d)
    calls = []

    def spy(field, p):
        calls.append(p)
        return _minpoly_roots_mod_p(field, p)

    def forbidden(field, p):
        raise AssertionError(f"prime_ideals_above({field!r}, {p}) called")

    monkeypatch.setattr(ideals_module, "_minpoly_roots_mod_p", spy)
    monkeypatch.setattr(ideals_module, "prime_ideals_above", forbidden)
    squarefree_ideals(f, 2000)
    assert calls == [p for p in primes_up_to(2000) if kronecker_character(f, p) != -1]


def test_mobius_reciprocal_partial(zeta_fields, Q):
    for f in list(zeta_fields) + [Q]:
        got = mobius_reciprocal_partial(f, 10_000)
        assert abs(got - 1.0 / zeta_K_2(f, 1e-10)) <= 1e-3, f


# ----------------------------------------------------------------------
# Enumeration
# ----------------------------------------------------------------------

def test_enumerate_examples(K1, Q):
    pts = list(enumerate_norm_le(K1, unit_ideal(K1), 1))
    assert len(pts) == 4 and all(norm(K1, x) == 1 for x in pts)
    assert len(list(enumerate_norm_le(K1, unit_ideal(K1), 2))) == 8
    assert [x.a for x in enumerate_norm_le(Q, unit_ideal(Q), 3)] == [-3, -2, -1, 1, 2, 3]


def test_enumerate_complete_and_unique(K1, K3, K5):
    # oracle: brute box scan with membership tests
    rng = random.Random(61)
    for f in (K1, K3, K5):
        for _ in range(20):
            q = rand_elem(rng, -4, 4, nonzero=True)
            lattice = principal_ideal(f, q)
            bound = rng.randint(1, 60)
            got = list(enumerate_norm_le(f, lattice, bound))
            assert len(set(got)) == len(got)
            want = {
                (a, b)
                for a in range(-bound - 30, bound + 31)
                for b in range(-bound - 30, bound + 31)
                if (a, b) != (0, 0)
                and lattice.contains(RingElement(a, b))
                and norm(f, RingElement(a, b)) <= bound
            }
            assert {(x.a, x.b) for x in got} == want


def test_enumerate_lex_order(K1, K3):
    for f, bound in ((K1, 25), (K3, 25)):
        got = [(x.b, x.a) for x in enumerate_norm_le(f, unit_ideal(f), bound)]
        assert got == sorted(got)


def test_count_and_sum_matches_enumeration(K1, K3, Q):
    rng = random.Random(67)
    for f in (K1, K3, Q):
        for _ in range(20):
            if f.is_rational:
                q = RingElement(rng.randint(1, 9), 0)
            else:
                q = rand_elem(rng, -5, 5, nonzero=True)
            lattice = principal_ideal(f, q)
            bound = rng.randint(1, 80)
            pts = list(enumerate_norm_le(f, lattice, bound))
            count, total = count_and_sum_norms(f, lattice, bound)
            assert count == len(pts)
            assert total == sum(norm(f, x) for x in pts)


@pytest.mark.parametrize("d", ["rational", 1, 2, 3, 5, 7])
def test_norm_histogram_matches_enumeration(d):
    from horocount.ideals import _hnf_arrays, _relative_norm_histograms

    f = make_field(d)
    prime, *_ = prime_ideals_above(f, 3)
    for lattice in (unit_ideal(f), prime):
        for bound in (0, 1, 200):
            hist = norm_histogram(f, lattice, bound)
            want = Counter(norm(f, x) for x in enumerate_norm_le(f, lattice, bound))
            assert len(hist) == bound + 1
            assert {n: int(c) for n, c in enumerate(hist) if c} == want
            # the one-ideal case of the blocked pass of the Moebius kernel
            alpha, beta, gamma = _hnf_arrays([lattice])
            ((_, _, relative),) = _relative_norm_histograms(f, alpha, beta, gamma, bound)
            assert (relative == hist[:: lattice.norm]).all()


@pytest.mark.parametrize("d", ["rational", 1, 2, 3, 5, 7, 23])
def test_unit_norm_band_is_the_histograms_slice(d):
    # bands from norm 1, of width 1, across square norms and at random, each
    # against the lattice walk of norm_histogram up to the band's last norm
    from horocount.ideals import _unit_norm_band

    f = make_field(d)
    rng = random.Random(20261021)
    bands = [(1, 2), (1, 3), (1, 700), (2, 3), (4, 5), (9, 10), (25, 26), (24, 49), (600, 601)]
    bands += [(lo, lo + rng.randint(1, 200)) for lo in rng.sample(range(1, 600), 25)]
    for lo, hi in bands:
        want = norm_histogram(f, unit_ideal(f), hi - 1)[lo:hi]
        got = _unit_norm_band(f, lo, hi)
        assert got.shape == want.shape and (got == want).all(), (lo, hi)


@pytest.mark.parametrize("d", ["rational", 1, 5])
def test_negative_bounds_give_empty_results(d):
    f = make_field(d)
    lattice = unit_ideal(f)
    assert len(norm_histogram(f, lattice, -1)) == 0
    assert count_and_sum_norms(f, lattice, -1) == (0, 0)
    for x in (-0.5, -1.5):  # int(x) is 0 and -1: the zero element alone, then no rows
        assert list(enumerate_norm_le(f, lattice, x)) == []


def test_row_partition_independence(K1):
    # aggregating row subsets in any split must reproduce the full totals
    from horocount.ideals import _hnf_arrays, _rows_norm_le

    lattice = principal_ideal(K1, RingElement(1, 2))
    bound = 400
    rows = list(zip(*(r.tolist() for r in _rows_norm_le(K1, *_hnf_arrays([lattice]), bound))))
    full = count_and_sum_norms(K1, lattice, bound)

    def aggregate(row_subset):
        c = t = 0
        for _, v, u0, n_pts in row_subset:
            for j in range(n_pts):
                u = u0 + j * lattice.alpha
                n = norm(K1, RingElement(u, v))
                if n > 0:
                    c += 1
                    t += n
        return c, t

    for split_at in (1, len(rows) // 3, len(rows) // 2):
        va, ta = aggregate(rows[:split_at])
        vb, tb = aggregate(rows[split_at:])
        assert (va + vb, ta + tb) == full


def test_runs_fill_each_run_to_the_cap():
    # a run holds as many items as fit in the cap, not one each
    from horocount.ideals import _runs

    assert list(_runs(np.ones(100, dtype=np.int64), 10)) == [(k, k + 10) for k in range(0, 100, 10)]
    assert list(_runs(np.array([3, 25, 4, 4]), 10)) == [(0, 1), (1, 2), (2, 4)]


def test_point_blocks_cut_rows_longer_than_a_block():
    # rows of a block and five points and of two blocks come out in pieces of
    # at most a block, each point once and in row order
    from horocount.ideals import _HISTOGRAM_BLOCK as block, _point_blocks

    count = np.array([block + 5, 2 * block], dtype=np.int64)
    rows = (np.zeros(2, dtype=np.int64), np.array([0, 1]), np.array([-7, 3]), count)
    blocks = list(_point_blocks(np.array([2], dtype=np.int64), rows))
    assert all(u.size == n.sum() <= block for _, n, u, _ in blocks)
    u = np.concatenate([u for _, _, u, _ in blocks])
    v = np.concatenate([v for _, _, _, v in blocks])
    assert (u == np.concatenate([-7 + 2 * np.arange(block + 5), 3 + 2 * np.arange(2 * block)])).all()
    assert (v == np.repeat([0, 1], count)).all()


def _box_scan(f, lattice, bound):
    """The elements of norm <= bound, zero included, by membership tests over a
    box that holds the norm ellipse: |a| <= bound over Q; otherwise |b| and
    |a| are at most 2*sqrt(bound), as N(a + b*omega) >= d*b^2/4 and
    N >= (|a| - |b|/2)^2 in either basis."""
    r = bound if f.is_rational else 2 * math.isqrt(bound) + 2
    ys = [0] if f.is_rational else range(-r, r + 1)
    return Counter(
        (a, b)
        for b in ys
        for a in range(-r, r + 1)
        if lattice.contains(RingElement(a, b)) and norm(f, RingElement(a, b)) <= bound
    )


def _coords(f, gens):
    """Nonzero pairs as elements; over Q the pair (a, b) gives a, or b if a = 0."""
    return [RingElement(a or b, 0) if f.is_rational else RingElement(a, b) for a, b in gens]


_GEN = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(lambda g: g != (0, 0))


@settings(max_examples=40, deadline=None)
@given(
    d=st.sampled_from(["rational", 1, 2, 3, 5, 7, 15, 23]),
    one=_GEN,
    two=st.lists(_GEN, min_size=2, max_size=2),
    bound=st.integers(0, 400),
)
def test_rows_norm_le_match_box_scan(d, one, two, bound):
    """The row kernel, on one lattice and on two at once, covers each point of
    norm <= bound exactly once, and enumerate_norm_le keeps (y, x)-lex order."""
    from horocount.ideals import _hnf_arrays, _rows_norm_le

    f = make_field(d)
    lattices = [hnf_from_generators(f, _coords(f, gens)) for gens in ([one], two)]
    alpha, beta, gamma = _hnf_arrays(lattices)
    for b in sorted({0, bound, min(max(min(L.alpha for L in lattices) - 1, 0), 400)}):
        owner, v, u0, count = (r.tolist() for r in _rows_norm_le(f, alpha, beta, gamma, b))
        assert owner == sorted(owner)
        for i, lattice in enumerate(lattices):
            got = Counter(
                (u0[r] + j * lattice.alpha, v[r])
                for r in range(len(owner)) if owner[r] == i
                for j in range(count[r])
            )
            want = _box_scan(f, lattice, b)
            assert got == want, (lattice, b)
            one_rows = [r.tolist() for r in _rows_norm_le(f, *_hnf_arrays([lattice]), b)]
            assert one_rows[1:] == [[x for x, o in zip(col, owner) if o == i] for col in (v, u0, count)]
            listed = [(x.b, x.a) for x in enumerate_norm_le(f, lattice, b)]
            assert listed == sorted(listed)
            assert Counter((a, y) for y, a in listed) == want - Counter({(0, 0): 1})


def test_ideal_contains_ideal_is_divisibility(K1):
    # (1+i) | (2) but not conversely
    p = principal_ideal(K1, RingElement(1, 1))
    two = principal_ideal(K1, RingElement(2, 0))
    assert ideal_contains_ideal(p, two)
    assert not ideal_contains_ideal(two, p)
