"""Field constants, ring arithmetic, the splitting character, zeta values,
class numbers.  Expected values are either worked out from independent
oracles defined here (numeric embeddings, exhaustive enumerations,
Minkowski-bound class searches) or frozen after such a computation."""

import cmath
import math
import random
import threading

import numpy as np
import pytest

from horocount.arith import is_squarefree, primes_up_to
import horocount.field as field_module
from horocount.field import (
    _ZETA2,
    InvalidFieldError,
    RingElement,
    UnsupportedFieldError,
    _character_table,
    _splitting_kinds,
    class_number,
    conj,
    ideal_count_coefficients,
    kronecker_character,
    make_field,
    mul,
    norm,
    residue_K,
    sub,
    units,
    zeta_K_2,
    zeta_K_2_via_ideal_counts,
)
from horocount.ideals import (
    enumerate_norm_le,
    hnf_from_generators,
    ideal_conj,
    ideal_mul,
)

CATALAN = 0.915965594177219015  # Catalan's constant, standard reference value


def omega_numeric(f) -> complex:
    """omega from d alone: (1 + sqrt(-d))/2 when d = 3 mod 4, else sqrt(-d)."""
    root = cmath.sqrt(complex(-f.d))
    return (1 + root) / 2 if f.d % 4 == 3 else root


def minpoly_value(f, b: int) -> int:
    """b^2 - tr(omega)*b + N(omega), the minimal polynomial of omega at b, from d alone."""
    return b * b - b + (1 + f.d) // 4 if f.d % 4 == 3 else b * b + f.d


def embed(f, x: RingElement) -> complex:
    if f.is_rational:
        return complex(x.a)
    return x.a + x.b * omega_numeric(f)


# ----------------------------------------------------------------------
# FieldSpec construction
# ----------------------------------------------------------------------

def test_make_field_constants():
    k1 = make_field(1)
    assert (k1.D, k1.w, k1.t, k1.n) == (4, 4, 0, 1)
    k3 = make_field(3)
    assert (k3.D, k3.w, k3.t, k3.n) == (3, 6, 1, 1)
    k5 = make_field(5)
    assert (k5.D, k5.w, k5.t, k5.n) == (20, 2, 0, 5)
    k7 = make_field(7)
    assert (k7.D, k7.w, k7.t, k7.n) == (7, 2, 1, 2)
    q = make_field("rational")
    assert q.is_rational and q.w == 2 and q.h == 1 and (q.t, q.n) == (0, 0)


@pytest.mark.parametrize("bad", [0, -7, 4, 12, 18, 50, "nonsense", 2.5])
def test_make_field_rejects(bad):
    with pytest.raises(InvalidFieldError):
        make_field(bad)


def test_make_field_refuses_d_past_int64_at_once():
    # squarefreeness of a 23-digit d by trial division up to sqrt(d) never ended
    for d in (2**61, 99999999999999999999999):
        with pytest.raises(InvalidFieldError, match="below 2"):
            make_field(d)


def test_make_field_just_below_the_bound():
    # 2^61 - 1 is prime: the cube-root trial division runs to its end, and D,
    # d itself (d = 3 mod 4), fits in int64
    f = make_field(2**61 - 1)
    assert f.D == 2**61 - 1 < 2**63
    with pytest.raises(InvalidFieldError, match="squarefree"):
        make_field(1073741789**2)  # the largest prime below 2^30, squared


def test_discriminant_rule_matches_residue_class():
    for d in range(1, 60):
        if not is_squarefree(d):
            continue
        f = make_field(d)
        assert f.D == (d if d % 4 == 3 else 4 * d)


# ----------------------------------------------------------------------
# Norm
# ----------------------------------------------------------------------

def test_norm_examples(Q, K1, K3):
    assert norm(K1, RingElement(2, 1)) == 5
    # oracle: squared modulus of the numeric embedding
    val = abs(embed(K3, RingElement(1, 1))) ** 2
    assert norm(K3, RingElement(1, 1)) == round(val) == 3
    assert norm(Q, RingElement(-7, 0)) == 7


def test_norm_matches_embedding(K1, K3, K5):
    rng = random.Random(11)
    for f in (K1, K3, K5, make_field(7), make_field(2)):
        for _ in range(100):
            x = RingElement(rng.randint(-30, 30), rng.randint(-30, 30))
            assert norm(f, x) == round(abs(embed(f, x)) ** 2)


def test_norm_multiplicative(Q, K1, K3, K5):
    rng = random.Random(7)
    for f in (Q, K1, K3, K5, make_field(7), make_field(11), make_field(2)):
        for _ in range(1000):
            if f.is_rational:
                x = RingElement(rng.randint(-999, 999), 0)
                y = RingElement(rng.randint(-999, 999), 0)
            else:
                x = RingElement(rng.randint(-99, 99), rng.randint(-99, 99))
                y = RingElement(rng.randint(-99, 99), rng.randint(-99, 99))
            assert norm(f, mul(f, x, y)) == norm(f, x) * norm(f, y)


def test_norm_positive_definite(K1, K3):
    for f in (K1, K3):
        for a in range(-6, 7):
            for b in range(-6, 7):
                n = norm(f, RingElement(a, b))
                assert n >= 0
                assert (n == 0) == (a == 0 and b == 0)


# ----------------------------------------------------------------------
# Units
# ----------------------------------------------------------------------

def test_units_examples(K1, K3, K5):
    assert {(u.a, u.b) for u in units(K1)} == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert {(u.a, u.b) for u in units(K5)} == {(1, 0), (-1, 0)}
    assert len(units(K3)) == 6


def test_units_are_exactly_norm_one(K1, K3, K5):
    # oracle: scan every lattice point in a box large enough to hold norm 1
    for f in (K1, K3, K5, make_field(7)):
        found = {
            (a, b)
            for a in range(-4, 5)
            for b in range(-4, 5)
            if norm(f, RingElement(a, b)) == 1
        }
        assert found == {(u.a, u.b) for u in units(f)}


def test_units_closed_under_multiplication(K1, K3):
    for f in (K1, K3):
        us = {(u.a, u.b) for u in units(f)}
        for u in units(f):
            for v in units(f):
                w = mul(f, u, v)
                assert (w.a, w.b) in us


# ----------------------------------------------------------------------
# Ring arithmetic
# ----------------------------------------------------------------------

def test_ring_arith_examples(K1, K3):
    i2 = mul(K1, RingElement(0, 1), RingElement(0, 1))
    assert i2 == RingElement(-1, 0)
    w2 = mul(K3, RingElement(0, 1), RingElement(0, 1))
    assert w2 == RingElement(-1, 1)  # omega^2 = omega - 1
    # minimal polynomial oracle: omega^2 - omega + 1 = 0 numerically
    w = omega_numeric(K3)
    assert abs(w * w - w + 1) < 1e-12


def test_add_identity_and_embedding(Q, K1, K3):
    rng = random.Random(3)
    for f in (Q, K1, K3):
        for _ in range(50):
            b = 0 if f.is_rational else rng.randint(-9, 9)
            x = RingElement(rng.randint(-9, 9), b)
            y = RingElement(rng.randint(-9, 9), 0 if f.is_rational else rng.randint(-9, 9))
            for op, pyop in (
                (sub, complex.__sub__),
                (lambda x, y: mul(f, x, y), complex.__mul__),
            ):
                got = embed(f, op(x, y))
                want = pyop(embed(f, x), embed(f, y))
                assert abs(got - want) < 1e-9


def test_conj_is_complex_conjugation(K1, K3, K5):
    rng = random.Random(5)
    for f in (K1, K3, K5):
        for _ in range(50):
            x = RingElement(rng.randint(-9, 9), rng.randint(-9, 9))
            assert abs(embed(f, conj(f, x)) - embed(f, x).conjugate()) < 1e-9
            # conj is multiplicative and an involution
            y = RingElement(rng.randint(-9, 9), rng.randint(-9, 9))
            assert conj(f, conj(f, x)) == x
            assert conj(f, mul(f, x, y)) == mul(f, conj(f, x), conj(f, y))


# ----------------------------------------------------------------------
# Kronecker character
# ----------------------------------------------------------------------

def solvable_norm_form(f, n: int) -> bool:
    """Oracle: is there an element of norm n (solvability of the norm form)."""
    return any(norm(f, x) == n for x in enumerate_norm_le(f, _unit_ideal(f), n))


def _unit_ideal(f):
    from horocount.ideals import unit_ideal

    return unit_ideal(f)


def test_character_examples(K1):
    # 5 = (2+i)(2-i) splits; the norm form represents 5
    assert kronecker_character(K1, 5) == 1
    assert solvable_norm_form(K1, 5)
    # 3 inert: no Gaussian integer of norm 3
    assert kronecker_character(K1, 3) == -1
    assert not solvable_norm_form(K1, 3)
    # 2 ramified
    assert kronecker_character(K1, 2) == 0


def test_character_rejects_rational(Q):
    with pytest.raises(UnsupportedFieldError):
        kronecker_character(Q, 3)


def test_character_multiplicative_and_support(K1, K3, K5):
    rng = random.Random(13)
    for f in (K1, K3, K5, make_field(11)):
        for _ in range(300):
            m, n = rng.randint(1, 500), rng.randint(1, 500)
            assert kronecker_character(f, m * n) == kronecker_character(
                f, m
            ) * kronecker_character(f, n)
        for p in primes_up_to(200):
            vanishes = kronecker_character(f, p) == 0
            assert vanishes == (f.D % p == 0)


def test_character_matches_splitting(zeta_fields):
    # a_p = 1 + chi(p): ties the Kronecker-symbol pipeline to the
    # Euler-criterion root count, for every prime p <= 10^4 not dividing D
    for f in zeta_fields:
        coeffs = ideal_count_coefficients(f, 10_000)
        for p in primes_up_to(10_000):
            if f.D % p == 0:
                assert kronecker_character(f, p) == 0
                continue
            assert coeffs[p] == 1 + kronecker_character(f, p), (f, p)


# ----------------------------------------------------------------------
# zeta_K(2)
# ----------------------------------------------------------------------

def test_zeta_rational_partial_sum_bracket(Q):
    # oracle: S_N + 1/(N+1) <= zeta(2) <= S_N + 1/N (integral tail bounds)
    n = 4000
    s = sum(1.0 / (k * k) for k in range(1, n + 1))
    val = zeta_K_2(Q, 1e-12)
    assert s + 1.0 / (n + 1) - 1e-12 <= val <= s + 1.0 / n + 1e-12


def test_zeta_gaussian_catalan(K1):
    want = (math.pi**2 / 6.0) * CATALAN
    assert abs(zeta_K_2(K1, 1e-10) - want) <= 1e-9


def test_zeta_eisenstein_frozen(K3):
    # frozen from a 30-digit Hurwitz-zeta evaluation of zeta(2)*L(2, chi_-3)
    assert abs(zeta_K_2(K3, 1e-10) - 1.28519095548415) <= 1e-9


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_zeta_rejects_a_tolerance_not_positive_and_finite(Q, K1, tol):
    for f in (Q, K1):
        with pytest.raises(ValueError):
            zeta_K_2(f, tol)


def test_zeta_tolerance_scales(K5):
    loose = zeta_K_2(K5, 1e-4)
    tight = zeta_K_2(K5, 1e-12)
    assert abs(loose - tight) <= 2e-4


def test_zeta_two_pipelines_agree(Q, zeta_fields):
    for f in zeta_fields:
        a = zeta_K_2(f, 1e-10)
        b = zeta_K_2_via_ideal_counts(f, 200_000)
        assert abs(a - b) <= 1e-8, (f, a, b)
    assert abs(zeta_K_2(Q, 1e-10) - zeta_K_2_via_ideal_counts(Q, 200_000)) <= 1e-8


def zeta_one_array(f, tol):
    """Oracle: the whole character series as one array, summed by one np.sum
    (zeta_K_2's formula before it summed block by block); (terms, value)."""
    tab, m = _character_table(f)
    n_terms = math.isqrt(int(4 * m * _ZETA2 / tol)) + 1
    n = np.arange(1, n_terms + 1, dtype=np.int64)
    chi = np.asarray(tab, dtype=np.float64)[n % f.D]
    return n_terms, _ZETA2 * float(np.sum(chi / (n.astype(np.float64) ** 2)))


@pytest.mark.parametrize(
    "d, tol, n_terms",
    [
        (1, 1e-3, 82),  # one block, under numpy's 128-term base case
        (1, 1e-6, 2566),  # one block, a length that is not a multiple of 8
        (2, 3.064e-9, 2**16),  # exactly one full block
        (2, 3.0639e-9, 2**16 + 1),  # the first length that splits
        (2, 1e-9, 114715),  # two blocks, neither a multiple of 8 long
        (123, 1e-10, 725520),
        (107, 1e-10, 769530),  # four levels of halving down to the blocks
    ],
)
def test_zeta_blocks_sum_to_the_one_array_sum(d, tol, n_terms):
    f = make_field(d)
    terms, want = zeta_one_array(f, tol)
    assert terms == n_terms
    assert zeta_K_2.__wrapped__(f, tol).hex() == want.hex()


@pytest.mark.parametrize("d", ["rational", 1, 2, 3, 7, 107, 123])
def test_zeta_character_index_keeps_its_bits(d, monkeypatch):
    """The character is read at arith._mod(k, D), the same integer as k % D, so
    every value is the % formula's to the last bit."""
    f = make_field(d)
    got = [zeta_K_2.__wrapped__(f, tol).hex() for tol in (1e-8, 1e-10, 1e-12)]
    monkeypatch.setattr(field_module, "_mod", lambda x, n: x % n)
    assert got == [zeta_K_2.__wrapped__(f, tol).hex() for tol in (1e-8, 1e-10, 1e-12)]


def test_zeta_working_memory_is_one_block(traced_peak_mb):
    # the one-array sum of these 769 530 terms peaked near 24 MB
    K107 = make_field(107)
    assert traced_peak_mb(lambda: zeta_K_2.__wrapped__(K107, 1e-10)) < 4


def zeta_via_ideal_counts_one_array(f, n_max):
    """zeta_K_2_via_ideal_counts as one float64 array of all n_max + 1 terms."""
    a = np.array(ideal_count_coefficients(f, n_max), dtype=np.float64)
    n = np.arange(n_max + 1, dtype=np.float64)
    n[0] = 1.0
    return float(np.sum(a / (n * n))) + residue_K(f) / n_max


@pytest.mark.parametrize("d", [1, 3, 58, 123])
def test_ideal_count_zeta_blocks_sum_to_the_one_array_sum(d):
    f = make_field(d)
    for n_max in (1, 127, 128, 2**14, 2**14 + 1, 2**16 + 1, 200_000):
        want = zeta_via_ideal_counts_one_array(f, n_max)
        assert zeta_K_2_via_ideal_counts(f, n_max).hex() == want.hex(), n_max


def test_ideal_count_zeta_working_memory_is_one_block(traced_peak_mb):
    # the one-array fill and sum of these 200 001 terms peaked near 8.6 MB;
    # the int64 counts alone are 1.6 MB
    K123 = make_field(123)
    assert K123.h == 2  # the class number is computed before the trace starts
    assert traced_peak_mb(lambda: zeta_K_2_via_ideal_counts(K123, 200_000)) < 3


# ----------------------------------------------------------------------
# Ideal-count coefficients
# ----------------------------------------------------------------------

def count_ideals_brute(f, n: int) -> int:
    """Oracle: exhaustive HNF enumeration.  Ideals of norm n are
    gamma*[[a, b], [0, 1]] with a*gamma^2 = n and b a root of the minimal
    polynomial of omega mod a; roots counted by direct scan."""
    total = 0
    g = 1
    while g * g <= n:
        if n % (g * g) == 0:
            a = n // (g * g)
            for b in range(a):
                if minpoly_value(f, b) % a == 0:
                    total += 1
        g += 1
    return total


def test_ideal_count_examples(K1, K5):
    a1 = ideal_count_coefficients(K1, 10)
    assert a1[1] == 1 and a1[2] == 1 and a1[5] == 2 and a1[3] == 0
    a5 = ideal_count_coefficients(K5, 10)
    assert a5[2] == 1 and a5[3] == 2


def test_ideal_counts_match_exhaustive_hnf(zeta_fields):
    for f in zeta_fields:
        coeffs = ideal_count_coefficients(f, 200)
        for n in range(1, 201):
            assert coeffs[n] == count_ideals_brute(f, n), (f, n)


def test_ideal_counts_rational(Q):
    assert ideal_count_coefficients(Q, 20)[1:] == [1] * 20


def test_ideal_counts_multiplicative(K3):
    coeffs = ideal_count_coefficients(K3, 400)
    rng = random.Random(17)
    for _ in range(200):
        m = rng.randint(1, 20)
        n = rng.randint(1, 20)
        if math.gcd(m, n) == 1:
            assert coeffs[m * n] == coeffs[m] * coeffs[n]


# ----------------------------------------------------------------------
# Class number
# ----------------------------------------------------------------------

def is_principal(f, ideal) -> bool:
    """Oracle: the ideal contains an element of norm equal to its norm."""
    target = ideal.norm
    return any(norm(f, x) == target for x in enumerate_norm_le(f, ideal, target))


def class_number_minkowski(f) -> int:
    """Oracle: every ideal class contains an ideal of norm <= (2/pi)sqrt(D);
    enumerate those ideals and merge classes via I ~ J iff I*conj(J) is
    principal (conj(J) represents the inverse class)."""
    bound = max(1, math.floor(2.0 * math.sqrt(f.D) / math.pi))
    ideals = []
    for n in range(1, bound + 1):
        g = 1
        while g * g <= n:
            if n % (g * g) == 0:
                a = n // (g * g)
                for b in range(a):
                    if minpoly_value(f, b) % a == 0:
                        # the primitive ideal is (a, omega - b), scaled by g
                        gen1 = RingElement(g * a, 0)
                        gen2 = RingElement(-g * b, g)
                        ideal = hnf_from_generators(f, [gen1, gen2])
                        assert ideal.norm == n
                        ideals.append(ideal)
            g += 1
    reps = []
    for ideal in ideals:
        if not any(
            is_principal(f, ideal_mul(f, ideal, ideal_conj(f, r))) for r in reps
        ):
            reps.append(ideal)
    return len(reps)


def test_class_number_examples(Q, K1, K5):
    assert class_number(K1) == 1
    assert class_number(K5) == 2
    assert class_number(make_field(23)) == 3
    assert class_number(Q) == 1


def test_class_number_matches_minkowski_search():
    for d in range(1, 101):
        if not is_squarefree(d):
            continue
        f = make_field(d)
        assert class_number(f) == class_number_minkowski(f), d


def test_class_number_lazy_and_thread_safe():
    f = make_field(71)
    results = []
    threads = [
        threading.Thread(target=lambda: results.append(class_number(f)))
        for _ in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1 and len(results) == 8


# ----------------------------------------------------------------------
# Residue
# ----------------------------------------------------------------------

def test_residue_examples(Q, K1, K5):
    assert residue_K(Q) == 1.0
    assert abs(residue_K(K1) - math.pi / 4) < 1e-12
    # h=2, w=2, D=20
    assert abs(residue_K(K5) - 2 * math.pi * 2 / (2 * math.sqrt(20))) < 1e-12
    assert abs(residue_K(K5) - 1.4049629462) < 1e-9


def test_splitting_type_examples(Q, K1, K3):
    def kind(f, p):
        return int(_splitting_kinds(f, np.array([p], dtype=np.int64))[0])

    assert kind(K1, 2) == 0  # ramified
    assert kind(K1, 5) == 1  # split
    assert kind(K1, 3) == -1  # inert
    assert kind(K3, 3) == 0
    assert kind(K3, 2) == -1  # d = 3 mod 8
    assert kind(make_field(7), 2) == 1  # d = 7 mod 8
    primes = np.array(primes_up_to(1000), dtype=np.int64)
    assert not _splitting_kinds(Q, primes).any()  # one prime of norm p over every p


# the 20 fields pinned by test_counting.py::test_mobius_equals_brute_every_class_number
PINNED_FIELDS = (1, 2, 3, 7, 11, 19, 43, 5, 6, 10, 13, 15, 22, 23, 14, 17, 21, 47, 79, 26)


def test_vectorised_splitting_kinds_match_kronecker_character(monkeypatch):
    """The fill's splitting kinds, by Euler's criterion, are chi(p) by the
    Kronecker symbol (reciprocity), prime by prime, and they never reach
    kronecker_character themselves."""
    primes = primes_up_to(20_000)
    fields = [make_field(d) for d in PINNED_FIELDS]
    expected = [[kronecker_character(f, p) for p in primes] for f in fields]

    def forbidden(*args, **kwargs):
        raise AssertionError("the splitting kinds reached kronecker_character")

    monkeypatch.setattr(field_module, "kronecker_character", forbidden)
    monkeypatch.setattr(field_module, "_kronecker", forbidden)
    for f, want in zip(fields, expected):
        assert _splitting_kinds(f, np.array(primes, dtype=np.int64)).tolist() == want, f
