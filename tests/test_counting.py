"""Counting functions: brute force vs the Moebius route vs the totient sieve,
the lemma quantities S and T, the asymptotic main term, the growth exponent.

The strongest oracle here is a raw pair scan that never looks at
coprimality: over a class-number-1 field, phi(x) equals the number of
DISTINCT fraction values p/q mod O over all pairs with 0 < N(q) <= x, so
counting distinct exact coordinates (as Fractions mod 1) checks the whole
denominator/totient pipeline at once.
"""

import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from horocount import ideals
from horocount.arith import _norm_bound, totient_sieve
from horocount.cli import _cmd_depths, build_config
from horocount.counting import (
    METHODS,
    CountSample,
    S_count,
    T_sum,
    exponent_estimate,
    phi,
    phi_asymptotic,
    phi_at,
    phi_bruteforce,
    phi_mobius,
    phi_profile,
    resolve_method,
    totient_summatory,
    unit_orbit_reps,
)
from horocount.field import (
    RingElement,
    UnsupportedFieldError,
    conj,
    ideal_count_coefficients,
    make_field,
    mul,
    norm,
    residue_K,
    zeta_K_2,
)
from horocount.ideals import (
    count_and_sum_norms,
    enumerate_norm_le,
    norm_histogram,
    prime_ideals_above,
    principal_ideal,
    unit_ideal,
)


def phi_pairscan(f, x):
    """Distinct values of p/q mod O over ALL pairs with 0 < N(q) <= x.

    Valid as a phi oracle only when every ideal is principal (h = 1): then
    each fraction value admits a coprime representation with the minimal
    denominator.  No coprimality or unit logic is used at all.
    """
    assert f.is_rational or f.h == 1
    seen = set()
    if f.is_rational:
        for q in range(1, int(x) + 1):
            for p in range(q):
                seen.add(Fraction(p, q) % 1)
        return len(seen)
    span = int(math.isqrt(4 * int(x))) + 2
    for qa in range(-span, span + 1):
        for qb in range(-span, span + 1):
            q = RingElement(qa, qb)
            n = norm(f, q)
            if n == 0 or n > x:
                continue
            qc = conj(f, q)
            for pa in range(n + 1):
                for pb in range(n + 1):
                    num = mul(f, RingElement(pa, pb), qc)
                    seen.add((Fraction(num.a, n) % 1, Fraction(num.b, n) % 1))
    return len(seen)


# ----------------------------------------------------------------------
# phi values
# ----------------------------------------------------------------------

def test_phi_examples(Q, K1):
    assert phi_bruteforce(Q, 5) == 10  # 1+1+2+2+4
    assert phi_bruteforce(K1, 1) == 1
    assert phi_bruteforce(K1, 2) == 2


def test_phi_matches_pairscan_live(Q, K1, K3):
    for x in (1, 2, 4, 5, 8):
        assert phi_bruteforce(K1, x) == phi_pairscan(K1, x), x
    for x in (1, 3, 4, 7):
        assert phi_bruteforce(K3, x) == phi_pairscan(K3, x), x
    for x in (1, 2, 7, 20):
        assert phi_bruteforce(Q, x) == phi_pairscan(Q, x), x


def test_phi_frozen_pairscan_values(K1, K3):
    # frozen from the same pair scan run at larger cutoffs
    assert [phi_bruteforce(K1, x) for x in (4, 5, 8, 10)] == [4, 12, 16, 32]
    assert [phi_bruteforce(K3, x) for x in (3, 4, 7)] == [3, 6, 18]


def test_phi_small_x_warns(Q, K1):
    for f in (Q, K1):
        with pytest.warns(RuntimeWarning):
            assert phi_bruteforce(f, 0.5) == 0
        with pytest.warns(RuntimeWarning):
            assert phi_mobius(f, 0.25) == 0


@pytest.mark.parametrize("d", ["rational", 1, 5])
def test_phi_reads_a_cutoff_below_1_by_its_norm_bound(d, recwarn):
    """One ulp below 1 has the norm bound 1, so phi counts N(q) = 1 as phi_at
    does, with no warning; a bound below 1, -inf included, warns and reads 0;
    NaN has no bound."""
    f = make_field(d)
    x = math.nextafter(1, 0)
    assert phi(f, x) == phi_at(f, [x])[0] == phi(f, 1) > 0
    assert not recwarn.list
    for x in (math.nextafter(1, 0) - 1e-9, 0.0, -3.0, -math.inf):
        with pytest.warns(RuntimeWarning):
            assert phi(f, x) == 0
    with pytest.raises(ValueError):
        phi(f, math.nan)


def test_phi_floors_real_cutoffs(K1):
    assert phi_bruteforce(K1, 5.9) == phi_bruteforce(K1, 5)


# ----------------------------------------------------------------------
# Cross-method exactness
# ----------------------------------------------------------------------

def test_cross_method_profiles(small_fields):
    for f in small_fields:
        brute = phi_profile(f, 500, method="brute")
        mob = phi_profile(f, 500, method="mobius")
        assert brute == mob, f


def test_cross_method_rational(Q):
    brute = phi_profile(Q, 2000, method="brute")
    mob = phi_profile(Q, 2000, method="mobius")
    sieve = phi_profile(Q, 2000, method="sieve")
    assert brute == mob == sieve


def test_phi_mobius_pointwise(K1, K3):
    for f, x in ((K1, 100), (K1, 317), (K3, 50), (K3, 211)):
        assert phi_mobius(f, x) == phi_bruteforce(f, x)


def test_phi_mobius_matches_brute_h_gt_1(K5):
    for x in (1, 2, 50, 317):
        assert phi_mobius(K5, x) == phi_bruteforce(K5, x), x
    assert phi_profile(K5, 50, method="mobius") == phi_profile(K5, 50, method="brute")


# pinned before any result was seen: h = 1 | 2 | 3 | 4 | 5 | 6
CLASS_NUMBER_FIELDS = {
    1: 1, 2: 1, 3: 1, 7: 1, 11: 1, 19: 1, 43: 1,
    5: 2, 6: 2, 10: 2, 13: 2, 15: 2, 22: 2,
    23: 3,
    14: 4, 17: 4, 21: 4,
    47: 5, 79: 5,
    26: 6,
}


@pytest.mark.parametrize("d", sorted(CLASS_NUMBER_FIELDS))
def test_mobius_equals_brute_every_class_number(d):
    f = make_field(d)
    assert f.h == CLASS_NUMBER_FIELDS[d]
    brute = phi_profile(f, 400, method="brute")
    assert phi_profile(f, 400, method="mobius") == brute
    if f.h == 1:
        assert phi_profile(f, 400, method="sieve") == brute
    else:
        with pytest.raises(UnsupportedFieldError):
            phi_profile(f, 400, method="sieve")


# the prime, factorization, sieve and fill helpers of the other two routes
FAST_PATH_HELPERS = (
    "factor_ideal",
    "prime_ideals_above",
    "squarefree_ideals",
    "_splitting_kinds",
    "_multiplicative_fill",
    "multiplicative_fill",
    "factorize",
    "smallest_prime_factors",
    "primes_up_to",
)


@pytest.mark.parametrize("d", ["rational", 1, 5, 23])
def test_brute_oracle_shares_nothing_with_the_fast_path(d, monkeypatch):
    """With every prime, factorization, sieve and fill helper raising, in
    every horocount module that binds one, the brute profile still runs and
    still equals the profile of the route auto picks, computed before."""
    f = make_field(d)
    expected = phi_profile(f, 300, "auto")

    def forbidden(*args, **kwargs):
        raise AssertionError("the brute oracle reached a fast-path helper")

    patched = set()
    for name, module in list(sys.modules.items()):
        if name == "horocount" or name.startswith("horocount."):
            for helper in FAST_PATH_HELPERS:
                if hasattr(module, helper):
                    monkeypatch.setattr(module, helper, forbidden)
                    patched.add(helper)
    assert patched == set(FAST_PATH_HELPERS)  # a renamed helper keeps no stale guard
    with pytest.raises(AssertionError, match="fast-path helper"):
        phi_profile(f, 300, "auto")  # the patches reach the other route
    assert phi_profile(f, 300, "brute") == expected


@pytest.mark.parametrize("d", ["rational", 1, 5, 23])
def test_mobius_route_multiplies_no_ideal_objects(d, monkeypatch):
    """The squarefree ideals come as CRT arrays: with ideal_mul and
    prime_ideals_above raising, the Moebius profile still runs and equals
    brute; the builder makes no prime lattice."""
    f = make_field(d)
    expected = phi_profile(f, 400, "brute")

    def forbidden(*args, **kwargs):
        raise AssertionError("the Moebius route built an ideal object")

    monkeypatch.setattr(ideals, "ideal_mul", forbidden)
    monkeypatch.setattr(ideals, "prime_ideals_above", forbidden)
    assert phi_profile(f, 400, "mobius") == expected


def test_phi_dispatcher(Q, K1, K5):
    assert [resolve_method(f) for f in (Q, K1, K5)] == ["sieve", "sieve", "mobius"]
    assert phi(Q, 300) == phi_bruteforce(Q, 300)
    assert phi(K1, 300) == phi_bruteforce(K1, 300)
    assert phi(K5, 300) == phi_bruteforce(K5, 300)
    assert phi(K1, 300) == phi_profile(K1, 300, method="brute")[-1]
    with pytest.raises(UnsupportedFieldError):
        phi(K5, 300, method="sieve")
    with pytest.raises(ValueError):
        phi_profile(Q, 300, method="bogus")


def test_phi_profile_entries_are_python_ints(Q, K1):
    # numpy integers leak into json.dumps as a TypeError
    cases = [(f, m) for f in (Q, K1) for m in METHODS]
    for f, method in cases:
        prof = phi_profile(f, 30, method=method)
        assert len(prof) == 31 and all(type(v) is int for v in prof), (f, method)


def test_phi_builds_no_profile(Q, traced_peak_mb):
    # the (x + 1)-entry list of Python ints traced 48 MB at x = 10^6
    out = []
    assert traced_peak_mb(lambda: out.append(phi(Q, 10**6))) < 15
    assert type(out[0]) is int and out[0] == 303963552392  # sum of totients to 10^6


def test_both_fast_routes_reach_the_known_totient_sums(Q):
    # sum of the totients to 10^6 and to 10^7 (OEIS A064018)
    assert phi_at(Q, [10**6], "mobius") == [303963552392]
    assert phi_at(Q, [10**7], "sieve") == [30396356427242]


def test_depths_reads_phi_at_its_cutoffs_in_bounded_memory(traced_peak_mb):
    # N(q) <= e^13.85, about 10^6: the profile list alone traced 48 MB
    config = build_config(["depths", "--field", "rational", "--cutoffs", "27.7"])
    out = []
    assert traced_peak_mb(lambda: out.append(_cmd_depths(config))) < 20
    rows, _ = out[0]
    assert rows[0]["value"] == phi(config.field, math.exp(27.7 / 2))


@pytest.mark.parametrize("d", ["rational", 1, 3, 5, 23])
def test_phi_at_reads_the_profile_at_each_bound(d):
    f = make_field(d)
    cutoffs = [0, 0.5, 1, 37.5, math.nextafter(50, 0), 20, 20.9, 60, 7, -3.0, 3]
    for method in METHODS if f.h == 1 else ("brute", "mobius"):
        prof = phi_profile(f, 60, method)
        expected = [prof[max(_norm_bound(x), 0)] for x in cutoffs]
        values = phi_at(f, cutoffs, method)
        assert values == expected and all(type(v) is int for v in values), method
        assert phi_at(f, [-3.0, 0], method) == [0, 0]  # a bound below 1 never wraps
        assert phi_at(f, [], method) == []
    for x in (1, 2.5, 30, math.nextafter(41, 0)):
        assert phi(f, x) == phi_at(f, [x])[0]


@pytest.mark.parametrize("d", ["rational", 1, 5])
def test_kernel_outputs_are_python_ints(d):
    f = make_field(d)
    reps = unit_orbit_reps(f, 60)
    points = list(enumerate_norm_le(f, principal_ideal(f, RingElement(2, 0 if f.is_rational else 1)), 60))
    assert reps and points
    assert all(type(c) is int for q in reps + points for c in (q.a, q.b))
    for method in METHODS if f.h == 1 else ("brute", "mobius"):
        assert all(type(v) is int for v in phi_profile(f, 60, method)), method


@pytest.mark.parametrize("d", ["rational", 1, 3, 5, 23])
def test_block_boundaries_change_nothing(d, monkeypatch):
    """Blocks of 1, 7 and 64 points cut rows and runs of ideals everywhere:
    every kernel that reads the row expander must give its default result.
    Sum blocks of 128 (numpy's pairwise base case), 136 and 1000 terms cut
    zeta's series and both Poincare series into other bands: each sum must
    keep its bits."""
    from horocount import field, geodesics, ideals

    f = make_field(d)
    prime = prime_ideals_above(f, 3)[0]

    def outputs():
        return (
            [norm_histogram(f, L, 400).tolist() for L in (unit_ideal(f), prime)],
            [count_and_sum_norms(f, L, 400) for L in (unit_ideal(f), prime)],
            [list(enumerate_norm_le(f, L, 150)) for L in (unit_ideal(f), prime)],
            unit_orbit_reps(f, 400),
            phi_profile(f, 400, "mobius"),
            [ps.value.hex() for ps in geodesics.relative_poincare_partials(f, 1.7, [50, 150, 400])],
            [ps.value.hex() for ps in geodesics.parabolic_poincare_partials(f, 1.7, [5, 12, 20])],
        )

    def sums():
        return (
            field.zeta_K_2.__wrapped__(f, 1e-8).hex(),  # uncached
            [ps.value.hex() for ps in geodesics.relative_poincare_partials(f, 1.7, [50, 900, 4000])],
            [ps.value.hex() for ps in geodesics.parabolic_poincare_partials(f, 1.7, [9, 30, 70])],
        )

    default, default_sums = outputs(), sums()
    assert default[4] == phi_profile(f, 400, "brute")
    for block in (1, 7, 64):
        monkeypatch.setattr(ideals, "_HISTOGRAM_BLOCK", block)
        assert outputs() == default, block
    monkeypatch.undo()
    for block in (128, 136, 1000):
        monkeypatch.setattr(field, "_SUM_BLOCK", block)
        assert sums() == default_sums, block


# ----------------------------------------------------------------------
# Monotonicity and increments
# ----------------------------------------------------------------------

def test_phi_profile_monotone(K1, K5, Q):
    for f in (K1, K5, Q):
        prof = phi_profile(f, 300, method="brute")
        assert all(a <= b for a, b in zip(prof, prof[1:]))


def test_increments_only_at_realized_norms(K1, K3):
    for f in (K1, K3):
        prof = phi_profile(f, 300, method="brute")
        inc = np.diff(np.asarray(prof))
        realized = norm_histogram(f, unit_ideal(f), 300) > 0
        for n in range(1, 300):
            if inc[n - 1] > 0:
                assert realized[n], (f, n)


def test_unit_orbit_reps_match_ideal_counts(small_fields):
    # with h = 1, principal ideals are all ideals: representatives per norm
    # must reproduce the zeta coefficients
    for f in small_fields:
        reps = unit_orbit_reps(f, 300)
        by_norm = {}
        for q in reps:
            by_norm[norm(f, q)] = by_norm.get(norm(f, q), 0) + 1
        coeffs = ideal_count_coefficients(f, 300)
        for n in range(1, 301):
            assert by_norm.get(n, 0) == coeffs[n], (f, n)


def test_rational_identity_small(Q):
    # phi_bruteforce == totient summatory for every x <= 2000 (the full
    # 10^4 run is in the acceptance suite)
    prof = phi_profile(Q, 2000, method="brute")
    sieve = np.cumsum(totient_sieve(2000))
    assert prof == [int(v) for v in sieve]


# ----------------------------------------------------------------------
# S and T
# ----------------------------------------------------------------------

def test_S_T_examples(Q, K1):
    O_q = unit_ideal(Q)
    assert S_count(Q, O_q, 3) == 3
    assert T_sum(Q, O_q, 3) == 6
    O_1 = unit_ideal(K1)
    assert S_count(K1, O_1, 2) == 2
    assert T_sum(K1, O_1, 2) == 3


def test_fubini_identity(K1, K3):
    for f in (K1, K3):
        lattice = unit_ideal(f)
        x = 50
        lhs = T_sum(f, lattice, x)
        rhs = sum(S_count(f, lattice, x) - S_count(f, lattice, t - 1) for t in range(1, x + 1))
        assert lhs == rhs


def test_S_in_sublattice(K1):
    # S for the ramified prime above 2: principal ideals (q) with (1+i) | q
    p2 = prime_ideals_above(K1, 2)[0]
    assert S_count(K1, p2, 2) == 1  # just (1+i)
    assert S_count(K1, p2, 4) == 2  # (1+i) and (2)


# ----------------------------------------------------------------------
# Asymptotics
# ----------------------------------------------------------------------

def test_phi_asymptotic_rational(Q):
    # Res = 1, h = 1, zeta(2) = pi^2/6 collapse to (3/pi^2) x^2
    for x in (10.0, 1234.5):
        assert abs(phi_asymptotic(Q, x) - 3.0 / math.pi**2 * x * x) < 1e-6 * x * x


def test_phi_asymptotic_gaussian_frozen(K1):
    # constant 3/(4 pi G) = 0.2606346965 from the zeta pipeline
    assert abs(phi_asymptotic(K1, 100.0) - 2606.3469649) < 1e-3


def test_phi_asymptotic_h_cancellation(K5):
    # general form with h=2 vs the closed form without h
    x = 137.0
    general = phi_asymptotic(K5, x)
    closed = math.pi * x * x / (K5.w * zeta_K_2(K5, 1e-10) * math.sqrt(K5.D))
    assert abs(general - closed) <= 1e-10 * closed


def test_residue_enters_linearly(K1):
    assert phi_asymptotic(K1, 200.0) == pytest.approx(4 * phi_asymptotic(K1, 100.0))


# ----------------------------------------------------------------------
# Exponent estimate
# ----------------------------------------------------------------------

def test_exponent_synthetic_square(Q):
    samples = [CountSample(x, x * x, "brute", Q) for x in (10, 20, 40, 80)]
    assert exponent_estimate(samples) == pytest.approx(2.0, abs=1e-9)


def test_exponent_rejects_degenerate(Q):
    good = [CountSample(x, x * x, "brute", Q) for x in (10, 20, 40)]
    with pytest.raises(ValueError):
        exponent_estimate(good[:2])
    with pytest.raises(ValueError):
        exponent_estimate([good[0], good[0], good[1]])
    with pytest.raises(ValueError):
        exponent_estimate(
            [CountSample(10, 0, "brute", Q), CountSample(20, 1, "brute", Q), CountSample(40, 2, "brute", Q)]
        )


def test_exponent_gaussian_medium(K1):
    prof = phi_profile(K1, 800, method="mobius")
    samples = [CountSample(x, prof[x], "mobius", K1) for x in (100, 200, 400, 800)]
    assert 1.85 <= exponent_estimate(samples) <= 2.15


def test_totient_summatory():
    sieve = totient_sieve(300)
    assert totient_summatory(300) == sum(sieve[1:])
    assert totient_summatory(0) == 0
    assert totient_summatory(1) == 1
