"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is pinned here, not computed at run time; the
runtime ceilings from the criteria are asserted via a monotonic clock.
"""

import math
import time

import numpy as np

from horocount.arith import totient_sieve
from horocount.counting import (
    CountSample,
    S_count,
    T_sum,
    exponent_estimate,
    phi_asymptotic,
    phi_bruteforce,
    phi_profile,
    totient_summatory,
)
from horocount.field import (
    class_number,
    make_field,
    residue_K,
    zeta_K_2,
    zeta_K_2_via_ideal_counts,
)
from horocount.geodesics import (
    canonical_balls,
    check_disjoint,
    convergence_verdict,
    growth_rate,
    parabolic_poincare_partial,
    relative_poincare_partial,
)
from horocount.ideals import (
    mobius_reciprocal_partial,
    prime_ideals_above,
    unit_ideal,
)

Q = make_field("rational")
K1 = make_field(1)
K3 = make_field(3)
K5 = make_field(5)


def report(num: int, ok: bool, label: str, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num:>2}  {label}  {detail}")
    assert ok, f"criterion {num}: {label} {detail}"


def test_criterion_01_rational_exact_identity():
    t0 = time.monotonic()
    prof = phi_profile(Q, 10_000, method="brute")
    sieve = np.cumsum(totient_sieve(10_000))
    equal = prof == [int(v) for v in sieve]
    elapsed = time.monotonic() - t0
    report(
        1,
        equal and elapsed < 10.0,
        "phi_bruteforce(x) = sum of Euler totients for every x <= 10^4",
        f"(exact match: {equal}, {elapsed:.1f}s < 10s)",
    )


def test_criterion_02_rational_leading_constant():
    t0 = time.monotonic()
    value = totient_summatory(100_000)
    ratio = value / 100_000.0**2
    target = 3.0 / math.pi**2
    rel = abs(ratio / target - 1.0)
    elapsed = time.monotonic() - t0
    report(
        2,
        rel < 0.02 and elapsed < 10.0,
        "phi_Z(10^5)/10^10 within 2% of 3/pi^2",
        f"(ratio {ratio:.6f} vs {target:.6f}, off by {100*rel:.3f}%, {elapsed:.1f}s)",
    )


def test_criterion_03_cross_method_exactness():
    t0 = time.monotonic()
    mismatched = []
    for d in (1, 2, 3, 7, 11):
        f = make_field(d)
        if phi_profile(f, 500, method="brute") != phi_profile(f, 500, method="mobius"):
            mismatched.append(d)
    elapsed = time.monotonic() - t0
    report(
        3,
        not mismatched and elapsed < 60.0,
        "phi_mobius = phi_bruteforce for all x <= 500, d in {1,2,3,7,11}",
        f"(mismatches: {mismatched or 'none'}, {elapsed:.1f}s < 60s)",
    )


def test_criterion_04_gaussian_leading_constant():
    t0 = time.monotonic()
    value = phi_bruteforce(K1, 2000)
    ratio = value / 2000.0**2
    target = math.pi / (K1.w * zeta_K_2(K1, 1e-10) * math.sqrt(K1.D))
    rel = abs(ratio / target - 1.0)
    elapsed = time.monotonic() - t0
    report(
        4,
        rel < 0.05 and elapsed < 120.0,
        "d=1: phi(2000)/2000^2 within 5% of pi/(w zeta_K(2) sqrt(D))",
        f"(ratio {ratio:.6f} vs {target:.6f}, off by {100*rel:.3f}%, {elapsed:.1f}s)",
    )


def test_criterion_05_h_cancellation_d5():
    value = phi_bruteforce(K5, 2000)
    ratio = value / 2000.0**2
    closed = math.pi / (K5.w * zeta_K_2(K5, 1e-10) * math.sqrt(K5.D))
    general = residue_K(K5) / (2.0 * class_number(K5) * zeta_K_2(K5, 1e-10))
    rel = abs(ratio / closed - 1.0)
    forms_agree = abs(general - closed) <= 1e-10 * closed
    report(
        5,
        rel < 0.05 and forms_agree,
        "d=5 (h=2): brute phi(2000)/2000^2 within 5% of the closed form; "
        "general form matches to 1e-10",
        f"(ratio off by {100*rel:.3f}%, |general-closed| = {abs(general-closed):.2e})",
    )


def test_criterion_06_lemma_S():
    x = 10_000
    res = residue_K(K1)
    checks = []
    for lattice in (unit_ideal(K1), prime_ideals_above(K1, 2)[0]):
        s_val = S_count(K1, lattice, x)
        scaled = s_val * class_number(K1) * lattice.norm / (res * x)
        checks.append((lattice.norm, scaled, 0.95 <= scaled <= 1.05))
    report(
        6,
        all(ok for _, _, ok in checks),
        "d=1: S(10^4) h N(I)/(Res x) in [0.95, 1.05] for I = O and the ramified prime",
        f"(ratios: {[(n, round(v, 4)) for n, v, _ in checks]})",
    )


def test_criterion_07_lemma_T_fubini():
    ok = True
    for f in (K1, K3):
        lattice = unit_ideal(f)
        x = 100
        lhs = T_sum(f, lattice, x)
        rhs = sum(
            S_count(f, lattice, x) - S_count(f, lattice, t - 1) for t in range(1, x + 1)
        )
        ok = ok and lhs == rhs
    report(7, ok, "T(x) = sum_t (S(x) - S(t-1)) exactly at x=100 for d in {1,3}")


def test_criterion_08_corollary_exponent():
    prof = phi_profile(K1, 2000, method="brute")
    samples1 = [CountSample(x, prof[x], "brute", K1) for x in (250, 500, 1000, 2000)]
    slope1 = exponent_estimate(samples1)
    samples_q = [
        CountSample(x, totient_summatory(x), "sieve", Q) for x in (10**3, 10**4, 10**5)
    ]
    slope_q = exponent_estimate(samples_q)
    report(
        8,
        1.9 <= slope1 <= 2.1 and 1.95 <= slope_q <= 2.05,
        "log phi / log x slope: d=1 in [1.9, 2.1], rational in [1.95, 2.05]",
        f"(d=1: {slope1:.4f}, rational: {slope_q:.4f})",
    )


def test_criterion_09_growth_rate():
    slope1 = growth_rate(K1, [math.log(x) for x in (100, 250, 500, 1000, 2000)])
    slope_q = growth_rate(Q, [2 * math.log(x) for x in (100, 316, 1000, 3162, 10000)])
    report(
        9,
        abs(slope1 - 2.0) <= 0.1 and abs(slope_q - 1.0) <= 0.05,
        "growth rate of N_e: delta = 2 +- 0.1 (d=1), 1 +- 0.05 (rational)",
        f"(d=1: {slope1:.4f}, rational: {slope_q:.4f})",
    )


def test_criterion_10_horoball_packing():
    rep_q = check_disjoint(canonical_balls(Q, 50))
    rep_1 = check_disjoint(canonical_balls(K1, 30))
    ok = (
        not rep_q.overlaps
        and not rep_q.unimodular_mismatches
        and not rep_1.overlaps
        and not rep_1.unimodular_mismatches
    )
    report(
        10,
        ok,
        "packing: zero overlaps, tangency iff unimodularity "
        "(rational N(q)<=50, d=1 N(q)<=30)",
        f"(tangencies: rational {len(rep_q.tangencies)}, d=1 {len(rep_1.tangencies)})",
    )


def test_criterion_11_zeta_cross_validation():
    worst_gap = 0.0
    worst_recip = 0.0
    for d in (1, 2, 3, 5, 7, 11):
        f = make_field(d)
        gap = abs(zeta_K_2(f, 1e-10) - zeta_K_2_via_ideal_counts(f, 200_000))
        recip = abs(mobius_reciprocal_partial(f, 10_000) - 1.0 / zeta_K_2(f, 1e-10))
        worst_gap = max(worst_gap, gap)
        worst_recip = max(worst_recip, recip)
    report(
        11,
        worst_gap <= 1e-8 and worst_recip <= 1e-3,
        "zeta pipelines agree to 1e-8; Moebius reciprocal within 1e-3 of 1/zeta",
        f"(worst gap {worst_gap:.2e}, worst reciprocal error {worst_recip:.2e})",
    )


def test_criterion_12_poincare_series_behavior():
    rel_cuts = (500, 1000, 2000)
    conv = convergence_verdict(
        K1, [relative_poincare_partial(K1, 2.5, c) for c in rel_cuts]
    )
    div = convergence_verdict(
        K1, [relative_poincare_partial(K1, 1.5, c) for c in rel_cuts]
    )
    par_cuts = (125, 250, 500)
    par_hi = convergence_verdict(
        K1, [parabolic_poincare_partial(K1, 1.5, c) for c in par_cuts]
    )
    par_lo = convergence_verdict(
        K1, [parabolic_poincare_partial(K1, 0.8, c) for c in par_cuts]
    )
    ok = (
        conv.verdict == "converges"
        and div.verdict == "diverges"
        and par_hi.verdict == "converges"
        and par_lo.verdict == "diverges"
    )
    report(
        12,
        ok,
        "d=1: relative converges at s=2.5, diverges at s=1.5; parabolic "
        "threshold bracketed in (0.8, 1.5)",
        f"(relative: {conv.verdict}/{div.verdict}, parabolic: {par_hi.verdict}/{par_lo.verdict})",
    )
