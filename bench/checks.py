"""Independent checks of horocount outputs.

Everything here is computed apart from the program: plain integers, a
smallest-prime-factor table of our own, sympy for quadratic residuosity, and
numpy only to add up float series terms.  Nothing imports horocount.

phi(x) is the number of fraction classes p/q mod O with 0 < N(q) <= x.  Over
every field, class number > 1 included,

    phi(x) = (1/w) * sum over nonzero q in O with N(q) <= x of Phi(q),
    Phi(q) = N(q) * prod over prime ideals P | (q) of (1 - 1/N(P)),

where the primes above p follow from the Legendre symbol of -D mod p: an inert
p gives one prime of norm p^2, a ramified p one prime of norm p, and a split p
two primes of norm p, both of which divide (q) exactly when p divides q in O.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from sympy.ntheory import is_quad_residue

SERIES_RTOL = 1e-9
DEPTH_RTOL = 1e-12


class Ring:
    """Z (d is None) or the ring of integers of Q(sqrt(-d)), basis (1, omega)."""

    def __init__(self, d: int | None):
        self.d = d
        self.rational = d is None
        self.half = d is not None and d % 4 == 3  # omega = (1 + sqrt(-d)) / 2
        self.m = (d + 1) // 4 if self.half else 0
        self.D = 1 if d is None else (d if self.half else 4 * d)
        self.w = 2 if d is None else 4 if d == 1 else 6 if d == 3 else 2
        self._splitting: dict[int, str] = {}

    def norm(self, a: int, b: int) -> int:
        if self.rational:
            return abs(a)
        if self.half:
            return a * a + a * b + self.m * b * b
        return a * a + self.d * b * b

    def abs_sq(self, a, b):
        """|a + b*omega|^2: the norm over Q(sqrt(-d)), a^2 over Q; works on arrays."""
        return a * a if self.rational else self.norm(a, b)

    def mul(self, x, y):
        """Product of (a, b) pairs; works elementwise on numpy arrays."""
        (a1, b1), (a2, b2) = x, y
        if self.half:
            return a1 * a2 - self.m * b1 * b2, a1 * b2 + b1 * a2 + b1 * b2
        return a1 * a2 - (self.d or 0) * b1 * b2, a1 * b2 + b1 * a2

    def omega_times(self, a: int, b: int) -> tuple[int, int]:
        return self.mul((a, b), (0, 1))

    def splitting(self, p: int) -> str:
        kind = self._splitting.get(p)
        if kind is None:
            if self.D % p == 0:
                kind = "ramified"
            elif p == 2:  # D odd here, so d = 3 mod 4
                kind = "split" if self.d % 8 == 7 else "inert"
            else:
                kind = "split" if is_quad_residue(-self.D % p, p) else "inert"
            self._splitting[p] = kind
        return kind

    def elements(self, bound: int):
        """Every nonzero (a, b) with N(a + b*omega) <= bound."""
        if self.rational:
            for a in range(1, bound + 1):
                yield a, 0
                yield -a, 0
            return
        d = self.d
        bmax = math.isqrt(4 * bound // d) if self.half else math.isqrt(bound // d)
        for b in range(-bmax, bmax + 1):
            if self.half:  # (2a + b)^2 + d b^2 <= 4 bound
                t = math.isqrt(4 * bound - d * b * b)
                lo, hi = -((t + b) // 2), (t - b) // 2
            else:
                t = math.isqrt(bound - d * b * b)
                lo, hi = -t, t
            for a in range(lo, hi + 1):
                if a or b:
                    yield a, b

    def center(self, p, q) -> tuple[Fraction, Fraction]:
        """p/q as (real part, imaginary part / sqrt(d)), exactly."""
        if self.rational:
            return Fraction(p[0], q[0]), Fraction(0)
        pr, py = self._coords(p)
        qr, qy = self._coords(q)
        den = qr * qr + self.d * qy * qy
        return (pr * qr + self.d * py * qy) / den, (py * qr - pr * qy) / den

    def _coords(self, x) -> tuple[Fraction, Fraction]:
        a, b = x
        if self.half:  # a + b(1 + sqrt(-d))/2
            return Fraction(2 * a + b, 2), Fraction(b, 2)
        return Fraction(a), Fraction(b)

    def class_key(self, center) -> tuple[Fraction, Fraction]:
        """The class of a point of K modulo O: its omega-coordinates mod 1."""
        re, y = center
        alpha, beta = (re - y, 2 * y) if self.half else (re, y)
        return alpha - math.floor(alpha), beta - math.floor(beta)

    def coprime(self, p, q) -> bool:
        """(p, q) = O: the Z-span of p, p*omega, q, q*omega has index 1."""
        if self.rational:
            return math.gcd(p[0], q[0]) == 1
        vecs = [tuple(p), self.omega_times(*p), tuple(q), self.omega_times(*q)]
        g = 0
        for i in range(4):
            for j in range(i + 1, 4):
                g = math.gcd(g, vecs[i][0] * vecs[j][1] - vecs[i][1] * vecs[j][0])
        return g == 1


def ring_of(field: str | int) -> Ring:
    return Ring(None if field == "rational" else int(field))


def snap_to_int(x: float) -> int:
    """floor(x), except within 1e-9 (relative) of an integer, which it returns."""
    nearest = round(x)
    if abs(x - nearest) <= 1e-9 * max(1.0, abs(nearest)):
        return int(nearest)
    return math.floor(x)


def depth_cutoff(ring: Ring, t: float) -> int:
    """The norm cutoff of depth t: N(q) <= e^(t/2) over Q, e^t otherwise."""
    return snap_to_int(math.exp(t / 2 if ring.rational else t))


class Reference:
    """Exact reference values, computed once per field and cached."""

    def __init__(self):
        self._spf: list[int] = [0, 1]
        self._weights: dict[tuple, list[int]] = {}
        self._histograms: dict[tuple, np.ndarray] = {}

    def _prime_divisors(self, n: int) -> list[int]:
        if n >= len(self._spf):
            size = max(n + 1, 2 * len(self._spf))
            spf = list(range(size))
            for p in range(2, math.isqrt(size - 1) + 1):
                if spf[p] == p:
                    for k in range(p * p, size, p):
                        if spf[k] == k:
                            spf[k] = p
            self._spf = spf
        out = []
        while n > 1:
            p = self._spf[n]
            out.append(p)
            while n % p == 0:
                n //= p
        return out

    def totient(self, ring: Ring, a: int, b: int) -> int:
        """Phi(a + b*omega), the number of residues mod (q) prime to q."""
        n = ring.norm(a, b)
        t = n
        for p in self._prime_divisors(n):
            kind = "rational" if ring.rational else ring.splitting(p)
            if kind == "inert":
                t = t // (p * p) * (p * p - 1)
            elif kind == "split" and a % p == 0 and b % p == 0:
                t = t // (p * p) * (p - 1) ** 2
            else:
                t = t // p * (p - 1)
        return t

    def weights(self, ring: Ring, bound: int) -> list[int]:
        """W[n] = sum of Phi(q) over classes of q up to units with N(q) = n."""
        key = (ring.d, bound)
        for (d, b), w in self._weights.items():
            if d == ring.d and b >= bound:
                return w[: bound + 1]
        acc = [0] * (bound + 1)
        for a, b in ring.elements(bound):
            acc[ring.norm(a, b)] += self.totient(ring, a, b)
        for n, v in enumerate(acc):
            if v % ring.w:
                raise AssertionError(f"norm {n}: Phi sum {v} not a multiple of w")
        w = [v // ring.w for v in acc]
        self._weights[key] = w
        return w

    def phi_profile(self, ring: Ring, bound: int) -> list[int]:
        out, running = [], 0
        for v in self.weights(ring, bound):
            running += v
            out.append(running)
        return out

    def relative(self, ring: Ring, s: float, cutoff: float) -> float:
        """Depth-0 term plus Phi(q) |q|^(-2s) over classes with N(q) <= cutoff."""
        bound = snap_to_int(cutoff)
        w = np.asarray(self.weights(ring, bound), dtype=np.float64)
        n = np.arange(bound + 1, dtype=np.float64)
        n[0] = 1.0
        return float(np.dot(w[1:], n[1:] ** -(2.0 * s if ring.rational else s)))

    def parabolic(self, ring: Ring, s: float, cutoff: float) -> float:
        """Sum over nonzero c in O, |c| <= cutoff, of e^(-2s arcsinh(|c|/2))."""
        if ring.rational:
            bound = snap_to_int(cutoff)
            counts = np.full(bound + 1, 2, dtype=np.int64)
        else:
            bound = snap_to_int(cutoff * cutoff)
            key = (ring.d, bound)
            if key not in self._histograms:
                self._histograms[key] = np.bincount(
                    self._grid_norms(ring, bound), minlength=bound + 1)
            counts = self._histograms[key]
        n = np.arange(bound + 1, dtype=np.float64)
        t = (n if ring.rational else np.sqrt(n)) / 2.0
        terms = (t + np.sqrt(1.0 + t * t)) ** (-2.0 * s)
        return float(np.dot(counts[1:].astype(np.float64), terms[1:]))

    @staticmethod
    def _grid_norms(ring: Ring, bound: int) -> np.ndarray:
        """Norms of the nonzero points of O inside the norm ellipse."""
        d = ring.d
        bmax = math.isqrt(4 * bound // d) if ring.half else math.isqrt(bound // d)
        amax = math.isqrt(bound) + bmax + 1
        a = np.arange(-amax, amax + 1, dtype=np.int64)
        parts = []
        for b in range(-bmax, bmax + 1):
            norms = a * a + a * b + ring.m * b * b if ring.half else a * a + d * b * b
            parts.append(norms[(norms <= bound) & (norms > 0)])
        return np.concatenate(parts)


# ----------------------------------------------------------------------
# Output checks: each returns a list of problems, empty when the output holds
# ----------------------------------------------------------------------

def _profile_checks(ring: Ring, rows, bounds, ref: Reference, label: str) -> list[str]:
    profile = ref.phi_profile(ring, max(bounds))
    return [
        f"{label}({row['x_or_t']}) = {row['value']}, expected {profile[b]}"
        for row, b in zip(rows, bounds)
        if int(row["value"]) != profile[b]  # values above 2^53 arrive as strings
    ]


def check_count(spec, doc: dict, ref: Reference) -> list[str]:
    methods = {None: ["brute"], "brute": ["brute"], "mobius": ["mobius"]}.get(
        spec.method, ["brute", "mobius"])
    expected = [(float(x), m) for x in spec.cutoffs for m in methods]
    rows = doc["rows"]
    if [(row["x_or_t"], row["method"]) for row in rows] != expected:
        return [f"count rows do not follow cutoffs {spec.cutoffs} and methods {methods}"]
    return _profile_checks(ring_of(spec.field), rows, [int(x) for x, _ in expected],
                           ref, "phi")


def check_depths(spec, doc: dict, ref: Reference) -> list[str]:
    ring = ring_of(spec.field)
    rows = doc["rows"]
    if [row["x_or_t"] for row in rows] != [float(t) for t in spec.cutoffs]:
        return ["depth rows do not follow the cutoffs"]
    return _profile_checks(ring, rows, [depth_cutoff(ring, t) for t in spec.cutoffs],
                           ref, "N_e")


# Convergence thresholds in s: the relative series sums Phi(q) |q|^(-2s), and
# sum_{N(q) <= x} Phi(q) grows like x^2; the parabolic series sums |c|^(-2s)
# over a lattice of rank 1 (Q) or 2.
THRESHOLDS = {
    ("relative", True): 1.0,
    ("relative", False): 2.0,
    ("parabolic", True): 0.5,
    ("parabolic", False): 1.0,
}


def check_poincare(spec, doc: dict, ref: Reference) -> list[str]:
    ring = ring_of(spec.field)
    problems = []
    expected = [(float(c), k) for c in spec.cutoffs for k in ("relative", "parabolic")]
    if [(row["x_or_t"], row["kind"]) for row in doc["rows"]] != expected:
        return ["series rows do not follow the cutoffs"]
    for row in doc["rows"]:
        fn = ref.relative if row["kind"] == "relative" else ref.parabolic
        want = fn(ring, spec.s, row["x_or_t"])
        if not abs(row["value"] - want) <= SERIES_RTOL * abs(want):
            problems.append(f"{row['kind']} sum at {row['x_or_t']}: {row['value']!r} != {want!r}")
    verdicts = doc.get("verdicts", {})
    for kind in ("relative", "parabolic"):
        side = "converges" if spec.s > THRESHOLDS[(kind, ring.rational)] else "diverges"
        got = verdicts.get(kind, {}).get("verdict")
        if got != side:
            problems.append(f"{kind} verdict at s={spec.s}: {got!r}, expected {side!r}")
    return problems


def tangent_pairs(ring: Ring, ps: np.ndarray, qs: np.ndarray) -> tuple[int, int]:
    """(pairs i < j with p_i q_j = q_i p_j, pairs with |p_i q_j - q_i p_j|^2 = 1)."""
    pa, pb = ps[:, 0], ps[:, 1]
    qa, qb = qs[:, 0], qs[:, 1]
    xa, xb = ring.mul((pa[:, None], pb[:, None]), (qa[None, :], qb[None, :]))
    ya, yb = ring.mul((qa[:, None], qb[:, None]), (pa[None, :], pb[None, :]))
    sq = ring.abs_sq(xa - ya, xb - yb)
    upper = np.triu(np.ones(sq.shape, dtype=bool), k=1)
    return int(np.count_nonzero((sq == 0) & upper)), int(np.count_nonzero((sq == 1) & upper))


def check_horoballs(spec, doc: dict, ref: Reference) -> list[str]:
    ring = ring_of(spec.field)
    rows = doc["rows"]
    problems = []
    want = ref.phi_profile(ring, int(spec.cutoffs[-1]))[-1]
    if len(rows) != want:
        problems.append(f"{len(rows)} balls, expected phi = {want}")
    keys = set()
    for i, row in enumerate(rows):
        p, q = tuple(row["p"]), tuple(row["q"])
        center = ring.center(p, q)
        size = ring.abs_sq(*q)
        if not ring.coprime(p, q):
            problems.append(f"row {i}: {p}/{q} is not coprime")
        if (Fraction(row["center_x"]), Fraction(row["center_y"])) != center:
            problems.append(f"row {i}: center {row['center_x']}, {row['center_y']} is not p/q")
        if Fraction(row["diameter"]) != Fraction(1, size):
            problems.append(f"row {i}: diameter {row['diameter']} != 1/{size}")
        if not abs(row["depth"] - math.log(size)) <= DEPTH_RTOL * max(1.0, math.log(size)):
            problems.append(f"row {i}: depth {row['depth']} != log {size}")
        keys.add(ring.class_key(center))
    if len(keys) != len(rows):
        problems.append(f"{len(rows) - len(keys)} rows repeat a class mod O")
    ps = np.asarray([row["p"] for row in rows], dtype=np.int64).reshape(-1, 2)
    qs = np.asarray([row["q"] for row in rows], dtype=np.int64).reshape(-1, 2)
    same, unimodular = tangent_pairs(ring, ps, qs)
    packing = doc["packing"]
    if same or packing["overlaps"]:
        problems.append(f"overlaps: {same} equal fractions, {packing['overlaps']} reported")
    if packing["unimodular_mismatches"]:
        problems.append(f"{packing['unimodular_mismatches']} unimodular mismatches")
    if packing["tangencies"] < unimodular:
        problems.append(f"{packing['tangencies']} tangencies < {unimodular} unimodular pairs")
    return problems


def check_verify(spec, doc: dict, ref: Reference) -> list[str]:
    failed = [row["check"] for row in doc["rows"] if not row["passed"]]
    if doc.get("failures") != 0 or failed or not doc["rows"]:
        return [f"verify failures={doc.get('failures')}: {failed}"]
    return []


CHECKS = {
    "count": check_count,
    "depths": check_depths,
    "poincare": check_poincare,
    "horoballs": check_horoballs,
    "verify": check_verify,
}


def check_output(spec, doc: dict, ref: Reference) -> list[str]:
    """Problems with one command's JSON output; an empty list means it holds."""
    if doc.get("schema") != "horocount.run/1" or doc.get("command") != spec.command:
        return [f"not a horocount.run/1 {spec.command} envelope"]
    try:
        return CHECKS[spec.command](spec, doc, ref)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]
