"""Command-line surface: every operation behind one executable, with
machine-readable JSON/CSV output for plots and regression tests.

Commands: count, zeta, classnum, depths, horoballs, poincare, verify.
JSON output follows the shipped schema (schemas/run-v1.schema.json); CSV is
the plotting interface with fixed headers.  Exact integers above 2^53 are
emitted as decimal strings so nothing is rounded downstream.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import math
import sys
from dataclasses import dataclass, field as dc_field

from . import counting, geodesics
from .arith import primes_up_to
from .field import (
    FieldSpec,
    InvalidFieldError,
    UnsupportedFieldError,
    ideal_count_coefficients,
    kronecker_character,
    make_field,
    residue_K,
    zeta_K_2,
    zeta_K_2_via_ideal_counts,
)
from .ideals import (
    ideal_divisors,
    mobius_ideal,
    mobius_reciprocal_partial,
    principal_ideal,
    ring_totient,
    ring_totient_product,
    unit_ideal,
)

SCHEMA_ID = "horocount.run/1"
COMMANDS = ("count", "zeta", "classnum", "depths", "horoballs", "poincare", "verify")
BIG_INT = 2**53
# horoballs refuses a bound whose estimated ball count, phi_asymptotic(bound),
# is past this: at the ceiling one run took 23 s (Q) to 52 s (d = 3) on one
# 2-vCPU VM core and peaked near 700 MB
HOROBALL_CEILING = 150_000


class CliError(ValueError):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass
class RunConfig:
    field: FieldSpec
    command: str
    cutoffs: list[float] = dc_field(default_factory=list)
    s: float | None = None
    method: str | None = None
    output: str = "-"
    format: str = "json"
    tolerance: float | None = None

    def validate(self) -> None:
        if self.command not in COMMANDS:
            raise CliError("unknown-command", f"unknown command {self.command!r}")
        if not all(math.isfinite(c) for c in self.cutoffs):
            raise CliError("bad-cutoffs", "cutoffs must be finite")
        # depths takes t < 0 (no class has negative depth); zeta and classnum ignore cutoffs
        if self.command in ("count", "horoballs", "poincare", "verify") and any(
            c < 0 for c in self.cutoffs
        ):
            raise CliError("bad-cutoffs", f"{self.command} cutoffs must be non-negative")
        if any(b <= a for a, b in zip(self.cutoffs, self.cutoffs[1:])):
            raise CliError("bad-cutoffs", "cutoffs must be strictly increasing")
        if self.command == "poincare" and self.s is None:
            raise CliError("missing-s", "poincare requires --s")
        if self.command != "poincare" and self.s is not None:
            raise CliError("stray-s", "--s is only meaningful for poincare")
        if self.s is not None and not math.isfinite(self.s):
            raise CliError("bad-s", "--s must be finite")
        if self.command in ("count", "depths", "horoballs", "poincare", "verify") and not self.cutoffs:
            raise CliError("missing-cutoffs", f"{self.command} requires --cutoffs")
        if self.method is not None and self.method not in ("brute", "mobius", "both"):
            raise CliError("bad-method", f"unknown method {self.method!r}")
        if self.format not in ("json", "csv"):
            raise CliError("bad-format", f"unknown format {self.format!r}")
        if self.tolerance is not None and self.tolerance <= 0:
            raise CliError("bad-tolerance", "--tolerance must be positive")


def _field_record(f: FieldSpec) -> dict:
    return {"kind": f.kind, "d": f.d, "D": f.D, "w": f.w, "h": f.h}


def _provenance(f: FieldSpec, value, method: str, tolerance: float | None = None) -> dict:
    rec = {"value": value, "method": method, "field": _field_record(f)}
    if tolerance is not None:
        rec["tolerance"] = tolerance
    return rec


# ----------------------------------------------------------------------
# Command implementations (each returns rows + extras)
# ----------------------------------------------------------------------

def _methods_for(config: RunConfig) -> list[str]:
    if config.method in (None, "brute"):
        return ["brute"]
    if config.method == "mobius":
        return ["mobius"]
    return ["brute", "mobius"]


def _cmd_count(config: RunConfig) -> tuple[list[dict], dict]:
    f = config.field
    methods = _methods_for(config)
    for m in methods:
        try:
            counting.resolve_method(f, m)
        except UnsupportedFieldError as exc:
            raise CliError("unsupported-field", str(exc)) from None
    rows = []
    top = int(config.cutoffs[-1])
    profiles = {m: counting.phi_profile(f, top, method=m) for m in methods}
    for x in config.cutoffs:
        predicted = counting.phi_asymptotic(f, x)
        for m in methods:
            value = profiles[m][int(x)]
            row = _provenance(f, value, m)
            row["x_or_t"] = x
            row["predicted"] = predicted
            row["ratio"] = value / predicted if predicted else None
            rows.append(row)
    return rows, {}


def _cmd_zeta(config: RunConfig) -> tuple[list[dict], dict]:
    f = config.field
    tol = config.tolerance if config.tolerance is not None else 1e-10
    value = zeta_K_2(f, tol)
    row = _provenance(f, value, "character-series", tolerance=tol)
    row["x_or_t"] = 2.0
    row["predicted"] = None
    row["ratio"] = None
    rows = [row]
    return rows, {"residue": residue_K(f)}


def _cmd_classnum(config: RunConfig) -> tuple[list[dict], dict]:
    f = config.field
    row = _provenance(f, f.h, "reduced-forms")
    row["x_or_t"] = None
    row["predicted"] = None
    row["ratio"] = None
    return [row], {}


def _cmd_depths(config: RunConfig) -> tuple[list[dict], dict]:
    f = config.field
    method = counting.resolve_method(f)
    try:
        cutoffs = [geodesics.depth_cutoff(f, t) for t in config.cutoffs]
    except OverflowError:
        raise CliError("bad-cutoffs", "a depth cutoff overflows e^t") from None
    profile = counting.phi_profile(f, cutoffs[-1], method=method)
    rows = []
    for t, cutoff in zip(config.cutoffs, cutoffs):
        value = profile[cutoff]
        x_equiv = math.exp(t / 2 if f.is_rational else t)
        predicted = counting.phi_asymptotic(f, x_equiv)
        row = _provenance(f, value, method)
        row["x_or_t"] = t
        row["predicted"] = predicted
        row["ratio"] = value / predicted if predicted else None
        rows.append(row)
    return rows, {}


def _cmd_horoballs(config: RunConfig) -> tuple[list[dict], dict]:
    f = config.field
    bound = int(config.cutoffs[-1])
    # a size, not a result: a loose zeta_K(2) keeps its series short
    estimate = counting.phi_asymptotic(f, float(bound), tol=1e-3)
    if estimate > HOROBALL_CEILING:
        raise CliError(
            "too-large",
            f"N(q) <= {config.cutoffs[-1]:g} means about {estimate:.4g} horoballs, "
            f"more than the {HOROBALL_CEILING:,} one run checks",
        )
    balls = geodesics.canonical_balls(f, bound)
    rows = []
    for ball in balls:
        if f.is_rational:
            cx, cy = str(ball.center), "0"
        else:
            cx, cy = str(ball.center[0]), str(ball.center[1])
        src = ball.source
        rows.append(
            {
                "p": [src.p.a, src.p.b],
                "q": [src.q.a, src.q.b],
                "center_x": cx,
                "center_y": cy,
                "diameter": str(ball.diameter),
                "depth": src.depth,
                "field": _field_record(f),
            }
        )
    report = geodesics.check_disjoint(balls)
    extras = {
        "packing": {
            "overlaps": len(report.overlaps),
            "tangencies": len(report.tangencies),
            "unimodular_mismatches": len(report.unimodular_mismatches),
        }
    }
    return rows, extras


def _cmd_poincare(config: RunConfig) -> tuple[list[dict], dict]:
    f = config.field
    s = config.s
    assert s is not None
    sums = {
        "relative": geodesics.relative_poincare_partials(f, s, config.cutoffs),
        "parabolic": geodesics.parabolic_poincare_partials(f, s, config.cutoffs),
    }
    if not all(math.isfinite(ps.value) for series in sums.values() for ps in series):
        raise CliError("bad-s", f"--s {s} makes a partial sum overflow the float range")
    rows = []
    for pair in zip(*sums.values()):  # per cutoff: relative, then parabolic
        for ps in pair:
            row = _provenance(f, ps.value, "partial-sum")
            row["x_or_t"] = ps.cutoff
            row["kind"] = ps.kind
            row["s"] = s
            row["predicted"] = None
            row["ratio"] = None
            rows.append(row)
    extras: dict = {}
    if len(config.cutoffs) >= 3:
        extras["verdicts"] = {
            kind: {
                "verdict": v.verdict,
                "cauchy_difference": v.cauchy_difference,
                "growth_exponent": v.growth_exponent,
                "protocol": v.protocol,
            }
            for kind, v in (
                (k, geodesics.convergence_verdict(ps)) for k, ps in sums.items()
            )
        }
    return rows, extras


# ----------------------------------------------------------------------
# verify: the cross-method / property suite
# ----------------------------------------------------------------------

def _verify_checks(f: FieldSpec, bound: int):
    """Yield (name, passed, detail) for each property check."""
    x_small = min(bound, 300)
    brute = counting.phi_profile(f, x_small, method="brute")
    if f.is_rational or f.h == 1:
        mob = counting.phi_profile(f, x_small, method="mobius")
        yield (
            "phi-cross-method",
            brute == mob,
            f"brute == mobius on every integer x <= {x_small}",
        )
    else:
        yield (
            "phi-cross-method",
            all(a <= b for a, b in zip(brute, brute[1:])),
            f"h={f.h}: mobius unsupported, checked brute monotonicity to {x_small}",
        )

    if f.is_rational:
        sieve_val = counting.totient_summatory(x_small)
        yield (
            "totient-sieve-identity",
            brute[x_small] == sieve_val,
            f"phi({x_small}) equals the totient-sieve summatory",
        )
        z = zeta_K_2(f, 1e-10)
        ok = abs(z - math.pi**2 / 6) <= 1e-10
        yield ("zeta-pipelines", ok, "zeta(2) within 1e-10 of pi^2/6")
    else:
        z1 = zeta_K_2(f, 1e-10)
        z2 = zeta_K_2_via_ideal_counts(f, 200_000)
        yield (
            "zeta-pipelines",
            abs(z1 - z2) <= 1e-8,
            f"character {z1:.12f} vs ideal-count {z2:.12f}",
        )
        coeffs = ideal_count_coefficients(f, 1000)
        bad = [
            p
            for p in primes_up_to(1000)
            if f.D % p != 0 and coeffs[p] != 1 + kronecker_character(f, p)
        ]
        yield (
            "character-coefficients",
            not bad,
            "a_p = 1 + chi(p) for primes p <= 1000 not dividing D",
        )

    tot_bound = min(bound, 200)
    tot_ok = True
    for q in counting.unit_orbit_reps(f, tot_bound):
        if ring_totient(f, q) != ring_totient_product(f, q):
            tot_ok = False
            break
    yield (
        "totient-product",
        tot_ok,
        f"residue count equals the Euler product for N(q) <= {tot_bound}",
    )

    mob_bound = min(bound, 60)
    mob_ok = True
    for q in counting.unit_orbit_reps(f, mob_bound):
        ideal = principal_ideal(f, q)
        total = sum(mobius_ideal(f, d_) for d_ in ideal_divisors(f, ideal))
        if total != (1 if ideal == unit_ideal(f) else 0):
            mob_ok = False
            break
    yield (
        "mobius-summatory",
        mob_ok,
        f"sum of mu over divisors of (q) is [q unit], N(q) <= {mob_bound}",
    )

    recip = mobius_reciprocal_partial(f, 10_000)
    yield (
        "mobius-reciprocal",
        abs(recip - 1.0 / zeta_K_2(f, 1e-10)) <= 1e-3,
        f"partial sum {recip:.6f} vs 1/zeta_K(2)",
    )

    pack_bound = min(bound, 30)
    balls = geodesics.canonical_balls(f, pack_bound)
    report = geodesics.check_disjoint(balls)
    yield (
        "horoball-packing",
        not report.overlaps and not report.unimodular_mismatches,
        f"{len(balls)} balls, {len(report.tangencies)} tangencies, "
        f"{len(report.overlaps)} overlaps",
    )

    cuts = [max(4, bound // 4), max(8, bound // 2), max(16, bound)]
    ordering_ok = True
    for partials in (geodesics.relative_poincare_partials, geodesics.parabolic_poincare_partials):
        vals_lo = [ps.value for ps in partials(f, 1.2, cuts)]
        vals_hi = [ps.value for ps in partials(f, 2.4, cuts)]
        if any(b < a for a, b in zip(vals_lo, vals_lo[1:])):
            ordering_ok = False
        if any(h > l for h, l in zip(vals_hi, vals_lo)):
            ordering_ok = False
    yield (
        "series-ordering",
        ordering_ok,
        "partial sums nondecreasing in cutoff and decreasing in s",
    )


def _cmd_verify(config: RunConfig) -> tuple[list[dict], dict]:
    bound = int(config.cutoffs[-1])
    rows = []
    failures = 0
    for name, passed, detail in _verify_checks(config.field, bound):
        print(f"{'PASS' if passed else 'FAIL'}  {name:<24} {detail}", file=sys.stderr)
        rows.append({"check": name, "passed": passed, "detail": detail})
        failures += 0 if passed else 1
    return rows, {"failures": failures}


# ----------------------------------------------------------------------
# Output encoding
# ----------------------------------------------------------------------

def _stringify_big_ints(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int) and abs(obj) > BIG_INT:
        return str(obj)
    if isinstance(obj, dict):
        return {k: _stringify_big_ints(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stringify_big_ints(v) for v in obj]
    return obj


def _render_json(config: RunConfig, rows: list[dict], extras: dict) -> str:
    envelope = {
        "schema": SCHEMA_ID,
        "command": config.command,
        "field": _field_record(config.field),
        "config": {
            "cutoffs": config.cutoffs,
            "s": config.s,
            "method": config.method,
            "tolerance": config.tolerance,
        },
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "rows": _stringify_big_ints(rows),
    }
    envelope.update(_stringify_big_ints(extras))
    return json.dumps(envelope, sort_keys=True, indent=2, allow_nan=False) + "\n"


_PLOT_HEADER = ["x_or_t", "value", "predicted", "ratio"]
_BALL_HEADER = ["p", "q", "center_x", "center_y", "diameter", "depth"]
_CHECK_HEADER = ["check", "passed", "detail"]


def _render_csv(config: RunConfig, rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if config.command == "horoballs":
        writer.writerow(_BALL_HEADER)
        for r in rows:
            writer.writerow(
                ["%d+%dw" % tuple(r["p"]), "%d+%dw" % tuple(r["q"]),
                 r["center_x"], r["center_y"], r["diameter"], repr(r["depth"])]
            )
    elif config.command == "verify":
        writer.writerow(_CHECK_HEADER)
        for r in rows:
            writer.writerow([r["check"], r["passed"], r["detail"]])
    else:
        writer.writerow(_PLOT_HEADER)
        for r in rows:
            writer.writerow(
                [
                    r.get("x_or_t", ""),
                    r["value"],
                    "" if r.get("predicted") is None else repr(r["predicted"]),
                    "" if r.get("ratio") is None else repr(r["ratio"]),
                ]
            )
    return buf.getvalue()


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit status."""
    config.validate()
    handler = {
        "count": _cmd_count,
        "zeta": _cmd_zeta,
        "classnum": _cmd_classnum,
        "depths": _cmd_depths,
        "horoballs": _cmd_horoballs,
        "poincare": _cmd_poincare,
        "verify": _cmd_verify,
    }[config.command]
    rows, extras = handler(config)
    text = (
        _render_json(config, rows, extras)
        if config.format == "json"
        else _render_csv(config, rows)
    )
    if config.output == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(config.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError("unwritable-output", f"cannot write {config.output}: {exc}")
    if config.command == "verify" and extras.get("failures"):
        return 1
    return 0


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------

def _parse_field(text: str) -> FieldSpec:
    if text == "rational":
        return make_field("rational")
    if text.startswith("d="):
        text = text[2:]
    try:
        d = int(text)
    except ValueError:
        raise CliError("invalid-field", f"--field must be 'rational' or d=<int>, got {text!r}")
    try:
        return make_field(d)
    except InvalidFieldError as exc:
        raise CliError("invalid-field", str(exc))


def _parse_cutoffs(text: str | None) -> list[float]:
    if not text:
        return []
    try:
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise CliError("bad-cutoffs", f"cannot parse cutoffs {text!r}")


def build_config(argv: list[str]) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="horocount",
        description="Count rational geodesics and horoballs for the modular "
        "and Bianchi orbifolds.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--field", required=True, help="'rational' or d=<squarefree d>")
    parser.add_argument("--cutoffs", help="comma-separated increasing cutoffs")
    parser.add_argument("--s", type=float, help="series exponent (poincare only)")
    parser.add_argument("--method", choices=["brute", "mobius", "both"])
    parser.add_argument("--output", default="-", help="output path, '-' for stdout")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--tolerance", type=float)
    ns = parser.parse_args(argv)
    return RunConfig(
        field=_parse_field(ns.field),
        command=ns.command,
        cutoffs=_parse_cutoffs(ns.cutoffs),
        s=ns.s,
        method=ns.method,
        output=ns.output,
        format=ns.format,
        tolerance=ns.tolerance,
    )


def main(argv: list[str] | None = None) -> int:
    try:
        config = build_config(sys.argv[1:] if argv is None else argv)
        return run(config)
    except CliError as exc:
        sys.stderr.write(f"horocount-error code={exc.code} message={exc!s}\n")
        return 2
    except (MemoryError, OverflowError) as exc:  # arrays past memory or past ssize_t
        message = str(exc) or "cannot allocate the arrays this request needs"
        sys.stderr.write(f"horocount-error code=too-large message={message}\n")
        return 2
    except (UnsupportedFieldError, ValueError) as exc:
        sys.stderr.write(f"horocount-error code=invalid-request message={exc!s}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
