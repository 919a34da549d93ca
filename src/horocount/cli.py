"""Command-line surface: every operation behind one executable, with
machine-readable JSON/CSV output for plots and regression tests.

The commands are the keys of _COMMANDS, which gives each its handler, the
floor of its cutoffs (None where it takes none) and its CSV columns.  The
parsed argparse namespace is the run's configuration: build_config converts
the field and the cutoffs, and _validate makes the checks argparse cannot.
A cutoff x becomes the norm bound floor(x), or the integer x is within float
error of (arith._norm_bound): x is the value itself, squared for the norm of
|c| in poincare's parabolic series over Q(sqrt(-d)), or e^t (e^(t/2) over Q)
for a depth t of depths.  JSON output follows the shipped schema
(schemas/run-v1.schema.json); CSV is the plotting interface, one column per
row key the command lists.  Row values beyond 2^53 are emitted as decimal
strings so nothing is rounded downstream.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import gc
import io
import json
import math
import os
import re
import sys

from . import counting, geodesics
from .arith import _norm_bound, primes_up_to
from .field import (
    FieldSpec,
    InvalidFieldError,
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
BIG_INT = 2**53
# horoballs refuses a bound whose estimated ball count, phi_asymptotic(bound),
# is past this: just under it (Q to N = 702, d = 1 to 758, d = 3 to 798) one run
# took 10-23 s on one core of a 2-vCPU VM and peaked at 253-260 MB RSS
HOROBALL_CEILING = 150_000


class CliError(ValueError):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _validate(config: argparse.Namespace) -> None:
    """The checks argparse cannot make, in order; the first failing one raises."""
    command, cutoffs = config.command, config.cutoffs
    low = _COMMANDS[command][1]
    if low is None and cutoffs:
        raise CliError("stray-cutoffs", f"{command} takes no --cutoffs")
    if not all(math.isfinite(c) for c in cutoffs):
        raise CliError("bad-cutoffs", "cutoffs must be finite")
    if any(c < low for c in cutoffs):  # no cutoffs are left where low is None
        raise CliError("bad-cutoffs", f"{command} cutoffs must be >= {low}")
    if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise CliError("bad-cutoffs", "cutoffs must be strictly increasing")
    if command == "poincare" and config.s is None:
        raise CliError("missing-s", "poincare requires --s")
    if command != "poincare" and config.s is not None:
        raise CliError("stray-s", "--s is only meaningful for poincare")
    if config.s is not None and not math.isfinite(config.s):
        raise CliError("bad-s", "--s must be finite")
    if low is not None and not cutoffs:
        raise CliError("missing-cutoffs", f"{command} requires --cutoffs")
    if command != "count" and config.method is not None:
        raise CliError("stray-method", "--method is only meaningful for count")
    tol = config.tolerance
    if command != "zeta" and tol is not None:
        raise CliError("stray-tolerance", f"--tolerance tol={tol:g} is only meaningful for zeta")
    if tol is not None and not 0 < tol < math.inf:
        raise CliError(
            "bad-tolerance", f"--tolerance tol={tol:g} is not a positive finite number"
        )


def _field_record(f: FieldSpec) -> dict:
    return {"kind": f.kind, "d": f.d, "D": f.D, "w": f.w, "h": f.h}


def _row(f: FieldSpec, value, method: str, x_or_t, predicted=None, **extra) -> dict:
    """One result row: the value with its method, field and abscissa, the
    predicted main term and value / predicted where there is one, and any
    command-specific keys.  An int value beyond 2^53 becomes its decimal string:
    no other slot can pass 2^53 (ball coordinates are bounded by the ceiling,
    verify rows hold bools and strings, extras floats and small counts)."""
    ratio = value / predicted if predicted else None
    if isinstance(value, int) and not isinstance(value, bool) and abs(value) > BIG_INT:
        value = str(value)
    return {"value": value, "method": method, "field": _field_record(f), "x_or_t": x_or_t,
            "predicted": predicted, "ratio": ratio, **extra}


# ----------------------------------------------------------------------
# Command implementations (each returns rows + extras)
# ----------------------------------------------------------------------

def _cmd_count(config: argparse.Namespace) -> tuple[list[dict], dict]:
    f = config.field
    methods = ["brute", "mobius"] if config.method == "both" else [config.method or "brute"]
    rows = []
    counts = {m: counting.phi_at(f, config.cutoffs, method=m) for m in methods}
    for i, x in enumerate(config.cutoffs):
        predicted = counting.phi_asymptotic(f, x)
        rows.extend(_row(f, counts[m][i], m, x, predicted) for m in methods)
    return rows, {}


def _cmd_zeta(config: argparse.Namespace) -> tuple[list[dict], dict]:
    f = config.field
    tol = config.tolerance if config.tolerance is not None else 1e-10
    row = _row(f, zeta_K_2(f, tol), "character-series", 2.0, tolerance=tol)
    return [row], {"residue": residue_K(f)}


def _cmd_classnum(config: argparse.Namespace) -> tuple[list[dict], dict]:
    f = config.field
    return [_row(f, f.h, "reduced-forms", None)], {}


def _cmd_depths(config: argparse.Namespace) -> tuple[list[dict], dict]:
    f = config.field
    try:
        cutoffs = [geodesics.depth_cutoff(f, t) for t in config.cutoffs]
    except OverflowError:
        raise CliError("bad-cutoffs", "a depth cutoff overflows e^t") from None
    # the predictions first: zeta_K(2) refuses a D past its budget before
    # resolve_method computes h
    predicted = [counting.phi_asymptotic(f, geodesics._depth_norm(f, t)) for t in config.cutoffs]
    method = counting.resolve_method(f)
    counts = counting.phi_at(f, cutoffs, method=method)
    rows = [
        _row(f, count, method, t, pred)
        for t, count, pred in zip(config.cutoffs, counts, predicted)
    ]
    return rows, {}


def _cmd_horoballs(config: argparse.Namespace) -> tuple[list[dict], dict]:
    f = config.field
    bound = _norm_bound(config.cutoffs[-1])
    # a size, not a result: a loose zeta_K(2) keeps its series short
    estimate = counting.phi_asymptotic(f, float(bound), tol=1e-3)
    if estimate > HOROBALL_CEILING:
        raise CliError(
            "too-large",
            f"N(q) <= {config.cutoffs[-1]:g} means about {estimate:.4g} horoballs, "
            f"more than the {HOROBALL_CEILING:,} one run checks",
        )
    balls = geodesics.canonical_balls(f, bound)
    field = _field_record(f)  # one dict shared by every row
    rows = []
    for ball in balls:
        center = ball.center  # derived from (p, q): read it once
        if f.is_rational:
            cx, cy = str(center), "0"
        else:
            cx, cy = str(center[0]), str(center[1])
        rows.append(
            {
                "p": [ball.p.a, ball.p.b],
                "q": [ball.q.a, ball.q.b],
                "center_x": cx,
                "center_y": cy,
                "diameter": str(ball.diameter),
                "depth": ball.depth,
                "field": field,
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


def _cmd_poincare(config: argparse.Namespace) -> tuple[list[dict], dict]:
    f = config.field
    s = config.s
    assert s is not None
    # two cutoffs of one norm bound are one partial sum twice, a zero increment
    # and a slope fitted to a repeated point; snap(c^2) increases strictly
    # wherever snap(c) does (c >= 1), so the relative bounds decide for both
    bounds = geodesics._series_bounds(config.cutoffs, square=False)
    if any(b <= a for a, b in zip(bounds, bounds[1:])):
        raise CliError("bad-cutoffs", f"poincare cutoffs snap to repeated norm bounds {bounds}")
    sums = {
        "relative": geodesics.relative_poincare_partials(f, s, config.cutoffs),
        "parabolic": geodesics.parabolic_poincare_partials(f, s, config.cutoffs),
    }
    if not all(math.isfinite(ps.value) for series in sums.values() for ps in series):
        raise CliError("bad-s", f"--s {s} makes a partial sum overflow the float range")
    rows = [
        _row(f, ps.value, "partial-sum", ps.cutoff, kind=ps.kind, s=s)
        for pair in zip(*sums.values())  # per cutoff: relative, then parabolic
        for ps in pair
    ]
    extras: dict = {}
    if len(config.cutoffs) >= 3:
        extras["verdicts"] = {
            kind: dataclasses.asdict(geodesics.convergence_verdict(f, ps))
            for kind, ps in sums.items()
        }
    return rows, extras


# ----------------------------------------------------------------------
# verify: the cross-method / property suite
# ----------------------------------------------------------------------

def _verify_checks(f: FieldSpec, bound: int):
    """Yield (name, passed, detail) for each property check.

    Each check compares two independent rules:
    * phi-cross-method: the brute (ring_totient per q), mobius and, if h = 1, sieve profiles;
    * zeta-pipelines: zeta_K(2) by the character series and by the ideal-count fill;
    * character-coefficients (not over Q): the fill's a_p (_splitting_kinds) and 1 + chi(p);
    * totient-product: ring_totient, the brute route's Phi(q), and the Euler product;
    * mobius-summatory: mu over the divisors of (q), both by factor_ideal, and [(q) = O];
    * mobius-reciprocal: the Moebius fill's sum of mu(I) / N(I)^2 and 1 / zeta_K(2);
    * horoball-packing: check_disjoint's contact test and the fractions' unimodularity;
    * series-ordering: the partial sums and their monotonicity in the cutoff and in s.

    Two things are computed first, so that a request past a budget is refused
    before any check runs: zeta_K(2), whose character table refuses a huge D
    before the series' 'auto' method and phi-cross-method read h, then the
    series-ordering sums, reported last, whose parabolic series to the norm
    max(16, bound)^2 is the largest sum of the suite and is refused past the
    work budget of one series.
    """
    z1 = zeta_K_2(f, 1e-10)
    cuts = [max(4, bound // 4), max(8, bound // 2), max(16, bound)]
    ordering_ok = True
    for partials in (geodesics.parabolic_poincare_partials, geodesics.relative_poincare_partials):
        vals_lo = [ps.value for ps in partials(f, 1.2, cuts)]
        vals_hi = [ps.value for ps in partials(f, 2.4, cuts)]
        if any(b < a for a, b in zip(vals_lo, vals_lo[1:])):
            ordering_ok = False
        if any(h > l for h, l in zip(vals_hi, vals_lo)):
            ordering_ok = False

    x_small = min(bound, 300)
    methods = list(counting._field_methods(f))
    profiles = [counting.phi_profile(f, x_small, method=m) for m in methods]
    yield (
        "phi-cross-method",
        all(p == profiles[0] for p in profiles),
        f"{' == '.join(methods)} on every integer x <= {x_small}",
    )

    z2 = zeta_K_2_via_ideal_counts(f, 200_000)
    yield (
        "zeta-pipelines",
        abs(z1 - z2) <= 1e-8,
        f"character {z1:.12f} vs ideal-count {z2:.12f}",
    )
    if not f.is_rational:  # kronecker_character is defined for quadratic fields only
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
    yield (
        "totient-product",
        all(ring_totient(f, q) == ring_totient_product(f, q)
            for q in counting.unit_orbit_reps(f, tot_bound)),
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
        abs(recip - 1.0 / z1) <= 1e-3,
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

    yield (
        "series-ordering",
        ordering_ok,
        "partial sums nondecreasing in cutoff and decreasing in s",
    )


def _cmd_verify(config: argparse.Namespace) -> tuple[list[dict], dict]:
    bound = _norm_bound(config.cutoffs[-1])
    rows = []
    failures = 0
    for name, passed, detail in _verify_checks(config.field, bound):
        print(f"{'PASS' if passed else 'FAIL'}  {name:<24} {detail}", file=sys.stderr)
        rows.append({"check": name, "passed": passed, "detail": detail})
        failures += 0 if passed else 1
    return rows, {"failures": failures}


# command -> (handler, cutoff floor, CSV columns); the floor is None where a
# command takes no cutoffs.  depths takes t < 0 (no class has negative depth); a
# series starts at |c| = 1, the smallest nonzero element; below 1 verify checks
# empty sets.  The columns are row keys, written in this order.
_COMMANDS = {
    "count": (_cmd_count, 0, ("x_or_t", "value", "predicted", "ratio")),
    "zeta": (_cmd_zeta, None, ("x_or_t", "value", "predicted", "ratio")),
    "classnum": (_cmd_classnum, None, ("x_or_t", "value", "predicted", "ratio")),
    "depths": (_cmd_depths, -math.inf, ("x_or_t", "value", "predicted", "ratio")),
    "horoballs": (_cmd_horoballs, 0, ("p", "q", "center_x", "center_y", "diameter", "depth")),
    "poincare": (_cmd_poincare, 1, ("x_or_t", "kind", "value")),
    "verify": (_cmd_verify, 1, ("check", "passed", "detail")),
}
COMMANDS = tuple(_COMMANDS)


# ----------------------------------------------------------------------
# Output encoding
# ----------------------------------------------------------------------

def _render_json(config: argparse.Namespace, rows: list[dict], extras: dict) -> str:
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
        "rows": rows,
    }
    envelope.update(extras)
    # one buffer, not dumps' list of chunks; a NaN still raises before any output
    buf = io.StringIO()
    json.dump(envelope, buf, sort_keys=True, indent=2, allow_nan=False)
    buf.write("\n")
    return buf.getvalue()


def _render_csv(config: argparse.Namespace, rows: list[dict]) -> str:
    """The command's columns, then one line per row.  A ring element [a, b]
    is written a+bw; csv writes None as an empty cell and a float by repr."""
    columns = _COMMANDS[config.command][2]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for r in rows:
        cells = (r[k] for k in columns)
        writer.writerow(["%d+%dw" % tuple(v) if isinstance(v, list) else v for v in cells])
    return buf.getvalue()


def _check_output(path: str) -> None:
    """Refuse an output path that cannot be written before any work is done:
    its directory must exist and be writable, and the path must not be a
    directory or a read-only file.  Nothing is created or truncated here, so a
    command that fails later leaves no file, or the old file as it was."""
    if path == "-":
        return
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        problem = f"no directory {folder}"
    elif os.path.isdir(path):
        problem = "it is a directory"
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        problem = "permission denied"
    else:
        return
    raise CliError("unwritable-output", f"cannot write {path}: {problem}")


def run(config: argparse.Namespace) -> int:
    """Execute one command; returns the process exit status."""
    _validate(config)
    _check_output(config.output)
    handler = _COMMANDS[config.command][0]
    rows, extras = handler(config)
    text = (
        _render_json(config, rows, extras)
        if config.format == "json"
        else _render_csv(config, rows)
    )
    try:
        if config.output == "-":
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(config.output, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        if config.output == "-":
            # the reader is gone: what stdout still buffers goes nowhere at exit
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise CliError("unwritable-output", f"cannot write {config.output}: {exc}")
    return 1 if extras.get("failures") else 0  # only verify counts failures


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


class _ArgumentParser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise CliError, not SystemExit."""

    def error(self, message: str):
        raise CliError("bad-arguments", message)


def build_config(argv: list[str]) -> argparse.Namespace:
    parser = _ArgumentParser(
        prog="horocount",
        description="Count rational geodesics and horoballs for the modular "
        "and Bianchi orbifolds.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--field", required=True, help="'rational' or d=<squarefree d>")
    parser.add_argument("--cutoffs", help="comma-separated increasing cutoffs: norm bounds x, or "
                        "depths t, bound e^t (e^(t/2) over Q); floored unless within float "
                        "error of an integer")
    parser.add_argument("--s", type=float, help="series exponent (poincare only)")
    parser.add_argument("--method", choices=["brute", "mobius", "both"], help="count only")
    parser.add_argument("--output", default="-", help="output path, '-' for stdout")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--tolerance", type=float)
    # argparse reads a value such as "-1,0.5", which is not one negative number,
    # as an option: a --cutoffs value that starts with a minus sign and a digit
    # is glued on with '='
    glued: list[str] = []
    for tok in argv:
        if glued and glued[-1] == "--cutoffs" and re.match(r"-[0-9.]", tok):
            glued[-1] += "=" + tok
        else:
            glued.append(tok)
    config = parser.parse_args(glued)
    config.field = _parse_field(config.field)
    config.cutoffs = _parse_cutoffs(config.cutoffs)
    return config


def main(argv: list[str] | None = None) -> int:
    # Every object the collector tracks on entry (about 22 400 after the
    # import, mostly numpy's) is live: freezing them keeps each later full
    # collection, including those at interpreter exit, off them.  That saved
    # 15-25 ms per command (a full collection of them takes 4-7 ms) on one CPU
    # of a 2-vCPU VM.  Once per process: a later call would also pin whatever
    # cyclic garbage of an earlier call is still uncollected.
    if not gc.get_freeze_count():
        gc.freeze()
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
    except ValueError as exc:
        sys.stderr.write(f"horocount-error code=invalid-request message={exc!s}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
