"""CLI surface: schema-valid output, determinism, machine-parsable errors,
and the verify command's exit contract."""

import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from horocount import cli, counting, geodesics
from horocount import field as field_module
from horocount.cli import _cmd_horoballs, _render_json, build_config, main
from horocount.field import make_field
from horocount.geodesics import depth_counting


@pytest.fixture(scope="session")
def schema():
    text = (
        resources.files("horocount") / "schemas" / "run-v1.schema.json"
    ).read_text()
    return json.loads(text)


def run_json(tmp_path, argv, name="out.json"):
    out = tmp_path / name
    code = main(argv + ["--output", str(out)])
    return code, json.loads(out.read_text()) if out.exists() else None


def hash_without_timestamp(doc: dict) -> str:
    doc = copy.deepcopy(doc)
    doc.pop("generated_at", None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# ----------------------------------------------------------------------
# Happy paths + schema
# ----------------------------------------------------------------------

def test_count_both_methods_agree(tmp_path, schema):
    code, doc = run_json(
        tmp_path, ["count", "--field", "d=1", "--cutoffs", "100,200", "--method", "both"]
    )
    assert code == 0
    jsonschema.validate(doc, schema)
    by_x = {}
    for row in doc["rows"]:
        by_x.setdefault(row["x_or_t"], set()).add(row["value"])
    assert by_x == {100.0: {2600}, 200.0: {10608}}  # brute == mobius per cutoff


def test_count_rational_both_methods(tmp_path, schema):
    code, doc = run_json(
        tmp_path, ["count", "--field", "rational", "--cutoffs", "10,100", "--method", "both"]
    )
    assert code == 0
    jsonschema.validate(doc, schema)
    values = {
        m: [r["value"] for r in doc["rows"] if r["method"] == m] for m in ("brute", "mobius")
    }
    assert values["brute"] == values["mobius"] == [32, 3044]


def test_count_both_methods_class_number_2(tmp_path, schema):
    code, doc = run_json(
        tmp_path, ["count", "--field", "d=5", "--cutoffs", "10,100,250", "--method", "both"]
    )
    assert code == 0
    jsonschema.validate(doc, schema)
    values = {
        m: [r["value"] for r in doc["rows"] if r["method"] == m] for m in ("brute", "mobius")
    }
    assert len(values["brute"]) == 3 and values["brute"] == values["mobius"]


@pytest.mark.parametrize(
    "field, method", [("rational", "sieve"), ("d=1", "sieve"), ("d=5", "mobius")]
)
def test_depths_rows_name_the_resolved_method(tmp_path, schema, field, method):
    cutoffs = [-1.0, 2.0, 4.0, 6.0]
    code, doc = run_json(
        tmp_path, ["depths", "--field", field, "--cutoffs=" + ",".join(map(str, cutoffs))]
    )
    assert code == 0
    jsonschema.validate(doc, schema)
    f = make_field("rational" if field == "rational" else int(field[2:]))
    assert [r["method"] for r in doc["rows"]] == [method] * len(cutoffs)
    assert [r["x_or_t"] for r in doc["rows"]] == cutoffs
    expected = [depth_counting(f, t) for t in cutoffs]
    assert [r["value"] for r in doc["rows"]] == expected
    assert expected[0] == 0 and expected[-1] > 0


def test_a_negative_first_depth_needs_no_equals_sign(tmp_path):
    """argparse alone reads "-1,0.5,2,9", which is not one negative number, as
    an option; after --cutoffs it is the cutoffs, as with '='."""
    head = ["depths", "--field", "rational"]
    spaced = run_json(tmp_path, head + ["--cutoffs", "-1,0.5,2,9"], "spaced.json")
    glued = run_json(tmp_path, head + ["--cutoffs=-1,0.5,2,9"], "glued.json")
    assert spaced[0] == glued[0] == 0
    assert hash_without_timestamp(spaced[1]) == hash_without_timestamp(glued[1])


@pytest.mark.parametrize("field", ["rational", "d=1", "d=5"])
def test_depths_at_log_n_equal_count_at_n(tmp_path, field):
    """Depth log n (2 log n over Q) is the norm bound n, so depths there reads
    what count reads at n, each by its own method."""
    ns = [2, 97, 100, 4321]
    scale = 2 if field == "rational" else 1
    depths = ",".join(repr(scale * math.log(n)) for n in ns)
    _, by_depth = run_json(tmp_path, ["depths", "--field", field, "--cutoffs", depths], "t.json")
    norms = ",".join(map(str, ns))
    _, by_norm = run_json(tmp_path, ["count", "--field", field, "--cutoffs", norms])
    assert [r["value"] for r in by_depth["rows"]] == [r["value"] for r in by_norm["rows"]]


# the runs of each command that read a norm bound from --cutoffs
NORM_BOUND_RUNS = {
    "count": ["--method", "both"],
    "horoballs": [],
    "verify": [],
    "poincare": ["--s", "1.5"],
}


@pytest.mark.parametrize("n", [10, 100, 1000])
@pytest.mark.parametrize("command", NORM_BOUND_RUNS)
def test_cutoff_within_float_error_of_n_reads_n(tmp_path, capsys, command, n):
    """A cutoff one ulp below n gives n's rows in every command, and one 0.05
    below n gives n - 1's, apart from the keys that echo the cutoff.  (Past
    the ceiling, horoballs refuses both alike.)"""
    echoed = ("x_or_t", "predicted", "ratio")

    def rows(cutoff):
        argv = [command, "--field", "rational", "--cutoffs", repr(cutoff)]
        code, doc = run_json(tmp_path, argv + NORM_BOUND_RUNS[command])
        if doc is None:
            return code, None
        return code, [{k: v for k, v in r.items() if k not in echoed} for r in doc["rows"]]

    assert rows(math.nextafter(n, 0)) == rows(n)
    assert rows(n - 0.05) == rows(n - 1)


def test_zeta_rational(tmp_path, schema):
    code, doc = run_json(tmp_path, ["zeta", "--field", "rational"])
    assert code == 0
    jsonschema.validate(doc, schema)
    assert abs(doc["rows"][0]["value"] - 1.6449340668) <= 1e-9
    assert doc["rows"][0]["tolerance"] == 1e-10


@pytest.mark.parametrize(
    "argv",
    [
        ["classnum", "--field", "d=23"],
        ["depths", "--field", "d=1", "--cutoffs", "2.0,4.0"],
        ["horoballs", "--field", "d=1", "--cutoffs", "10"],
        ["poincare", "--field", "d=1", "--cutoffs", "50,100,200", "--s", "2.5"],
        ["verify", "--field", "d=1", "--cutoffs", "120"],
    ],
)
def test_commands_emit_schema_valid_json(tmp_path, schema, argv):
    code, doc = run_json(tmp_path, argv)
    assert code == 0
    jsonschema.validate(doc, schema)


def test_classnum_value(tmp_path):
    _, doc = run_json(tmp_path, ["classnum", "--field", "d=23"])
    assert doc["rows"][0]["value"] == 3 and doc["field"]["h"] == 3


def test_poincare_verdicts_present(tmp_path):
    _, doc = run_json(
        tmp_path, ["poincare", "--field", "d=1", "--cutoffs", "100,200,400", "--s", "1.5"]
    )
    assert doc["verdicts"]["relative"]["verdict"] == "diverges"
    assert doc["verdicts"]["parabolic"]["verdict"] == "converges"
    assert "protocol" in doc["verdicts"]["relative"]


@pytest.mark.parametrize(
    "field, s, relative, parabolic",
    [
        # convergent series whose sums on these cutoffs still grow like divergent ones
        ("1", "2.05", "converges", "converges"),
        ("1", "1.05", "diverges", "converges"),
        ("5", "2.05", "converges", "converges"),
    ],
)
def test_poincare_verdicts_near_the_thresholds(tmp_path, field, s, relative, parabolic):
    _, doc = run_json(
        tmp_path, ["poincare", "--field", field, "--cutoffs", "100,300,1000", "--s", s]
    )
    assert doc["verdicts"]["relative"]["verdict"] == relative
    assert doc["verdicts"]["parabolic"]["verdict"] == parabolic


def test_poincare_builds_each_series_once(tmp_path, monkeypatch):
    # one run of the phi increments at the largest cutoff serves every smaller
    # cutoff; the parabolic counts come in bands of norms of at most one sum
    # block, which together cover the norms 1 to 40^2
    from horocount import field

    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append((name, args[1:]))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(geodesics, "_increments", spy("_increments", geodesics._increments))
    monkeypatch.setattr(
        geodesics, "_unit_norm_band", spy("_unit_norm_band", geodesics._unit_norm_band)
    )
    code, doc = run_json(
        tmp_path, ["poincare", "--field", "d=1", "--cutoffs", "10,20,40", "--s", "1.5"]
    )
    assert code == 0
    assert [(r["kind"], r["x_or_t"]) for r in doc["rows"]] == [
        (kind, c) for c in (10.0, 20.0, 40.0) for kind in ("relative", "parabolic")
    ]
    assert [args for name, args in calls if name == "_increments"] == [(40, "auto")]
    bands = [args for name, args in calls if name == "_unit_norm_band"]
    assert bands and all(1 <= lo < hi <= lo + field._SUM_BLOCK for lo, hi in bands)
    assert set().union(*(range(lo, hi) for lo, hi in bands)) == set(range(1, 1601))


def test_poincare_underflow_is_strict_json(tmp_path, schema):
    # at s = 1000 every parabolic term underflows to 0: no log-log slope
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["poincare", "--field", "d=1", "--cutoffs", "10,20,40", "--s", "1000",
                     "--output", str(out)])
    assert code == 0

    def reject(token):
        raise AssertionError(f"non-JSON constant {token}")

    doc = json.loads(out.read_text(), parse_constant=reject)
    jsonschema.validate(doc, schema)
    assert doc["verdicts"]["parabolic"]["growth_exponent"] is None
    assert doc["verdicts"]["parabolic"]["verdict"] == "converges"


def test_horoballs_packing_summary(tmp_path):
    _, doc = run_json(tmp_path, ["horoballs", "--field", "rational", "--cutoffs", "12"])
    assert doc["packing"]["overlaps"] == 0
    assert doc["packing"]["unimodular_mismatches"] == 0
    assert len(doc["rows"]) == sum(1 for r in doc["rows"])
    assert all(r["diameter"].startswith("1") or "/" in r["diameter"] for r in doc["rows"])


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------

def test_rerun_byte_reproducible_modulo_timestamp(tmp_path):
    argv = ["count", "--field", "d=3", "--cutoffs", "50,150", "--method", "both"]
    _, doc1 = run_json(tmp_path, argv, "a.json")
    _, doc2 = run_json(tmp_path, argv, "b.json")
    assert hash_without_timestamp(doc1) == hash_without_timestamp(doc2)


def test_csv_headers_fixed(tmp_path):
    out = tmp_path / "out.csv"
    assert (
        main(
            ["count", "--field", "rational", "--cutoffs", "10,20",
             "--format", "csv", "--output", str(out)]
        )
        == 0
    )
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == ["x_or_t", "value", "predicted", "ratio"]
    assert rows[1][1] == "32"  # phi_Q(10)

    out2 = tmp_path / "balls.csv"
    main(["horoballs", "--field", "rational", "--cutoffs", "5", "--format", "csv",
          "--output", str(out2)])
    rows2 = list(csv.reader(io.StringIO(out2.read_text())))
    assert rows2[0] == ["p", "q", "center_x", "center_y", "diameter", "depth"]


def test_poincare_csv_names_the_series_of_each_row(tmp_path):
    out = tmp_path / "series.csv"
    argv = ["poincare", "--field", "1", "--cutoffs", "10,20,40", "--s", "2.5",
            "--format", "csv", "--output", str(out)]
    assert main(argv) == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == ["x_or_t", "kind", "value"]
    assert [row[:2] for row in rows[1:3]] == [["10.0", "relative"], ["10.0", "parabolic"]]
    _, doc = run_json(tmp_path, argv[:-4])
    assert [float(row[2]) for row in rows[1:]] == [r["value"] for r in doc["rows"]]


def test_verify_csv_has_one_row_per_check(tmp_path):
    out = tmp_path / "verify.csv"
    argv = ["verify", "--field", "1", "--cutoffs", "8", "--format", "csv", "--output", str(out)]
    assert main(argv) == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == ["check", "passed", "detail"]
    assert [r[0] for r in rows[1:]] == [
        "phi-cross-method", "zeta-pipelines", "character-coefficients", "totient-product",
        "mobius-summatory", "mobius-reciprocal", "horoball-packing", "series-ordering",
    ]
    assert all(r[1] == "True" and r[2] for r in rows[1:])


def test_commands_match_the_schema_enum(schema):
    assert tuple(schema["properties"]["command"]["enum"]) == cli.COMMANDS


def test_csv_rerun_identical_bytes(tmp_path):
    argv = ["depths", "--field", "d=1", "--cutoffs", "1.0,2.0,3.0",
            "--format", "csv"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(argv + ["--output", str(a)])
    main(argv + ["--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--field", "d=12", "--cutoffs", "10"],
        ["count", "--field", "d=-5", "--cutoffs", "10"],
        ["count", "--field", "bogus", "--cutoffs", "10"],
        ["poincare", "--field", "d=1", "--cutoffs", "10,20,40"],  # missing --s
        ["count", "--field", "d=1", "--cutoffs", "20,10"],  # not increasing
        ["count", "--field", "d=1"],  # missing --cutoffs
        ["count", "--field", "d=1", "--cutoffs", "10", "--s", "2.0"],  # stray s
        ["zeta", "--field", "d=1", "--tolerance", "-1"],
        ["count", "--field", "d=1", "--cutoffs", "10", "--method", "sieve"],
        ["poincare", "--field", "d=1", "--cutoffs", "10,20,40", "--s", "abc"],
        ["count", "--cutoffs", "10"],  # missing --field
    ],
)
def test_error_paths_exit_nonzero(tmp_path, capsys, argv):
    code = main(argv + ["--output", str(tmp_path / "x.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("horocount-error code=")
    assert err.count("\n") == 1  # one-line machine-parsable error


@pytest.mark.parametrize(
    "argv, code",
    [
        (["poincare", "--field", "d=1", "--cutoffs", "10,20,40", "--s", "nan"], "bad-s"),
        (["poincare", "--field", "d=1", "--cutoffs", "10,20,40", "--s", "inf"], "bad-s"),
        (["poincare", "--field", "d=1", "--cutoffs", "10,20,inf", "--s", "1.5"], "bad-cutoffs"),
        (["count", "--field", "d=1", "--cutoffs", "-5"], "bad-cutoffs"),
        (["count", "--field", "d=1", "--cutoffs", "nan"], "bad-cutoffs"),
        (["horoballs", "--field", "d=1", "--cutoffs", "-1"], "bad-cutoffs"),
        (["depths", "--field", "d=1", "--cutoffs", "800"], "bad-cutoffs"),
        # fails at once: the 3e12-entry totient sieve cannot be allocated
        (["poincare", "--field", "rational", "--cutoffs", "1e12,2e12,3e12", "--s", "1.5"],
         "too-large"),
        # the parabolic and relative terms overflow to inf
        (["poincare", "--field", "d=1", "--cutoffs", "10,20,40", "--s", "-1000"], "bad-s"),
        # about 2.6e150 character terms, refused before numpy sees the size
        (["zeta", "--field", "d=1", "--tolerance", "1e-300"], "too-large"),
        # 4*M*zeta(2)/tol is inf in floats; the message names the tolerance
        (["zeta", "--field", "d=1", "--tolerance", "5e-324"], "too-large"),
        (["poincare", "--field", "d=1", "--cutoffs", "0.5,2,3", "--s", "1.5"], "bad-cutoffs"),
        (["zeta", "--field", "d=1", "--tolerance", "nan"], "bad-tolerance"),
        (["zeta", "--field", "rational", "--tolerance", "inf"], "bad-tolerance"),
        # only zeta reads a tolerance
        (["count", "--field", "d=1", "--cutoffs", "10", "--tolerance", "0.5"], "stray-tolerance"),
        # profiles past the largest indexable int64 array, refused before numpy sees the size
        (["count", "--field", "rational", "--cutoffs", "1e19"], "too-large"),
        (["count", "--field", "1", "--cutoffs", "5e18", "--method", "mobius"], "too-large"),
        (["depths", "--field", "1", "--cutoffs", "50"], "too-large"),
        (["poincare", "--field", "rational", "--cutoffs", "1e19", "--s", "2"], "too-large"),
        # refused before the first check prints a PASS line
        (["verify", "--field", "1", "--cutoffs", "1e19"], "too-large"),
        # 2.6e10 terms, past the work budget of one series: refused, not summed
        (["zeta", "--field", "d=1", "--tolerance", "1e-20"], "too-large"),
        # only count reads a method; depths picks its own and says which
        (["depths", "--field", "1", "--cutoffs", "3", "--method", "mobius"], "stray-method"),
        # every check would run on N(q) <= 0 and pass having checked nothing
        (["verify", "--field", "1", "--cutoffs", "0"], "bad-cutoffs"),
        # zeta and classnum read no cutoffs
        (["zeta", "--field", "1", "--cutoffs", "10"], "stray-cutoffs"),
        (["classnum", "--field", "rational", "--cutoffs", "10"], "stray-cutoffs"),
        # 2.5 * 10^13 parabolic terms, past the work budget of one series:
        # refused before any PASS line
        (["verify", "--field", "1", "--cutoffs", "5000000"], "too-large"),
        # every cutoff snaps to one norm bound: three equal sums read as converging
        (["poincare", "--field", "rational", "--cutoffs", "2,2.1,2.2", "--s", "0.3"], "bad-cutoffs"),
        (["poincare", "--field", "1", "--cutoffs", "1.1,1.2,1.3", "--s", "0.5"], "bad-cutoffs"),
        # argparse's choices refuse an unknown command, method or format
        (["bogus", "--field", "1", "--cutoffs", "10"], "bad-arguments"),
        (["count", "--field", "1", "--cutoffs", "10", "--method", "sieve"], "bad-arguments"),
        (["count", "--field", "1", "--cutoffs", "10", "--format", "xml"], "bad-arguments"),
        (["count", "--field", "1", "--cutoffs", "1,x"], "bad-cutoffs"),
        # --cutoffs glues on a value that starts "-<digit>", never an option
        (["depths", "--field", "1", "--cutoffs", "--s", "2"], "bad-arguments"),
        # a parabolic norm bound of 1.6 * 10^9, past the 2^30 terms of one series
        (["poincare", "--field", "1", "--cutoffs", "10,20,40000", "--s", "1.5"], "too-large"),
    ],
)
@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning is stray stderr text
def test_bad_inputs_get_typed_codes(tmp_path, capsys, argv, code):
    out = tmp_path / "x.json"
    assert main(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"horocount-error code={code} ")
    assert err.count("\n") == 1
    assert not out.exists()
    if "--tolerance" in argv:  # a refused tolerance is named in the message
        tol = float(argv[argv.index("--tolerance") + 1])
        assert f"tol={tol:g} " in err


# valid fields, with and without the d= prefix, and invalid ones
FUZZ_FIELDS = ["rational", "1", "d=2", "3", "d=5", "23"]
FUZZ_BAD_FIELDS = ["0", "4", "-3", "x", str(10**30)]
FUZZ_SPECIALS = ["-1", "nan", "inf", ""]
# small tops keep each run in milliseconds; depths reads t, so N(q) <= e^8
FUZZ_TOPS = {"count": 200, "poincare": 200, "horoballs": 10, "depths": 8}


def _fuzz_cutoffs(command):
    top = FUZZ_TOPS.get(command, 200)
    token = st.one_of(
        st.integers(-2, top).map(str),
        st.floats(-2, top).map(repr),
        st.sampled_from(FUZZ_SPECIALS),
    )
    increasing = st.lists(st.integers(0, top), min_size=1, max_size=3, unique=True)
    return st.one_of(
        st.none(),
        increasing.map(lambda xs: ",".join(map(str, sorted(xs)))),
        st.lists(token, max_size=3).map(",".join),
    )


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(["count", "depths", "zeta", "classnum", "horoballs", "poincare"]))
    field = draw(st.one_of(st.sampled_from(FUZZ_FIELDS), st.sampled_from(FUZZ_BAD_FIELDS)))
    argv = [command, "--field", field]
    cutoffs = draw(_fuzz_cutoffs(command))
    if cutoffs is not None:
        argv += ["--cutoffs", cutoffs]
    method = draw(st.one_of(st.none(), st.sampled_from(["brute", "mobius", "both", "bogus"])))
    if method is not None:
        argv += ["--method", method]
    s_values = st.one_of(st.floats(-3, 3).map(repr), st.sampled_from(["nan", "inf", "-1000", "x", ""]))
    s = draw(st.one_of(st.none(), s_values))  # also missing-s and stray-s
    if s is not None:
        argv += ["--s", s]
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=_fuzz_argv())
def test_cli_fuzz_exits_0_or_one_typed_error(argv):
    """Any argv of the six data commands ends in exit 0 with one strict JSON
    document and no stderr, or exit 2 with one horocount-error line: never a
    traceback, and never a warning (raised here as an error)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv + ["--output", "-"])
    if code == 0:
        assert err.getvalue() == ""
        json.loads(out.getvalue(), parse_constant=lambda c: pytest.fail(f"non-JSON {c}"))
    else:
        assert code == 2, (argv, code)
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].startswith("horocount-error code="), (argv, lines)
        assert lines[0].endswith("\n")


def test_horoballs_past_the_ceiling_refused_at_once(tmp_path, capsys):
    out = tmp_path / "x.json"
    start = time.monotonic()
    code = main(["horoballs", "--field", "d=1", "--cutoffs", "1e30", "--output", str(out)])
    elapsed = time.monotonic() - start
    err = capsys.readouterr().err
    assert code == 2 and elapsed < 1.0
    assert err.startswith("horocount-error code=too-large ") and err.count("\n") == 1
    assert not out.exists()


def test_zeta_past_the_character_table_budget_refused_at_once(tmp_path, capsys):
    # one Python Kronecker symbol per residue mod D = 10^9 + 7 would take hours
    out = tmp_path / "x.json"
    start = time.monotonic()
    code = main(["zeta", "--field", "1000000007", "--output", str(out)])
    elapsed = time.monotonic() - start
    err = capsys.readouterr().err
    assert code == 2 and elapsed < 5.0
    assert err.startswith("horocount-error code=too-large ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--cutoffs", "10"],
        ["horoballs", "--cutoffs", "10"],
        ["depths", "--cutoffs", "2.0"],
        ["verify", "--cutoffs", "10"],
    ],
)
def test_huge_discriminant_refused_before_the_class_number(tmp_path, capsys, monkeypatch, argv):
    # zeta_K(2)'s character-table budget refuses D = 10^9 + 7 before h, whose
    # reduced forms take seconds there, is read
    def no_class_number(D):
        raise AssertionError(f"h computed for D = {D}")

    monkeypatch.setattr(field_module, "_reduced_form_count", no_class_number)
    out = tmp_path / "x.json"
    assert main([argv[0], "--field", "1000000007", *argv[1:], "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("horocount-error code=too-large ") and err.count("\n") == 1
    assert not out.exists()


def test_profile_refusal_gives_its_cell_count_in_g_form(capsys):
    # e^355 norms: the exact cell count has 155 digits
    assert main(["depths", "--field", "rational", "--cutoffs", "700,710"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("horocount-error code=too-large ") and "needs 1.495e+154 cells" in err


def test_unwritable_output(capsys):
    code = main(["classnum", "--field", "d=1", "--output", "/nonexistent-dir/x.json"])
    assert code == 2
    assert "unwritable-output" in capsys.readouterr().err


def test_unwritable_output_refused_before_any_check(capsys):
    argv = ["verify", "--field", "1", "--cutoffs", "12,20,26,40",
            "--output", "/nonexistent-dir/x.json"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("horocount-error code=unwritable-output ") and err.count("\n") == 1
    assert "PASS" not in err


def test_unwritable_output_never_reaches_the_handler(tmp_path, capsys, monkeypatch):
    calls = []

    def spy(config):
        calls.append(config.output)
        return [], {}

    monkeypatch.setitem(cli._COMMANDS, "classnum", (spy, None))
    for bad in ("/nonexistent-dir/x.json", str(tmp_path), str(tmp_path / "no" / "x.json")):
        assert main(["classnum", "--field", "1", "--output", bad]) == 2
        assert "code=unwritable-output" in capsys.readouterr().err
    assert calls == []
    good = tmp_path / "x.json"
    assert main(["classnum", "--field", "1", "--output", str(good)]) == 0
    assert calls == [str(good)] and good.exists()


def test_failed_command_leaves_an_existing_output_as_it_was(tmp_path, capsys):
    out = tmp_path / "x.json"
    out.write_text("earlier run\n")
    code = main(["horoballs", "--field", "d=1", "--cutoffs", "1e30", "--output", str(out)])
    assert code == 2 and "code=too-large" in capsys.readouterr().err
    assert out.read_text() == "earlier run\n"


_PACKAGE_ROOT = str(Path(cli.__file__).resolve().parents[1])


def _python(code: str, *args: str) -> str:
    """stdout of a fresh interpreter that runs code, away from pytest's heap."""
    env = dict(os.environ, PYTHONPATH=_PACKAGE_ROOT)
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


def _cli_process(argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    """main(argv) in a fresh interpreter, its stderr captured as text."""
    code = "import sys\nfrom horocount.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    env = dict(os.environ, PYTHONPATH=_PACKAGE_ROOT)
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, stderr=subprocess.PIPE,
                          text=True, timeout=60, **kwargs)


@pytest.mark.parametrize("argv", [
    ["count", "--field", "1", "--cutoffs", "10"],
    ["horoballs", "--field", "rational", "--cutoffs", "36"],
])
def test_closed_stdout_is_one_unwritable_output_line(argv):
    """stdout is a pipe whose reader is gone: one typed line, no traceback,
    and nothing more at the interpreter's exit flush."""
    read, write = os.pipe()
    os.close(read)
    try:
        done = _cli_process(argv, stdout=write)
    finally:
        os.close(write)
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("horocount-error code=unwritable-output ")


@pytest.mark.parametrize("argv", [
    ["classnum"],
    ["poincare", "--cutoffs", "10,20,40", "--s", "1.5"],
])
def test_class_number_past_its_budget_refused_at_once(argv):
    """d = 2^61 - 1 is prime and accepted; its reduced forms would take about
    10^10 s to count, so h is refused before the first one."""
    done = _cli_process([argv[0], "--field", str(2**61 - 1), *argv[1:]], stdout=subprocess.PIPE)
    assert done.returncode == 2 and done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("horocount-error code=too-large ")


def test_main_freezes_the_heap_once_and_import_does_not():
    code = """
import gc, os, sys
import horocount.cli
counts = [gc.get_freeze_count()]
for _ in range(2):
    horocount.cli.main(["classnum", "--field", "1", "--output", os.devnull])
    counts.append(gc.get_freeze_count())
print(*counts)
"""
    on_import, first, second = map(int, _python(code).split())
    assert on_import == 0
    assert first > 0 and second == first


@pytest.mark.parametrize("argv", [
    ["count", "--field", "1", "--cutoffs", "50,120", "--method", "both", "--format", "csv"],
    ["verify", "--field", "5", "--cutoffs", "40"],
])
def test_output_is_the_same_without_the_freeze(argv):
    run = "import sys\nfrom horocount.cli import main\nmain(sys.argv[1:])\n"
    unfrozen = "import gc\ngc.freeze = lambda: None\n" + run
    outputs = [_python(code, *argv) for code in (run, unfrozen)]
    if argv[-1] != "csv":
        outputs = [hash_without_timestamp(json.loads(text)) for text in outputs]
    assert outputs[0] == outputs[1]


def test_verify_passes_on_good_field(capsys):
    code = main(["verify", "--field", "d=3", "--cutoffs", "150", "--output", "-"])
    captured = capsys.readouterr()
    assert code == 0
    assert "PASS" in captured.err and "FAIL" not in captured.err
    doc = json.loads(captured.out)  # stdout holds exactly one JSON document
    assert doc["failures"] == 0
    assert all(row["passed"] for row in doc["rows"])
    details = {row["check"]: row["detail"] for row in doc["rows"]}
    assert details["phi-cross-method"] == "brute == mobius == sieve on every integer x <= 150"


def test_verify_compares_two_zeta_pipelines_over_q(capsys, monkeypatch):
    argv = ["verify", "--field", "rational", "--cutoffs", "30", "--output", "-"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["failures"] == 0
    real = cli.zeta_K_2_via_ideal_counts
    monkeypatch.setattr(cli, "zeta_K_2_via_ideal_counts", lambda f, n: real(f, n) + 1e-6)
    assert main(argv) == 1
    passed = {row["check"]: row["passed"] for row in json.loads(capsys.readouterr().out)["rows"]}
    assert [check for check, ok in passed.items() if not ok] == ["zeta-pipelines"]


def _failing_checks(capsys, monkeypatch, module, name, replacement):
    monkeypatch.setattr(module, name, replacement)
    assert main(["verify", "--field", "1", "--cutoffs", "8", "--output", "-"]) == 1
    captured = capsys.readouterr()
    failed = [row["check"] for row in json.loads(captured.out)["rows"] if not row["passed"]]
    fail_lines = [line for line in captured.err.splitlines() if line.startswith("FAIL")]
    assert [line.split()[1] for line in fail_lines] == failed
    return failed


def test_verify_fails_on_a_wrong_mobius(capsys, monkeypatch):
    failed = _failing_checks(capsys, monkeypatch, cli, "mobius_ideal", lambda f, ideal: 0)
    assert failed == ["mobius-summatory"]


def test_verify_fails_on_decreasing_partial_sums(capsys, monkeypatch):
    def decreasing(f, s, cutoffs):
        return [
            geodesics.SeriesPartialSum(s=s, cutoff=c, value=-c, kind="parabolic") for c in cutoffs
        ]

    failed = _failing_checks(
        capsys, monkeypatch, geodesics, "parabolic_poincare_partials", decreasing
    )
    assert failed == ["series-ordering"]


def test_value_error_in_a_command_is_one_invalid_request_line(capsys, monkeypatch):
    def broken(f):
        raise ValueError("no residue")

    monkeypatch.setattr(cli, "residue_K", broken)  # the table holds _cmd_zeta itself
    assert main(["zeta", "--field", "1", "--output", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "horocount-error code=invalid-request message=no residue\n"


def test_row_values_beyond_2_53_emitted_as_strings(tmp_path, schema, monkeypatch):
    def fake_phi_at(f, cutoffs, method):
        return [{5: 2**60, 10: 2**50}[x] for x in cutoffs]

    monkeypatch.setattr(counting, "phi_at", fake_phi_at)
    code, doc = run_json(tmp_path, ["count", "--field", "rational", "--cutoffs", "5,10"])
    assert code == 0
    jsonschema.validate(doc, schema)
    values = [row["value"] for row in doc["rows"]]
    assert values == ["1152921504606846976", 2**50]
    assert type(values[1]) is int


def test_bools_and_ball_coordinates_keep_their_json_types(tmp_path):
    code, doc = run_json(tmp_path, ["verify", "--field", "1", "--cutoffs", "20"])
    assert code == 0
    assert all(type(row["passed"]) is bool for row in doc["rows"])
    code, doc = run_json(tmp_path, ["horoballs", "--field", "1", "--cutoffs", "20"], "b.json")
    assert code == 0
    assert all(
        len(row[k]) == 2 and all(type(c) is int for c in row[k])
        for row in doc["rows"] for k in ("p", "q")
    )


def test_render_json_is_the_dumps_document_in_bounded_memory(traced_peak_mb):
    config = build_config(["horoballs", "--field", "1", "--cutoffs", "120"])
    rows, extras = _cmd_horoballs(config)
    text = _render_json(config, rows, extras)
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2, allow_nan=False) + "\n"
    # the parent's walk and chunk list peaked near 12 MB for this 1.2 MB document
    assert traced_peak_mb(lambda: _render_json(config, rows, extras)) < 6
