"""CLI surface: schema-valid output, determinism, machine-parsable errors,
and the verify command's exit contract."""

import copy
import csv
import hashlib
import io
import json
import time
import warnings
from importlib import resources

import jsonschema
import pytest

from horocount import geodesics
from horocount.cli import main
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


@pytest.mark.parametrize(
    "field, method", [("rational", "sieve"), ("d=1", "mobius"), ("d=5", "brute")]
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


def test_poincare_builds_each_series_once(tmp_path, monkeypatch):
    # one phi profile and one lattice histogram at the largest cutoff serve
    # every smaller cutoff
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append((name, args[1:]))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(geodesics, "phi_profile", spy("phi_profile", geodesics.phi_profile))
    monkeypatch.setattr(
        geodesics, "norm_histogram", spy("norm_histogram", geodesics.norm_histogram)
    )
    code, doc = run_json(
        tmp_path, ["poincare", "--field", "d=1", "--cutoffs", "10,20,40", "--s", "1.5"]
    )
    assert code == 0
    assert [(r["kind"], r["x_or_t"]) for r in doc["rows"]] == [
        (kind, c) for c in (10.0, 20.0, 40.0) for kind in ("relative", "parabolic")
    ]
    assert sorted(name for name, _ in calls) == ["norm_histogram", "phi_profile"]
    assert dict(calls)["phi_profile"][0] == 40
    assert dict(calls)["norm_histogram"][1] == 1600


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
        ["count", "--field", "d=5", "--cutoffs", "10", "--method", "mobius"],  # h=2
        ["count", "--field", "d=1", "--cutoffs", "10", "--s", "2.0"],  # stray s
        ["zeta", "--field", "d=1", "--tolerance", "-1"],
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


def test_horoballs_past_the_ceiling_refused_at_once(tmp_path, capsys):
    out = tmp_path / "x.json"
    start = time.monotonic()
    code = main(["horoballs", "--field", "d=1", "--cutoffs", "1e30", "--output", str(out)])
    elapsed = time.monotonic() - start
    err = capsys.readouterr().err
    assert code == 2 and elapsed < 1.0
    assert err.startswith("horocount-error code=too-large ") and err.count("\n") == 1
    assert not out.exists()


def test_unwritable_output(capsys):
    code = main(["classnum", "--field", "d=1", "--output", "/nonexistent-dir/x.json"])
    assert code == 2
    assert "unwritable-output" in capsys.readouterr().err


def test_verify_passes_on_good_field(capsys):
    code = main(["verify", "--field", "d=3", "--cutoffs", "150", "--output", "-"])
    captured = capsys.readouterr()
    assert code == 0
    assert "PASS" in captured.err and "FAIL" not in captured.err
    doc = json.loads(captured.out)  # stdout holds exactly one JSON document
    assert doc["failures"] == 0
    assert all(row["passed"] for row in doc["rows"])


def test_big_integers_emitted_as_strings(tmp_path):
    # direct check of the encoder contract on a synthetic row
    from horocount.cli import _stringify_big_ints

    assert _stringify_big_ints({"v": 2**60}) == {"v": str(2**60)}
    assert _stringify_big_ints({"v": 2**50}) == {"v": 2**50}
    assert _stringify_big_ints([True, 2**60]) == [True, str(2**60)]
