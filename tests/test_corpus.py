"""The pinned corpus: every entry of tests/corpus/corpus.jsonl.gz, run in
process, gives its exit code, its stderr and its stdout again.  Ints, strings
and bools compare exactly, floats within a relative REL, a bound fixed before
the corpus was generated: a float sum may reorder with the numpy version.
tests/corpus/make_corpus.py regenerates the corpus."""

import csv
import gzip
import importlib.util
import json
import math
from pathlib import Path

import pytest

_HERE = Path(__file__).with_name("corpus")
_spec = importlib.util.spec_from_file_location("make_corpus", _HERE / "make_corpus.py")
make_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_corpus)

REL = 1e-12

with gzip.open(make_corpus.CORPUS, "rt", encoding="utf-8") as _fh:
    ENTRIES = [json.loads(line) for line in _fh]


def _same(got, want) -> bool:
    if type(got) is not type(want):
        return False
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(_same(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return len(got) == len(want) and all(map(_same, got, want))
    if isinstance(want, float):
        return math.isclose(got, want, rel_tol=REL, abs_tol=0.0)
    return got == want


def _same_cell(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        return _same(float(got), float(want))
    except ValueError:
        return False


def _same_csv(got: str, want: str) -> bool:
    rows = [list(csv.reader(text.splitlines())) for text in (got, want)]
    return len(rows[0]) == len(rows[1]) and all(
        len(g) == len(w) and all(map(_same_cell, g, w)) for g, w in zip(*rows)
    )


def test_corpus_covers_the_bench_commands_and_every_reachable_error_code():
    assert len(make_corpus.BENCH) == 33 and [e["argv"] for e in ENTRIES] == make_corpus.ENTRIES
    codes = {e["stderr"].split()[1] for e in ENTRIES if e["exit"] == 2}
    assert codes == {f"code={c}" for c in (
        "bad-arguments", "invalid-field", "stray-cutoffs", "bad-cutoffs", "missing-s",
        "stray-s", "bad-s", "missing-cutoffs", "stray-method", "stray-tolerance",
        "bad-tolerance", "too-large", "unwritable-output")}
    csv_commands = {e["argv"][0] for e in ENTRIES if "csv" in e["argv"] and e["exit"] == 0}
    assert csv_commands == {"count", "zeta", "classnum", "depths", "horoballs", "poincare", "verify"}


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_corpus_entry_is_reproduced(entry):
    got = make_corpus.run(entry["argv"])
    assert got["exit"] == entry["exit"]
    assert got["stderr"] == entry["stderr"]
    same = _same_csv if isinstance(entry["stdout"], str) else _same
    assert same(got["stdout"], entry["stdout"])
