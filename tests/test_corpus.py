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
import os
import subprocess
import sys
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


# the entries whose sums moved with the BLAS thread count while each partial
# sum was an OpenBLAS dot product, which splits a long sum across threads
_THREADED = [
    ["poincare", "--field", "1", "--cutoffs", "200,400,800", "--s", "1.7"],
    ["poincare", "--field", "1", "--cutoffs", "100,200,400", "--s", "2.3"],
    ["poincare", "--field", "1", "--cutoffs", "100,200,400", "--s", "2.7"],
]
_RUN = (
    "import json, sys\n"
    "import make_corpus\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    print(json.dumps(make_corpus.run(argv), sort_keys=True))\n"
)


def test_series_entries_do_not_depend_on_the_blas_thread_count():
    """The entries above, in a fresh interpreter at one and at two OpenBLAS
    threads, print the same bytes (generated_at removed).  OpenBLAS runs no
    more threads than the process has CPUs, so under `taskset -c 0` both runs
    are one-thread runs and this test cannot fail there."""
    package_root = Path(make_corpus.cli.__file__).resolve().parents[1]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(map(str, (package_root, _HERE))))
        done = subprocess.run([sys.executable, "-c", _RUN, json.dumps(_THREADED)], env=env,
                              capture_output=True, check=True, timeout=120)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
