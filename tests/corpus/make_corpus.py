"""Regenerate corpus.jsonl.gz, the pinned outputs that tests/test_corpus.py
compares against: one JSON line per argv with its exit code, its stderr and
its stdout (the JSON document without generated_at, or the CSV text).

Run from the repository root, on the tree whose outputs are to be pinned:

    PYTHONPATH=src python tests/corpus/make_corpus.py

A change that moves an entry says which one and why.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import sys
from pathlib import Path

from horocount import cli

CORPUS = Path(__file__).with_name("corpus.jsonl.gz")

# The distinct commands of the benchmark's census, series and packing rounds
# at seeds 20260 and 31337, its warm-up first, written out so that the corpus
# stands without bench/.
BENCH = [
    ["count", "--field", "1", "--cutoffs", "100", "--method", "both"],
    ["count", "--field", "rational", "--cutoffs", "1000,2000,3000", "--method", "both"],
    ["count", "--field", "1", "--cutoffs", "229,1341,1500", "--method", "both"],
    ["count", "--field", "3", "--cutoffs", "832,1288,1500", "--method", "both"],
    ["count", "--field", "2", "--cutoffs", "233,890,1050", "--method", "both"],
    ["count", "--field", "10", "--cutoffs", "768,827,2750"],
    ["count", "--field", "107", "--cutoffs", "917,3298,3600"],
    ["depths", "--field", "rational", "--cutoffs", "12.0,16.0,20.0,23.0"],
    ["depths", "--field", "2", "--cutoffs", "5.9,6.9"],
    ["depths", "--field", "10", "--cutoffs", "6.9,7.9"],
    ["poincare", "--field", "rational", "--cutoffs", "500,1000,2000", "--s", "0.4"],
    ["poincare", "--field", "rational", "--cutoffs", "500,1000,2000", "--s", "0.7"],
    ["poincare", "--field", "rational", "--cutoffs", "500,1000,2000", "--s", "1.5"],
    ["poincare", "--field", "1", "--cutoffs", "100,200,400", "--s", "0.7"],
    ["poincare", "--field", "1", "--cutoffs", "200,400,800", "--s", "1.7"],
    ["poincare", "--field", "1", "--cutoffs", "100,200,400", "--s", "2.3"],
    ["horoballs", "--field", "rational", "--cutoffs", "36"],
    ["horoballs", "--field", "1", "--cutoffs", "34"],
    ["verify", "--field", "1", "--cutoffs", "100"],
    ["verify", "--field", "123", "--cutoffs", "100"],
    ["count", "--field", "1", "--cutoffs", "498,1305,1500", "--method", "both"],
    ["count", "--field", "3", "--cutoffs", "198,1047,1500", "--method", "both"],
    ["count", "--field", "19", "--cutoffs", "500,979,1600", "--method", "both"],
    ["count", "--field", "6", "--cutoffs", "706,1066,2450"],
    ["count", "--field", "83", "--cutoffs", "685,2733,3300"],
    ["depths", "--field", "19", "--cutoffs", "6.7,7.7"],
    ["depths", "--field", "6", "--cutoffs", "6.8,7.8"],
    ["poincare", "--field", "rational", "--cutoffs", "500,1000,2000", "--s", "0.35"],
    ["poincare", "--field", "rational", "--cutoffs", "500,1000,2000", "--s", "0.75"],
    ["poincare", "--field", "1", "--cutoffs", "100,200,400", "--s", "0.8"],
    ["poincare", "--field", "1", "--cutoffs", "200,400,800", "--s", "1.5"],
    ["poincare", "--field", "1", "--cutoffs", "100,200,400", "--s", "2.7"],
    ["verify", "--field", "58", "--cutoffs", "100"],
]

# every command once as CSV, and the edge cutoffs: a depth below 0 and below
# 1, a cutoff one ulp under an integer, a depth t = log 7 whose e^t is one ulp
# under 7, and parabolic cutoffs sqrt(3) and sqrt(7), whose squares are one
# ulp under 3 and over 7
EDGES = [
    ["count", "--field", "5", "--cutoffs", "100,200", "--method", "both", "--format", "csv"],
    ["zeta", "--field", "7", "--format", "csv"],
    ["classnum", "--field", "23", "--format", "csv"],
    ["depths", "--field", "rational", "--cutoffs=-1,0.5,2,9", "--format", "csv"],
    ["depths", "--field", "1", "--cutoffs=-1,0.5,2,7", "--format", "csv"],
    ["horoballs", "--field", "5", "--cutoffs", "20", "--format", "csv"],
    ["horoballs", "--field", "rational", "--cutoffs", "12", "--format", "csv"],
    ["poincare", "--field", "1", "--cutoffs", "10,20,40", "--s", "1.5", "--format", "csv"],
    ["poincare", "--field", "rational", "--cutoffs", "10,20,40", "--s", "0.7", "--format", "csv"],
    ["verify", "--field", "2", "--cutoffs", "20", "--format", "csv"],
    ["count", "--field", "1", "--cutoffs", "9.999999999999998,20"],
    ["count", "--field", "rational", "--cutoffs", "0.9999999999999999,2"],
    ["depths", "--field", "1", "--cutoffs", "1.9459101490553132"],
    ["poincare", "--field", "1", "--cutoffs", "1.7320508075688772,2.6457513110645907", "--s", "1.5"],
]

# one argv for each typed error code an argv reaches (invalid-request is
# reached only through a ValueError that no argv raises)
ERRORS = [
    ["classnum", "--field", "1", "--bogus"],  # bad-arguments
    ["count", "--field", "12", "--cutoffs", "10"],  # invalid-field
    ["zeta", "--field", "1", "--cutoffs", "10"],  # stray-cutoffs
    ["count", "--field", "1", "--cutoffs", "20,10"],  # bad-cutoffs
    ["poincare", "--field", "1", "--cutoffs", "10,20,40"],  # missing-s
    ["count", "--field", "1", "--cutoffs", "10", "--s", "2"],  # stray-s
    ["poincare", "--field", "1", "--cutoffs", "10,20,40", "--s", "nan"],  # bad-s
    ["count", "--field", "1"],  # missing-cutoffs
    ["depths", "--field", "1", "--cutoffs", "3", "--method", "mobius"],  # stray-method
    ["count", "--field", "1", "--cutoffs", "10", "--tolerance", "0.5"],  # stray-tolerance
    ["zeta", "--field", "1", "--tolerance", "nan"],  # bad-tolerance
    ["horoballs", "--field", "1", "--cutoffs", "1e30"],  # too-large, the ball ceiling
    ["count", "--field", "rational", "--cutoffs", "1e19"],  # too-large, an OverflowError
    ["classnum", "--field", "1", "--output", "/nonexistent-dir/x.json"],  # unwritable-output
    ["classnum", "--field", "1", "--output", "/"],  # unwritable-output, a directory
]

ENTRIES = BENCH + EDGES + ERRORS


def run(argv: list[str]) -> dict:
    """One entry: the argv run in process, to stdout unless it names an output."""
    full = argv if "--output" in argv else argv + ["--output", "-"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(full)
    stdout: object = out.getvalue()
    if stdout and "csv" not in argv:
        stdout = json.loads(stdout)
        del stdout["generated_at"]
    return {"argv": argv, "exit": code, "stderr": err.getvalue(), "stdout": stdout}


def main() -> None:
    lines = [json.dumps(run(argv), sort_keys=True, separators=(",", ":")) for argv in ENTRIES]
    # no name and no time in the gzip header: one tree gives one file, byte for byte
    with open(CORPUS, "wb") as raw, gzip.GzipFile("", "wb", 9, raw, mtime=0) as fh:
        fh.write("".join(line + "\n" for line in lines).encode())


if __name__ == "__main__":
    sys.exit(main())
