"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

Each independent check passes on today's outputs and fails once a single
value is perturbed; the reference phi agrees with the program's brute
profile; a traced command yields every declared per-layer metric.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

from checks import Reference, check_output, ring_of  # noqa: E402
from spans import layer_metrics  # noqa: E402
from workloads import Command  # noqa: E402

REF = Reference()


def run_cli(cmd: Command, tmp_path: Path) -> dict:
    from horocount import cli

    out = tmp_path / "out.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(cmd.argv(str(out))) == 0
    return json.loads(out.read_text())


def _bump_value(doc):
    doc["rows"][-1]["value"] += 1


def _scale_value(doc):
    doc["rows"][-1]["value"] *= 1 + 1e-8


def _flip_verdict(doc):
    v = doc["verdicts"]["parabolic"]
    v["verdict"] = "diverges" if v["verdict"] == "converges" else "converges"


def _diameter(doc):
    doc["rows"][0]["diameter"] = "1/7919"


def _center(doc):
    doc["rows"][-1]["center_x"] = "1/7919"


def _drop_row(doc):
    doc["rows"].pop()


def _tangencies(doc):
    doc["packing"]["tangencies"] -= 1


def _overlap(doc):
    doc["packing"]["overlaps"] = 1


def _failures(doc):
    doc["failures"] = 1


CASES = [
    (Command("count", "rational", (10, 20, 30)), [_bump_value]),
    (Command("count", 1, (10, 25, 40), method="both"), [_bump_value]),
    (Command("count", 3, (7, 30), method="both"), [_bump_value]),
    (Command("count", 7, (12, 31), method="both"), [_bump_value]),
    (Command("count", 5, (10, 30, 60)), [_bump_value]),
    (Command("count", 23, (10, 50)), [_bump_value]),
    (Command("depths", "rational", (4.0, 6.5)), [_bump_value]),
    (Command("depths", 2, (2.5, 3.5)), [_bump_value]),
    (Command("depths", 6, (3.0, 4.0)), [_bump_value]),
    (Command("poincare", "rational", (10, 20, 40), s=1.5), [_scale_value, _flip_verdict]),
    (Command("poincare", 1, (5, 10, 20), s=0.7), [_scale_value, _flip_verdict]),
    (Command("poincare", 7, (10, 20, 40), s=2.5), [_scale_value]),
    (Command("horoballs", "rational", (8,)),
     [_diameter, _center, _drop_row, _tangencies, _overlap]),
    (Command("horoballs", 1, (6,)), [_diameter, _center, _drop_row, _tangencies]),
    (Command("horoballs", 3, (5,)), [_center, _tangencies]),
    (Command("horoballs", 5, (4,)), [_center, _drop_row]),
    (Command("verify", 1, (8,)), [_failures]),
]


@pytest.mark.parametrize("cmd,perturbations", CASES, ids=[str(c) for c, _ in CASES])
def test_check_passes_then_catches_a_perturbation(cmd, perturbations, tmp_path):
    doc = run_cli(cmd, tmp_path)
    assert check_output(cmd, doc, REF) == []
    for perturb in perturbations:
        bad = copy.deepcopy(doc)
        perturb(bad)
        assert check_output(cmd, bad, REF), perturb.__name__


@pytest.mark.parametrize("d", ["rational", 1, 2, 3, 5, 6, 7, 11, 19, 23, 43])
def test_reference_phi_matches_brute_profile(d):
    from horocount import counting, field

    f = field.make_field(d)
    assert REF.phi_profile(ring_of(d), 150) == counting.phi_profile(f, 150, method="brute")


def test_traced_commands_yield_every_declared_metric(tmp_path):
    traces = []
    for cmd in (Command("count", 1, (30,), method="both"), Command("horoballs", 1, (4,)),
                Command("depths", "rational", (5.0,)), Command("verify", 5, (8,))):
        spans = tmp_path / "spans.json"
        subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(SRC), str(tmp_path / "stats.txt"),
             "--trace", str(spans), "--", *cmd.argv(str(tmp_path / "out.json"))],
            check=True, stdout=subprocess.DEVNULL, timeout=120,
        )
        traces.append(json.loads(spans.read_text()))
    metrics = layer_metrics(traces, output_bytes=1024)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_pct"}
    assert declared <= set(metrics)
    assert metrics["counting.phi_profile_calls"] >= 2
    assert metrics["geodesics.pairs"] > 0 and metrics["ideals.is_coprime_calls"] > 0
