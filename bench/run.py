"""Benchmark of the horocount command line, end to end and layer by layer.

    python3 bench/run.py --workload census|series|packing|all --seed N \
        --seconds S --trace 0|1

Run from anywhere inside a checkout: it drives the package under src/.  Each
command runs in a fresh interpreter, one at a time, after an untimed warm-up
command, with the benchmark and its children pinned to one CPU.  Every timed
interval is bracketed by a fixed pure-Python speed probe and reported in
reference seconds: the raw wall time scaled by the probe's reference time over
its measured time (to the power of the workload's measured elasticity), so
that the host's speed, which drifts by up to 2x over seconds and minutes,
mostly cancels out (see README.md).  Rounds of the workload's
commands repeat until --seconds have passed; every output is checked against
an independent computation, outside the timed interval.  With --trace 0 the
last stdout line holds the end-to-end metrics (medians over rounds); with
--trace 1 untraced and traced rounds alternate, and it holds the per-layer
metrics of the traced rounds and the tracing overhead.  Details of every
round go to bench/results/.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from checks import Reference, check_output
from spans import layer_metrics
from workloads import ELASTICITY, WARMUP, WORKLOADS, commands

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
DEFAULT_SEED = 20260
COMMAND_TIMEOUT_S = 150
SETUP_PROBES_PER_ROUND = 2
# The speed probe's best-of-3 time on a 2-vCPU Intel Xeon VM at its faster
# speeds (Python 3.11).  A timing t at probe time p is reported as
# t * (REF / p) ** e: e = 1 for set-up, the workload's ELASTICITY for commands.
REFERENCE_PROBE_S = 0.016
PROBE_REPEATS = 3
NPROC = len(os.sched_getaffinity(0))  # before pinning


def probe_s() -> float:
    """Best-of-3 time of a fixed interpreter workload: integer arithmetic and
    dict stores, then exact Fraction sums, like the program's own loops.  It
    never changes, so that runs of different code stay comparable."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        acc, table = 0, {}
        for i in range(25000):
            acc = (acc * 31 + i) % 1_000_003
            table[acc & 4095] = acc
        total = Fraction(0)
        for i in range(1, 1200):
            total += Fraction(1, i * i + 1)
        best = min(best, time.perf_counter() - start)
    return best


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child, to one CPU, so that the speed
    probe measures the CPU the commands run on."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env() -> dict[str, str]:
    """The caller's environment without HOROCOUNT_* and PYTHON* settings (so
    bytecode is cached, as for an installed package), with pinned hashing
    and one BLAS/OpenMP thread."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("HOROCOUNT_", "PYTHON"))}
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


class Runner:
    def __init__(self, workdir: Path, elasticity: float):
        self.workdir = workdir
        self.elasticity = elasticity
        self.env = child_env()
        self.reference = Reference()
        self.verdicts: dict[tuple[str, str], list[str]] = {}

    def spawn(self, args: list[str], elasticity: float) -> dict:
        """Run child.py once: wall time from spawn to reap, exit status, and
        the wall time in reference seconds, scaled by the speed probes taken
        right before and right after."""
        err_path = self.workdir / "stderr.txt"
        before = probe_s()
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(SRC), *args],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
                env=self.env, cwd=self.workdir,
            )
            # A blocking waitpid returns as the child ends; Popen.wait(timeout)
            # would poll, adding up to tens of ms to every timing.
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status = os.waitpid(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        after = probe_s()
        proc.returncode = os.waitstatus_to_exitcode(status)
        tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
        probe = (before * after) ** 0.5
        return {"ref_s": wall * (REFERENCE_PROBE_S / probe) ** elasticity, "raw_s": wall,
                "probe_s": probe, "status": proc.returncode, "stderr": tail}

    def setup_time(self) -> dict:
        res = self.spawn(["--import-only"], 1.0)
        if res["status"] != 0:
            raise RuntimeError(f"importing horocount.cli failed: {res['stderr']}")
        return res

    def check(self, cmd, text: str) -> list[str]:
        """Independent check; the verdict is kept per distinct output."""
        try:
            doc = json.loads(text)
        except ValueError as exc:
            return [f"output is not JSON: {exc}"]
        doc.pop("generated_at", None)
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        key = (str(cmd), digest)
        if key not in self.verdicts:
            self.verdicts[key] = check_output(cmd, doc, self.reference)
        return self.verdicts[key]

    def round(self, cmds, traced: bool) -> dict:
        out_path, stats_path, span_path = (
            self.workdir / name for name in ("out.json", "stats.txt", "spans.json"))
        records, traces, out_bytes = [], [], 0
        for cmd in cmds:
            for path in (out_path, stats_path, span_path):
                path.unlink(missing_ok=True)
            mode = ["--trace", str(span_path)] if traced else []
            res = self.spawn([str(stats_path), *mode, "--", *cmd.argv(str(out_path))],
                             self.elasticity)
            # Everything below is outside the timed interval.
            res["command"] = str(cmd)
            res["rss_mb"] = int(stats_path.read_text()) / 1024 if stats_path.exists() else 0.0
            if res["status"] == 0:
                text = out_path.read_text(encoding="utf-8")
                out_bytes += len(text.encode())
                res["problems"] = self.check(cmd, text)
                res["wrong"] = bool(res["problems"])
            else:
                res["problems"] = [f"exit {res['status']}: {' '.join(res['stderr'])}"]
                res["wrong"] = False
            if traced and span_path.exists():
                dump = json.loads(span_path.read_text(encoding="utf-8"))
                dump["command"] = str(cmd)  # the id shared by this command's spans
                traces.append(dump)
            records.append(res)
        return {
            "traced": traced,
            "wall_s": sum(r["ref_s"] for r in records),
            "raw_wall_s": sum(r["raw_s"] for r in records),
            "peak_rss_mb": max(r["rss_mb"] for r in records),
            "attempted": len(records),
            "failed": sum(1 for r in records if r["problems"]),
            "wrong": sum(1 for r in records if r["wrong"]),
            "commands": records,
            "layers": layer_metrics(traces, out_bytes) if traced else None,
            "spans": traces,
        }


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def command_medians(rounds: list[dict], key: str) -> float:
    """The sum over a round's commands of each command's median over rounds:
    a command slowed in one round by a burst the probes missed moves only its
    own median."""
    per_command = zip(*([c[key] for c in r["commands"]] for r in rounds))
    return sum(statistics.median(times) for times in per_command)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cmds = commands(name, seed)
    cpu = pin_to_one_cpu()
    workdir = RESULTS / f"work-{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workdir, ELASTICITY[name])
        runner.round([WARMUP], traced=False)
        setup, rounds, spans, lengths = [], [], None, []
        start = time.perf_counter()
        # Start a round only if it should end within the run, whole rounds only.
        while (len(rounds) < (2 if trace else 1)
               or time.perf_counter() - start + statistics.median(lengths) <= seconds):
            begun = time.perf_counter()
            setup += [runner.setup_time() for _ in range(SETUP_PROBES_PER_ROUND)]
            rounds.append(runner.round(cmds, traced=trace and len(rounds) % 2 == 1))
            lengths.append(time.perf_counter() - begun)
            last = rounds[-1]
            spans = last.pop("spans") or spans
            print(f"{name} round {len(rounds)}{' traced' if last['traced'] else ''}: "
                  f"{last['wall_s']:.3f} s ({last['raw_wall_s']:.3f} s raw), "
                  f"{last['failed']}/{last['attempted']} failed",
                  file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    samples = {
        "wall_s": [r["wall_s"] for r in plain],
        "setup_s": [p["ref_s"] for p in setup],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "raw_wall_s": [r["raw_wall_s"] for r in plain],
        "raw_setup_s": [p["raw_s"] for p in setup],
        "probe_s": [c["probe_s"] for r in rounds for c in r["commands"]],
    }
    if traced:
        for key in traced[0]["layers"]:
            samples[key] = [r["layers"][key] for r in traced]
        walls = [r["wall_s"] for r in traced]
        samples["trace.overhead_pct"] = [
            100.0 * (statistics.median(walls) / statistics.median(samples["wall_s"]) - 1.0)
        ]
    metrics = {k: summary(v) for k, v in samples.items()}
    metrics["wall_s"]["median"] = command_medians(plain, "ref_s")
    metrics["raw_wall_s"]["median"] = command_medians(plain, "raw_s")
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commands": [str(c) for c in cmds],
        "correct": not any(r["wrong"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": NPROC,
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "pinned_cpu": cpu,
            "reference_probe_s": REFERENCE_PROBE_S,
            "elasticity": ELASTICITY[name],
        },
        "setup": setup,
        "rounds": rounds,
        "spans": spans,
    }


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def report(result: dict, trace: bool) -> dict:
    """Write the full result file, print the summary, return the result line."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{int(trace)}"
    spans = result.pop("spans")
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    if spans:  # the last traced round, one dump per command
        with gzip.open(RESULTS / f"{stem}-spans.json.gz", "wt", encoding="utf-8") as fh:
            json.dump(spans, fh, separators=(",", ":"))
    env = result["environment"]
    print(f"{result['workload']} seed {result['seed']}: {len(result['rounds'])} rounds, "
          f"{result['attempted']} commands attempted, {result['failed']} failed, "
          f"correct={result['correct']} (python {env['python']}, numpy {env['numpy']}, "
          f"nproc {env['nproc']}, pinned to cpu {env['pinned_cpu']})")
    raw = result["metrics"]
    print(f"  raw wall {raw['raw_wall_s']['median']:.4f} s, raw setup "
          f"{raw['raw_setup_s']['median']:.4f} s, speed probe "
          f"{raw['probe_s']['median'] * 1000:.2f} ms (reference "
          f"{REFERENCE_PROBE_S * 1000:.2f} ms)")
    metrics = {}
    for m in declared_metrics(trace):
        stat = result["metrics"][m["name"]]
        metrics[m["name"]] = {"value": stat["median"], "unit": m["unit"]}
        print(f"  {m['name']:<40} {stat['median']:>14.6g} {m['unit']:<6} "
              f"(median of {stat['n']}, quartiles {stat['q1']:.6g} .. {stat['q3']:.6g})")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "horocount" / "cli.py").is_file():
        print(f"no horocount sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        lines[name] = report(result, bool(args.trace))
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
