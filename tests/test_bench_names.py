"""Every per-layer timing or call-count metric that BENCHMARK.json declares
names a public function of its layer, so renaming or removing one fails here
and not only in the benchmark's own smoke test.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())

# metrics named after no function: each layer's self time, the per-method
# times of phi_profile, and the rates
NOT_FUNCTIONS = {
    "cli.self_s", "counting.self_s", "ideals.self_s", "geodesics.self_s",
    "field.self_s", "arith.self_s",
    "counting.brute_s", "counting.mobius_s",
    "counting.box_cells_per_s", "ideals.lattice_points_per_s", "geodesics.pairs_per_s",
}

FUNCTION_METRICS = sorted(
    name
    for name in (m["name"] for m in SPEC["per_layer"])
    if name.endswith(("_s", "_calls")) and name not in NOT_FUNCTIONS
)


def test_exclusions_are_declared():
    assert NOT_FUNCTIONS <= {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("metric", FUNCTION_METRICS)
def test_per_layer_metric_names_a_public_function(metric):
    layer, _, rest = metric.partition(".")
    name = rest.rpartition("_calls" if rest.endswith("_calls") else "_s")[0]
    module = importlib.import_module(f"horocount.{layer}")
    public = getattr(module, "__all__", None) or [n for n in vars(module) if n[0] != "_"]
    assert name in public, f"{metric}: horocount.{layer} has no public {name}"
    fn = getattr(module, name)
    assert inspect.isfunction(getattr(fn, "__wrapped__", fn)), f"{metric}: {name} is not a function"
