"""Spans around calls into horocount's public functions, and the per-layer
metrics made from them.

install() runs inside a traced child before cli.main.  It wraps each public
function of the layer modules in every horocount.* namespace that binds it,
since the modules import each other's functions by name.  A span is
[function id, start ns, end ns, parent span, nested, note]; spans stay in
memory and dump() writes them when the command ends.

Not wrapped: the ring and ideal primitives called once per lattice point,
ball pair, denominator or prime (their time counts as the caller's self time;
wrapping them took about a third of a census round), and generator
functions, whose call returns before the work is done.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("arith", "field", "ideals", "counting", "geodesics", "cli")
UNTRACED = {
    "field": {"norm", "arch_norm_sq", "add", "sub", "mul", "conj", "neg",
              "ring_arith", "omega_times", "splitting_type"},
    "arith": {"xgcd"},
    "ideals": {"hnf_from_generators", "unit_ideal", "principal_ideal", "ideal_mul",
               "ideal_conj", "ideal_contains_ideal", "pair_ideal_norm", "reduce_mod",
               "prime_ideals_above"},
}


def _public_functions(module):
    names = getattr(module, "__all__", None) or [
        n for n in vars(module) if not n.startswith("_")
    ]
    for name in names:
        obj = getattr(module, name, None)
        if getattr(obj, "__module__", None) != module.__name__ or inspect.isclass(obj):
            continue
        fn = getattr(obj, "__wrapped__", obj)  # lru_cache keeps the function here
        if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
            yield name, obj


def _arg(args, kwargs, name, pos, default=None):
    return kwargs[name] if name in kwargs else args[pos] if len(args) > pos else default


def _rational_box_cells(f, x) -> int:
    """Residues the brute kernel tests over Q: q of them for each q <= x."""
    bound = int(x)
    return bound * (bound + 1) // 2 if f.is_rational and bound >= 1 else 0


def _notes(norm):
    """Work counts taken from a call's arguments and result, by function."""
    def phi_profile(args, kwargs, result):
        method = _arg(args, kwargs, "method", 2, "brute")
        cells = _rational_box_cells(args[0], args[1]) if method == "brute" else 0
        return [method, cells]

    def unit_orbit_reps(args, kwargs, result):
        f = args[0]
        return [len(result), sum(norm(f, q) for q in result)]

    return {
        ("counting", "phi_profile"): phi_profile,
        ("counting", "phi_bruteforce"):
            lambda a, k, r: _rational_box_cells(a[0], a[1]),
        ("counting", "unit_orbit_reps"): unit_orbit_reps,
        ("ideals", "norm_histogram"): lambda a, k, r: int(r.sum()),
        ("ideals", "mobius_ideal"): lambda a, k, r: int(r != 0),
        ("geodesics", "check_disjoint"):
            lambda a, k, r: [len(a[0]) * (len(a[0]) - 1) // 2, len(r.tangencies)],
    }


class Tracer:
    def __init__(self):
        self.functions: list[tuple[str, str]] = []
        self.spans: list[list] = []
        self._stack = [-1]
        self._active: list[int] = []
        self._cached = {}

    def install(self) -> None:
        import importlib

        modules = [importlib.import_module(f"horocount.{m}") for m in LAYERS]
        notes = _notes(modules[LAYERS.index("field")].norm)
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for name, obj in _public_functions(module):
                if hasattr(obj, "cache_info"):
                    self._cached[f"{layer}.{name}"] = obj
                if name in UNTRACED.get(layer, ()):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(layer, name, obj, notes.get((layer, name))))
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "horocount" or mod_name.startswith("horocount."):
                for attr, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(module, attr, hit[1])

    def _wrap(self, layer, name, fn, note):
        fid = len(self.functions)
        self.functions.append((layer, name))
        self._active.append(0)
        spans, stack, active, clock = self.spans, self._stack, self._active, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [fid, 0, 0, stack[-1], active[fid] > 0, None]
            stack.append(len(spans))
            spans.append(rec)
            active[fid] += 1
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                active[fid] -= 1
                stack.pop()
            if note is not None:
                rec[5] = note(args, kwargs, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        caches = {}
        for key, obj in self._cached.items():
            info = obj.cache_info()
            caches[key] = [info.hits, info.misses]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"functions": self.functions, "spans": self.spans,
                       "caches": caches}, fh, separators=(",", ":"))


# ----------------------------------------------------------------------
# Parent side: per-layer metrics of one round
# ----------------------------------------------------------------------

WORK_COUNTS = ("counting.denominators", "counting.box_cells", "ideals.lattice_points",
               "ideals.squarefree_ideals", "geodesics.pairs", "geodesics.tangencies")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traces: list[dict], output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one round from the span dumps of its commands."""
    ns = defaultdict(int)     # self ns by "layer", inclusive ns by "layer.function"
    count = defaultdict(int)  # calls and work counts
    for key in ("counting.brute", "counting.mobius"):
        ns[key] = 0
    for key in WORK_COUNTS:
        count[key] = 0
    hits = misses = 0
    for doc in traces:
        funcs = [tuple(f) for f in doc["functions"]]
        for layer, name in funcs:
            ns[f"{layer}.{name}"] += 0
            count[f"{layer}.{name}_calls"] += 0
        spans = doc["spans"]
        child = [0] * len(spans)
        for fid, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (fid, start, end, parent, nested, note) in enumerate(spans):
            layer, name = funcs[fid]
            dur = end - start
            ns[layer] += dur - child[i]
            count[f"{layer}.{name}_calls"] += 1
            if nested:
                continue
            ns[f"{layer}.{name}"] += dur
            if note is None:  # no note, or the call raised
                continue
            if name == "phi_profile":
                method, cells = note
                ns[f"counting.{method}"] += dur
                count["counting.box_cells"] += cells
            elif name == "phi_bruteforce":
                count["counting.box_cells"] += note
            elif name == "unit_orbit_reps":
                count["counting.denominators"] += note[0]
                if _under_brute(spans, funcs, parent):
                    count["counting.box_cells"] += note[1]
            elif name == "norm_histogram":
                count["ideals.lattice_points"] += note
            elif name == "mobius_ideal":
                count["ideals.squarefree_ideals"] += note
            elif name == "check_disjoint":
                count["geodesics.pairs"] += note[0]
                count["geodesics.tangencies"] += note[1]
        h, m = doc["caches"].get("ideals.prime_ideals_above", (0, 0))
        hits, misses = hits + h, misses + m

    def sec(key):
        return ns[key] / 1e9

    out = {f"{layer}.self_s": sec(layer) for layer in LAYERS}
    out.update({f"{key}_s": sec(key) for key in ns if "." in key})
    out.update({key: float(v) for key, v in count.items()})
    brute_kernel = sec("counting.brute") + sec("counting.phi_bruteforce")
    out.update({
        "cli.output_kb": output_bytes / 1024,
        "counting.box_cells_per_s": _ratio(count["counting.box_cells"], brute_kernel),
        "ideals.lattice_points_per_s":
            _ratio(count["ideals.lattice_points"], sec("ideals.norm_histogram")),
        "ideals.prime_ideals_above.hit_ratio": _ratio(hits, hits + misses),
        "geodesics.pairs_per_s":
            _ratio(count["geodesics.pairs"], sec("geodesics.check_disjoint")),
        "geodesics.contacts_per_pair":
            _ratio(count["geodesics.tangencies"], count["geodesics.pairs"]),
    })
    return out


def _under_brute(spans, funcs, parent: int) -> bool:
    """Whether the nearest enclosing phi span is a brute-force one."""
    while parent >= 0:
        fid, _, _, up, _, note = spans[parent]
        name = funcs[fid][1]
        if name == "phi_bruteforce":
            return True
        if name == "phi_profile":
            return note is not None and note[0] == "brute"
        parent = up
    return False
