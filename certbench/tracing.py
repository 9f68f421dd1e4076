"""Spans around the public functions of each ripforge module.

``Tracer.install`` replaces every public function of the layer modules,
wherever a ripforge module holds a reference to it, with a wrapper that
records a span (name, start, end, parent) in memory; ``uninstall`` puts
the originals back.  Nothing in the package is edited.  Work counts come
from argument shapes and return values, never from inside the program.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass, field

LAYER_MODULES = ("matrix_core", "constructors", "golomb", "num_theory", "certify",
                 "analysis", "designs", "recovery")
SUBCOMMANDS = ("construct", "certify", "probe", "verify", "design", "recover")
MIB = float(1 << 20)


def _shape(a):
    return getattr(a, "data", a).shape


def _gram_mib(arr, axis: int) -> dict:
    """Bytes of the dense Gram over `axis` of arr, in MiB."""
    arr = getattr(arr, "data", arr)
    return {"gram_mib": arr.shape[axis] ** 2 * arr.itemsize / MIB}


def _file_mib(args, result):
    return {"mib": os.path.getsize(args["path"]) / MIB}


# Per-call work counts, computed from inputs and results.
COUNTERS = {
    "certify.condition_b": lambda a, r: {"quads": math.comb(_shape(a["A"])[1], 4)
                                                  * _shape(a["A"])[0]},
    "certify.probe_l1": lambda a, r: {"trials": a["trials"]},
    "certify.exact_ric": lambda a, r: {"subsets": math.comb(_shape(a["A"])[1], a["s"])},
    "certify.las_vegas": lambda a, r: {"rounds": r[1]},
    "certify.coherence": lambda a, r: _gram_mib(a["A"], 1),
    "analysis.l4_identity": lambda a, r: {"tensor_mib": _shape(a["B"])[1] ** 4 * 16 / MIB},
    "designs.design_defect": lambda a, r: _gram_mib(a["ps"].points, 0),
    "recovery.iht": lambda a, r: {"iterations": r.iterations},
    "matrix_core.write_cmx": _file_mib,
    "matrix_core.read_cmx": _file_mib,
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[idx].counts = counter(bound.arguments, result)
            return result
        return traced

    def install(self) -> None:
        wrappers = {}
        for short in LAYER_MODULES:
            mod = sys.modules[f"ripforge.{short}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if name.startswith("ripforge.") and mod is not None:
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrappers:
                        self._patched.append((mod, attr, obj))
                        setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, **s.counts}) + "\n")


def self_times(spans: list[Span], first: int, last: int) -> dict[str, float]:
    """Self time per span name over spans[first:last] (children closed inside)."""
    child = [0.0] * (last - first)
    for s in spans[first:last]:
        if s.parent is not None and s.parent >= first:
            child[s.parent - first] += s.end - s.start
    out: dict[str, float] = {}
    for i, s in enumerate(spans[first:last]):
        key = "cli.self" if s.name.startswith("cli.") else s.name
        out[key] = out.get(key, 0.0) + (s.end - s.start) - child[i]
    return out


def layer_metrics(spans: list[Span], first: int, last: int) -> dict[str, float]:
    """Per-layer figures of one pass: self times, work counts and rates."""
    window = spans[first:last]
    selfs = self_times(spans, first, last)
    out = {f"{name}.s": t for name, t in selfs.items() if name != "cli.self"}
    out["cli.self_s"] = selfs.get("cli.self", 0.0)
    for sub in SUBCOMMANDS:
        out[f"cli.{sub}.s"] = sum(s.end - s.start for s in window if s.name == f"cli.{sub}")

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in window if s.name == name)

    def largest(name, key):
        return max((s.counts.get(key, 0.0) for s in window if s.name == name), default=0.0)

    def rate(name, key):
        busy = sum(s.end - s.start for s in window if s.name == name)
        return total(name, key) / busy if busy > 0 else 0.0

    out["matrix_core.write_cmx.mib"] = total("matrix_core.write_cmx", "mib")
    out["matrix_core.read_cmx.mib"] = total("matrix_core.read_cmx", "mib")
    out["certify.condition_b.quads_per_s"] = rate("certify.condition_b", "quads")
    out["certify.las_vegas.rounds"] = total("certify.las_vegas", "rounds")
    out["certify.probe_l1.trials_per_s"] = rate("certify.probe_l1", "trials")
    out["certify.coherence.gram_mib"] = largest("certify.coherence", "gram_mib")
    out["certify.exact_ric.subsets_per_s"] = rate("certify.exact_ric", "subsets")
    out["analysis.l4_identity.tensor_mib"] = largest("analysis.l4_identity", "tensor_mib")
    out["designs.design_defect.gram_mib"] = largest("designs.design_defect", "gram_mib")
    out["recovery.iht.iterations"] = total("recovery.iht", "iterations")
    return out


def median_metrics(per_pass: list[dict[str, float]], names) -> dict[str, float]:
    return {name: statistics.median(p.get(name, 0.0) for p in per_pass) for name in names}
