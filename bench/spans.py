"""Spans and call counts around the public functions of the sasakigeo layers.

Installed only in the traced worker.  Every public function of a layer module
is wrapped once, and the wrapper is bound under every name a loaded
``sasakigeo`` module holds it by, so ``contact.sb_curvature`` (imported with
``from .sphere import sb_curvature``) and ``sphere.sb_curvature`` record into
the same span name.  Spans (name, start, end, parent) are appended to arrays
in memory and written out once the pass has ended.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from array import array

import numpy as np

LAYERS = ("manifold", "tangent", "sphere", "contact", "oracle", "sampling", "suites", "report")

# Per-layer metrics: (name, unit, better).  Each is read off the spans of the
# traced pass, except the two run-wide ones that run.py fills in.
CALLS = (
    "manifold.riemann_at",
    "manifold.nabla_riemann_full",
    "manifold.metric_at",
    "manifold.validate_space_form",
    "tangent.tm_nabla",
    "tangent.lift_bracket",
    "sphere.sb_curvature",
    "sphere.require_same_sb_point",
    "contact.h_at",
    "contact.nabla_phi",
    "oracle.gauss_curvature_oracle",
    "oracle.fd_riemann",
    "oracle.base_gamma",
    "oracle.hypersurface_pullback",
    "sampling.sample_sb_point",
    "suites.run_suite",
)
SECONDS = (
    "manifold.validate_space_form",
    "sphere.require_same_sb_point",
    "contact.sasakian_residual",
    "report.emit_report",
)
US_PER_CALL = ("sphere.sb_curvature", "contact.h_at", "oracle.gauss_curvature_oracle")

PER_LAYER = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [(f"{fn}.calls", "count", "lower") for fn in CALLS]
    + [(f"{fn}.s", "s", "lower") for fn in SECONDS]
    + [(f"{fn}.us_per_call", "us", "lower") for fn in US_PER_CALL]
    + [
        ("manifold.riemann_at.per_point", "calls/point", "lower"),
        ("suites.verdict_mismatches", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("process.cpu_s", "s", "lower"),
    ]
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack = [-1]
        self._replaced: list = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_of, start, end, parent, stack = self.name_of, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"sasakigeo.{layer}")
            for attr, fn in vars(mod).items():
                if not attr.startswith("_") and isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    wrapped[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "sasakigeo" and not modname.startswith("sasakigeo."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._replaced.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in self._replaced:
            setattr(mod, attr, value)
        self._replaced.clear()

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_of": np.frombuffer(self.name_of, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
        }

    def write(self, path) -> None:
        np.savez(path, **self.arrays())

    def totals(self) -> dict:
        """{span name: {calls, s, self_s}}.

        ``s`` sums the spans not nested in a span of the same name; ``self_s``
        is each span's duration minus the time its child spans cover.
        """
        a = self.arrays()
        name_of, parent = a["name_of"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        nested = np.zeros(dur.size, dtype=bool)
        anc = parent.copy()
        while (live := anc >= 0).any():
            nested[live] |= name_of[anc[live]] == name_of[live]
            anc[live] = parent[anc[live]]
        k = len(self.names)
        calls = np.bincount(name_of, minlength=k)
        incl = np.bincount(name_of[~nested], weights=dur[~nested], minlength=k)
        own = np.bincount(name_of, weights=dur - covered, minlength=k)
        return {
            name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
            if calls[i]
        }


def layer_metrics(totals: dict, mismatches: int, factor: float) -> dict:
    """The span-derived per-layer metrics, by name; times are scaled by the pass's speed ``factor``."""

    def get(fn, key):
        return totals.get(fn, {}).get(key, 0)

    out = {}
    for layer in LAYERS:
        own = sum(t["self_s"] for name, t in totals.items() if name.startswith(layer + "."))
        out[f"{layer}.self_s"] = own * factor
    for fn in CALLS:
        out[f"{fn}.calls"] = get(fn, "calls")
    for fn in SECONDS:
        out[f"{fn}.s"] = get(fn, "s") * factor
    for fn in US_PER_CALL:
        calls = get(fn, "calls")
        out[f"{fn}.us_per_call"] = get(fn, "s") * factor / calls * 1e6 if calls else 0.0
    points = get("sampling.sample_sb_point", "calls")
    out["manifold.riemann_at.per_point"] = get("manifold.riemann_at", "calls") / points if points else 0.0
    out["suites.verdict_mismatches"] = mismatches
    return out
