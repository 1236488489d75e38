"""Pass-through wrappers that time calls into the library's four layers.

A Tracer replaces each traced public function by a wrapper that records
one span (name, start, end, parent) per call and hands the result back
unchanged.  The wrapper is installed on every ``cubicgaps.*`` module
attribute that holds the original function, so calls a layer makes
through its own imported names (``cubicgaps.covers.search.is_planar``)
are seen as well as calls from the benchmark.  Nothing under ``src/``
changes; ``uninstall`` puts every original back.

Spans stay in memory until the run ends.  ``summary`` turns them into
per-function call counts, busy time (inclusive, outermost call only) and
self time (span minus the part its child spans cover), and per-layer
self time.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

# (layer, module that defines it, function name, result counter or None).
# A counter maps the call's result to {metric name: amount}, summed over
# calls except for the metrics in MAXIMA.
TRACED = (
    ("graphcore", "cubicgaps.graphcore.planarity", "is_planar",
     lambda r: {"graphcore.is_planar.planar": int(bool(r))}),
    ("graphcore", "cubicgaps.graphcore.enumeration",
     "enumerate_cubic_multigraphs",
     lambda r: {"graphcore.enumerate.classes": len(r)}),
    ("graphcore", "cubicgaps.graphcore.multigraph", "spectrum",
     lambda r: {"graphcore.spectrum.max_n": len(r)}),
    ("graphcore", "cubicgaps.graphcore.multigraph", "are_isomorphic", None),
    ("covers", "cubicgaps.covers.periodic", "bands",
     lambda r: {"covers.bands.samples": int(r.values.shape[0])}),
    ("covers", "cubicgaps.covers.periodic", "gap_report", None),
    ("covers", "cubicgaps.covers.periodic", "cyclic_quotient", None),
    ("covers", "cubicgaps.covers.search", "search_covers",
     lambda r: {"covers.search.entries": len(r),
                "covers.search.planar_entries":
                    sum(1 for e in r if e.planar_quotients)}),
    ("covers", "cubicgaps.covers.search", "coverage_report", None),
    ("dynamics", "cubicgaps.dynamics.trianglemap", "tmap",
     lambda r: {"dynamics.tmap.vertices_out": r.n}),
    ("dynamics", "cubicgaps.dynamics.capacity", "capacity_estimate", None),
    ("dynamics", "cubicgaps.dynamics.witness", "plan_gap_witness", None),
    ("dynamics", "cubicgaps.dynamics.witness", "realize_plan",
     lambda r: {"dynamics.realize_plan.vertices_out": r.n}),
    ("certifier", "cubicgaps.certifier.touchpoint", "locate_touch_angle", None),
    ("certifier", "cubicgaps.certifier.touchpoint", "exact_eigenpairs", None),
    ("certifier", "cubicgaps.certifier.touchpoint", "certify_touchpoint", None),
    ("certifier", "cubicgaps.certifier.touchpoint", "verify_certificate", None),
    ("certifier", "cubicgaps.certifier.exact", "split_spectrum", None),
    ("certifier", "cubicgaps.certifier.exact", "rank_over_field", None),
    ("certifier", "cubicgaps.certifier.bounds", "fekete_finiteness", None),
    ("certifier", "cubicgaps.certifier.bounds", "geodesic_bound", None),
)

# counters that keep the largest amount seen instead of the sum
MAXIMA = frozenset({"graphcore.spectrum.max_n"})

LAYERS = ("graphcore", "covers", "dynamics", "certifier")


def bindings(fn) -> list:
    """Every (module, attribute) of the loaded cubicgaps package that is
    bound to fn."""
    return [(mod, attr) for name, mod in list(sys.modules.items())
            if name == "cubicgaps" or name.startswith("cubicgaps.")
            for attr, value in list(vars(mod).items()) if value is fn]


def traced_names():
    """Every "<layer>.<function>" the tracer can report, in TRACED order."""
    return [f"{layer}.{fn}" for layer, _, fn, _ in TRACED]


class Tracer:
    """Installs the wrappers, collects spans, and restores the originals."""

    def __init__(self):
        self.spans = []          # (name index, start, end, parent index)
        self.names = []
        self.counters = defaultdict(float)
        self._stack = []
        self._patched = []       # (module, attribute, original)

    def install(self):
        """Wrap every traced function that exists in the loaded package.

        A function the library no longer defines is skipped, and its
        metrics read zero."""
        for layer, modname, fn, count in TRACED:
            original = getattr(sys.modules.get(modname), fn, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{layer}.{fn}", original, count)
            for mod, attr in bindings(original):
                setattr(mod, attr, wrapper)
                self._patched.append((mod, attr, original))
        return self

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn, count):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (idx, start, end, parent)
            if count is not None:
                for key, amount in count(result).items():
                    if key in MAXIMA:
                        counters[key] = max(counters[key], amount)
                    else:
                        counters[key] += amount
            return result

        return wrapper

    def summary(self, wall_s: float) -> dict:
        """Per-function calls, busy_s and self_s, per-layer self_s, and the
        benchmark's own time outside every traced call."""
        nfn = len(self.names)
        calls = [0] * nfn
        busy = [0.0] * nfn
        child = [0.0] * len(self.spans)
        top = 0.0
        for idx, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                top += end - start
        # busy time counts only the outermost call of each function, so
        # a function that reaches itself is not counted twice
        self_fn = [0.0] * nfn
        for i, (idx, start, end, parent) in enumerate(self.spans):
            calls[idx] += 1
            self_fn[idx] += (end - start) - child[i]
            p, nested = parent, False
            while p >= 0:
                if self.spans[p][0] == idx:
                    nested = True
                    break
                p = self.spans[p][3]
            if not nested:
                busy[idx] += end - start
        out = {}
        for name in traced_names():
            out[f"{name}.calls"] = 0
            out[f"{name}.busy_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[idx]
            out[f"{name}.busy_s"] = busy[idx]
            out[f"{name}.self_s"] = self_fn[idx]
            layer_self[name.split(".")[0]] += self_fn[idx]
        for layer, value in layer_self.items():
            out[f"{layer}.self_s"] = value
        out["bench.self_s"] = max(wall_s - top, 0.0)
        out["trace.spans"] = len(self.spans)
        out.update(self.counters)
        return out

    def write(self, path):
        """Write every span, gzip-compressed JSON, as name/start/end/parent
        rows with times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {"names": self.names,
               "columns": ["name", "start_s", "end_s", "parent"],
               "spans": [[i, round(s - t0, 9), round(e - t0, 9), p]
                         for i, s, e, p in self.spans]}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))
