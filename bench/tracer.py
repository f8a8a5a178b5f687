"""Span and counter recorder that wraps `monodist` from outside.

`Tracer.install()` lists the package's modules at run time and replaces each
module-level public function, in every module that binds it, with a wrapper
that records the call's self time under `<binding module>.<name>`. The
`fetch_*` methods of the package's classes are wrapped the same way. Nothing
under the package's source changes, and `restore()` puts the originals back.
A function that a later change removes or adds simply shows up as absent or
new in the recorded names.
"""
from __future__ import annotations

import functools
import importlib
import pkgutil
import types
from collections import defaultdict
from time import perf_counter_ns


# span name -> [(counter name, value taken from (args, result))]
COUNTERS = {
    "maps.read_pfm": [("maps.pixels", lambda a, r: r.width * r.height)],
    "detect.parse_detections": [("detect.dets_in", lambda a, r: len(r.detections))],
    "detect.filter_confidence": [("detect.dets_after_conf", lambda a, r: len(r.detections))],
    "detect.nms": [("detect.dets_after_nms", lambda a, r: len(r.detections))],
    "roi.measure_objects": [
        ("roi.boxes", lambda a, r: len(a[1].detections)),
        ("roi.failures", lambda a, r: len(r[1])),
    ],
    "roi.median_depth": [
        ("roi.pixels_pooled", lambda a, r: (a[1].col1 - a[1].col0) * (a[1].row1 - a[1].row0)),
    ],
    "evaluate.build_report": [("evaluate.pairs", lambda a, r: len(r.pairs))],
}


class Tracer:
    def __init__(self):
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.broken_counters: set[str] = set()
        self._stack: list[list[int]] = []
        self._patched: list[tuple[object, str, object]] = []
        self.installed: set[str] = set()

    def install(self, package: str = "monodist") -> None:
        pkg = importlib.import_module(package)
        modules = [pkg] + [
            importlib.import_module(f"{package}.{m.name}")
            for m in pkgutil.iter_modules(pkg.__path__)
        ]
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(val, types.FunctionType) and val.__module__.startswith(package):
                    self._patch(mod, attr, f"{short}.{attr}", val)
                elif isinstance(val, type) and val.__module__ == mod.__name__:
                    for meth, fn in list(vars(val).items()):
                        if meth.startswith("fetch_") and isinstance(fn, types.FunctionType):
                            self._patch(val, meth, f"{short}.{val.__name__}.{meth}", fn)

    def restore(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        self.self_ns.clear()
        self.calls.clear()
        self.counts.clear()

    def _patch(self, ns, attr: str, name: str, fn) -> None:
        self._patched.append((ns, attr, fn))
        self.installed.add(name)
        setattr(ns, attr, self._wrap(name, fn))

    def _wrap(self, name: str, fn):
        stack = self._stack
        self_ns, calls, counts = self.self_ns, self.calls, self.counts
        counters = COUNTERS.get(name, ())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0]
            stack.append(child)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                self_ns[name] += dur - child[0]
                calls[name] += 1
            for counter, value in counters:
                try:
                    counts[counter] += value(args, result)
                except (AttributeError, IndexError, TypeError):
                    self.broken_counters.add(counter)
            return result

        return wrapper

    def snapshot(self) -> dict:
        return {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }
