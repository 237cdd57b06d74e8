"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` wraps every public function of the layer modules and
rebinds the wrapper at every import site: modules bind names directly
(``from .exact import expectation_in_context``), so patching only the
defining module would miss most calls.  Spans stay in memory; a layer's
self time is its span's duration minus the time of its child spans.
Spans recorded in forked pool workers are lost, so traced runs use one
search worker.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

PACKAGE = "bell_lab"
LAYERS = ("models", "exact", "unified", "reduction", "chsh", "search", "simulate", "cli")
# The CLI layer is timed as a whole: argparse, rendering and summary writes.
CLI_ENTRY = "main"
METHODS = (("simulate", "TrialLedger", "to_csv"), ("simulate", "TrialLedger", "context_counts"))
ALLOC_TRACKED = {"simulate.simulate_trials"}


def _popcount_classes(cardinalities) -> int:
    s1, s2, la0, la1, lb0, lb1 = cardinalities
    classes = 1
    for cells in (s1 * la0, s1 * la1, s2 * lb0, s2 * lb1):
        classes *= cells + 1
    return classes


def _after_expanded(tracer, args, result):
    tracer.add("unified.expanded_cells", args[0].size)


def _after_enumerate(tracer, args, result):
    tracer.add("search.assignments", result.evaluated)
    tracer.add("search.popcount_classes", _popcount_classes(args[0].cardinalities))


def _after_worker_count(tracer, args, result):
    tracer.peak("search.workers", result)


def _after_to_csv(tracer, args, result):
    tracer.add("simulate.ledger_bytes", os.path.getsize(args[1]))


AFTER = {
    "unified.expectation_unified_expanded": _after_expanded,
    "search.enumerate_deterministic": _after_enumerate,
    "search.worker_count": _after_worker_count,
    "simulate.TrialLedger.to_csv": _after_to_csv,
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op index)
        self.op = -1
        self._stack: list[int] = []
        self._sums: dict = defaultdict(lambda: defaultdict(float))
        self._peaks: dict = defaultdict(float)
        self._patches: list = []

    def add(self, counter: str, value) -> None:
        self._sums[self.op][counter] += value

    def peak(self, counter: str, value) -> None:
        self._peaks[counter] = max(self._peaks[counter], value)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        after = AFTER.get(name)
        alloc = name in ALLOC_TRACKED
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            if alloc:
                tracemalloc.start()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.op)
                if alloc:
                    tracer.peak(f"{name}.alloc_peak_mb", tracemalloc.get_traced_memory()[1] / 1e6)
                    tracemalloc.stop()
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap each public function of the layers wherever it is bound."""
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != module.__name__ or (layer == "cli" and attr != CLI_ENTRY):
                    continue
                wrappers[value] = self._wrap(f"{layer}.{attr}", value)
        sites = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in sites:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        for layer, cls, attr in METHODS:
            owner = getattr(modules[layer], cls)
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(f"{layer}.{cls}.{attr}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,op,parent,name,start_s,end_s\n")
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{index},{op},{parent},{name},{start:.9f},{end:.9f}\n")

    def summary(self, traced_ops: dict[int, float]) -> dict:
        """Per-op means of self time, calls and counters over the traced ops.

        ``traced_ops`` maps op index to the op's wall time as the runner
        measured it; what the spans do not cover is the remainder.
        """
        n = len(traced_ops)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            self_s[name] += end - start - child[index]
            calls[name] += 1
        out = {}
        for name in self_s:
            out[f"{name}.self_s"] = self_s[name] / n
            out[f"{name}.calls"] = calls[name] / n
        sums: dict = defaultdict(float)
        for per_op in self._sums.values():
            for counter, value in per_op.items():
                sums[counter] += value
        for counter, value in sums.items():
            out[counter] = value / n
        out.update(self._peaks)
        out["trace.op_s"] = statistics.median(traced_ops.values())
        out["trace.spanned_s"] = sum(self_s.values()) / n
        return out
