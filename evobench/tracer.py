"""Spans recorded from outside the package, by wrapping module bindings.

Each seam is a (module, attribute) pair where the package looks a
function up at call time; the tracer replaces the binding with a timing
wrapper and puts the original back on close.  A seam that no longer
exists is reported as absent instead of failing the run.

A span is (id, name, start, end, parent, thread, run, n): n is the row
count for run_batch and 0 otherwise.  execute.step is called about once
per cart-pole time step, so it is not kept per call: its calls and time
are summed per enclosing span and written as one span per parent with
start None, end the summed time and n the call count.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
from time import perf_counter

SEAMS = (
    ("pcgp.config", "load_csv", "bench.load_csv"),
    ("pcgp.bench", "decode", "decode"),
    ("pcgp.evolve", "decode", "decode"),
    ("pcgp.mutate", "decode", "decode"),
    ("pcgp.crossover", "decode", "decode"),
    ("pcgp.bench", "run_supervised", "execute.run_supervised"),
    ("pcgp.execute", "run_batch", "execute.run_batch"),
    ("pcgp.execute", "run_sequence", "execute.run_sequence"),
    ("pcgp.evolve", "apply_mutation", "mutate.apply_mutation"),
    ("pcgp.evolve", "apply_crossover", "crossover.apply_crossover"),
    ("pcgp.evolve", "evaluate_population", "evolve.evaluate_population"),
)
# bench.step drives cart-pole; execute.step is what run_sequence calls
STEP_SEAMS = (("pcgp.bench", "step"), ("pcgp.execute", "step"))
STEP = "execute.step"
ROWS = "execute.run_batch"              # its last argument is the batch
POOL = "evolve.evaluate_population"     # parent of fitness spans on pool threads


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.absent = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pool_parent = 0           # open evaluate_population span
        self._steps = {}                # parent id -> [calls, seconds, thread]
        self._saved = []

    # ------------------------------------------------------------ seams

    def install(self):
        for module, attr, name in SEAMS:
            self._patch(module, attr, lambda fn, name=name: self.wrap(fn, name))
        for module, attr in STEP_SEAMS:
            self._patch(module, attr, self._wrap_step)
        return self

    def _patch(self, module, attr, make):
        try:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
        except (ImportError, AttributeError):
            self.absent.append(f"{module}.{attr}")
            return
        self._saved.append((mod, attr, original))
        setattr(mod, attr, make(original))

    def close(self):
        """Restore every binding, newest first, and fold step totals in."""
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)
        for parent, (calls, seconds, thread) in self._steps.items():
            self.spans.append((next(self._ids), STEP, None, seconds, parent,
                               thread, self.run_id, calls))
        self._steps = {}

    # --------------------------------------------------------- wrappers

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name):
        """fn with every call recorded as a span called name."""
        rows = name == ROWS
        pool = name == POOL

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._pool_parent
            sid = next(self._ids)
            stack.append(sid)
            if pool:
                self._pool_parent = sid
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if pool:
                    self._pool_parent = parent
                n = len(args[-1]) if rows else 0
                self.spans.append((sid, name, start, end, parent,
                                   threading.get_ident(), self.run_id, n))

        traced.__wrapped__ = fn
        return traced

    def _wrap_step(self, fn):
        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                stack = self._stack()
                parent = stack[-1] if stack else self._pool_parent
                acc = self._steps.get(parent)
                if acc is None:
                    acc = self._steps[parent] = [0, 0.0, threading.get_ident()]
                acc[0] += 1
                acc[1] += seconds

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def duration(span) -> float:
    return span[3] if span[2] is None else span[3] - span[2]


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the time its children cover.

    Children running at once on pool threads overlap, so their union is
    subtracted; summed step spans carry no interval and subtract whole.
    """
    intervals, summed = {}, {}
    for s in spans:
        if s[2] is None:
            summed[s[4]] = summed.get(s[4], 0.0) + s[3]
        else:
            intervals.setdefault(s[4], []).append((s[2], s[3]))
    return {s[0]: duration(s) - _covered(intervals.get(s[0], ()))
            - summed.get(s[0], 0.0) for s in spans}
