"""In-memory span tracer that wraps rekpool's public functions from outside.

`instrument(tracer)` replaces each function in `TRACED` (and each method in
`TRACED_METHODS`) with a timing wrapper for the duration of a ``with``
block.  A function imported with ``from ... import`` lives on in every
module that imported it, so the wrapper is bound in every ``rekpool``
module whose namespace holds the original object.

Self time is a call's duration minus the time covered by its traced
children, computed on the fly from a call stack with integer nanosecond
clocks, so it is never negative and the self times inside one operation
never sum to more than its wall time.  Spans (name, start, end, parent,
operation id) are kept in memory for every traced function except the
per-segment geometry hot spots, which are aggregated into calls and self
time only so that a city-sized run does not hold millions of spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute, span kept?)  Names become "<module>.<attribute>".
TRACED = (
    ("geometry", "ray_box_intersect", False),
    ("geometry", "segment_blocked", False),
    ("propagation", "trace_paths", True),
    ("propagation", "path_loss", True),
    ("features", "extract_features", True),
    ("features", "realize", True),
    ("features", "save_dataset", True),
    ("features", "load_dataset", True),
    ("forest", "fit", True),
    ("forest", "permutation_importance", True),
    ("spectrum", "group_weights", True),
    ("pool", "save_pool", True),
    ("pool", "load_pool", True),
    ("predict", "predict_rekp", True),
    ("predict", "context_for", True),
    ("pipeline", "simulate_trajectory", True),
    ("pipeline", "learn_positions", True),
    ("pipeline", "build_pool", True),
    ("pipeline", "loo_evaluate", True),
    ("cli", "main", True),
)

# (module, class, method, span name)
TRACED_METHODS = (
    ("forest", "RandomForestModel", "predict", "forest.predict"),
    ("pool", "Pool", "ingest", "pool.ingest"),
    ("pool", "Pool", "query", "pool.query"),
    ("pool", "Pool", "sort_and_evict", "pool.sort_and_evict"),
    ("pipeline", "FitCache", "fit", "pipeline.fitcache.fit"),
    ("pipeline", "FitCache", "importance", "pipeline.fitcache.importance"),
)

# Called about a hundred times per realization: counted, not timed.
COUNTED = (("geometry", "as_vec3"),)

MODULES = ("geometry", "propagation", "features", "forest", "spectrum",
           "pool", "predict", "pipeline", "cli")


class Tracer:
    """Per-name call counts and self times, extra counters, and spans."""

    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.total_ns = Counter()
        self.counts = Counter()
        self.spans = []          # (id, name, start_ns, end_ns, parent_id, op_id)
        self.op_id = 0
        self._stack = []         # [id, name, start_ns, child_ns]
        self._next_id = 1

    def push(self, name):
        frame = [self._next_id, name, time.perf_counter_ns(), 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def pop(self, frame, keep_span=True):
        end = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("tracer stack out of order")
        span_id, name, start, child = frame
        dur = end - start
        self.calls[name] += 1
        self.self_ns[name] += dur - child
        self.total_ns[name] += dur
        if self._stack:
            self._stack[-1][3] += dur
        if keep_span:
            parent = self._stack[-1][0] if self._stack else 0
            self.spans.append((span_id, name, start, end, parent, self.op_id))

    @contextmanager
    def operation(self, name):
        """Top-level span for one benchmark operation; children nest in it."""
        self.op_id += 1
        frame = self.push(name)
        try:
            yield
        finally:
            self.pop(frame)

    def self_s(self, name):
        return self.self_ns[name] / 1e9

    def total_s(self, name):
        return self.total_ns[name] / 1e9

    def module_self_s(self, module):
        return sum(v for k, v in self.self_ns.items()
                   if k.split(".", 1)[0] == module) / 1e9

    def write_jsonl(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for span_id, name, start, end, parent, op in self.spans:
                f.write(json.dumps({"id": span_id, "name": name, "start_ns": start,
                                    "end_ns": end, "parent": parent, "op": op}) + "\n")


OUTCOME_NAMES = {"AnsweredExisting": "answered", "Refined": "refined",
                 "Transferred": "transferred", "GeneratedNew": "generated"}


def _after_hooks(tracer):
    """Counters that need a call's arguments, result or traced children.

    Maps a span name to (hook, watched names); the hook receives the
    number of calls each watched name made inside the call."""
    c = tracer.counts

    def realize(args, result, inner):
        c["features.realize.rows"] += len(result)
        c["features.realize.traces"] += inner["propagation.trace_paths"]

    def save_dataset(args, result, inner):
        c["features.dataset_bytes"] = os.path.getsize(args[0])

    def fit(args, result, inner):
        c["forest.fit.rows"] += len(args[1])

    def predict(args, result, inner):
        c["forest.predict.rows"] += len(result)
        c["forest.tree_row_evals"] += len(result) * len(args[0].trees)

    def ingest(args, result, inner):
        c["pool.ingest." + OUTCOME_NAMES[result[0].value]] += 1

    def query(args, result, inner):
        c["pool.query.hits"] += result is not None

    def sort_and_evict(args, result, inner):
        c["pool.evicted"] += len(result)

    def save_pool(args, result, inner):
        c["pool.save_pool.bytes"] = os.path.getsize(args[0])

    def predict_rekp(args, result, inner):
        c["predict.fallbacks"] += bool(result.fallback)

    def fitcache_fit(args, result, inner):
        c["pipeline.fitcache.fit_hits"] += inner["forest.fit"] == 0

    def fitcache_importance(args, result, inner):
        c["pipeline.fitcache.importance_hits"] += \
            inner["forest.permutation_importance"] == 0

    return {"features.realize": (realize, ("propagation.trace_paths",)),
            "features.save_dataset": (save_dataset, ()),
            "forest.fit": (fit, ()),
            "forest.predict": (predict, ()),
            "pool.ingest": (ingest, ()),
            "pool.query": (query, ()),
            "pool.sort_and_evict": (sort_and_evict, ()),
            "pool.save_pool": (save_pool, ()),
            "predict.predict_rekp": (predict_rekp, ()),
            "pipeline.fitcache.fit": (fitcache_fit, ("forest.fit",)),
            "pipeline.fitcache.importance": (fitcache_importance,
                                             ("forest.permutation_importance",))}


def _timed(tracer, name, fn, keep_span, hook):
    calls = tracer.calls
    after, watched = hook if hook is not None else (None, ())

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = [calls[n] for n in watched]
        frame = tracer.push(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.pop(frame, keep_span)
        if after is not None:
            inner = {n: calls[n] - b for n, b in zip(watched, before)}
            after(args, result, inner)
        return result
    return wrapper


def _counted(tracer, name, fn):
    calls = tracer.calls

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _rekpool_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "rekpool" or n.startswith("rekpool."))]


@contextmanager
def instrument(tracer):
    """Route rekpool's public functions through `tracer` inside the block."""
    for mod in MODULES:
        importlib.import_module("rekpool." + mod)
    hooks = _after_hooks(tracer)
    # keyed by id: module attributes such as arrays are not all hashable
    replacements = {}   # id(original) -> (original, wrapper)
    for mod, attr, keep in TRACED:
        orig = getattr(sys.modules["rekpool." + mod], attr)
        name = f"{mod}.{attr}"
        replacements[id(orig)] = (orig, _timed(tracer, name, orig, keep, hooks.get(name)))
    for mod, attr in COUNTED:
        orig = getattr(sys.modules["rekpool." + mod], attr)
        replacements[id(orig)] = (orig, _counted(tracer, f"{mod}.{attr}", orig))
    undo = []
    for module in _rekpool_modules():
        for key, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, key, hit[1])
                undo.append((module, key, value))
    for mod, cls_name, meth, name in TRACED_METHODS:
        cls = getattr(sys.modules["rekpool." + mod], cls_name)
        orig = cls.__dict__[meth]
        setattr(cls, meth, _timed(tracer, name, orig, True, hooks.get(name)))
        undo.append((cls, meth, orig))
    try:
        yield tracer
    finally:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)
