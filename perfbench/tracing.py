"""The traced run: spans around public layer calls, plus hook counts.

Spans are recorded from this benchmark's own files.  While the traced
round runs, :func:`instrument` wraps the public entry points of each
layer (module functions and class methods, looked up at call time by
their callers) so that every call inside an op records one span:
layer name, start, end, and the enclosing span on the same thread.
Service jobs run on worker threads; the wrapped
``JobExecutor.execute`` binds the worker thread to the job's op, so
its spans count toward that op.  A span's *self time* is its duration
minus the time its direct child spans cover.

:class:`HookCounts` subscribes to the event kinds the program already
emits and folds them into the per-layer counts; ``layers.Recorder``
keeps the same events in memory for ``tools/check_trace.py``.
"""

from __future__ import annotations

import functools
import json
import threading
import time

#: (span layer, module path, attribute path) of each public entry point
#: the traced round wraps.  Callers reach each through a module or class
#: attribute at call time, so replacing the attribute is enough.
LAYERS = (
    ("core.parser", "repro.core", "parse_program"),
    ("core.parser", "repro.service.executor", "parse_program"),
    ("gdb.parser", "repro.gdb", "parse_database"),
    ("gdb.parser", "repro.service.executor", "parse_database"),
    ("plan.compiler", "repro.core.engine", "DeductiveEngine.__init__"),
    ("core.engine", "repro.core.engine", "DeductiveEngine.run"),
    ("core.engine", "repro.core.engine", "DeductiveEngine.maintain"),
    ("plan.magic", "repro.plan.magic", "goal_directed_model"),
    ("plan.magic", "repro.plan.magic", "goal_from_formula"),
    ("plan.magic.rewrite", "repro.plan.magic", "rewrite_for_goal"),
    ("fo.evaluator", "repro.fo", "evaluate_query"),
    ("fo.evaluator", "repro.service.executor", "evaluate_query"),
    ("gdb.relation", "repro.gdb.relation", "GeneralizedRelation.extension"),
    ("edb.store.apply", "repro.edb.store", "EdbStore.apply"),
    ("edb.store.checkpoint", "repro.edb.store", "EdbStore.checkpoint"),
    ("edb.store.snapshot", "repro.edb.store", "EdbStore.snapshot"),
    ("edb.store.delta", "repro.edb.store", "EdbStore.delta_between"),
    ("edb.wal", "repro.edb.wal", "Wal.append"),
    ("edb.wal", "repro.edb.wal", "Wal.sync"),
    ("edb.maintain", "repro.edb.maintain", "MaterializedModel.refresh"),
)

#: The hook kinds the traced pass subscribes to.
HOOK_KINDS = (
    "engine.round",
    "plan.operator",
    "kernel.batch",
    "coverage.cache",
    "magic.rewrite",
    "edb.txn",
    "maintain.delta",
    "service.job",
)

#: kernel.batch fast paths that are joins.
JOIN_PATHS = ("hash", "fused-closure", "product")


class Spans:
    """Spans in memory: ``(op, span_id, parent_id, layer, start, end,
    self_seconds)`` tuples, in completion order."""

    def __init__(self):
        self.records = []
        self.magic_calls = []  # info["degraded"] of each goal-directed call
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.op = None
        return local

    def _new_id(self):
        with self._lock:
            self._next_id += 1
            return self._next_id

    def bind(self, op):
        """Attribute spans this thread records to ``op`` (``None``
        unbinds)."""
        self._state().op = op

    def in_layer(self, layer):
        """True when this thread is inside a span of ``layer``."""
        return any(entry[1] == layer for entry in self._state().stack)

    def call(self, layer, fn, args, kwargs):
        local = self._state()
        span_id = self._new_id()
        parent = local.stack[-1] if local.stack else None
        entry = [span_id, layer, 0.0]  # id, layer, child seconds
        local.stack.append(entry)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            local.stack.pop()
            duration = end - start
            if parent is not None:
                parent[2] += duration
            record = (
                local.op,
                span_id,
                None if parent is None else parent[0],
                layer,
                start,
                end,
                duration - entry[2],
            )
            with self._lock:
                self.records.append(record)

    def root(self, op, layer, start, end):
        """Record an op's root span, whose children ran anywhere."""
        span_id = self._new_id()
        with self._lock:
            self.records.append((op, span_id, None, layer, start, end, None))

    def self_times(self):
        """``({op: {layer: self seconds}}, {op: root record})``; a root's
        self time is its wall minus its top-level child spans."""
        per_op, roots, top = {}, {}, {}
        for op, _sid, parent, layer, start, end, self_s in self.records:
            if self_s is None:
                roots[op] = (layer, end - start)
                continue
            per_op.setdefault(op, {}).setdefault(layer, 0.0)
            per_op[op][layer] += self_s
            if parent is None:
                top[op] = top.get(op, 0.0) + (end - start)
        for op, (layer, wall) in roots.items():
            layers = per_op.setdefault(op, {})
            layers[layer] = layers.get(layer, 0.0) + wall - top.get(op, 0.0)
        return per_op, roots

    def write(self, path):
        with open(path, "w") as handle:
            for op, sid, parent, layer, start, end, _self in self.records:
                handle.write(
                    json.dumps(
                        {"op": op, "span": sid, "parent": parent, "layer": layer,
                         "start": start, "end": end}
                    )
                )
                handle.write("\n")


def _resolve(module_path, attr_path):
    import importlib

    owner = importlib.import_module(module_path)
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class instrument:
    """Context manager: wrap every :data:`LAYERS` entry point so calls
    record spans into ``spans``; restores the originals on exit."""

    def __init__(self, spans):
        self.spans = spans
        self._saved = []

    def _wrap(self, layer, fn):
        spans = self.spans
        if layer == "plan.magic" and fn.__name__ == "goal_directed_model":

            @functools.wraps(fn)
            def magic(*args, **kwargs):
                model, info = spans.call(layer, fn, args, kwargs)
                spans.magic_calls.append(bool(info.get("degraded")))
                return model, info

            return magic

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return spans.call(layer, fn, args, kwargs)

        return wrapper

    def __enter__(self):
        from repro.service.executor import JobExecutor

        for layer, module_path, attr_path in LAYERS:
            owner, name = _resolve(module_path, attr_path)
            original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(layer, original))
        execute = JobExecutor.execute
        spans = self.spans

        @functools.wraps(execute)
        def bound_execute(executor, spec, *args, **kwargs):
            spans.bind(spec.job_id)
            try:
                return execute(executor, spec, *args, **kwargs)
            finally:
                spans.bind(None)

        self._saved.append((JobExecutor, "execute", execute))
        JobExecutor.execute = bound_execute
        return self.spans

    def __exit__(self, *exc_info):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved = []
        return False


class HookCounts:
    """Fold the subscribed hook kinds into per-layer counts."""

    def __init__(self, spans):
        self.spans = spans
        self._lock = threading.Lock()
        self.events = {kind: 0 for kind in HOOK_KINDS}
        self.rounds = 0
        self.derived = 0
        self.accepted = 0
        self.magic_derived = 0
        self.rows_in = 0
        self.rows_out = 0
        self.join_size = 0
        self.join_hits = 0
        self.coverage_hits = 0
        self.coverage_misses = 0
        self.wal_bytes = 0
        self.txns = 0
        self.refreshes = 0
        self.refresh_rounds = 0
        self.recomputes = 0
        self.queue_wait = {}
        self.attempts = {}
        self.rejected = 0

    def __call__(self, kind, fields):
        if kind not in self.events:
            return
        in_magic = kind == "engine.round" and self.spans.in_layer("plan.magic")
        with self._lock:
            self.events[kind] += 1
            if kind == "engine.round":
                if fields.get("phase") == "end":
                    self.rounds += 1
                    self.derived += fields["derived"]
                    self.accepted += fields["accepted"]
                    if in_magic:
                        self.magic_derived += fields["derived"]
            elif kind == "plan.operator":
                self.rows_in += fields.get("in", 0)
                self.rows_out += fields.get("out", 0)
            elif kind == "kernel.batch":
                if fields["fast_path"] in JOIN_PATHS:
                    self.join_size += fields["size"]
                    self.join_hits += fields["hits"]
            elif kind == "coverage.cache":
                self.coverage_hits += fields["hits"]
                self.coverage_misses += fields["misses"]
            elif kind == "edb.txn":
                self.txns += 1
                self.wal_bytes += fields["wal_bytes"]
            elif kind == "maintain.delta":
                self.refreshes += 1
                self.refresh_rounds += fields["rounds"]
                self.recomputes += bool(fields["recomputed"])
            elif kind == "service.job":
                phase = fields.get("phase")
                if phase == "dequeue":
                    self.queue_wait.setdefault(fields["job_id"], fields["queue_wait_s"])
                elif phase == "outcome":
                    self.attempts[fields["job_id"]] = fields["attempts"]
                elif phase == "reject":
                    self.rejected += 1


def ratio(part, whole):
    return part / whole if whole else 0.0
