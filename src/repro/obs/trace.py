"""Span-style trace recording over the event bus.

A :class:`TraceRecorder` subscribes to :mod:`repro.util.hooks` and
turns every ``(kind, fields)`` event into one trace record — a
JSON-safe dict with a monotonic sequence number and a timestamp —
optionally streamed to a JSONL file as it happens (the CLI's
``--trace FILE``).  Records are *flat spans*: events that describe a
completed unit of work carry their own ``duration_s``, so a trace
reader never has to pair begin/end lines (round events do carry a
``phase`` so the nesting of rounds inside strata is recoverable).

:class:`ProfileCollector` is the aggregating sibling: it folds
``plan.operator`` events into per-operator totals (invocations, input
and output cardinalities, wall time), keyed by clause and step — the
data behind ``repro explain --profile`` and the plan benchmark's
operator table.
"""

from __future__ import annotations

import json
import threading
import time


class TraceRecorder:
    """Record bus events in memory and optionally to a JSONL stream.

    Parameters
    ----------
    path:
        When given, every record is appended to this file as one JSON
        line, flushed per event (traces must survive a crash — that is
        half their point).
    clock:
        Injectable timestamp source (defaults to
        :func:`time.monotonic`); timestamps are relative seconds, not
        wall-clock dates, matching the engine's own timing fields.
    keep:
        Keep records in :attr:`events` (default True).  Long service
        runs streaming to a file can turn this off to bound memory.
    """

    def __init__(self, path=None, clock=None, keep=True):
        self._clock = clock or time.monotonic
        self._keep = keep
        self._lock = threading.Lock()
        self._sequence = 0
        self.events = []
        self._handle = open(path, "w") if path is not None else None

    def __call__(self, kind, fields):
        record = {"seq": None, "ts": self._clock(), "kind": kind}
        record.update(fields)
        with self._lock:
            self._sequence += 1
            record["seq"] = self._sequence
            if self._keep:
                self.events.append(record)
            if self._handle is not None:
                json.dump(record, self._handle, default=str)
                self._handle.write("\n")
                self._handle.flush()

    def of_kind(self, kind):
        """The recorded events of one kind, in order."""
        with self._lock:
            return [event for event in self.events if event["kind"] == kind]

    def close(self):
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


class ProfileCollector:
    """Aggregate ``plan.operator`` events into per-operator totals.

    Keyed by ``(clause, variant, step)``; each entry accumulates
    invocation count, input/output cardinalities, and wall time.  The
    engine's round events are tracked so per-round totals (the numbers
    that must sum to ``derived_tuples_per_round``) are available too.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.operators = {}
        self.rounds = {}
        self._current_round = None

    def __call__(self, kind, fields):
        if kind == "engine.round":
            if fields.get("phase") == "begin":
                with self._lock:
                    self._current_round = fields.get("round")
            return
        if kind != "plan.operator":
            return
        key = (
            fields.get("clause"),
            fields.get("variant"),
            fields.get("step"),
        )
        with self._lock:
            entry = self.operators.get(key)
            if entry is None:
                entry = self.operators[key] = {
                    "clause": fields.get("clause"),
                    "variant": fields.get("variant"),
                    "step": fields.get("step"),
                    "op": fields.get("op"),
                    "predicate": fields.get("predicate"),
                    "invocations": 0,
                    "input_tuples": 0,
                    "output_tuples": 0,
                    "seconds": 0.0,
                }
            entry["invocations"] += 1
            entry["input_tuples"] += fields.get("in", 0)
            entry["output_tuples"] += fields.get("out", 0)
            entry["seconds"] += fields.get("duration_s", 0.0)
            if fields.get("op") == "projection" and self._current_round is not None:
                bucket = self.rounds.setdefault(
                    self._current_round, {"derived_tuples": 0}
                )
                bucket["derived_tuples"] += fields.get("out", 0)

    def table(self):
        """Per-operator rows ordered by clause, variant and step — the
        same order on every run of one program — JSON-safe, ready for
        reports."""
        with self._lock:
            rows = [dict(entry) for entry in self.operators.values()]
        rows.sort(
            key=lambda row: (row["clause"] or "", row["variant"] or "", row["step"] or 0)
        )
        for row in rows:
            row["seconds"] = round(row["seconds"], 6)
        return rows

    def derived_per_round(self):
        """``{round: derived tuple total}`` summed over the projection
        operators that fired in that round — the cross-check against
        ``EvaluationStats.derived_tuples_per_round``."""
        with self._lock:
            return {
                number: bucket["derived_tuples"]
                for number, bucket in self.rounds.items()
            }
