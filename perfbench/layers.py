"""Per-layer metrics of a traced round, and the in-memory event record.

The traced run (``run.traced_run``) runs two equal-work rounds: round
0 untraced, then round 1 traced; ``obs.trace_overhead_share`` compares
their walls.  The events :class:`Recorder` keeps are written to
``.perfbench/`` at the end and validated by ``tools/check_trace.py``.
"""

from __future__ import annotations

import json
import statistics
import threading
import time

from tracing import HOOK_KINDS, ratio

#: Hook kinds each workload must emit in its traced round.
REQUIRED_KINDS = {
    "closed_form": ("engine.round", "plan.operator", "kernel.batch", "coverage.cache"),
    "query_mix": ("engine.round", "plan.operator", "kernel.batch", "magic.rewrite", "service.job"),
    "txn_fresh": ("engine.round", "edb.txn", "maintain.delta", "magic.rewrite"),
}

#: Span layers whose self time is reported per op, as ``<layer>.self_ms``.
SELF_LAYERS = (
    "core.parser",
    "gdb.parser",
    "plan.compiler",
    "core.engine",
    "plan.magic",
    "fo.evaluator",
    "gdb.relation",
    "edb.maintain",
)

#: Ops whose layer self-times must cover this share of the op's wall.
MIN_COVERAGE = 0.95


def _per_call_ms(spans, layer):
    """Mean duration in ms of the spans of ``layer``, children included."""
    durations = [end - start for _op, _s, _p, name, start, end, _self in spans.records if name == layer]
    return 1000.0 * statistics.fmean(durations) if durations else 0.0


class Recorder:
    """The subscribed events in memory, one trace record each.

    ``repro.obs.trace.TraceRecorder`` builds a record as ``{"kind":
    kind, **fields}``, so a ``service.job`` submit event, whose fields
    carry the job's own ``kind``, loses its event kind; this recorder
    keeps the event kind and files that field as ``job_kind``."""

    def __init__(self):
        self.events = []
        self._lock = threading.Lock()

    def __call__(self, kind, fields):
        if kind not in HOOK_KINDS:
            return
        record = dict(fields)
        if "kind" in record:
            record["job_kind"] = record.pop("kind")
        record["ts"] = time.monotonic()
        record["kind"] = kind
        with self._lock:
            record["seq"] = len(self.events) + 1
            self.events.append(record)

    def write(self, path):
        with open(path, "w") as handle:
            for event in self.events:
                json.dump(event, handle, default=str)
                handle.write("\n")


def layer_metrics(result, plain_result, spans, counts, fill_after):
    per_op, roots = spans.self_times()
    ops = len(result.samples)
    totals = {}
    for layers in per_op.values():
        for layer, seconds in layers.items():
            totals[layer] = totals.get(layer, 0.0) + seconds
    metrics = {}
    for layer in SELF_LAYERS:
        metrics["%s.self_ms" % layer] = (1000.0 * totals.get(layer, 0.0) / ops, "ms")
    metrics["plan.magic.rewrite_ms"] = (_per_call_ms(spans, "plan.magic.rewrite"), "ms")
    metrics["core.engine.rounds"] = (counts.rounds, "count")
    metrics["core.engine.derived_tuples"] = (counts.derived, "count")
    metrics["core.engine.accepted_tuples"] = (counts.accepted, "count")
    metrics["core.engine.accept_ratio"] = (ratio(counts.accepted, counts.derived), "ratio")
    metrics["plan.operators.rows_in"] = (counts.rows_in, "count")
    metrics["plan.operators.rows_out"] = (counts.rows_out, "count")
    metrics["gdb.kernel.join_hit_ratio"] = (ratio(counts.join_hits, counts.join_size), "ratio")
    metrics["gdb.kernel.join_cache_fill"] = (fill_after["join"], "ratio")
    metrics["core.safety.coverage_hit_ratio"] = (
        ratio(counts.coverage_hits, counts.coverage_hits + counts.coverage_misses),
        "ratio",
    )
    metrics["plan.magic.derived_tuples"] = (counts.magic_derived, "count")
    metrics["plan.magic.degraded_share"] = (
        ratio(sum(spans.magic_calls), len(spans.magic_calls)),
        "ratio",
    )

    # service.pool: per job, the wait before a worker claimed it and the
    # remainder of its latency that no layer span covers.
    jobs = [op for op, (layer, _wall) in roots.items() if layer == "service.pool"]
    waits = [1000.0 * counts.queue_wait.get(op, 0.0) for op in jobs]
    overheads = [1000.0 * per_op[op]["service.pool"] for op in jobs]
    attempts = [counts.attempts.get(op, 0) for op in jobs]
    metrics["service.pool.queue_wait_ms"] = (statistics.median(waits) if waits else 0.0, "ms")
    metrics["service.pool.overhead_ms"] = (statistics.median(overheads) if overheads else 0.0, "ms")
    metrics["service.pool.attempts_per_job"] = (
        statistics.fmean(attempts) if attempts else 0.0,
        "count",
    )
    metrics["service.pool.rejected"] = (counts.rejected, "count")

    metrics["edb.store.apply_ms"] = (_per_call_ms(spans, "edb.store.apply"), "ms")
    metrics["edb.store.checkpoint_ms"] = (_per_call_ms(spans, "edb.store.checkpoint"), "ms")
    metrics["edb.store.snapshot_ms"] = (_per_call_ms(spans, "edb.store.snapshot"), "ms")
    metrics["edb.wal.bytes_per_txn"] = (ratio(counts.wal_bytes, counts.txns), "B")
    metrics["edb.maintain.refresh_ms"] = (_per_call_ms(spans, "edb.maintain"), "ms")
    metrics["edb.maintain.rounds"] = (ratio(counts.refresh_rounds, counts.refreshes), "count")
    metrics["edb.maintain.recompute_share"] = (ratio(counts.recomputes, counts.refreshes), "ratio")

    # Coverage: an op's uncovered time is its root span's self time,
    # except that a service job's remainder is service.pool's own.
    coverage = []
    for op, (layer, wall) in roots.items():
        if layer == "service.pool" or wall <= 0.0:
            continue
        coverage.append((1.0 - per_op[op]["bench"] / wall, op))
    worst = min(coverage) if coverage else (1.0, None)
    problems = []
    if worst[0] < MIN_COVERAGE:
        problems.append(
            "layer spans cover only %.1f%% of op %r's wall" % (100.0 * worst[0], worst[1])
        )
    metrics["obs.span_coverage_min"] = (worst[0], "ratio")
    metrics["obs.hook_events"] = (sum(counts.events.values()), "count")
    metrics["obs.trace_overhead_share"] = (result.wall / plain_result.wall - 1.0, "ratio")
    return metrics, problems
