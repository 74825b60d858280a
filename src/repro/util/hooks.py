"""Process-wide instrumentation hooks: fault injection and the event bus.

Two mechanisms share this module because they share a design: the
evaluation hot paths announce named moments of execution, and by
default that announcement costs a single global read plus a falsy
check — effectively free.

:func:`fault_point` is the original single-purpose mechanism: tests
install a hook (see :class:`repro.runtime.faults.FaultPlan`) to inject
deterministic exceptions and delays at exactly those sites and prove
the engine's recovery paths work.

:func:`emit` generalizes it into a typed event bus for observability
(:mod:`repro.obs`): subscribers (a
:class:`~repro.obs.trace.TraceRecorder`, a metrics bridge, a profile
collector) receive ``(kind, fields)`` events for engine round
boundaries, per-stratum progress, plan operator invocations with
cardinalities, checkpoint writes, budget charges, and the service job
lifecycle.  Emitting sites guard with :data:`SINKS` (or
:func:`active`) so that building the event payload is skipped entirely
when nobody is listening — the hot paths stay as cheap as
``fault_point`` with no fault plan installed.

Event kinds are dotted names; the canonical vocabulary is

====================  ==================================================
``engine.run``        one per run: strategy, safety, strata, outcome
``engine.stratum``    stratum entered / closed
``engine.round``      one per T_GP round: derived/accepted counts, timing
``plan.operator``     one per operator invocation: op, predicate,
                      input/output cardinalities, duration
``kernel.batch``      one per operator invocation under the columnar
                      kernel: batch size, template-cache hits, and the
                      join fast path taken (hash / fused-closure /
                      product; carrier / projection for those steps)
``checkpoint.write``  one per snapshot persisted: path, round, duration
``budget.charge``     one per budget charge: dimension, amount, total
``coverage.cache``    one per coverage sweep: round, stratum, and the
                      sweep's cache hit / miss counts
``service.job``       job lifecycle: submit / reject / dequeue /
                      attempt / outcome, with retry and degradation
                      annotations
``edb.txn``           one per committed EDB transaction: tx id, op
                      counts, WAL bytes appended
``edb.recover``       one per store open: checkpoint tx, transactions
                      replayed from the WAL, torn bytes truncated
``maintain.delta``    one per materialized-model refresh: delta sizes,
                      tuples overdeleted and rederived, rounds, and
                      whether (and why) the incremental path degraded
                      to a from-scratch recompute
====================  ==================================================

Every event dict carries at least ``phase`` (begin/end or a lifecycle
verb) where the kind is not atomic.  Subscribers must never raise: the
bus is wrapped around hot paths and a crashing observer must not take
the computation down, so :func:`emit` swallows subscriber exceptions.
"""

from __future__ import annotations

import threading

#: The currently installed fault hook, or None.  Managed by
#: :meth:`repro.runtime.faults.FaultPlan.installed`; not intended to be
#: assigned directly.
FAULT_HOOK = None

#: The installed event subscribers, as an immutable tuple swapped
#: atomically under :data:`_SINK_LOCK`.  Emitting sites read this once
#: and skip all payload construction when it is empty — check
#: ``hooks.SINKS`` (truthiness) before building event fields.
SINKS = ()

_SINK_LOCK = threading.Lock()


def fault_point(site):
    """Announce that execution reached the named instrumentation site.

    A no-op unless a fault hook is installed; the hook may sleep (delay
    injection) or raise (fault injection).
    """
    hook = FAULT_HOOK
    if hook is not None:
        hook(site)


def active():
    """True when at least one event subscriber is installed.

    Hot paths use this (or read :data:`SINKS` directly) to skip the
    cost of assembling event payloads entirely.
    """
    return bool(SINKS)


def emit(kind, fields):
    """Deliver one event to every subscriber.

    ``fields`` is a plain dict the emitting site owns; subscribers must
    treat it as read-only (sinks that buffer events should copy).  A
    subscriber that raises is ignored — observability must never alter
    the observed computation.
    """
    for sink in SINKS:
        try:
            sink(kind, fields)
        except Exception:
            pass


def subscribe(sink):
    """Install ``sink`` (a ``callable(kind, fields)``) on the bus."""
    global SINKS
    with _SINK_LOCK:
        if sink not in SINKS:
            SINKS = SINKS + (sink,)
    return sink


def unsubscribe(sink):
    """Remove a previously installed subscriber (idempotent)."""
    global SINKS
    with _SINK_LOCK:
        SINKS = tuple(s for s in SINKS if s is not sink)


class subscribed:
    """Context manager form: ``with subscribed(recorder): …``."""

    def __init__(self, *sinks):
        self.sinks = sinks

    def __enter__(self):
        for sink in self.sinks:
            subscribe(sink)
        return self.sinks[0] if len(self.sinks) == 1 else self.sinks

    def __exit__(self, *exc_info):
        for sink in self.sinks:
            unsubscribe(sink)
        return False
