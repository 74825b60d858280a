"""Compile once per program: content-keyed front-door caches.

The paper computes a program's closed form "once and for all" and then
queries it many times (§1).  A long-lived process — the query service
above all — sees the same program and EDB texts job after job, so the
work that depends only on those texts is done once per *content* and
reused:

* :data:`TEXTS` — parsed program and EDB texts, keyed by
  ``(kind, text)``.  Only the service front door
  (:mod:`repro.service.executor`) parses through it; the public
  ``parse_program`` / ``parse_database`` keep returning fresh objects.
* :data:`PROGRAMS` — compiled programs: the clause plans (or reference
  evaluators), the strata and the stratum layout as clause indexes,
  keyed by ``(str(program), schemas, evaluation)``
  (:class:`~repro.core.evaluation.ProgramEvaluator`).
* :data:`REWRITES` — the goal-independent part of magic-set rewrites
  (the guarded program and the demand rules), keyed by
  ``(str(program), goal predicate, bound data columns)``
  (:func:`~repro.plan.magic.rewrite_for_goal`).

A :class:`~repro.core.ast.Program` renders its text once per object,
so keying on ``str(program)`` costs one rendering per parsed or
rewritten program, not one per lookup.

Answers and models are never cached: they depend on the EDB contents
and on budgets, and a run is the thing being asked for.  Every entry
is inserted only after the computation that builds it has succeeded,
so an error — a schema or stratification error, an injected fault —
leaves nothing behind and recurs on the next attempt.

Each cache is an ``OrderedDict`` bounded by a fixed cap that evicts
first in, first out, the discipline of the kernel template caches in
:mod:`repro.gdb.kernel`: a lookup reads the entry without a lock (a
lookup racing an insert of the same key at worst builds the value
twice, and both builds are equal), and an insert with its evictions,
like the hit/miss counts, takes the module lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

#: Parsed program and EDB texts kept (the service front door only).
TEXT_CAP = 64

#: Compiled programs kept.
PROGRAM_CAP = 256

#: Magic rewrites kept.
REWRITE_CAP = 256

_LOCK = threading.Lock()


class ContentCache:
    """One FIFO-bounded content-keyed cache with hit/miss counts."""

    def __init__(self, name, cap):
        self.name = name
        self.cap = cap
        self.entries = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        """The cached value for ``key``, or None (values are never None)."""
        value = self.entries.get(key)
        with _LOCK:
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
        return value

    def put(self, key, value):
        """Insert ``value``, evicting the oldest entries past the cap."""
        with _LOCK:
            self.entries[key] = value
            while len(self.entries) > self.cap:
                self.entries.popitem(last=False)
        return value

    def lookup(self, key, build):
        """The cached value for ``key``; on a miss, ``build()`` it and
        insert the result (an exception from ``build`` inserts
        nothing)."""
        value = self.get(key)
        if value is None:
            value = self.put(key, build())
        return value

    def stats(self):
        return {
            "size": len(self.entries),
            "cap": self.cap,
            "hits": self.hits,
            "misses": self.misses,
        }


TEXTS = ContentCache("texts", TEXT_CAP)
PROGRAMS = ContentCache("programs", PROGRAM_CAP)
REWRITES = ContentCache("rewrites", REWRITE_CAP)

CACHES = (TEXTS, PROGRAMS, REWRITES)


def cache_stats():
    """Per cache: entries, cap, and the process's hit and miss counts
    (for tests, benchmarks and the service metrics exposition)."""
    return {cache.name: cache.stats() for cache in CACHES}


def parsed(kind, text, parse):
    """``parse(text)``, shared by every caller passing the same
    ``kind`` and text.  The result is shared across threads, so callers
    must treat it as read-only."""
    return TEXTS.lookup((kind, text), lambda: parse(text))
