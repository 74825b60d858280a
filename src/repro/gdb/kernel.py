"""The columnar batch kernel: interned ids, template caches, batch ops.

The plan layer's operators used to transform generalized tuples one at
a time: every join pair paid a zone rebuild plus a Floyd–Warshall
closure, every projection re-derived the same temporal template for
every tuple that shared an lrp vector and a constraint zone.  This
module batches those transformations and memoizes their *temporal
templates*: the temporal part of a join / selection / extension /
projection result depends only on the operands' lrp vectors and
interned constraint ids (the data columns just concatenate or
project), so one computed result serves every operand pair with the
same ids.

Identity of the cache keys rests on the interning layers:

- :data:`repro.constraints.dbm.CONSTRAINT_TABLE` assigns each
  canonical zone a dense ``cid``;
- :mod:`repro.gdb.tuple` interns lrp vectors (``lvid``) and free
  signatures (``sid``) and exposes them via
  ``GeneralizedTuple.kernel_ids()``.

Each compiled plan step draws a process-unique ``token`` from
:func:`next_token`; cache keys are ``(token, ids…)`` so a step's
pushed-down constraint atoms are part of the key implicitly (two steps
never share a token).

Every batch helper computes exactly what the per-tuple loop it
replaced would (``tests/test_kernel.py`` checks each against that loop
written out).  The kernel deliberately imports nothing from the gdb
modules: results are rebuilt via ``type(operand)(…)``.
"""

from __future__ import annotations

import threading

#: Combined cap across each template cache; past it, batch helpers
#: keep computing per-tuple without caching new templates.
CACHE_CAP = 1 << 17

_UNSET = object()

_JOIN_CACHE = {}      # (token, a_lvid, a_cid, b_lvid, b_cid) -> None | (lrps, cs)
_SELECT_CACHE = {}    # (token, lvid, cid) -> None | (lrps, cs)
_EXTEND_CACHE = {}    # (token, lvid, cid) -> None | (lrps, cs)
_PROJECT_CACHE = {}   # (token, lvid, cid) -> [(lrps, cs), ...]

_TOKEN_LOCK = threading.Lock()
_NEXT_TOKEN = 0


def next_token():
    """A process-unique id for one compiled plan step's cache keyspace."""
    global _NEXT_TOKEN
    with _TOKEN_LOCK:
        token = _NEXT_TOKEN
        _NEXT_TOKEN += 1
    return token


def cache_stats():
    """Sizes of the kernel template caches (for tests/benchmarks)."""
    return {
        "join": len(_JOIN_CACHE),
        "select": len(_SELECT_CACHE),
        "extend": len(_EXTEND_CACHE),
        "project": len(_PROJECT_CACHE),
        "cap": CACHE_CAP,
    }


# -- batch operations --------------------------------------------------------
#
# Every helper takes an optional ``stats`` dict and bumps ``size`` (tuples
# seen) and ``hits`` (template-cache hits) in place; the plan operators
# fold those counters into ``kernel.batch`` observability events.  All
# helpers preserve input order exactly and represent a dropped
# (unsatisfiable) result as None in the aligned output list, matching
# the per-tuple code they replace.


def join_batch(pairs, atoms, token, stats=None):
    """Batched fused join: ``a.joined(b, atoms)`` per pair.

    Returns a list aligned with ``pairs`` (None where the combined zone
    is unsatisfiable).  The temporal template — the result's lrps and
    constraints — is memoized per ``(token, operand ids)``.
    """
    out = []
    hits = 0
    for a, b in pairs:
        alv, _, acid = a.kernel_ids()
        blv, _, bcid = b.kernel_ids()
        key = (token, alv, acid, blv, bcid)
        cached = _JOIN_CACHE.get(key, _UNSET)
        if cached is _UNSET:
            result = a.joined(b, atoms)
            if len(_JOIN_CACHE) < CACHE_CAP:
                _JOIN_CACHE[key] = (
                    None if result is None else (result.lrps, result.constraints)
                )
            out.append(result)
        else:
            hits += 1
            if cached is None:
                out.append(None)
            else:
                lrps, constraints = cached
                out.append(type(a)(lrps, a.data + b.data, constraints))
    if stats is not None:
        stats["size"] = stats.get("size", 0) + len(pairs)
        stats["hits"] = stats.get("hits", 0) + hits
    return out


def select_batch(tuples, atoms, token, stats=None):
    """Batched selection: ``gt.conjoined(atoms)`` per tuple."""
    out = []
    hits = 0
    for gt in tuples:
        lvid, _, cid = gt.kernel_ids()
        key = (token, lvid, cid)
        cached = _SELECT_CACHE.get(key, _UNSET)
        if cached is _UNSET:
            result = gt.conjoined(atoms)
            if len(_SELECT_CACHE) < CACHE_CAP:
                _SELECT_CACHE[key] = (
                    None if result is None else (result.lrps, result.constraints)
                )
            out.append(result)
        else:
            hits += 1
            if cached is None:
                out.append(None)
            else:
                lrps, constraints = cached
                out.append(type(gt)(lrps, gt.data, constraints))
    if stats is not None:
        stats["size"] = stats.get("size", 0) + len(tuples)
        stats["hits"] = stats.get("hits", 0) + hits
    return out


def extend_batch(tuples, count, atoms, token, stats=None):
    """Batched carrier extension: ``gt.extended(count, atoms)`` per tuple."""
    out = []
    hits = 0
    for gt in tuples:
        lvid, _, cid = gt.kernel_ids()
        key = (token, lvid, cid)
        cached = _EXTEND_CACHE.get(key, _UNSET)
        if cached is _UNSET:
            result = gt.extended(count, atoms)
            if len(_EXTEND_CACHE) < CACHE_CAP:
                _EXTEND_CACHE[key] = (
                    None if result is None else (result.lrps, result.constraints)
                )
            out.append(result)
        else:
            hits += 1
            if cached is None:
                out.append(None)
            else:
                lrps, constraints = cached
                out.append(type(gt)(lrps, gt.data, constraints))
    if stats is not None:
        stats["size"] = stats.get("size", 0) + len(tuples)
        stats["hits"] = stats.get("hits", 0) + hits
    return out


def project_batch(tuples, keep_temporal, keep_data, shifts, token, stats=None):
    """Batched projection (+ post-projection column shifts).

    For each input tuple, yields the list ``gt.project(keep_temporal,
    keep_data)`` with each result's columns shifted per ``shifts``
    (pairs ``(column, delta)``).  Returns a list of result lists
    aligned with ``tuples``.  The post-shift temporal templates are
    memoized — data columns are re-projected per tuple, which is a
    plain Python slice.
    """
    out = []
    hits = 0
    for gt in tuples:
        lvid, _, cid = gt.kernel_ids()
        key = (token, lvid, cid)
        cached = _PROJECT_CACHE.get(key, _UNSET)
        if cached is _UNSET:
            results = gt.project(keep_temporal, keep_data)
            for column, delta in shifts:
                results = [r.shift_column(column, delta) for r in results]
            if len(_PROJECT_CACHE) < CACHE_CAP:
                _PROJECT_CACHE[key] = [
                    (r.lrps, r.constraints) for r in results
                ]
            out.append(results)
        else:
            hits += 1
            data = tuple(gt.data[k] for k in keep_data)
            out.append(
                [type(gt)(lrps, data, constraints) for lrps, constraints in cached]
            )
    if stats is not None:
        stats["size"] = stats.get("size", 0) + len(tuples)
        stats["hits"] = stats.get("hits", 0) + hits
    return out
