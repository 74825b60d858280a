"""The columnar batch kernel: interned ids, template caches, batch ops.

The plan layer's operators used to transform generalized tuples one at
a time: every join pair paid a zone rebuild plus a Floyd–Warshall
closure, every projection re-derived the same temporal template for
every tuple that shared an lrp vector and a constraint zone.  This
module batches those transformations and memoizes their *temporal
templates*: the temporal part of a join / selection / extension /
projection result depends only on the operation's own parameters and
the operands' lrp vectors and interned constraint ids (the data
columns just concatenate or project), so one computed result serves
every operand pair with the same ids.

Identity of the cache keys rests on the interning layers:

- :data:`repro.constraints.dbm.CONSTRAINT_TABLE` assigns each
  canonical zone a dense ``cid``;
- :mod:`repro.gdb.tuple` interns lrp vectors (``lvid``) and free
  signatures (``sid``) and exposes them via
  ``GeneralizedTuple.kernel_ids()``;
- ``_signature_id`` interns each operation's content — the
  constraint atoms of a join or selection, ``(count, atoms)`` of an
  extension, ``(keep_temporal, keep_data, shifts)`` of a projection.

Cache keys are ``(signature, ids…)``, computed once per batch call for
the signature and per operand for the ids.  Because the key is the
content, not the compiled step, every engine in the process shares the
templates: a second engine built from the same program text, or a
service job that resends it, answers its joins from the first one's
entries.

Each cache is bounded at :data:`CACHE_CAP` entries and evicts first
in, first out once full, so a long-lived process keeps caching new
templates instead of freezing its first ``CACHE_CAP`` of them, and a
full cache stays exactly full.  Lookups take no lock; inserts with
their evictions, and signature interning, take one module lock.  Two
contents must never share a signature id (a shared id would serve one
step another step's templates), so interning uses the double-checked
pattern of :mod:`repro.gdb.tuple`.

Every batch helper computes exactly what the per-tuple loop it
replaced would (``tests/test_kernel.py`` checks each against that loop
written out).  The kernel deliberately imports nothing from the gdb
modules: results are rebuilt via ``type(operand)(…)``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

#: Entries per template cache; past it, each insert evicts the oldest.
CACHE_CAP = 1 << 17

#: Interned step signatures; past the cap the content itself is the id.
_SIGNATURE_CAP = 1 << 20

_UNSET = object()

_JOIN_CACHE = OrderedDict()     # (sig, a_lvid, a_cid, b_lvid, b_cid) -> None | (lrps, cs)
_SELECT_CACHE = OrderedDict()   # (sig, lvid, cid) -> None | (lrps, cs)
_EXTEND_CACHE = OrderedDict()   # (sig, lvid, cid) -> None | (lrps, cs)
_PROJECT_CACHE = OrderedDict()  # (sig, lvid, cid) -> [(lrps, cs), ...]

_LOCK = threading.Lock()
_SIGNATURES = {}                # step content -> sig


def _signature_id(content):
    """The dense id of one operation's content, assigned on first
    sight; past the cap the content itself."""
    ident = _SIGNATURES.get(content)
    if ident is not None:
        return ident
    with _LOCK:
        ident = _SIGNATURES.get(content)
        if ident is not None:
            return ident
        if len(_SIGNATURES) >= _SIGNATURE_CAP:
            return content
        ident = _SIGNATURES[content] = len(_SIGNATURES)
        return ident


def _remember(cache, key, template):
    """Insert one template, evicting the oldest entries past the cap."""
    with _LOCK:
        cache[key] = template
        while len(cache) > CACHE_CAP:
            cache.popitem(last=False)


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


def join_batch(pairs, atoms, stats=None):
    """Batched fused join: ``a.joined(b, atoms)`` per pair.

    Returns a list aligned with ``pairs`` (None where the combined zone
    is unsatisfiable).  The temporal template — the result's lrps and
    constraints — is memoized per ``(atoms, operand ids)``.
    """
    sig = _signature_id(tuple(atoms))
    out = []
    hits = 0
    for a, b in pairs:
        alv, _, acid = a.kernel_ids()
        blv, _, bcid = b.kernel_ids()
        key = (sig, alv, acid, blv, bcid)
        cached = _JOIN_CACHE.get(key, _UNSET)
        if cached is _UNSET:
            result = a.joined(b, atoms)
            _remember(
                _JOIN_CACHE, key,
                None if result is None else (result.lrps, result.constraints),
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


def select_batch(tuples, atoms, stats=None):
    """Batched selection: ``gt.conjoined(atoms)`` per tuple."""
    sig = _signature_id(tuple(atoms))
    out = []
    hits = 0
    for gt in tuples:
        lvid, _, cid = gt.kernel_ids()
        key = (sig, lvid, cid)
        cached = _SELECT_CACHE.get(key, _UNSET)
        if cached is _UNSET:
            result = gt.conjoined(atoms)
            _remember(
                _SELECT_CACHE, key,
                None if result is None else (result.lrps, result.constraints),
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


def extend_batch(tuples, count, atoms, stats=None):
    """Batched carrier extension: ``gt.extended(count, atoms)`` per tuple."""
    sig = _signature_id((count, tuple(atoms)))
    out = []
    hits = 0
    for gt in tuples:
        lvid, _, cid = gt.kernel_ids()
        key = (sig, lvid, cid)
        cached = _EXTEND_CACHE.get(key, _UNSET)
        if cached is _UNSET:
            result = gt.extended(count, atoms)
            _remember(
                _EXTEND_CACHE, key,
                None if result is None else (result.lrps, result.constraints),
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


def project_batch(tuples, keep_temporal, keep_data, shifts, stats=None):
    """Batched projection (+ post-projection column shifts).

    For each input tuple, yields the list ``gt.project(keep_temporal,
    keep_data)`` with each result's columns shifted per ``shifts``
    (pairs ``(column, delta)``).  Returns a list of result lists
    aligned with ``tuples``.  The post-shift temporal templates are
    memoized — data columns are re-projected per tuple, which is a
    plain Python slice.
    """
    sig = _signature_id((tuple(keep_temporal), tuple(keep_data), tuple(shifts)))
    out = []
    hits = 0
    for gt in tuples:
        lvid, _, cid = gt.kernel_ids()
        key = (sig, lvid, cid)
        cached = _PROJECT_CACHE.get(key, _UNSET)
        if cached is _UNSET:
            results = gt.project(keep_temporal, keep_data)
            for column, delta in shifts:
                results = [r.shift_column(column, delta) for r in results]
            _remember(
                _PROJECT_CACHE, key, [(r.lrps, r.constraints) for r in results]
            )
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
