"""The columnar backing store of a growing generalized relation.

A :class:`~repro.gdb.relation.GeneralizedRelation` is a value object:
"mutation" returns a fresh instance.  Before the columnar kernel that
meant every per-relation cache (data indexes, the free-signature
index) restarted cold after each ``with_tuples``, and the cross-round
coverage cache survived only through an O(n) copy.  The engine grows
its IDB relations every round, so those rebuilds dominated the
sequential profile.

:class:`ColumnStore` fixes this by factoring the *storage* out of the
value object: one store holds the append-only row sequence shared by a
whole chain of ``with_tuples`` growths, and every index over it is
incremental — a watermark records how many rows are already indexed,
and a lookup only folds in the suffix.  Row identity is positional
(``row_ids`` are positions in :attr:`rows`), tuples dedup by
``(sid, cid)`` integer pairs (see ``GeneralizedTuple.row_key``), and
the Theorem-4.3 coverage verdicts live directly on the store, keyed by
interned ids, so growth drops the stale negatives in place instead of
copying the cache.

Consistency rule: a relation view may serve answers from the store
only while it covers the store's **full row prefix** (same length).
The moment a sibling growth appends more rows, older views build a
private store of their own — the store never serves a superset of a
view.

The module also defines the column-batch wire codec used by the shard
pool: a batch of tuples ships as parallel ``rows`` arrays plus a
*constraint dictionary* (each distinct zone serialized once, rows
referencing it by local index), instead of one JSON object per tuple.
"""

from __future__ import annotations

import pickle
import threading

from repro.constraints.system import ConstraintSystem
from repro.gdb.tuple import GeneralizedTuple, signature_id
from repro.lrp.point import Lrp


_INDEX_LOCK = threading.Lock()


class ColumnStore:
    """Append-only shared storage for one chain of relation growths.

    ``generation`` counts appends; it is the single counter that
    drives both the coverage-cache bookkeeping and the relation-level
    ``coverage_generation`` mirror.
    """

    __slots__ = (
        "rows",
        "generation",
        "coverage",
        "_sig_index",
        "_sig_watermark",
        "_data_indexes",
        "_data_watermarks",
    )

    def __init__(self, rows=(), generation=0):
        self.rows = list(rows)
        self.generation = generation
        #: Theorem-4.3 verdicts: ``{sid: {cid: covered?}}`` (interned
        #: ids; structural keys appear only past the intern caps).
        self.coverage = {}
        self._sig_index = {}        # sid -> [tuples…] in row order
        self._sig_watermark = 0
        self._data_indexes = {}     # column -> {value: [row positions…]}
        self._data_watermarks = {}  # column -> rows already indexed

    def __len__(self):
        return len(self.rows)

    def append(self, gts):
        """Append tuples (one growth step: ``generation`` bumps by 1).

        Coverage verdicts for the appended tuples' free signatures go
        stale on the negative side only — the new row may be exactly
        what covers a previously uncovered tuple — so negatives of
        touched signatures are dropped in place while positives (which
        are monotone under insertion) survive.
        """
        self.rows.extend(gts)
        self.generation += 1
        if self.coverage:
            touched = {signature_id(gt.free_signature()) for gt in gts}
            for key in touched:
                verdicts = self.coverage.get(key)
                if verdicts is None:
                    continue
                kept = {k: True for k, value in verdicts.items() if value}
                if kept:
                    self.coverage[key] = kept
                else:
                    del self.coverage[key]

    # -- incremental indexes ---------------------------------------------
    #
    # A relation parsed once may be read by several threads at once (the
    # service shares parsed EDBs, see repro.plan.memo), so folding rows
    # into an index happens under _INDEX_LOCK and the watermark moves
    # only after the rows are in: a reader that sees the watermark at
    # the row count sees a complete index, and two readers never fold
    # the same rows twice.  An index that is already current is read
    # without the lock.

    def signature_index(self):
        """``{sid: [tuples…]}`` over all rows, extended incrementally."""
        if self._sig_watermark < len(self.rows):
            with _INDEX_LOCK:
                rows = self.rows
                index = self._sig_index
                for gt in rows[self._sig_watermark:]:
                    index.setdefault(gt.kernel_ids()[1], []).append(gt)
                self._sig_watermark = len(rows)
        return self._sig_index

    def tuples_with_signature_id(self, sid):
        """The rows whose free signature interned to ``sid``."""
        return self.signature_index().get(sid, [])

    def data_index(self, column):
        """``{value: [row positions…]}`` for one data column."""
        index = self._data_indexes.get(column)
        if index is not None and self._data_watermarks[column] == len(self.rows):
            return index
        with _INDEX_LOCK:
            rows = self.rows
            index = self._data_indexes.get(column)
            if index is None:
                index, start = {}, 0
            else:
                start = self._data_watermarks[column]
            for position in range(start, len(rows)):
                index.setdefault(rows[position].data[column], []).append(position)
            self._data_watermarks[column] = len(rows)
            self._data_indexes[column] = index
        return index


# -- column-batch wire codec -------------------------------------------------
#
# The shard pool used to ship every tuple as its own checkpoint-style
# JSON object, re-serializing the same constraint system once per
# tuple.  A round's delta is dominated by a handful of distinct zones,
# so the batch form stores each distinct zone once in a dictionary and
# encodes a tuple as [lrp pairs, data, zone index] — measurably fewer
# bytes on the pipe (tests/test_kernel.py checks the saving on E14).
# This is a *wire* format for shard messages only; checkpoints keep
# the per-tuple canonical form.


def encode_tuple_batch(tuples):
    """Encode tuples as ``{"constraints": [...], "rows": [...]}``.

    Order-preserving.  ``constraints`` holds each distinct constraint
    system's canonical JSON dict once (first-appearance order, keyed by
    constraint id during encoding); a row's third field indexes into
    it, with -1 for a trivial (``true``) constraint.
    """
    dictionary = []
    slots = {}
    rows = []
    for gt in tuples:
        if gt.constraints.is_trivial():
            slot = -1
        else:
            cid = gt.constraints.constraint_id()
            slot = slots.get(cid)
            if slot is None:
                slot = slots[cid] = len(dictionary)
                dictionary.append(gt.constraints.to_json_dict())
        rows.append(
            [[[lrp.period, lrp.offset] for lrp in gt.lrps], list(gt.data), slot]
        )
    return {"constraints": dictionary, "rows": rows}


#: Decode-side constraint interning: the engine re-broadcasts the same
#: handful of zones round after round (a delta's tuples mostly reuse
#: the zones of the tuples they were derived from), so decoding keys
#: each canonical JSON form to the already-canonicalized system and
#: skips the DBM canonicalization entirely on a hit.  Keys are the
#: ``repr`` of the canonical dict — :meth:`ConstraintSystem.to_json_dict`
#: is deterministic and pickling preserves dict order, so equal zones
#: always produce equal keys.  The cache is per-process and capped;
#: systems are immutable value objects, so sharing one instance across
#: batches (and rounds) is semantics-free.
_ZONE_INTERN_CAP = 1 << 14
_zone_intern = {}


def _decode_constraints(entry):
    key = repr(entry)
    system = _zone_intern.get(key)
    if system is None:
        system = ConstraintSystem.from_json_dict(entry)
        if len(_zone_intern) >= _ZONE_INTERN_CAP:
            _zone_intern.clear()
        _zone_intern[key] = system
    return system


def decode_tuple_batch(payload):
    """Decode :func:`encode_tuple_batch` output, order-preserving.

    Each distinct constraint system is decoded (and canonicalized)
    once — via the process-level intern cache — and shared across the
    rows referencing it.
    """
    systems = [_decode_constraints(entry) for entry in payload["constraints"]]
    tuples = []
    for lrp_pairs, data, slot in payload["rows"]:
        lrps = tuple(Lrp(period, offset) for period, offset in lrp_pairs)
        constraints = systems[slot] if slot >= 0 else None
        tuples.append(GeneralizedTuple(lrps, tuple(data), constraints))
    return tuples


def decode_tuple_batch_rows(payload, positions):
    """Decode only the rows of ``payload`` at the given positions, in
    the order given — the accept-reference path of the shard protocol:
    a worker resolving another worker's accepted rows touches just
    those rows' zones, not the whole batch."""
    rows = payload["rows"]
    dictionary = payload["constraints"]
    systems = {}
    tuples = []
    for position in positions:
        lrp_pairs, data, slot = rows[position]
        constraints = None
        if slot >= 0:
            constraints = systems.get(slot)
            if constraints is None:
                constraints = systems[slot] = _decode_constraints(
                    dictionary[slot]
                )
        lrps = tuple(Lrp(period, offset) for period, offset in lrp_pairs)
        tuples.append(GeneralizedTuple(lrps, tuple(data), constraints))
    return tuples


def dump_payload(obj):
    """Serialize a shard payload (nested batch structures) to bytes.

    One pickling, highest protocol — the bytes land either in a
    shared-memory segment (written once, read by every worker) or on a
    pipe via ``send_bytes`` (so the parent can count wire bytes
    exactly instead of trusting ``Connection.send``'s hidden pickling).
    """
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def load_payload(buffer):
    """Deserialize :func:`dump_payload` bytes.

    Accepts any buffer — in particular a ``memoryview`` over a
    shared-memory segment, which :func:`pickle.loads` consumes without
    first copying the segment into a private ``bytes`` object.
    """
    return pickle.loads(buffer)


def encode_relation_batch(relation):
    """A relation as schema + column batch (shard wire form)."""
    return {
        "temporal_arity": relation.temporal_arity,
        "data_arity": relation.data_arity,
        "batch": encode_tuple_batch(relation.tuples),
    }


def decode_relation_batch(payload):
    """Rebuild a relation encoded by :func:`encode_relation_batch`."""
    from repro.gdb.relation import GeneralizedRelation

    return GeneralizedRelation(
        payload["temporal_arity"],
        payload["data_arity"],
        decode_tuple_batch(payload["batch"]),
    )
