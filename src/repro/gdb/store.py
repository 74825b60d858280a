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
"""

from __future__ import annotations

import threading

from repro.gdb.tuple import signature_id


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
