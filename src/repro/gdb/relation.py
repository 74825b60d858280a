"""Generalized relations and their algebra (paper Section 2.1, [KSW90]).

A generalized relation is a finite set of generalized tuples of fixed
temporal and data arity; it finitely represents a possibly infinite
set of ground tuples.  The algebra provided here is the one the paper
relies on for bottom-up evaluation (Section 4.3): intersection, join
(as product + selection + projection), and projection — all PTIME on
the representation — plus union, difference, complement and column
shifts, under which the class of representable relations is closed.
"""

from __future__ import annotations

import itertools
from collections import Counter

from repro.constraints.system import ConstraintSystem
from repro.gdb.store import ColumnStore
from repro.gdb.tuple import GeneralizedTuple, signature_id
from repro.lrp.point import Lrp
from repro.util.errors import SchemaError


class GeneralizedRelation:
    """A finite set of :class:`GeneralizedTuple` of uniform schema.

    The class is a value object: mutating methods return new relations.

    >>> from repro.gdb import GeneralizedRelation, GeneralizedTuple
    >>> from repro.lrp import Lrp
    >>> from repro.constraints import ConstraintSystem
    >>> rel = GeneralizedRelation(2, 2)
    >>> rel = rel.with_tuple(GeneralizedTuple(
    ...     (Lrp(40, 5), Lrp(40, 25)), ("Liege", "Brussels"),
    ...     ConstraintSystem.parse("T1 >= 0 & T2 = T1 + 60", 2)))
    >>> rel.contains_point((45, 105), ("Liege", "Brussels"))
    True
    """

    __slots__ = (
        "temporal_arity",
        "data_arity",
        "tuples",
        "_store",
        "_normal",
        "coverage_generation",
    )

    def __init__(self, temporal_arity, data_arity, tuples=()):
        self.temporal_arity = temporal_arity
        self.data_arity = data_arity
        self.tuples = tuple(tuples)
        self._store = None
        self._normal = 0
        self.coverage_generation = 0
        for gt in self.tuples:
            self._check(gt)

    @classmethod
    def _trusted(cls, temporal_arity, data_arity, tuples):
        """Internal constructor skipping the per-tuple schema check —
        for callers (plan executor, :meth:`with_tuples`) that already
        guarantee the schema."""
        relation = cls.__new__(cls)
        relation.temporal_arity = temporal_arity
        relation.data_arity = data_arity
        relation.tuples = tuple(tuples)
        relation._store = None
        relation._normal = 0
        relation.coverage_generation = 0
        return relation

    # -- columnar backing store -------------------------------------------

    def _ensure_store(self):
        """This view's shared :class:`ColumnStore` while it still covers
        the store's full row prefix; otherwise (first need, or a
        sibling growth moved past this view) a private store built
        from the current tuples."""
        store = self._store
        if store is None or len(store) != len(self.tuples):
            store = self._store = ColumnStore(
                self.tuples, generation=self.coverage_generation
            )
        return store

    def _check(self, gt):
        if gt.temporal_arity != self.temporal_arity or gt.data_arity != self.data_arity:
            raise SchemaError(
                "tuple %s does not match schema [%d; %d]"
                % (gt, self.temporal_arity, self.data_arity)
            )

    # -- constructors -----------------------------------------------------

    @classmethod
    def empty(cls, temporal_arity, data_arity=0):
        """The empty relation of the given schema."""
        return cls(temporal_arity, data_arity)

    @classmethod
    def universe(cls, temporal_arity, data_values=()):
        """The relation ``ℤ^m × {data_values}`` (one unconstrained tuple
        per data vector; for data arity 0 this is all of ℤ^m)."""
        carriers = tuple(Lrp.constant_carrier() for _ in range(temporal_arity))
        vectors = list(data_values) if data_values else [()]
        tuples = [GeneralizedTuple(carriers, vector) for vector in vectors]
        data_arity = len(tuples[0].data)
        return cls(temporal_arity, data_arity, tuples)

    def with_tuple(self, gt):
        """This relation plus one more tuple."""
        return self.with_tuples((gt,))

    def with_tuples(self, gts):
        """This relation plus the given tuples.

        Only the new tuples are schema-checked (the existing ones were
        checked when this relation was built), so growing a relation by
        a delta is O(len(delta)), not O(len(relation)).

        The coverage cache (see :meth:`coverage_cache`) is the one
        cache that survives the "mutation": inserts only ever *add*
        tuples, so a positive coverage verdict stays valid forever and
        a negative one only goes stale for the free signatures the new
        tuples carry.  The grown relation therefore inherits every
        cached verdict except the negatives of touched signatures, and
        its generation counter is bumped so observers can see the
        insert happened.
        """
        gts = tuple(gts)
        for gt in gts:
            self._check(gt)
        # Hand the shared store to the grown view.  The append drops
        # stale negative coverage verdicts in place (no O(n) cache
        # copy) and bumps the one generation counter both views'
        # bookkeeping mirrors.
        store = self._ensure_store()
        store.append(gts)
        grown = GeneralizedRelation._trusted(
            self.temporal_arity, self.data_arity, self.tuples + gts
        )
        grown._store = store
        grown._normal = self._normal
        grown.coverage_generation = store.generation
        return grown

    def without(self, positions):
        """This relation minus the tuples at ``positions`` (indexes into
        :attr:`tuples`); the kept tuples are not re-checked, and the kept
        part of the normal prefix (see :meth:`normalize`) stays normal."""
        kept = GeneralizedRelation._trusted(
            self.temporal_arity,
            self.data_arity,
            [gt for index, gt in enumerate(self.tuples) if index not in positions],
        )
        kept._normal = self._normal - len(
            {index for index in positions if 0 <= index < self._normal}
        )
        return kept

    # -- structure ------------------------------------------------------------

    def __len__(self):
        return len(self.tuples)

    def __iter__(self):
        return iter(self.tuples)

    def is_empty(self):
        """Exact: True when the relation denotes no ground tuple."""
        return all(gt.is_empty() for gt in self.tuples)

    def contains_point(self, times, data=()):
        """Membership of a ground tuple."""
        return any(gt.contains_point(times, data) for gt in self.tuples)

    def extension(self, low, high):
        """All ground tuples whose temporal components lie in the
        window ``[low, high)``, as a set of flat tuples
        ``times + data``.  This is the brute-force oracle used for
        cross-validation throughout the test suite."""
        result = set()
        for gt in self.tuples:
            pools = [lrp.enumerate(low, high) for lrp in gt.lrps]
            for times in itertools.product(*pools):
                if gt.constraints.satisfied_by(times):
                    result.add(tuple(times) + gt.data)
        return result

    def data_values(self, column):
        """The set of constants appearing in a data column (the active
        domain of that column)."""
        return set(self.data_index(column))

    # -- indexes ------------------------------------------------------------
    #
    # The indexes live on the shared column store, which a view serves
    # only while it covers the store's full row prefix (see
    # _ensure_store), so an index never answers for rows a view lacks.

    def data_index(self, column):
        """Hash index on a data column: ``{value: [tuple positions…]}``
        in tuple order, served incrementally from the column store."""
        return self._ensure_store().data_index(column)

    def tuples_with_signature(self, signature):
        """The tuples whose free extension matches ``signature``."""
        return self.tuples_with_signature_id(signature_id(signature))

    def tuples_with_signature_id(self, sid):
        """The tuples whose free signature interned to ``sid``.  The
        store's id-keyed index is incremental, so growth re-indexes
        only the new rows.  Consulted by the coverage tests of the
        engine's safety bookkeeping — one hash lookup instead of a full
        scan per derived tuple."""
        return self._ensure_store().tuples_with_signature_id(sid)

    def coverage_cache(self):
        """The cross-round coverage memo: ``{sid: {cid: covered?}}``
        (interned ids of the free signature and the constraint zone).

        Written by the engine's coverage test (see
        :class:`repro.core.safety.CoverageChecker`): a verdict recorded
        here is valid for this exact relation value.  It lives on the
        column store and so is *carried across* :meth:`with_tuples` —
        inserts are monotone, so positive verdicts survive and only the
        negatives of the inserted tuples' signatures are dropped.  That
        carry-over is what lets unchanged signatures skip
        ``implied_by_union`` entirely from round to round.
        """
        return self._ensure_store().coverage

    # -- algebra ------------------------------------------------------------------

    def _same_schema(self, other):
        if (
            other.temporal_arity != self.temporal_arity
            or other.data_arity != self.data_arity
        ):
            raise SchemaError("relation schemas differ")

    def union(self, other):
        """Set union (same schema)."""
        self._same_schema(other)
        return GeneralizedRelation(
            self.temporal_arity, self.data_arity, self.tuples + other.tuples
        )

    def intersect(self, other):
        """Set intersection: per-column lrp intersection (CRT) plus
        constraint conjunction — PTIME per tuple pair ([KSW90])."""
        self._same_schema(other)
        result = []
        for a in self.tuples:
            for b in other.tuples:
                merged = a.intersect(b)
                if merged is not None:
                    result.append(merged)
        return GeneralizedRelation(self.temporal_arity, self.data_arity, result)

    def select(self, atoms):
        """Selection by a conjunction of constraint atoms
        (:class:`~repro.constraints.atoms.Comparison` over the temporal
        columns)."""
        result = []
        for gt in self.tuples:
            refined = gt.conjoined(atoms)
            if refined is not None:
                result.append(refined)
        return GeneralizedRelation(self.temporal_arity, self.data_arity, result)

    def select_data_constant(self, column, value):
        """Selection ``data[column] = value`` (via the data hash index)."""
        kept = [self.tuples[k] for k in self.data_index(column).get(value, ())]
        return GeneralizedRelation._trusted(self.temporal_arity, self.data_arity, kept)

    def select_data_equal(self, column_a, column_b):
        """Selection ``data[a] = data[b]``."""
        kept = [gt for gt in self.tuples if gt.data[column_a] == gt.data[column_b]]
        return GeneralizedRelation(self.temporal_arity, self.data_arity, kept)

    def project(self, keep_temporal, keep_data, force_aligned=False):
        """Projection onto the listed temporal and data columns (order
        significant; exact, see :meth:`GeneralizedTuple.project`)."""
        result = []
        for gt in self.tuples:
            result.extend(
                gt.project(keep_temporal, keep_data, force_aligned=force_aligned)
            )
        return GeneralizedRelation(len(keep_temporal), len(keep_data), result)

    def product(self, other):
        """Cartesian product (columns concatenated)."""
        tuples = [a.product(b) for a in self.tuples for b in other.tuples]
        return GeneralizedRelation(
            self.temporal_arity + other.temporal_arity,
            self.data_arity + other.data_arity,
            tuples,
        )

    def shift(self, column, delta):
        """Advance a temporal column by ``delta`` (the ``+1``/``-1``
        functions of the deductive language, iterated)."""
        tuples = [gt.shift_column(column, delta) for gt in self.tuples]
        return GeneralizedRelation(self.temporal_arity, self.data_arity, tuples)

    def permuted(self, order):
        """Reorder temporal columns."""
        tuples = [gt.permuted(order) for gt in self.tuples]
        return GeneralizedRelation(len(order), self.data_arity, tuples)

    def difference(self, other):
        """Exact set difference (same schema)."""
        self._same_schema(other)
        result = []
        for gt in self.tuples:
            result.extend(gt.subtract(other.tuples))
        return GeneralizedRelation(self.temporal_arity, self.data_arity, result)

    def complement(self, data_domains=None):
        """Exact complement of the temporal content.

        For data arity 0 this is ``ℤ^m`` minus the relation.  With data
        columns a finite domain per column must be supplied (or is
        taken as the active domain); the complement is then relative to
        ``ℤ^m × domains`` — the usual active-domain semantics for the
        uninterpreted sort.
        """
        if self.data_arity == 0:
            vectors = [()]
        else:
            if data_domains is None:
                data_domains = [
                    sorted(self.data_values(c), key=repr)
                    for c in range(self.data_arity)
                ]
            vectors = list(itertools.product(*data_domains))
        carriers = tuple(Lrp.constant_carrier() for _ in range(self.temporal_arity))
        by_vector = {}  # one scan; each group keeps the relation's order
        for gt in self.tuples:
            by_vector.setdefault(gt.data, []).append(gt)
        result = []
        for vector in vectors:
            universe = GeneralizedTuple(carriers, vector)
            result.extend(universe.subtract(by_vector.get(vector, ())))
        return GeneralizedRelation(self.temporal_arity, self.data_arity, result)

    # -- comparison ------------------------------------------------------------------

    def contains(self, other):
        """Exact extension containment ``other ⊆ self``."""
        self._same_schema(other)
        return other.difference(self).is_empty()

    def equivalent(self, other):
        """Exact extension equality."""
        return self.contains(other) and other.contains(self)

    # -- serialization ------------------------------------------------------------------

    def to_json_dict(self):
        """A JSON-safe dict round-tripping through :meth:`from_json_dict`.

        Tuple order is preserved, so a relation restored from a
        checkpoint iterates identically to the original — the property
        the resume machinery relies on for bit-identical replay.
        """
        return {
            "temporal_arity": self.temporal_arity,
            "data_arity": self.data_arity,
            "tuples": [gt.to_json_dict() for gt in self.tuples],
        }

    @classmethod
    def from_json_dict(cls, payload):
        """Rebuild a relation serialized by :meth:`to_json_dict`.

        Constraint systems repeat heavily across a relation's tuples,
        so each distinct serialized system is decoded (and its zone
        canonicalized) once and shared — the payload format itself is
        unchanged.
        """
        systems = {}
        tuples = []
        for entry in payload["tuples"]:
            serialized = entry.get("constraints")
            if serialized is None:
                constraints = None
            else:
                key = (
                    serialized["arity"],
                    tuple(tuple(bound) for bound in serialized["bounds"]),
                )
                constraints = systems.get(key)
                if constraints is None:
                    constraints = systems[key] = ConstraintSystem.from_json_dict(
                        serialized
                    )
            lrps = tuple(Lrp(period, offset) for period, offset in entry["lrps"])
            tuples.append(GeneralizedTuple(lrps, tuple(entry["data"]), constraints))
        return cls(payload["temporal_arity"], payload["data_arity"], tuples)

    # -- normalization ------------------------------------------------------------------

    def normalize(self):
        """Remove duplicate and empty tuples, keeping the first copy of
        each in order.

        A relation records how many of its leading tuples are known to
        be normal (distinct ``row_key``, not empty): :meth:`with_tuples`
        and :meth:`without` carry that count forward, so only the tail
        past it is checked, against the column store's first-position
        map.  When nothing is dropped the relation itself is returned,
        store and caches included.
        """
        start = self._normal
        tuples = self.tuples
        if start == len(tuples):
            return self
        # row_key is the interned (sid, cid) pair — an integer compare
        # bijective with canonical_key.
        first = self._ensure_store().first_positions()
        tail = [
            gt
            for position, gt in enumerate(tuples[start:], start)
            if first[gt.row_key()] == position and not gt.is_empty()
        ]
        if len(tail) == len(tuples) - start:
            self._normal = len(tuples)
            return self
        normal = GeneralizedRelation._trusted(
            self.temporal_arity, self.data_arity, tuples[:start] + tuple(tail)
        )
        normal._normal = len(normal.tuples)
        return normal

    def coalesce(self):
        """Fold the relation into fewer, coarser tuples denoting the
        same set: the form in which a closed form is printed.

        Two exact rules run until neither merges anything:

        * *residue fold*, one temporal column at a time — tuples equal
          in data, constraints and every other column's lrp, whose lrps
          in this column share a period ``p``, and whose offsets fill
          the residue class ``b (mod g)`` of a divisor ``g`` of ``p``,
          become the one tuple with ``g·n + b`` in that column.
          Coarsest ``g`` first, so ``6n``, ``6n+2`` and ``6n+4`` fold
          to ``2n`` in one step;
        * *zone merge* — same lrps and data, and the convex hull of the
          two zones adds no new points.

        A merged tuple takes the place of its first member, so a
        relation with nothing to merge keeps its order.
        """
        entries = list(enumerate(self.normalize().tuples))
        size = None
        while size != len(entries):
            size = len(entries)
            for k in range(self.temporal_arity):
                entries = _merge_groups(
                    entries,
                    lambda gt: (
                        gt.data,
                        gt.constraints,
                        gt.lrps[:k],
                        gt.lrps[k + 1 :],
                        gt.lrps[k].period,
                    ),
                    lambda members: _fold_residues(members, k),
                )
            entries = _merge_groups(
                entries, GeneralizedTuple.free_signature, _merge_zones
            )
        return GeneralizedRelation(
            self.temporal_arity, self.data_arity, [gt for _, gt in entries]
        )

    def __str__(self):
        header = "[%d; %d]" % (self.temporal_arity, self.data_arity)
        if not self.tuples:
            return "%s {}" % header
        body = "\n".join("  %s" % gt for gt in self.tuples)
        return "%s {\n%s\n}" % (header, body)

    def __repr__(self):
        return "GeneralizedRelation(%d, %d, %d tuples)" % (
            self.temporal_arity,
            self.data_arity,
            len(self.tuples),
        )


def _merge_groups(entries, key, merge):
    """One pass of a :meth:`GeneralizedRelation.coalesce` rule over its
    ``(position, tuple)`` entries: ``merge`` rewrites each group of two
    or more entries whose tuples share ``key``.  Returns the entries in
    position order."""
    groups = {}
    for entry in entries:
        groups.setdefault(key(entry[1]), []).append(entry)
    if len(groups) == len(entries):
        return entries
    merged = []
    for members in groups.values():
        merged.extend(merge(members) if len(members) > 1 else members)
    merged.sort(key=lambda entry: entry[0])
    return merged


def _fold_residues(members, k):
    """The residue fold of one group: ``members`` differ only in the
    offset of column ``k``'s lrp, whose period they share.

    Each full residue class ``b (mod g)`` of the offsets, ``g`` a
    divisor of the period, becomes one entry at its first member's
    position.  ``g`` is tried coarsest first, through the cofactors
    ``d = period / g`` that the number of offsets can fill, so each
    divisor costs one count over the offsets present, and no residue
    the group lacks is ever enumerated.  An offset seen twice (an
    earlier fold rebuilt a tuple already present) keeps its first
    entry.
    """
    period = members[0][1].lrps[k].period
    by_offset = {}
    for entry in members:
        by_offset.setdefault(entry[1].lrps[k].offset, entry)
    offsets = set(by_offset)
    folded = []
    for d in range(min(len(offsets), period), 1, -1):
        if period % d or d > len(offsets):
            continue
        g = period // d
        counts = Counter(offset % g for offset in offsets)
        for b, count in counts.items():
            if count < d:
                continue
            filled = range(b, period, g)
            gt = by_offset[b][1]
            lrps = gt.lrps[:k] + (Lrp(g, b),) + gt.lrps[k + 1 :]
            folded.append(
                (
                    min(by_offset[offset][0] for offset in filled),
                    GeneralizedTuple(lrps, gt.data, gt.constraints),
                )
            )
            offsets.difference_update(filled)
    folded.extend(by_offset[offset] for offset in offsets)
    return folded


def _merge_zones(members):
    """The zone merge of one group (same lrps and data): each tuple
    joins the first earlier one whose zone hull with it adds no point
    of the lrps' lattice (``(2n) where 0 <= T1 <= 4`` and ``(2n) where
    6 <= T1 <= 10`` hull to ``0 <= T1 <= 10``: the gap holds no even
    time)."""
    kept = []
    for entry in members:
        for index, (position, other) in enumerate(kept):
            hull = other.constraints.hull(entry[1].constraints)
            if all(
                GeneralizedTuple(other.lrps, other.data, piece).is_empty()
                for system in hull.minus(other.constraints)
                for piece in system.minus(entry[1].constraints)
            ):
                kept[index] = (position, GeneralizedTuple(other.lrps, other.data, hull))
                break
        else:
            kept.append(entry)
    return kept
