"""Physical operators of compiled clause plans.

A compiled variant is a linear pipeline of steps over a growing
working set of :class:`~repro.gdb.tuple.GeneralizedTuple`:

* :class:`JoinStep` joins the working set with one body atom's
  relation.  Within-atom data-constant and data-equality selections
  are applied to the source relation first (and cached per source
  relation), cross-atom data-variable sharing is enforced through hash
  buckets, and every constraint atom whose columns are bound by this
  step is conjoined into the pair's zone in the same single closure
  (:meth:`GeneralizedTuple.joined`).  A negated atom with a temporal
  variable nothing binds joins the predicate's exact complement the
  same way (a *complement join*).
* :class:`AntiJoinStep` evaluates every other negated atom: each
  working-set tuple loses the points where it overlaps the
  predicate's relation (:meth:`GeneralizedTuple.subtract`), so only
  real overlaps are computed and no complement is built.
* :class:`CarrierStep` appends unconstrained carrier columns for
  temporal variables no atom binds (head constants and offsets,
  constraint-only variables) and conjoins the constraint atoms that
  become placeable with them (:meth:`GeneralizedTuple.extended`).
* :class:`Projection` is fused into the pipeline's tail: each
  surviving tuple is projected onto the head columns and head data
  constants are woven in, without materializing an intermediate
  relation.

Steps are compiled once per clause (per delta position) by
:mod:`repro.plan.compiler` and executed many times; all name → column
resolution happens at compile time, execution touches only integers.
"""

from __future__ import annotations

import time

from repro.gdb import kernel
from repro.gdb.relation import GeneralizedRelation
from repro.gdb.tuple import GeneralizedTuple
from repro.lrp.congruence import lcm_all
from repro.util import hooks

_UNIT = GeneralizedTuple((), ())


class JoinStep:
    """Join the working set with one source atom's relation (with the
    predicate's complement when ``complement`` is set)."""

    __slots__ = (
        "position",
        "predicate",
        "complement",
        "temporal_vars",
        "data_names",
        "const_sels",
        "eq_sels",
        "match_pairs",
        "atoms",
        "_cache",
    )

    def __init__(self, position, predicate, complement, temporal_vars, data_names,
                 const_sels, eq_sels, match_pairs):
        self.position = position          # body position; None for negated atoms
        self.predicate = predicate
        self.complement = complement
        self.temporal_vars = tuple(temporal_vars)
        self.data_names = tuple(data_names)
        self.const_sels = tuple(const_sels)    # (local data col, value)
        self.eq_sels = tuple(eq_sels)          # (local first col, local dup col)
        self.match_pairs = tuple(match_pairs)  # (global bound col, local col)
        self.atoms = ()                        # Comparisons, combined column space
        self._cache = None                     # (source relation, restricted tuples)

    @property
    def op(self):
        """The operator name in ``plan.operator`` events."""
        return "complement-join" if self.complement else "join"

    @property
    def fast_path(self):
        """The join strategy this step executes: ``hash`` when shared
        data variables bucket the source, ``fused-closure`` when only
        pushed-down constraint atoms refine the pairs (one closure per
        distinct template), ``product`` otherwise."""
        if self.match_pairs:
            return "hash"
        if self.atoms:
            return "fused-closure"
        return "product"

    def source_tuples(self, relation):
        """The source tuples after within-atom selections, cached per
        source relation (relations are immutable value objects, so an
        identity hit can never be stale)."""
        if not self.const_sels and not self.eq_sels:
            return relation.tuples
        cached = self._cache
        if cached is not None and cached[0] is relation:
            return cached[1]
        if self.const_sels:
            column, value = self.const_sels[0]
            tuples = [
                relation.tuples[k]
                for k in relation.data_index(column).get(value, ())
            ]
            for column, value in self.const_sels[1:]:
                tuples = [gt for gt in tuples if gt.data[column] == value]
        else:
            tuples = list(relation.tuples)
        for first, dup in self.eq_sels:
            tuples = [gt for gt in tuples if gt.data[first] == gt.data[dup]]
        self._cache = (relation, tuples)
        return tuples

    def apply(self, current, relation, stats=None):
        """One join: returns the new working set (possibly empty)."""
        tuples = self.source_tuples(relation)
        if not tuples:
            return []
        if len(current) == 1 and current[0] is _UNIT and not self.match_pairs:
            # First join against the unit tuple: the pair IS the source
            # tuple; only pushed-down constraints need conjoining.
            if not self.atoms:
                if stats is not None:
                    stats["size"] = stats.get("size", 0) + len(tuples)
                return tuples if type(tuples) is list else list(tuples)
            refined = kernel.select_batch(tuples, self.atoms, stats)
            return [gt for gt in refined if gt is not None]
        partners = self.partners(tuples)
        pairs = [(a, b) for a in current for b in partners(a)]
        joined = kernel.join_batch(pairs, self.atoms, stats)
        return [gt for gt in joined if gt is not None]

    def partners(self, tuples):
        """A function from a working-set tuple to the source tuples that
        agree with it on the shared data variables (hash buckets), or
        to all of ``tuples`` when no data variable is shared."""
        if not self.match_pairs:
            return lambda a: tuples
        local_cols = [local for (_, local) in self.match_pairs]
        buckets = {}
        for b in tuples:
            key = tuple(b.data[c] for c in local_cols)
            buckets.setdefault(key, []).append(b)
        bound_cols = [bound for (bound, _) in self.match_pairs]
        return lambda a: buckets.get(tuple(a.data[c] for c in bound_cols), ())


class AntiJoinStep(JoinStep):
    """Subtract a negated atom's matches from the working set.

    Every temporal column of the atom is linked by an equality (in
    ``atoms``) to the working-set column that binds or pins it, and
    every data variable is already bound (``match_pairs``).  Each
    working-set tuple ``a`` is joined with its partner source tuples,
    the overlaps are projected back onto ``a``'s own columns, and ``a``
    is replaced by ``a.subtract(overlaps)`` on the partners' common
    period, the period of the reference's complement, so both modes
    split ``a`` alike.  ``a`` is kept whole when nothing overlaps it
    and each of its columns already runs on a multiple of that period.
    The working set's columns do not change."""

    __slots__ = ("keep_temporal", "keep_data")

    op = "anti-join"

    def __init__(self, predicate, temporal_vars, const_sels, eq_sels,
                 match_pairs, links, width, data_width):
        JoinStep.__init__(
            self, None, predicate, False, temporal_vars, (),
            const_sels, eq_sels, match_pairs,
        )
        self.atoms = tuple(links)
        self.keep_temporal = tuple(range(width))
        self.keep_data = tuple(range(data_width))

    def apply(self, current, relation, stats=None):
        """The working set minus the source relation's points."""
        tuples = self.source_tuples(relation)
        if not tuples:
            return current
        partners = self.partners(tuples)
        owners, pairs, periods = [], [], []
        for index, a in enumerate(current):
            group = partners(a)
            periods.append(lcm_all(lrp.period for b in group for lrp in b.lrps))
            for b in group:
                owners.append(index)
                pairs.append((a, b))
        joined = kernel.join_batch(pairs, self.atoms, stats)
        hits = [(owner, gt) for owner, gt in zip(owners, joined) if gt is not None]
        projected = kernel.project_batch(
            [gt for _, gt in hits], self.keep_temporal, self.keep_data, (), stats
        )
        overlaps = {}
        for (owner, _), pieces in zip(hits, projected):
            overlaps.setdefault(owner, []).extend(pieces)
        result = []
        for index, a in enumerate(current):
            found = overlaps.get(index)
            period = periods[index]
            if found or any(lrp.period % period for lrp in a.lrps):
                result.extend(a.subtract(found or (), period))
            else:
                result.append(a)
        return result


class CarrierStep:
    """Append unconstrained carrier columns and conjoin constraints."""

    __slots__ = ("names", "atoms")

    def __init__(self, names, atoms):
        self.names = tuple(names)
        self.atoms = tuple(atoms)

    def apply(self, current, stats=None):
        extended = kernel.extend_batch(current, len(self.names), self.atoms, stats)
        return [gt for gt in extended if gt is not None]


class Projection:
    """The fused final projection onto the head schema.

    ``shifts`` holds one offset per kept temporal column: head columns
    the compiler resolved as *aliases* (``v = u + c`` with ``u`` bound
    by an atom) project the base column and shear it by ``c`` — exact
    and closure-free (:meth:`GeneralizedTuple.shift_column`) instead of
    materializing a carrier column and re-closing the zone."""

    __slots__ = (
        "keep_temporal",
        "shifts",
        "keep_data",
        "constant_slots",
        "head_schema",
        "sheared",
    )

    def __init__(self, keep_temporal, shifts, keep_data, constant_slots,
                 head_schema):
        self.keep_temporal = tuple(keep_temporal)
        self.shifts = tuple(shifts)                  # per kept temporal column
        self.keep_data = tuple(keep_data)
        self.constant_slots = tuple(constant_slots)  # (final slot, value)
        self.head_schema = head_schema               # (temporal, data) arities
        self.sheared = tuple(
            (position, offset)
            for position, offset in enumerate(self.shifts)
            if offset
        )

    def apply(self, current, stats=None):
        temporal_arity, data_arity = self.head_schema
        result = []
        slots = dict(self.constant_slots)
        batches = kernel.project_batch(
            current, self.keep_temporal, self.keep_data, self.sheared, stats
        )
        for projected_batch in batches:
            for projected in projected_batch:
                if slots:
                    data = []
                    values = iter(projected.data)
                    for slot in range(data_arity):
                        if slot in slots:
                            data.append(slots[slot])
                        else:
                            data.append(next(values))
                    projected = projected.with_data(tuple(data))
                result.append(projected)
        return GeneralizedRelation._trusted(temporal_arity, data_arity, result)


class PlanVariant:
    """One compiled pipeline: steps, projection, and the column layout
    they were compiled against (kept for :mod:`repro.plan.explain`).

    ``clause`` and ``variant_label`` identify the pipeline in operator
    events and profiles; they are stamped by
    :class:`~repro.plan.compiler.ClausePlan` after compilation."""

    __slots__ = (
        "seed_position",
        "steps",
        "projection",
        "columns",
        "data_names",
        "clause",
        "variant_label",
    )

    def __init__(self, seed_position, steps, projection, columns, data_names):
        self.seed_position = seed_position
        self.steps = tuple(steps)
        self.projection = projection
        self.columns = tuple(columns)
        self.data_names = tuple(data_names)
        self.clause = None
        self.variant_label = (
            "naive" if seed_position is None else "delta@%d" % seed_position
        )

    def execute(self, relation_for):
        """Run the pipeline; ``relation_for(step)`` resolves each
        JoinStep's source relation (env / delta / complement), or None
        for an absent predicate.  A missing or empty source empties the
        working set, except under an anti-join, which then removes
        nothing.

        While a sink listens, each step emits one ``plan.operator``
        event with input/output cardinalities and wall time (``in``
        counts working-set tuples entering the step, ``source`` the raw
        source relation, ``selected`` the source after pushed-down
        selections, ``out`` the working set leaving the step) and one
        ``kernel.batch`` event (:meth:`_emit_batch`)."""
        observing = bool(hooks.SINKS)
        batch_stats = None
        empty = GeneralizedRelation.empty(*self.projection.head_schema)
        current = [_UNIT]
        for index, step in enumerate(self.steps):
            if observing:
                started = time.perf_counter()
                fields = {
                    "clause": self.clause,
                    "variant": self.variant_label,
                    "step": index,
                    "in": 0
                    if len(current) == 1 and current[0] is _UNIT
                    else len(current),
                }
                batch_stats = {}
            batched = True
            if type(step) is CarrierStep:
                if observing:
                    fields["op"] = "carrier"
                current = step.apply(current, batch_stats)
            else:
                relation = relation_for(step)
                if observing:
                    fields["op"] = step.op
                    fields["predicate"] = step.predicate
                if relation is None or not relation.tuples:
                    if type(step) is not AntiJoinStep:
                        current = ()
                        batched = False
                    if observing:
                        fields.update(source=0, selected=0)
                else:
                    if observing:
                        fields["source"] = len(relation.tuples)
                        fields["selected"] = len(step.source_tuples(relation))
                    current = step.apply(current, relation, batch_stats)
            if observing:
                fields["out"] = len(current)
                fields["duration_s"] = time.perf_counter() - started
                hooks.emit("plan.operator", fields)
                if batched:
                    self._emit_batch(step, index, batch_stats)
            if not current:
                return empty
        if observing:
            started = time.perf_counter()
            batch_stats = {}
        result = self.projection.apply(current, batch_stats)
        if observing:
            hooks.emit(
                "plan.operator",
                {
                    "clause": self.clause,
                    "variant": self.variant_label,
                    "step": len(self.steps),
                    "op": "projection",
                    "predicate": None,
                    "in": len(current),
                    "out": len(result.tuples),
                    "duration_s": time.perf_counter() - started,
                },
            )
            self._emit_batch(self.projection, len(self.steps), batch_stats)
        return result

    def _emit_batch(self, step, index, batch_stats):
        """One ``kernel.batch`` event per executed step: how many
        tuples the batch kernel saw and how many rode a memoized
        template, plus the join fast path taken (``carrier`` /
        ``projection`` for the non-join steps)."""
        if isinstance(step, JoinStep):
            fast_path = step.fast_path
        elif type(step) is CarrierStep:
            fast_path = "carrier"
        else:
            fast_path = "projection"
        hooks.emit(
            "kernel.batch",
            {
                "clause": self.clause,
                "variant": self.variant_label,
                "step": index,
                "size": batch_stats.get("size", 0),
                "hits": batch_stats.get("hits", 0),
                "fast_path": fast_path,
            },
        )
