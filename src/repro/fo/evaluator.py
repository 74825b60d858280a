"""Evaluation of FO queries by compilation to the algebra.

Every sub-formula evaluates to an :class:`Answers` value: a
generalized relation whose temporal columns are the formula's free
temporal variables and whose data columns are its free data variables
(in fixed order).  Connectives map to algebra operations:

* conjunction — greedy multi-way join through the shared plan layer
  (:mod:`repro.plan.joiner`): smallest conjunct first, then most
  shared columns, each pairwise join a fused hash join;
* disjunction — union after widening both sides to the common
  variable set (unconstrained temporal columns, active-domain data
  columns);
* negation — exact complement relative to ``ℤ^m × AD^l``;
* ``exists`` — projection; ``forall`` — ``¬∃¬``.

Data variables follow the usual active-domain semantics: the active
domain is the set of data constants of the database plus those of the
query.  Temporal variables genuinely range over all of ℤ — that the
complement stays finitely representable is the point of the [KSW90]
representation.
"""

from __future__ import annotations

import time

from dataclasses import dataclass

from repro.constraints.atoms import Comparison, TemporalTerm as ColumnTerm
from repro.fo.ast import (
    FoAnd,
    FoAtom,
    FoComparison,
    FoExists,
    FoForAll,
    FoNot,
    FoOr,
    free_variables,
    parse_formula,
)
from repro.gdb.relation import GeneralizedRelation
from repro.gdb.tuple import GeneralizedTuple
from repro.lrp.point import Lrp
from repro.plan.joiner import NamedRelation, join_all
from repro.util import hooks
from repro.util.errors import BudgetExceededError, EvaluationError
from repro.util.sorting import typed_sort_key


@dataclass
class Answers:
    """A relation together with its column naming."""

    relation: GeneralizedRelation
    temporal_vars: tuple
    data_vars: tuple

    def is_true(self):
        """For closed formulas: non-emptiness of the 0-column relation."""
        return not self.relation.is_empty()

    def extension(self, low, high):
        """Ground answers in a window (see GeneralizedRelation.extension)."""
        return self.relation.extension(low, high)

    def rows(self, low, high):
        """Ground answers in a window as sorted dicts keyed by variable
        name — the friendliest way to consume query results.

        >>> from repro.fo import evaluate_query
        >>> from repro.gdb import parse_database
        >>> db = parse_database('relation p[1; 1] { (4n; "a") where T1 >= 0; }')
        >>> evaluate_query(db, "p(t; W) and t < 5").rows(0, 10)
        [{'t': 0, 'W': 'a'}, {'t': 4, 'W': 'a'}]
        """
        names = list(self.temporal_vars) + list(self.data_vars)
        flats = sorted(self.relation.extension(low, high), key=typed_sort_key)
        return [dict(zip(names, flat)) for flat in flats]

    def __str__(self):
        return str(self.relation)


def evaluate_query(db, query, extra_relations=None, budget=None):
    """Evaluate an FO query (text or AST) against a generalized
    database.  ``extra_relations`` may supply additional named
    relations (e.g. an engine model's IDB).

    ``budget`` is an optional
    :class:`~repro.runtime.budget.EvaluationBudget`; its wall-clock
    deadline is checked cooperatively before every sub-formula
    evaluation, raising
    :class:`~repro.util.errors.BudgetExceededError` (FO evaluation is
    not a fixpoint, so no partial model is attached)."""
    formula = parse_formula(query) if isinstance(query, str) else query
    meter = budget.start() if budget is not None else None
    context = _Context(db, extra_relations or {}, meter=meter)
    if not hooks.SINKS:
        return context.evaluate(formula)
    started = time.perf_counter()
    hooks.emit(
        "engine.run",
        {
            "phase": "begin",
            "strategy": "fo",
            "safety": "n/a",
            "strata": 1,
            "resumed_from_round": None,
        },
    )
    outcome = "error"
    try:
        answers = context.evaluate(formula)
        outcome = "ok"
        return answers
    except BudgetExceededError:
        outcome = "budget-exceeded"
        raise
    finally:
        hooks.emit(
            "engine.run",
            {
                "phase": "end",
                "outcome": outcome,
                "duration_s": time.perf_counter() - started,
            },
        )


class _Context:
    def __init__(self, db, extra_relations, meter=None):
        self.db = db
        self.meter = meter
        self.extra = dict(extra_relations)
        domain = set()
        for name in db.names():
            relation = db.relation(name)
            for column in range(relation.data_arity):
                domain |= relation.data_values(column)
        for relation in self.extra.values():
            for column in range(relation.data_arity):
                domain |= relation.data_values(column)
        self.active_domain = sorted(domain, key=repr)

    def relation_named(self, name):
        if name in self.extra:
            return self.extra[name]
        return self.db.relation(name)

    # -- recursive evaluation ------------------------------------------------

    def evaluate(self, node):
        if self.meter is not None:
            self.meter.check_deadline("fo subformula")
        if isinstance(node, FoAtom):
            return self._atom(node)
        if isinstance(node, FoComparison):
            return self._comparison(node)
        if isinstance(node, FoAnd):
            parts = [self.evaluate(p) for p in node.parts]
            joined = join_all(
                [
                    NamedRelation(p.relation, p.temporal_vars, p.data_vars)
                    for p in parts
                ]
            )
            # The greedy join may visit conjuncts out of order; restore
            # the first-appearance column order the caller observes.
            temporal, data = [], []
            for part in parts:
                temporal += [v for v in part.temporal_vars if v not in temporal]
                data += [v for v in part.data_vars if v not in data]
            current_t = list(joined.temporal_vars)
            current_d = list(joined.data_vars)
            relation = joined.relation
            if current_t != temporal or current_d != data:
                relation = relation.project(
                    [current_t.index(v) for v in temporal],
                    [current_d.index(v) for v in data],
                )
            return Answers(relation, tuple(temporal), tuple(data))
        if isinstance(node, FoOr):
            parts = [self.evaluate(p) for p in node.parts]
            temporal, data = free_variables(node)
            widened = [self._widen(part, temporal, data) for part in parts]
            relation = widened[0].relation
            for part in widened[1:]:
                relation = relation.union(part.relation)
            return Answers(relation, temporal, data)
        if isinstance(node, FoNot):
            inner = self.evaluate(node.sub)
            domains = [self.active_domain] * len(inner.data_vars)
            complement = inner.relation.complement(data_domains=domains)
            return Answers(complement, inner.temporal_vars, inner.data_vars)
        if isinstance(node, FoExists):
            return self._exists(node.variables, self.evaluate(node.sub))
        if isinstance(node, FoForAll):
            rewritten = FoNot(FoExists(node.variables, FoNot(node.sub)))
            return self.evaluate(rewritten)
        raise TypeError("unexpected formula node %r" % (node,))

    # -- leaves ---------------------------------------------------------------

    def _atom(self, node):
        atom = node.atom
        relation = self.relation_named(atom.predicate)
        if (
            relation.temporal_arity != atom.temporal_arity
            or relation.data_arity != atom.data_arity
        ):
            raise EvaluationError(
                "atom %s does not match relation schema [%d; %d]"
                % (atom, relation.temporal_arity, relation.data_arity)
            )
        # Temporal arguments: each kept column binds its variable (after
        # compensating shifts); constants become selections.
        temporal_vars = []
        keep_temporal = []
        selections = []
        seen = {}
        for index, term in enumerate(atom.temporal_args):
            if term.var is None:
                selections.append(
                    Comparison("=", ColumnTerm(index), ColumnTerm(None, term.offset))
                )
            elif term.var in seen:
                first_index, first_offset = seen[term.var]
                # column[index] - offset = column[first] - first_offset
                selections.append(
                    Comparison(
                        "=",
                        ColumnTerm(index, -term.offset),
                        ColumnTerm(first_index, -first_offset),
                    )
                )
            else:
                seen[term.var] = (index, term.offset)
                temporal_vars.append(term.var)
                keep_temporal.append((index, term.offset))
        if selections:
            relation = relation.select(selections)
        # Data arguments.
        data_vars = []
        keep_data = []
        seen_data = {}
        for index, term in enumerate(atom.data_args):
            if term.is_variable():
                if term.name in seen_data:
                    relation = relation.select_data_equal(seen_data[term.name], index)
                else:
                    seen_data[term.name] = index
                    data_vars.append(term.name)
                    keep_data.append(index)
            else:
                relation = relation.select_data_constant(index, term.value)
        projected = relation.project([i for (i, _) in keep_temporal], keep_data)
        # Column k holds var + offset; shift back so it holds the variable.
        for position, (_, offset) in enumerate(keep_temporal):
            if offset:
                projected = projected.shift(position, -offset)
        return Answers(projected, tuple(temporal_vars), tuple(data_vars))

    def _comparison(self, node):
        atom = node.atom
        names = []
        for term in (atom.left, atom.right):
            if term.var is not None and term.var not in names:
                names.append(term.var)
        relation = GeneralizedRelation(
            len(names),
            0,
            [GeneralizedTuple(tuple(Lrp.constant_carrier() for _ in names))],
        )
        index = {name: k for k, name in enumerate(names)}

        def lower(term):
            if term.var is None:
                return ColumnTerm(None, term.offset)
            return ColumnTerm(index[term.var], term.offset)

        relation = relation.select(
            [Comparison(atom.op, lower(atom.left), lower(atom.right))]
        )
        return Answers(relation, tuple(names), ())

    # -- connectives ----------------------------------------------------------------

    def _widen(self, part, temporal, data):
        relation = part.relation
        current_t = list(part.temporal_vars)
        current_d = list(part.data_vars)
        missing_t = [name for name in temporal if name not in current_t]
        if missing_t:
            carriers = GeneralizedRelation(
                len(missing_t),
                0,
                [GeneralizedTuple(tuple(Lrp.constant_carrier() for _ in missing_t))],
            )
            relation = relation.product(carriers)
            current_t += missing_t
        missing_d = [name for name in data if name not in current_d]
        if missing_d:
            domain_rel = GeneralizedRelation(
                0,
                len(missing_d),
                [
                    GeneralizedTuple((), vector)
                    for vector in _vectors(self.active_domain, len(missing_d))
                ],
            )
            relation = relation.product(domain_rel)
            current_d += missing_d
        order_t = [current_t.index(name) for name in temporal]
        order_d = [current_d.index(name) for name in data]
        relation = relation.project(order_t, order_d)
        return Answers(relation, tuple(temporal), tuple(data))

    def _exists(self, names, inner):
        keep_t = [
            k
            for k, name in enumerate(inner.temporal_vars)
            if name not in names
        ]
        keep_d = [
            k for k, name in enumerate(inner.data_vars) if name not in names
        ]
        # Quantifying a variable that does not occur is harmless: the
        # projection below simply keeps every column.
        relation = inner.relation.project(keep_t, keep_d)
        return Answers(
            relation,
            tuple(n for n in inner.temporal_vars if n not in names),
            tuple(n for n in inner.data_vars if n not in names),
        )
