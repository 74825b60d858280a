"""Evaluation of FO queries by compilation to the algebra.

Every sub-formula evaluates to an :class:`Answers` value: a
generalized relation whose temporal columns are the formula's free
temporal variables and whose data columns are its free data variables,
both in first-appearance order (:func:`~repro.fo.ast.free_variables`).
Connectives map to algebra operations:

* conjunction — one compiled clause (:class:`repro.plan.ClausePlan`,
  the deductive engine's own join path).  Atoms and comparisons enter
  the clause body as written; every other conjunct is evaluated first
  and enters as an atom over its answers.  The head lists the free
  variables.  A lone atom or comparison is a one-conjunct clause;
* disjunction — union of one such clause per disjunct, each widened
  to the common variable set: a missing temporal variable is an
  unconstrained carrier column, a missing data variable joins an
  active-domain atom;
* negation — a negated conjunct whose data variables the clause's
  positive conjuncts bind enters the clause as a negated atom over its
  answers: the compiler subtracts its matches (an anti-join) when its
  temporal variables are bound or pinned too, and joins its complement
  otherwise.  Any other negation (top-level ``not``, ``forall``, a
  negated conjunct with an unbound data variable) is the exact
  complement relative to ``ℤ^m × AD^l``;
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

from repro.core.ast import (
    Clause,
    DataTerm,
    NegatedAtom,
    PredicateAtom,
    TemporalTerm,
)
from repro.core.transform import normalize_clause
from repro.fo.ast import (
    FoAnd,
    FoAtom,
    FoComparison,
    FoExists,
    FoForAll,
    FoNot,
    FoOr,
    data_constants,
    free_variables,
    parse_formula,
)
from repro.gdb.relation import GeneralizedRelation
from repro.gdb.tuple import GeneralizedTuple
from repro.plan.compiler import ClausePlan
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
    context = _Context(
        db, extra_relations or {}, data_constants(formula), meter=meter
    )
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


#: Predicate names in a compiled conjunction other than the database's:
#: an evaluated conjunct's answers, the active domain, and the head.
#: No parser produces a name starting with ``%``, so these can never
#: shadow a relation.
_PART = "%%part%d"
_DOMAIN = "%adom"
_HEAD = "%answer"


class _Context:
    def __init__(self, db, extra_relations, constants, meter=None):
        self.db = db
        self.meter = meter
        self.extra = dict(extra_relations)
        domain = set(constants)
        for relation in [db.relation(name) for name in db.names()] + list(
            self.extra.values()
        ):
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
        if isinstance(node, (FoAtom, FoComparison, FoAnd)):
            return self._clause([node], *free_variables(node))
        if isinstance(node, FoOr):
            temporal, data = free_variables(node)
            widened = [self._clause([part], temporal, data) for part in node.parts]
            relation = widened[0].relation
            for part in widened[1:]:
                relation = relation.union(part.relation)
            return Answers(relation, temporal, data)
        if isinstance(node, FoNot):
            inner = self.evaluate(node.sub)
            complement = self._complement(inner.relation)
            return Answers(complement, inner.temporal_vars, inner.data_vars)
        if isinstance(node, FoExists):
            return self._exists(node.variables, self.evaluate(node.sub))
        if isinstance(node, FoForAll):
            rewritten = FoNot(FoExists(node.variables, FoNot(node.sub)))
            return self.evaluate(rewritten)
        raise TypeError("unexpected formula node %r" % (node,))

    def _complement(self, relation):
        """The exact complement relative to ``ℤ^m × AD^l``."""
        domains = [self.active_domain] * relation.data_arity
        return relation.complement(data_domains=domains)

    def _clause(self, conjuncts, temporal, data):
        """The conjunction of ``conjuncts`` as one compiled clause whose
        head columns are ``temporal`` and ``data``.  A head data
        variable no conjunct binds ranges over the active domain; a head
        temporal variable no conjunct mentions is a carrier column.  A
        negated conjunct whose data variables the positive conjuncts
        bind becomes a negated atom (see the module docstring)."""
        body, schemas, env = [], {}, {}
        parts = 0
        negations = []  # body indexes of atoms over negated answers
        pending = list(conjuncts)
        while pending:
            node = pending.pop(0)
            if isinstance(node, FoAnd):
                pending[:0] = node.parts
            elif isinstance(node, FoComparison):
                body.append(node.atom)
            elif isinstance(node, FoAtom):
                atom = node.atom
                relation = self.relation_named(atom.predicate)
                schema = (relation.temporal_arity, relation.data_arity)
                if schema != (atom.temporal_arity, atom.data_arity):
                    raise EvaluationError(
                        "atom %s does not match relation schema [%d; %d]"
                        % ((atom,) + schema)
                    )
                body.append(atom)
                schemas[atom.predicate] = schema
                env[atom.predicate] = relation
            else:
                negated = isinstance(node, FoNot)
                answers = self.evaluate(node.sub if negated else node)
                name = _PART % parts
                parts += 1
                if negated:
                    negations.append(len(body))
                body.append(
                    PredicateAtom(
                        name,
                        tuple(TemporalTerm(v) for v in answers.temporal_vars),
                        tuple(DataTerm.variable(v) for v in answers.data_vars),
                    )
                )
                schemas[name] = (len(answers.temporal_vars), len(answers.data_vars))
                env[name] = answers.relation
        bound = set()
        for index, atom in enumerate(body):
            if isinstance(atom, PredicateAtom) and index not in negations:
                bound |= atom.data_variables()
        for index in negations:
            atom = body[index]
            if atom.data_variables() <= bound:
                body[index] = NegatedAtom(atom)
            else:
                env[atom.predicate] = self._complement(env[atom.predicate])
        bound = set()
        for atom in body:
            if isinstance(atom, PredicateAtom):
                bound |= atom.data_variables()
        missing = [name for name in data if name not in bound]
        if missing:
            body += [
                PredicateAtom(_DOMAIN, (), (DataTerm.variable(name),))
                for name in missing
            ]
            schemas[_DOMAIN] = (0, 1)
            env[_DOMAIN] = GeneralizedRelation(
                0, 1, [GeneralizedTuple((), (v,)) for v in self.active_domain]
            )
        head = PredicateAtom(
            _HEAD,
            tuple(TemporalTerm(v) for v in temporal),
            tuple(DataTerm.variable(v) for v in data),
        )
        plan = ClausePlan(
            normalize_clause(Clause(head, tuple(body))), schemas, frozenset()
        )
        complements = {
            name: self._complement(env[name]) for name in plan.negated_predicates
        }
        return Answers(
            plan.evaluate(env, complements=complements), tuple(temporal), tuple(data)
        )

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
