"""Ground tuple-at-a-time evaluation of T_P over a bounded window.

This is the computation the paper argues is hopeless on infinite
extensions (Section 4.3): the mapping T_P applied one ground tuple at
a time.  Restricted to a finite window ``[low, high)`` of the temporal
domain it terminates and serves two purposes here:

* an **oracle** — on window interiors it must agree with the
  closed-form engine, which is how the test suite cross-validates the
  whole pipeline;
* the **baseline** of experiment E6 — its cost grows with the window
  while the generalized-tuple evaluation does not.

Negation is stratified: the clauses run stratum by stratum in
:func:`~repro.core.stratify.stratify` order, so every negated
predicate is complete (within the window) before a clause tests it,
and ``not p(...)`` holds exactly when its ground instance, bound by the
positive atoms, is not a fact.

Window semantics: every derived atom whose temporal components all lie
inside the window is kept; derivations that leave the window are
dropped.  Near the edges the fixpoint therefore under-approximates the
true model, and a negated atom over such a truncated (or out-of-window)
instance holds where the true model would refute it, so ``not``
over-approximates there.  Comparisons should use an interior margin of
at least the largest clause offset times the number of rounds needed;
the same margin covers both effects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.stratify import stratify
from repro.util.errors import EvaluationError

_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "=": lambda a, b: a == b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
}


@dataclass
class GroundStats:
    """Counters for one ground fixpoint run."""

    rounds: int = 0
    derivations: int = 0
    atoms: int = 0
    atoms_per_round: list = field(default_factory=list)


class GroundEvaluator:
    """Naive ground bottom-up evaluation within ``[low, high)``.

    Ground atoms are ``(times, data)`` pairs of tuples.  Clauses must
    be range restricted for ground evaluation: every temporal variable
    of the head, of constraint atoms and of negated atoms has to occur
    in some positive body atom (otherwise it would range over the whole
    window — the generalized engine handles that case; this baseline
    does not).  A violation raises :class:`EvaluationError`.
    """

    def __init__(self, program, edb, low, high):
        program.validate()
        self.program = program
        self.low = low
        self.high = high
        self.facts = {}
        for name in program.extensional_predicates():
            relation = edb.relation(name)
            atoms = set()
            for flat in relation.extension(low, high):
                times = flat[: relation.temporal_arity]
                data = flat[relation.temporal_arity :]
                atoms.add((times, data))
            self.facts[name] = atoms
        for name in program.intensional_predicates():
            self.facts.setdefault(name, set())
        self._check_range_restriction()

    def _check_range_restriction(self):
        for clause in self.program.clauses:
            bound = set()
            for atom in clause.predicate_atoms():
                bound |= atom.temporal_variables()
            needed = clause.head.temporal_variables()
            for atom in clause.constraint_atoms() + clause.negated_atoms():
                needed |= atom.temporal_variables()
            missing = needed - bound
            if missing:
                raise EvaluationError(
                    "clause %s is not range restricted for ground "
                    "evaluation (unbound temporal variables: %s)"
                    % (clause, ", ".join(sorted(missing)))
                )

    # -- evaluation ----------------------------------------------------------

    def run(self, max_rounds=10_000):
        """Iterate T_P to fixpoint within the window, one stratum after
        another (at most ``max_rounds`` rounds each); returns stats."""
        stats = GroundStats()
        for clauses in stratify(self.program)[1]:
            for _ in range(max_rounds):
                stats.rounds += 1
                added = False
                for clause in clauses:
                    facts = self.facts[clause.head.predicate]
                    for atom in self._fire(clause, stats):
                        if atom not in facts:
                            facts.add(atom)
                            added = True
                stats.atoms = sum(len(atoms) for atoms in self.facts.values())
                stats.atoms_per_round.append(stats.atoms)
                if not added:
                    break
        return stats

    def _fire(self, clause, stats):
        """All head atoms derivable from one clause instance sweep."""
        results = []
        body = clause.predicate_atoms()
        constraints = clause.constraint_atoms()
        negated = [negation.atom for negation in clause.negated_atoms()]

        def evaluate_term(term, theta):
            if term.var is None:
                return term.offset
            value = theta.get(term.var)
            if value is None:
                return None
            return value + term.offset

        def ground(atom, theta):
            times = tuple(evaluate_term(term, theta) for term in atom.temporal_args)
            data = tuple(
                theta[term.name] if term.is_variable() else term.value
                for term in atom.data_args
            )
            return times, data

        def recurse(index, theta):
            if index == len(body):
                for constraint in constraints:
                    left = evaluate_term(constraint.left, theta)
                    right = evaluate_term(constraint.right, theta)
                    if not _OPS[constraint.op](left, right):
                        return
                for atom in negated:
                    if ground(atom, theta) in self.facts[atom.predicate]:
                        return
                stats.derivations += 1
                times = []
                for term in clause.head.temporal_args:
                    value = evaluate_term(term, theta)
                    if not (self.low <= value < self.high):
                        return
                    times.append(value)
                data = []
                for term in clause.head.data_args:
                    data.append(theta[term.name] if term.is_variable() else term.value)
                results.append((tuple(times), tuple(data)))
                return
            atom = body[index]
            for times, data in self.facts[atom.predicate]:
                theta_new = dict(theta)
                if self._unify(atom, times, data, theta_new):
                    recurse(index + 1, theta_new)

        recurse(0, {})
        return results

    @staticmethod
    def _unify(atom, times, data, theta):
        for term, value in zip(atom.temporal_args, times):
            if term.var is None:
                if value != term.offset:
                    return False
            else:
                expected = theta.get(term.var)
                actual = value - term.offset
                if expected is None:
                    theta[term.var] = actual
                elif expected != actual:
                    return False
        for term, value in zip(atom.data_args, data):
            if term.is_variable():
                expected = theta.get(term.name)
                if expected is None:
                    theta[term.name] = value
                elif expected != value:
                    return False
            elif term.value != value:
                return False
        return True

    # -- results ------------------------------------------------------------------

    def extension(self, predicate):
        """The ground atoms of a predicate as a set of flat tuples
        ``times + data`` (matching
        :meth:`~repro.gdb.relation.GeneralizedRelation.extension`)."""
        return {times + data for (times, data) in self.facts[predicate]}
