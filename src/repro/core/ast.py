"""Abstract syntax of the deductive language (paper Section 4.1).

Terms
-----
* A *temporal term* is a temporal variable, the constant 0 (or, by
  iterating ``+1``/``-1``, any integer constant), or ``v ± c`` — the
  successor/predecessor functions applied ``c`` times to a variable.
* A *data term* is an uninterpreted constant or a data variable.

Atoms
-----
* predicate atoms ``p(τ_1, …, τ_m; d_1, …, d_l)`` — intensional or
  extensional depending on whether ``p`` occurs in some clause head;
* constraint atoms ``τ_1 op τ_2`` with op in ``<, <=, =, >=, >``.

A clause is ``head <- body`` with an intensional head; a program is a
finite set of clauses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.core.stratify import stratify
from repro.util.errors import SchemaError


@dataclass(frozen=True)
class TemporalTerm:
    """``var + offset`` (``var`` is a variable name) or, with
    ``var=None``, the integer constant ``offset``."""

    var: str | None
    offset: int = 0

    def is_constant(self):
        """True for ground temporal terms (integer constants)."""
        return self.var is None

    def shifted(self, delta):
        """The term denoting this value plus ``delta``."""
        return TemporalTerm(self.var, self.offset + delta)

    def __str__(self):
        if self.var is None:
            return str(self.offset)
        if self.offset == 0:
            return self.var
        if self.offset > 0:
            return "%s+%d" % (self.var, self.offset)
        return "%s-%d" % (self.var, -self.offset)


@dataclass(frozen=True)
class DataTerm:
    """A data variable (``name`` set) or an uninterpreted constant
    (``value`` set).  Exactly one of the two is set."""

    name: str | None = None
    value: object = None

    def is_variable(self):
        """True for data variables."""
        return self.name is not None

    @classmethod
    def variable(cls, name):
        """A data variable."""
        return cls(name=name)

    @classmethod
    def constant(cls, value):
        """An uninterpreted data constant."""
        return cls(value=value)

    def __str__(self):
        if self.is_variable():
            return self.name
        if isinstance(self.value, str):
            # Escaped as the lexer reads it back, so the text of a
            # program round-trips (it keys the compiled-program cache).
            escaped = self.value.replace("\\", "\\\\").replace('"', '\\"')
            return '"%s"' % escaped
        return str(self.value)


@dataclass(frozen=True)
class PredicateAtom:
    """``p(τ_1, …, τ_m; d_1, …, d_l)``."""

    predicate: str
    temporal_args: tuple
    data_args: tuple = ()

    @property
    def temporal_arity(self):
        return len(self.temporal_args)

    @property
    def data_arity(self):
        return len(self.data_args)

    def temporal_variables(self):
        """Names of the temporal variables occurring in the atom."""
        return {t.var for t in self.temporal_args if t.var is not None}

    def data_variables(self):
        """Names of the data variables occurring in the atom."""
        return {d.name for d in self.data_args if d.is_variable()}

    def __str__(self):
        temporal = ", ".join(str(t) for t in self.temporal_args)
        if self.data_args:
            data = ", ".join(str(d) for d in self.data_args)
            return "%s(%s; %s)" % (self.predicate, temporal, data)
        return "%s(%s)" % (self.predicate, temporal)


@dataclass(frozen=True)
class NegatedAtom:
    """``not p(τ…; d…)`` — stratified negation in clause bodies.

    The paper's Section 3.2 observes that adding stratified negation
    raises the deductive query expressiveness to the full ω-regular
    class; this node carries the negated predicate atom.  Negation must
    be stratified (no recursion through it) and *data-safe*: the data
    variables of a negated atom must be bound by a positive body atom.
    Temporal variables may be free — the complement of a generalized
    relation is again a generalized relation, which is the point of
    the representation.
    """

    atom: PredicateAtom

    def temporal_variables(self):
        """Names of the temporal variables occurring in the atom."""
        return self.atom.temporal_variables()

    def data_variables(self):
        """Names of the data variables occurring in the atom."""
        return self.atom.data_variables()

    def __str__(self):
        return "not %s" % self.atom


@dataclass(frozen=True)
class ConstraintAtom:
    """``left op right`` over temporal terms; op in <, <=, =, >=, >."""

    op: str
    left: TemporalTerm
    right: TemporalTerm

    def temporal_variables(self):
        """Names of the temporal variables occurring in the atom."""
        return {t.var for t in (self.left, self.right) if t.var is not None}

    def __str__(self):
        return "%s %s %s" % (self.left, self.op, self.right)


@dataclass(frozen=True)
class Clause:
    """``head <- body`` where the body mixes predicate and constraint
    atoms.  An empty body makes the clause a (generalized) fact."""

    head: PredicateAtom
    body: tuple = ()

    def predicate_atoms(self):
        """The positive predicate atoms of the body, in order."""
        return [a for a in self.body if isinstance(a, PredicateAtom)]

    def negated_atoms(self):
        """The negated atoms of the body, in order."""
        return [a for a in self.body if isinstance(a, NegatedAtom)]

    def constraint_atoms(self):
        """The constraint atoms of the body, in order."""
        return [a for a in self.body if isinstance(a, ConstraintAtom)]

    def __str__(self):
        if not self.body:
            return "%s." % self.head
        return "%s <- %s." % (self.head, ", ".join(str(a) for a in self.body))


@dataclass(frozen=True)
class Program:
    """A finite set of clauses with derived predicate classification.

    Predicates occurring in some head are *intensional* (IDB); all
    other predicates mentioned in bodies are *extensional* (EDB) and
    must be supplied by a generalized database at evaluation time.

    Its text, schemas, intensional predicates, validation and strata
    are computed once per object, on first use; one that raises is not kept.
    """

    clauses: tuple

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(self.clauses))

    @cached_property
    def _intensional(self):
        return frozenset(clause.head.predicate for clause in self.clauses)

    def intensional_predicates(self):
        """Names of predicates defined by this program."""
        return set(self._intensional)

    def extensional_predicates(self):
        """Names of predicates the program expects from the EDB (raises
        SchemaError on inconsistent arities, as :meth:`schemas` does)."""
        return set(self._schemas) - self._intensional

    @cached_property
    def _schemas(self):
        inferred = {}
        for clause in self.clauses:
            atoms = [clause.head] + clause.predicate_atoms()
            atoms += [negated.atom for negated in clause.negated_atoms()]
            for atom in atoms:
                shape = (atom.temporal_arity, atom.data_arity)
                known = inferred.setdefault(atom.predicate, shape)
                if known != shape:
                    raise SchemaError(
                        "predicate %r used with arities %s and %s"
                        % (atom.predicate, known, shape)
                    )
        return inferred

    def schemas(self):
        """Inferred ``name -> (temporal_arity, data_arity)`` for every
        predicate; raises SchemaError on inconsistent use."""
        return dict(self._schemas)

    @cached_property
    def _validated(self):
        self._schemas
        for clause in self.clauses:
            bound = set()
            for atom in clause.predicate_atoms():
                bound |= atom.data_variables()
            for term in clause.head.data_args:
                if term.is_variable() and term.name not in bound:
                    raise SchemaError(
                        "clause %s: head data variable %r is not bound "
                        "by any body atom" % (clause, term.name)
                    )
            for negated in clause.negated_atoms():
                loose = negated.data_variables() - bound
                if loose:
                    raise SchemaError(
                        "clause %s: data variables %s of a negated atom "
                        "are not bound by a positive body atom"
                        % (clause, ", ".join(sorted(loose)))
                    )
        return True

    def validate(self):
        """Static checks: consistent arities; head data variables and
        data variables of negated atoms must be range restricted
        (bound by a positive body predicate atom)."""
        self._validated
        return self

    @cached_property
    def _strata(self):
        return stratify(self)

    def strata(self):
        """:func:`~repro.core.stratify.stratify`'s read-only result;
        raises SchemaError on a recursion through negation."""
        return self._strata

    @cached_property
    def _text(self):
        return "\n".join(str(clause) for clause in self.clauses)

    def __str__(self):
        return self._text

    def __iter__(self):
        return iter(self.clauses)

    def __len__(self):
        return len(self.clauses)
