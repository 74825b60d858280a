"""The reference T_GP clause evaluator (paper Section 4.3, literal).

This is the product-then-select-then-project formulation exactly as
the paper states it — and exactly as the engine executed it before the
compiled plan layer existed: (i) product of the body atom relations,
(ii) unconstrained carrier columns for temporal variables no atom
binds, (iii) conjunction of all constraint atoms, (iv) projection onto
the head.  It is deliberately kept alive, unoptimized, as the oracle
the plan-correctness property tests compare against
(``ProgramEvaluator(…, evaluation="reference")``).
"""

from __future__ import annotations

from repro.constraints.atoms import Comparison, TemporalTerm as ConstraintTerm
from repro.gdb.relation import GeneralizedRelation
from repro.gdb.tuple import GeneralizedTuple
from repro.lrp.point import Lrp
from repro.util.errors import SchemaError
from repro.util.hooks import fault_point


class ReferenceClauseEvaluator:
    """Evaluates one normalized clause by the literal product-then-
    select-then-project formulation."""

    def __init__(self, normalized, schemas):
        self.normalized = normalized
        self.schemas = schemas
        self.head_predicate = normalized.head_predicate
        self.negated_predicates = {
            atom.predicate for atom in normalized.negated_atoms
        }
        self._validate()

    def _validate(self):
        atoms = list(self.normalized.body_atoms) + list(
            self.normalized.negated_atoms
        )
        for atom in atoms:
            expected = self.schemas.get(atom.predicate)
            if expected is None:
                raise SchemaError("no schema for predicate %r" % atom.predicate)
            if expected != (atom.temporal_arity, atom.data_arity):
                raise SchemaError(
                    "atom %s does not match schema %s of %r"
                    % (atom, expected, atom.predicate)
                )

    # -- evaluation --------------------------------------------------------

    def evaluate(self, env, delta=None, delta_position=None, complements=None):
        """The head relation derived by one T_GP application of this
        clause.  With ``delta``/``delta_position`` set, the atom at
        that body position reads from the delta relations instead
        (semi-naive firing).  ``complements`` supplies, for each
        negated predicate, its exact complement relation — negated
        atoms then join like positive ones (stratified negation)."""
        fault_point("clause")
        normalized = self.normalized
        if self.negated_predicates and complements is None:
            raise SchemaError(
                "clause %s negates %s but no complements were supplied"
                % (normalized, ", ".join(sorted(self.negated_predicates)))
            )
        columns = []        # temporal variable name per relation column
        data_columns = []   # data variable name per data column
        current = GeneralizedRelation(0, 0, [GeneralizedTuple((), ())])

        positive = list(enumerate(normalized.body_atoms))
        sources = [(position, atom, False) for position, atom in positive]
        sources += [(None, atom, True) for atom in normalized.negated_atoms]

        for position, atom, negative in sources:
            if negative:
                relation = complements[atom.predicate]
            else:
                source = env
                if delta is not None and position == delta_position:
                    source = delta
                relation = source.get(atom.predicate)
                if relation is None:
                    relation = GeneralizedRelation.empty(
                        *self.schemas[atom.predicate]
                    )
            relation, atom_data_columns = _restrict_data(relation, atom)
            current = current.product(relation)
            columns.extend(term.var for term in atom.temporal_args)
            data_columns.extend(atom_data_columns)
            if not current.tuples:
                return GeneralizedRelation.empty(
                    len(normalized.head_vars), len(normalized.head_data)
                )

        # Cross-atom data variable sharing: equality selections, then
        # remember only the first occurrence of each variable.
        first_data = {}
        for index, name in enumerate(data_columns):
            if name is None:
                continue
            if name in first_data:
                current = current.select_data_equal(first_data[name], index)
            else:
                first_data[name] = index

        # Extend with unconstrained columns for temporal variables not
        # bound by a body atom (constants, free head variables, and
        # variables occurring only in constraint atoms).
        all_vars = normalized.all_temporal_variables()
        missing = [name for name in all_vars if name not in columns]
        if missing:
            carriers = GeneralizedRelation(
                len(missing),
                0,
                [GeneralizedTuple(tuple(Lrp.constant_carrier() for _ in missing))],
            )
            current = current.product(carriers)
            columns.extend(missing)

        position_of = {name: index for index, name in enumerate(columns)}

        atoms = [
            _lower_constraint(constraint, position_of)
            for constraint in normalized.constraints
        ]
        if atoms:
            current = current.select(atoms)
            if not current.tuples:
                return GeneralizedRelation.empty(
                    len(normalized.head_vars), len(normalized.head_data)
                )

        keep_temporal = [position_of[name] for name in normalized.head_vars]
        keep_data = []
        constant_slots = []
        for slot, term in enumerate(normalized.head_data):
            if term.is_variable():
                keep_data.append(first_data[term.name])
            else:
                constant_slots.append((slot, term.value))
        projected = current.project(keep_temporal, keep_data)
        if constant_slots:
            projected = _weave_data_constants(
                projected, constant_slots, len(normalized.head_data)
            )
        return projected


def _lower_constraint(constraint, position_of):
    """Convert an AST constraint atom to a column-indexed Comparison."""

    def lower(term):
        if term.var is None:
            return ConstraintTerm(None, term.offset)
        return ConstraintTerm(position_of[term.var], term.offset)

    return Comparison(constraint.op, lower(constraint.left), lower(constraint.right))


def _weave_data_constants(relation, constant_slots, final_arity):
    """Insert head data constants at their positions among the
    projected data-variable columns."""
    slots = dict(constant_slots)
    tuples = []
    for gt in relation.tuples:
        data = []
        variable_values = iter(gt.data)
        for slot in range(final_arity):
            if slot in slots:
                data.append(slots[slot])
            else:
                data.append(next(variable_values))
        tuples.append(GeneralizedTuple(gt.lrps, tuple(data), gt.constraints))
    return GeneralizedRelation(relation.temporal_arity, final_arity, tuples)


def _restrict_data(relation, atom):
    """Apply data-constant selections and within-atom data variable
    equalities; returns ``(relation, data_column_names)`` where the
    names list has None for constant positions (kept but anonymous)."""
    names = []
    seen = {}
    for index, term in enumerate(atom.data_args):
        if term.is_variable():
            if term.name in seen:
                relation = relation.select_data_equal(seen[term.name], index)
                names.append(None)
            else:
                seen[term.name] = index
                names.append(term.name)
        else:
            relation = relation.select_data_constant(index, term.value)
            names.append(None)
    return relation, names
