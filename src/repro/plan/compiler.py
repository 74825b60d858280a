"""Compiling normalized clauses into executable plans.

Each :class:`~repro.core.transform.NormalizedClause` is compiled once
per program content (see :mod:`repro.plan.memo`) into a
:class:`ClausePlan` holding one :class:`PlanVariant` per firing
mode: ``None`` for naive rounds, plus one per intensional body
position for semi-naive rounds (the delta atom is seeded first, since
the delta is typically the smallest source).

Compilation performs, per variant:

* **greedy join ordering** — after normalization body atoms never
  share temporal columns directly (sharing is expressed through
  equality constraint atoms), so atoms are scored by how many pending
  constraint atoms the join would make fully bound (temporal linkage),
  then by data variables shared with already-bound columns (hash-join
  selectivity), then by within-atom restrictions;
* **selection and constraint pushdown** — data-constant and repeated
  data-variable selections are folded into the source scan of their
  atom, and every constraint atom is conjoined at the earliest step
  where all its columns are bound (carrier columns count as bindable
  on demand);
* **negation as anti-join** — once the positive atoms have run, a
  negated atom whose temporal variables are all bound, or pinned by
  equalities to bound columns, becomes an :class:`AntiJoinStep` that
  subtracts each working-set tuple's overlap with the predicate's
  relation.  A negated atom with a temporal variable nothing pins
  (``p(t) <- a(t), not q(t, u)`` reads ∃u ¬q) keeps the exact
  complement instead: it is a complement join, after the anti-joins;
* **fused projection** — the head projection (with head data
  constants woven in) is part of the plan, not a separate pass.
"""

from __future__ import annotations

from repro.constraints.atoms import Comparison, TemporalTerm as ConstraintTerm
from repro.plan.operators import (
    AntiJoinStep,
    CarrierStep,
    JoinStep,
    PlanVariant,
    Projection,
)
from repro.util.errors import SchemaError
from repro.util.hooks import fault_point

#: Name prefix of the demand (magic) predicates the goal-directed
#: rewrite introduces (:mod:`repro.plan.magic`).  The join-order
#: scorer treats atoms over these predicates as the most selective
#: source available: a demand relation holds one zone per demanded
#: binding, so seeding the pipeline with it restricts every later join
#: to the demanded region.
DEMAND_PREFIX = "_m__"


def _lower_constraint(constraint, position_of, aliases=None):
    """Convert an AST constraint atom to a column-indexed Comparison.

    Aliased variables (``v = u + c``) lower through their base column
    with the offset folded in."""

    def lower(term):
        if term.var is None:
            return ConstraintTerm(None, term.offset)
        if aliases and term.var in aliases:
            base, offset = aliases[term.var]
            return ConstraintTerm(position_of[base], term.offset + offset)
        return ConstraintTerm(position_of[term.var], term.offset)

    return Comparison(constraint.op, lower(constraint.left), lower(constraint.right))


def _constraint_variables(constraint):
    return frozenset(
        term.var
        for term in (constraint.left, constraint.right)
        if term.var is not None
    )


def _temporal_variables(atom):
    return {term.var for term in atom.temporal_args}


def _antijoin_indexes(normalized):
    """Indexes of the negated atoms that compile to anti-joins.

    A negated atom qualifies when every data variable is bound by a
    positive atom and every temporal variable is bound by one or pinned
    to one by a chain of equalities ``v = w + c``.  The chain may not
    pass through a variable of a negated atom that keeps its complement:
    that atom binds its columns only after the anti-joins have run."""
    positive_vars, positive_data = set(), set()
    for atom in normalized.body_atoms:
        positive_vars |= _temporal_variables(atom)
        positive_data |= atom.data_variables()
    links = [
        (constraint.left.var, constraint.right.var)
        for constraint in normalized.constraints
        if constraint.op == "="
        and constraint.left.var is not None
        and constraint.right.var is not None
    ]
    negated = normalized.negated_atoms
    candidates = {
        k for k, atom in enumerate(negated)
        if atom.data_variables() <= positive_data
    }
    while True:
        blocked = set()
        for k, atom in enumerate(negated):
            if k not in candidates:
                blocked |= _temporal_variables(atom)
        resolved = set(positive_vars)
        grew = True
        while grew:
            grew = False
            for left, right in links:
                for v, w in ((left, right), (right, left)):
                    if w in resolved and v not in resolved and v not in blocked:
                        resolved.add(v)
                        grew = True
        kept = {
            k for k in candidates
            if _temporal_variables(negated[k]) <= resolved
        }
        if kept == candidates:
            return frozenset(kept)
        candidates = kept


def compile_variant(normalized, seed_position=None):
    """Compile one pipeline for the clause; with ``seed_position`` set,
    the body atom at that position is joined first (semi-naive delta
    seeding)."""
    pending = [
        (constraint, _constraint_variables(constraint))
        for constraint in normalized.constraints
    ]
    placed = [False] * len(pending)
    anti = _antijoin_indexes(normalized)
    # Columns a join binds: every positive atom's, and the columns of
    # the negated atoms that keep their complement.  An anti-joined
    # atom's variables are ``deferred`` instead: each is resolved by its
    # pinning equality (as an alias or a carrier) once the pin's other
    # side is, and constraints mentioning it wait until then.
    atom_bound = set()
    deferred = set()
    for atom in normalized.body_atoms:
        atom_bound |= _temporal_variables(atom)
    for k, atom in enumerate(normalized.negated_atoms):
        (deferred if k in anti else atom_bound).update(_temporal_variables(atom))
    all_vars = normalized.all_temporal_variables()

    columns = []
    position_of = {}
    data_names = []
    first_data = {}
    bound = set()
    steps = []
    aliases = {}  # var -> (base var, offset): v = base + offset
    head_counts = {}
    for name in normalized.head_vars:
        head_counts[name] = head_counts.get(name, 0) + 1
    # How many head slots each bound column will serve once aliases are
    # folded in; aliasing must keep this <= 1 (the projection cannot
    # duplicate a column).
    projected_use = dict(head_counts)

    def bind(names):
        for name in names:
            position_of[name] = len(columns)
            columns.append(name)
            bound.add(name)

    def resolved(v):
        return v in bound or v in aliases

    def try_alias(k):
        """Eliminate a carrier variable pinned by an equality ``v = u
        + c`` (``u`` bound or itself aliased): every later use of ``v``
        substitutes ``base + offset``, the head projection shears the
        base column — no carrier column, no extra zone closure."""
        constraint = pending[k][0]
        if constraint.op != "=":
            return False
        left, right = constraint.left, constraint.right
        if left.var is None or right.var is None:
            return False
        for cand, other in ((left, right), (right, left)):
            v = cand.var
            if v in atom_bound or resolved(v):
                continue
            if not resolved(other.var):
                continue
            if other.var in aliases:
                base, base_offset = aliases[other.var]
            else:
                base, base_offset = other.var, 0
            uses = projected_use.get(base, 0) + head_counts.get(v, 0)
            if uses > 1:
                continue
            # cand.var + cand.offset = other.var + other.offset
            aliases[v] = (base, base_offset + other.offset - cand.offset)
            projected_use[base] = uses
            placed[k] = True
            return True
        return False

    def waits(k, v):
        """Whether variable ``v`` keeps constraint ``k`` unplaceable."""
        if v in bound or v in aliases:
            return False
        if v in atom_bound:
            return True
        if v not in deferred:
            return False
        # A deferred variable is placeable only through its pin.
        constraint = pending[k][0]
        if constraint.op != "=":
            return True
        left, right = constraint.left.var, constraint.right.var
        other = right if left == v else left
        return other is None or not resolved(other)

    def ready_indices():
        return [
            k
            for k in range(len(pending))
            if not placed[k] and not any(waits(k, v) for v in pending[k][1])
        ]

    def settle(join_step):
        """Place every constraint that became placeable: alias-eliminate
        equality-pinned carrier variables, attach the fully-resolved
        constraints to the join just emitted, and materialize the
        carrier columns the rest need.  A materialized carrier can
        resolve a deferred variable's pin, so this repeats until
        nothing more is placeable."""
        while True:
            progress = True
            while progress:  # alias chains: v = u + c, w = v + d
                progress = False
                for k in ready_indices():
                    if try_alias(k):
                        progress = True
            ready = ready_indices()
            if not ready:
                return
            attach = [k for k in ready if all(resolved(v) for v in pending[k][1])]
            carry = [k for k in ready if k not in attach]
            if attach and join_step is not None:
                join_step.atoms = join_step.atoms + tuple(
                    _lower_constraint(pending[k][0], position_of, aliases)
                    for k in attach
                )
                for k in attach:
                    placed[k] = True
                attach = []
            if not (carry or attach):
                return
            needed = [
                name
                for name in all_vars
                if name not in bound
                and name not in aliases
                and any(name in pending[k][1] for k in carry)
            ]
            bind(needed)
            atoms = tuple(
                _lower_constraint(pending[k][0], position_of, aliases)
                for k in attach + carry
            )
            steps.append(CarrierStep(needed, atoms))
            for k in attach + carry:
                placed[k] = True
            join_step = None  # later constraints read the new columns

    def data_selections(atom):
        """Split an atom's data arguments into constant selections,
        within-atom equalities, matches against already-bound data
        columns, and the names of the variables it binds first (None
        per column that binds nothing)."""
        names = []
        seen = {}
        const_sels = []
        eq_sels = []
        match_pairs = []
        for index, term in enumerate(atom.data_args):
            names.append(None)
            if not term.is_variable():
                const_sels.append((index, term.value))
            elif term.name in seen:
                eq_sels.append((seen[term.name], index))
            elif term.name in first_data:
                seen[term.name] = index
                match_pairs.append((first_data[term.name], index))
            else:
                seen[term.name] = index
                names[index] = term.name
        return names, const_sels, eq_sels, match_pairs

    def emit_join(position, atom, complement):
        names, const_sels, eq_sels, match_pairs = data_selections(atom)
        for index, name in enumerate(names):
            if name is not None:
                first_data[name] = len(data_names) + index
        step = JoinStep(
            position,
            atom.predicate,
            complement,
            [term.var for term in atom.temporal_args],
            names,
            const_sels,
            eq_sels,
            match_pairs,
        )
        bind(step.temporal_vars)
        data_names.extend(names)
        steps.append(step)
        settle(step)

    def emit_antijoin(atom):
        """Subtract the atom's matches: its columns are linked to the
        working-set columns that bind (or, through an alias, pin) them."""
        names, const_sels, eq_sels, match_pairs = data_selections(atom)
        assert not any(names), "anti-join %s binds data variables" % (atom,)
        width = len(columns)
        links = []
        for index, term in enumerate(atom.temporal_args):
            base, offset = aliases.get(term.var, (term.var, 0))
            assert base in bound, "anti-join %s: %s is unresolved" % (atom, term.var)
            links.append(
                Comparison(
                    "=",
                    ConstraintTerm(width + index, 0),
                    ConstraintTerm(position_of[base], offset),
                )
            )
        steps.append(
            AntiJoinStep(
                atom.predicate,
                [term.var for term in atom.temporal_args],
                const_sels,
                eq_sels,
                match_pairs,
                links,
                width,
                len(data_names),
            )
        )

    def score(position, atom):
        would_bound = bound | {term.var for term in atom.temporal_args}
        gain = sum(
            1
            for k in range(len(pending))
            if not placed[k]
            and all(
                v in would_bound or (v not in atom_bound and v not in deferred)
                for v in pending[k][1]
            )
        )
        shared = restrictions = 0
        seen_local = set()
        for term in atom.data_args:
            if not term.is_variable():
                restrictions += 1
            elif term.name in seen_local:
                restrictions += 1
            else:
                seen_local.add(term.name)
                if term.name in first_data:
                    shared += 1
        demand = 1 if atom.predicate.startswith(DEMAND_PREFIX) else 0
        return (demand, gain, shared, restrictions, -position)

    settle(None)  # constant-only and pure-carrier constraints

    remaining = list(enumerate(normalized.body_atoms))
    if seed_position is not None:
        for entry in remaining:
            if entry[0] == seed_position:
                remaining.remove(entry)
                emit_join(entry[0], entry[1], False)
                break
    while remaining:
        best = max(remaining, key=lambda entry: score(*entry))
        remaining.remove(best)
        emit_join(best[0], best[1], False)
    for k, atom in enumerate(normalized.negated_atoms):
        if k in anti:
            emit_antijoin(atom)
    for k, atom in enumerate(normalized.negated_atoms):
        if k not in anti:
            emit_join(None, atom, True)

    missing = [
        name for name in all_vars if name not in bound and name not in aliases
    ]
    if missing:
        bind(missing)
        steps.append(CarrierStep(missing, ()))
    assert all(placed), "unplaced constraints after compilation: %s" % (
        [str(pending[k][0]) for k in range(len(pending)) if not placed[k]],
    )

    keep_temporal = []
    shifts = []
    for name in normalized.head_vars:
        if name in aliases:
            base, offset = aliases[name]
            keep_temporal.append(position_of[base])
            shifts.append(offset)
        else:
            keep_temporal.append(position_of[name])
            shifts.append(0)
    keep_data = []
    constant_slots = []
    for slot, term in enumerate(normalized.head_data):
        if term.is_variable():
            keep_data.append(first_data[term.name])
        else:
            constant_slots.append((slot, term.value))
    projection = Projection(
        keep_temporal,
        shifts,
        keep_data,
        constant_slots,
        (len(normalized.head_vars), len(normalized.head_data)),
    )
    return PlanVariant(seed_position, steps, projection, columns, data_names)


class ClausePlan:
    """A normalized clause compiled to plan variants, evaluating with
    the same interface as the reference product-then-select path."""

    def __init__(self, normalized, schemas, intensional):
        self.normalized = normalized
        self.schemas = schemas
        self.head_predicate = normalized.head_predicate
        fault_point("compile")
        self._validate()
        self.variants = {None: compile_variant(normalized)}
        # Only complement joins read a complement; anti-joins read the
        # predicate's relation itself.
        self.negated_predicates = {
            step.predicate
            for step in self.variants[None].steps
            if type(step) is JoinStep and step.complement
        }
        for position, atom in enumerate(normalized.body_atoms):
            if atom.predicate in intensional:
                self.variants[position] = compile_variant(normalized, position)
        self.label = str(normalized)
        for variant in self.variants.values():
            variant.clause = self.label
        # Delta variants for *extensional* body positions, compiled
        # lazily by the incremental maintainer (EDB deltas).  Kept out
        # of ``self.variants`` so the plan fingerprint — which renders
        # that dict — is identical whether or not maintenance ever ran.
        self._maintenance_variants = {}

    def maintenance_variant(self, position):
        """The delta variant seeded at an extensional body
        ``position``, compiled on first use (see ``__init__``).

        Plans are shared across threads (:mod:`repro.plan.memo`).  Two
        threads asking for the same position at once may both compile
        it; compilation is deterministic, so whichever variant the dict
        keeps is equal to the other, and each caller runs a correct one.
        """
        variant = self._maintenance_variants.get(position)
        if variant is None:
            variant = compile_variant(self.normalized, position)
            variant.clause = self.label
            self._maintenance_variants[position] = variant
        return variant

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

    def evaluate(self, env, delta=None, delta_position=None, complements=None):
        """The head relation derived by one T_GP application of this
        clause (same contract as the reference evaluator)."""
        fault_point("clause")
        if self.negated_predicates and complements is None:
            raise SchemaError(
                "clause %s negates %s but no complements were supplied"
                % (self.normalized, ", ".join(sorted(self.negated_predicates)))
            )
        if delta is None:
            variant = self.variants[None]
        else:
            variant = self.variants.get(delta_position)
            if variant is None:
                variant = self.maintenance_variant(delta_position)

        def relation_for(step):
            if step.complement:
                return complements[step.predicate]
            if delta is not None and step.position == delta_position:
                return delta.get(step.predicate)
            return env.get(step.predicate)

        return variant.execute(relation_for)
