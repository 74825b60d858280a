"""Goal-directed evaluation: magic sets over generalized atoms.

Bottom-up T_GP materializes every predicate over all of ℤ before a
query selects the sliver it wanted — the anti-pattern the paper's
finite representation is meant to avoid.  This module adapts the
classic magic-set / demand transformation to generalized tuples,
where the binding pattern has a *temporal dimension*: a demand is not
just "which data constants" but "which constraint zone".

Given a :class:`QueryGoal` (a predicate, an optional demanded window,
and optional bound data columns), :func:`rewrite_for_goal` produces a
rewritten program plus *magic relations*:

1. **Reachability** — clauses whose head cannot reach the goal in the
   dependency graph are dropped wholesale
   (:func:`repro.core.stratify.reachable_predicates`).
2. **Negation cone** — predicates reachable through a negated atom
   must be computed *exactly* (an anti-join subtracts them, or their
   complement is taken), so their downward closure stays unguarded;
   everything else is *restricted*.
3. **Adornment** — one demand predicate ``_m__p`` per restricted
   ``p``; its bound data columns are the meet (intersection) over all
   body occurrences of ``p`` of the columns resolvable sideways from
   the caller's demand (a constant, or a variable bound in the
   caller's own demanded columns).  The temporal dimension is always
   "bound by zone": the demand carries a DBM.
4. **Demand fixpoint with widening** — seeds from the goal, then
   sideways information passing: a demand on a clause's head, conjoined
   with the clause's constraint atoms and projected onto a body atom's
   temporal columns, is a demand on that atom's predicate.  Temporal
   recursion through shifts (``p(t+6) <- p(t)``) makes the naive
   demand set diverge (``t=10`` demands ``t=4`` demands ``t=-2`` …),
   so per demand key the zones are merged by convex hull, and after
   :data:`DEFAULT_WIDEN_DELAY` growths the still-growing bounds are
   widened away to ±∞ — a strict over-approximation, so completeness
   within the demanded region is preserved and termination is
   guaranteed (each DBM bound widens at most once).
5. **Guards** — every restricted clause gets its head's demand atom
   prepended to the body.  The demand relations ride the ordinary
   columnar kernel: each demand is one generalized tuple with
   constant-carrier lrps, the bound data constants, and the demand
   zone as its constraint system, supplied through an augmented EDB.
   Magic predicates are therefore *extensional* in the rewritten
   program — stratification of the guarded program follows from the
   original's, and the engine evaluates it unchanged.

:func:`goal_directed_model` wraps the rewrite around a
:class:`~repro.core.engine.DeductiveEngine` run and falls back to the
full fixpoint — recording the ``magic_degraded`` rung — whenever the
rewrite cannot apply.  Steps 1–3 and 5 depend only on the program, the
goal predicate and its bound data columns, so they run once per such
triple per process (:data:`repro.plan.memo.REWRITES`); the demand
fixpoint, the demand relations and the guarded run happen for every
goal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.constraints.atoms import Comparison, TemporalTerm as ColumnTerm
from repro.constraints.dbm import Dbm
from repro.constraints.system import ConstraintSystem
from repro.core.ast import PredicateAtom, Program, TemporalTerm
from repro.core.stratify import reachable_predicates
from repro.core.transform import NormalizedClause, denormalize, normalize_program
from repro.gdb.relation import GeneralizedRelation
from repro.gdb.tuple import GeneralizedTuple
from repro.lrp.point import Lrp
from repro.plan import memo
from repro.plan.compiler import DEMAND_PREFIX
from repro.util import hooks
from repro.util.errors import EvaluationError, PartialResultError, SchemaError

#: Convex-hull merges per demand key tolerated before widening starts
#: dropping the bounds that keep growing.  Small: a genuinely bounded
#: demand cone stabilizes in one or two merges; a shifting recursion
#: grows every merge and should be widened quickly.
DEFAULT_WIDEN_DELAY = 3

#: Hard cap on demand-propagation steps; trips only on pathological
#: programs (the widening argument bounds the real fixpoint far lower).
DEFAULT_DEMAND_STEPS = 100_000


class MagicUnsupportedError(EvaluationError):
    """The goal cannot be rewritten; callers fall back to the full
    fixpoint and record the degradation."""


def _freeze_bindings(data):
    """Normalize ``data`` (mapping column → constant, or pairs) to a
    sorted tuple of ``(column, value)`` pairs."""
    if data is None:
        return ()
    if isinstance(data, dict):
        items = data.items()
    else:
        items = data
    return tuple(sorted((int(column), value) for column, value in items))


@dataclass(frozen=True)
class QueryGoal:
    """What the caller demands: a predicate, an optional temporal
    window ``[low, high)`` applying to every temporal column, and
    bound data columns with their constants."""

    predicate: str
    low: Optional[int] = None
    high: Optional[int] = None
    data: tuple = ()

    @classmethod
    def point(cls, predicate, instant, data=None):
        """Demand at one instant (every temporal column equal to it)."""
        return cls(predicate, int(instant), int(instant) + 1, _freeze_bindings(data))

    @classmethod
    def windowed(cls, predicate, low, high, data=None):
        """Demand within the window ``[low, high)``."""
        return cls(predicate, int(low), int(high), _freeze_bindings(data))

    @classmethod
    def whole(cls, predicate, data=None):
        """Demand with no temporal constraint (reachability pruning and
        data bindings only)."""
        return cls(predicate, None, None, _freeze_bindings(data))

    def bound_data_columns(self):
        """The 0-based data columns the goal binds, ascending."""
        return tuple(column for column, _value in self.data)

    def zone(self, temporal_arity):
        """The demanded region as a :class:`ConstraintSystem` over the
        goal predicate's temporal columns."""
        atoms = []
        for column in range(temporal_arity):
            if self.low is not None:
                atoms.append(
                    Comparison(">=", ColumnTerm(column), ColumnTerm(None, self.low))
                )
            if self.high is not None:
                atoms.append(
                    Comparison("<", ColumnTerm(column), ColumnTerm(None, self.high))
                )
        return ConstraintSystem.from_atoms(temporal_arity, atoms)

    def __str__(self):
        window = ""
        if self.low is not None or self.high is not None:
            window = "[%s, %s)" % (
                "-inf" if self.low is None else self.low,
                "+inf" if self.high is None else self.high,
            )
        bindings = ""
        if self.data:
            bindings = "; " + ", ".join(
                "#%d=%r" % (column, value) for column, value in self.data
            )
        return "%s%s%s" % (self.predicate, window, bindings)


def magic_predicate(predicate):
    """The demand predicate name for ``predicate``."""
    return DEMAND_PREFIX + predicate


# -- zone arithmetic ---------------------------------------------------------


def _widen(old, new):
    """Keep only the bounds of ``new`` that did not grow past ``old``;
    growing bounds go to ±∞.  ``new`` must contain ``old`` (it is a
    hull with ``old`` as one argument), so the result contains both and
    each DBM bound can be widened at most once."""
    zo, zn = old.zone(), new.zone()
    widened = Dbm.unconstrained(old.arity)
    for (i, j, c) in zn.finite_bounds():
        if c <= zo.bound(i, j):
            widened.add_bound(i, j, c)
    return ConstraintSystem(old.arity, widened)


def _project_onto(system, columns):
    """Project a zone onto the given 0-based columns, reordered to the
    order of ``columns``."""
    remaining = list(range(system.arity))
    current = system
    for column in sorted(set(remaining) - set(columns), reverse=True):
        current = current.project_out(column)
        remaining.remove(column)
    mapping = {
        remaining.index(column): position
        for position, column in enumerate(columns)
    }
    return current.remapped(mapping, len(columns))


def _lower(constraint, index_of):
    """AST constraint atom → column-indexed :class:`Comparison`."""

    def lower(term):
        if term.var is None:
            return ColumnTerm(None, term.offset)
        return ColumnTerm(index_of[term.var], term.offset)

    return Comparison(constraint.op, lower(constraint.left), lower(constraint.right))


# -- sideways information passing --------------------------------------------


@dataclass(frozen=True)
class _DemandRule:
    """One SIP edge: a demand on ``head`` propagates through one clause
    to a demand on ``target`` (a restricted positive body atom).

    The data side resolves each bound column of ``target`` from the
    head's demand key (``("const", value)`` or ``("head", key_index)``);
    ``head_constants`` / ``head_equalities`` filter keys the clause
    cannot serve.  The temporal side embeds the head demand zone into
    the clause's full variable space (``head_placement``), conjoins the
    clause constraints (``atoms``), and projects onto the target atom's
    columns (``target_columns``).
    """

    head: str
    target: str
    resolvers: tuple
    head_constants: tuple
    head_equalities: tuple
    var_count: int
    head_placement: tuple  # (head temporal column, variable index) pairs
    atoms: tuple
    target_columns: tuple

    def propagate(self, key, zone):
        """The ``(target key, target zone)`` demanded by ``(key, zone)``
        on the head, or ``None`` when this clause cannot serve it."""
        for key_index, value in self.head_constants:
            if key[key_index] != value:
                return None
        for left, right in self.head_equalities:
            if key[left] != key[right]:
                return None
        target_key = tuple(
            value if kind == "const" else key[value]
            for kind, value in self.resolvers
        )
        embedded = zone.remapped(dict(self.head_placement), self.var_count)
        conjoined = embedded.conjoin_atoms(self.atoms)
        if not conjoined.is_satisfiable():
            return None
        projected = _project_onto(conjoined, self.target_columns)
        if not projected.is_satisfiable():
            return None
        return target_key, projected


def _build_demand_rules(normalized_clauses, restricted, bound_columns):
    """Every SIP edge of the restricted subprogram."""
    rules = []
    for normalized in normalized_clauses:
        head = normalized.head_predicate
        if head not in restricted:
            continue
        head_bound = bound_columns[head]
        key_index_of = {}  # variable name -> key index (first occurrence)
        head_constants = []
        head_equalities = []
        for key_index, column in enumerate(head_bound):
            term = normalized.head_data[column]
            if not term.is_variable():
                head_constants.append((key_index, term.value))
            elif term.name in key_index_of:
                head_equalities.append((key_index_of[term.name], key_index))
            else:
                key_index_of[term.name] = key_index
        variables = normalized.all_temporal_variables()
        index_of = {name: index for index, name in enumerate(variables)}
        head_placement = tuple(
            (column, index_of[name])
            for column, name in enumerate(normalized.head_vars)
        )
        atoms = tuple(
            _lower(constraint, index_of) for constraint in normalized.constraints
        )
        for atom in normalized.body_atoms:
            if atom.predicate not in restricted:
                continue
            resolvers = []
            for column in bound_columns[atom.predicate]:
                term = atom.data_args[column]
                if not term.is_variable():
                    resolvers.append(("const", term.value))
                else:
                    resolvers.append(("head", key_index_of[term.name]))
            rules.append(
                _DemandRule(
                    head=head,
                    target=atom.predicate,
                    resolvers=tuple(resolvers),
                    head_constants=tuple(head_constants),
                    head_equalities=tuple(head_equalities),
                    var_count=len(variables),
                    head_placement=head_placement,
                    atoms=atoms,
                    target_columns=tuple(
                        index_of[term.var] for term in atom.temporal_args
                    ),
                )
            )
    return rules


def _adorn(normalized_clauses, restricted, schemas, goal):
    """The meet-collapse adornment: per restricted predicate, the data
    columns bound in *every* body occurrence (and, for the goal
    predicate, also bound by the goal itself).  Monotone-decreasing
    fixpoint; one demand predicate per restricted predicate."""
    bound = {}
    for predicate in restricted:
        _temporal, data_arity = schemas[predicate]
        bound[predicate] = set(range(data_arity))
    goal_bound = set(goal.bound_data_columns())
    bound[goal.predicate] = set(column for column in goal_bound)
    changed = True
    while changed:
        changed = False
        for normalized in normalized_clauses:
            head = normalized.head_predicate
            if head not in restricted:
                continue
            bindable = set()
            for column, term in enumerate(normalized.head_data):
                if term.is_variable() and column in bound[head]:
                    bindable.add(term.name)
            for atom in normalized.body_atoms:
                if atom.predicate not in restricted:
                    continue
                resolvable = set()
                for column, term in enumerate(atom.data_args):
                    if not term.is_variable() or term.name in bindable:
                        resolvable.add(column)
                met = bound[atom.predicate] & resolvable
                if met != bound[atom.predicate]:
                    bound[atom.predicate] = met
                    changed = True
    return {predicate: tuple(sorted(columns)) for predicate, columns in bound.items()}


# -- the rewrite -------------------------------------------------------------


@dataclass
class MagicRewrite:
    """The rewritten program plus its demand (magic) relations."""

    goal: QueryGoal
    program: Program
    magic_relations: dict
    bound_columns: dict
    reachable: frozenset
    restricted: frozenset
    unrestricted: frozenset
    dropped_clauses: int
    demand_rules: int
    demand_steps: int
    widenings: int

    def augmented_edb(self, edb):
        """A copy of ``edb`` with the demand relations declared and
        filled — the rewritten program reads them as ordinary
        extensional predicates through the columnar kernel."""
        augmented = edb.copy()
        for name in sorted(self.magic_relations):
            relation = self.magic_relations[name]
            augmented.declare(name, relation.temporal_arity, relation.data_arity)
            augmented.set_relation(name, relation)
        return augmented

    def info(self):
        """A JSON-safe summary (CLI reports, service stats)."""
        return {
            "goal": str(self.goal),
            "reachable": sorted(self.reachable),
            "restricted": sorted(self.restricted),
            "unrestricted": sorted(self.unrestricted),
            "dropped_clauses": self.dropped_clauses,
            "demand_rules": self.demand_rules,
            "demand_steps": self.demand_steps,
            "widenings": self.widenings,
            "magic_facts": sum(
                len(relation) for relation in self.magic_relations.values()
            ),
        }


def _adorn_program(program, goal):
    """The part of the rewrite that depends only on the program,
    ``goal``'s predicate and its bound data columns (the rest of
    ``goal`` only names it in error messages): the goal-independent
    :class:`MagicRewrite` fields, and the demand rules by head."""
    schemas = program.schemas()
    if goal.predicate not in schemas:
        raise MagicUnsupportedError(
            "goal predicate %r does not occur in the program" % goal.predicate
        )
    for predicate in schemas:
        if predicate.startswith(DEMAND_PREFIX):
            raise MagicUnsupportedError(
                "program already uses the demand prefix %r (%s)"
                % (DEMAND_PREFIX, predicate)
            )
    _temporal_arity, data_arity = schemas[goal.predicate]
    for column in goal.bound_data_columns():
        if not 0 <= column < data_arity:
            raise MagicUnsupportedError(
                "goal binds data column %d of %r, which has data arity %d"
                % (column, goal.predicate, data_arity)
            )

    idb = program.intensional_predicates()
    reachable = reachable_predicates(program, [goal.predicate])
    # Predicates negated anywhere in the cone (subtracted or
    # complemented) must be computed exactly: their downward closure
    # stays unguarded.
    negated_roots = set()
    for clause in program.clauses:
        if clause.head.predicate not in reachable:
            continue
        for negated in clause.negated_atoms():
            if negated.atom.predicate in idb:
                negated_roots.add(negated.atom.predicate)
    unrestricted = reachable_predicates(program, sorted(negated_roots))
    restricted = frozenset(reachable - unrestricted)

    normalized_clauses = normalize_program(program)
    bound_columns = _adorn(normalized_clauses, restricted, schemas, goal)
    rules = _build_demand_rules(normalized_clauses, restricted, bound_columns)
    rules_by_head = {}
    for rule in rules:
        rules_by_head.setdefault(rule.head, []).append(rule)

    clauses = []
    dropped = 0
    for normalized in normalized_clauses:
        head = normalized.head_predicate
        if head not in reachable:
            dropped += 1
            continue
        if head not in restricted:
            clauses.append(normalized.original)
            continue
        guard = PredicateAtom(
            magic_predicate(head),
            tuple(TemporalTerm(name) for name in normalized.head_vars),
            tuple(normalized.head_data[column] for column in bound_columns[head]),
        )
        guarded = NormalizedClause(
            head_predicate=normalized.head_predicate,
            head_vars=normalized.head_vars,
            head_data=normalized.head_data,
            body_atoms=(guard,) + normalized.body_atoms,
            constraints=normalized.constraints,
            original=normalized.original,
            negated_atoms=normalized.negated_atoms,
        )
        clauses.append(denormalize(guarded))
    rewritten = Program(tuple(clauses))
    try:
        rewritten.validate().strata()
    except SchemaError as error:
        raise MagicUnsupportedError(
            "rewritten program for %s does not stratify: %s" % (goal, error)
        ) from error
    shared = dict(
        program=rewritten,
        bound_columns={
            predicate: bound_columns[predicate] for predicate in restricted
        },
        reachable=frozenset(reachable),
        restricted=restricted,
        unrestricted=frozenset(unrestricted),
        dropped_clauses=dropped,
        demand_rules=len(rules),
    )
    return shared, rules_by_head


def rewrite_for_goal(program, goal):
    """Rewrite ``program`` for goal-directed evaluation of ``goal``.

    Only the demand fixpoint and the demand relations are computed per
    goal.  Reachability, the negation cone, the adornment, the demand
    rules and the guarded program are looked up in
    :data:`repro.plan.memo.REWRITES` under ``(str(program), goal
    predicate, bound data columns)``, so goals that differ only in
    their window or bound constants share one rewritten program, which
    callers read and never mutate.

    Raises :class:`MagicUnsupportedError` when the rewrite cannot apply
    (unknown goal predicate, demand fixpoint divergence past the hard
    cap, or a rewritten program that fails to stratify); callers fall
    back to the full fixpoint.  A failure is not cached.
    """
    shared, rules_by_head = memo.REWRITES.lookup(
        (str(program), goal.predicate, goal.bound_data_columns()),
        lambda: _adorn_program(program, goal),
    )
    schemas = program.schemas()
    restricted = shared["restricted"]
    bound_columns = shared["bound_columns"]

    # -- demand fixpoint with widening ------------------------------------
    demand = {predicate: {} for predicate in restricted}
    merges = {}
    steps = 0
    widenings = 0
    if goal.predicate in restricted:
        goal_key = tuple(
            dict(goal.data)[column] for column in bound_columns[goal.predicate]
        )
        demand[goal.predicate][goal_key] = goal.zone(schemas[goal.predicate][0])
        worklist = [(goal.predicate, goal_key)]
    else:
        worklist = []
    while worklist:
        predicate, key = worklist.pop()
        steps += 1
        if steps > DEFAULT_DEMAND_STEPS:
            raise MagicUnsupportedError(
                "demand fixpoint for %s exceeded %d propagation steps"
                % (goal, DEFAULT_DEMAND_STEPS)
            )
        zone = demand[predicate][key]
        for rule in rules_by_head.get(predicate, ()):
            outcome = rule.propagate(key, zone)
            if outcome is None:
                continue
            target_key, target_zone = outcome
            existing = demand[rule.target].get(target_key)
            if existing is None:
                demand[rule.target][target_key] = target_zone
                worklist.append((rule.target, target_key))
                continue
            if target_zone.implies(existing):
                continue
            merged = existing.hull(target_zone)
            merge_key = (rule.target, target_key)
            merges[merge_key] = merges.get(merge_key, 0) + 1
            if merges[merge_key] > DEFAULT_WIDEN_DELAY:
                merged = _widen(existing, merged)
                widenings += 1
            if not merged.implies(existing) or not existing.implies(merged):
                demand[rule.target][target_key] = merged
                worklist.append((rule.target, target_key))

    # -- demand relations --------------------------------------------------
    magic_relations = {}
    for predicate in sorted(restricted):
        p_temporal, _p_data = schemas[predicate]
        tuples = []
        for key in sorted(demand[predicate], key=repr):
            zone = demand[predicate][key]
            tuples.append(
                GeneralizedTuple(
                    tuple(Lrp.constant_carrier() for _ in range(p_temporal)),
                    key,
                    zone,
                )
            )
        magic_relations[magic_predicate(predicate)] = GeneralizedRelation(
            p_temporal, len(bound_columns[predicate]), tuples
        )

    rewrite = MagicRewrite(
        goal=goal,
        magic_relations=magic_relations,
        demand_steps=steps,
        widenings=widenings,
        **shared,
    )
    _announce(rewrite)
    return rewrite


def _announce(rewrite):
    """The ``magic.rewrite`` event and one ``magic.seed`` per demand
    tuple — emitted for every goal-directed evaluation, whether its
    guarded program was built or came from
    :data:`repro.plan.memo.REWRITES`."""
    if not hooks.SINKS:
        return
    hooks.emit(
        "magic.rewrite",
        {
            "goal": str(rewrite.goal),
            "reachable": sorted(rewrite.reachable),
            "restricted": sorted(rewrite.restricted),
            "demand_rules": rewrite.demand_rules,
            "dropped_clauses": rewrite.dropped_clauses,
            "demand_steps": rewrite.demand_steps,
            "widenings": rewrite.widenings,
        },
    )
    for predicate in sorted(rewrite.restricted):
        name = magic_predicate(predicate)
        for gt in rewrite.magic_relations[name].tuples:
            hooks.emit(
                "magic.seed",
                {
                    "predicate": predicate,
                    "magic": name,
                    "zone": str(gt.constraints),
                    "data": list(gt.data),
                },
            )


def goal_from_formula(formula, idb, window=None):
    """Extract the demand of an FO ``formula`` as a :class:`QueryGoal`.

    Returns ``(goal, None)`` when the formula's reads of intensional
    predicates are covered by a single goal — exactly one atom over an
    IDB predicate, not nested under ``not`` or ``forall`` (those read
    a predicate's complement, which a demand-restricted computation
    does not bound).  The goal binds the atom's constant data columns;
    its zone comes from ``window`` (``(low, high)``) when given, else
    from the atom's temporal arguments when all are constants, else it
    is unbounded (reachability pruning only).

    Returns ``(None, reason)`` otherwise; callers fall back to the
    full fixpoint and record the reason.
    """
    from repro.fo.ast import (
        FoAnd,
        FoAtom,
        FoComparison,
        FoExists,
        FoForAll,
        FoNot,
        FoOr,
        parse_formula,
    )

    if isinstance(formula, str):
        formula = parse_formula(formula)
    demanded = []  # (atom, guarded?) for IDB atoms

    def walk(node, guarded):
        if isinstance(node, FoAtom):
            if node.atom.predicate in idb:
                demanded.append((node.atom, guarded))
        elif isinstance(node, FoComparison):
            pass
        elif isinstance(node, (FoAnd, FoOr)):
            for part in node.parts:
                walk(part, guarded)
        elif isinstance(node, FoNot):
            walk(node.sub, True)
        elif isinstance(node, FoExists):
            walk(node.sub, guarded)
        elif isinstance(node, FoForAll):
            walk(node.sub, True)
        else:
            demanded.append((None, True))

    walk(formula, False)
    if not demanded:
        return None, "formula mentions no intensional predicate"
    if len(demanded) > 1:
        return None, (
            "formula demands %d intensional atoms; a single goal covers one"
            % len(demanded)
        )
    atom, guarded = demanded[0]
    if atom is None or guarded:
        return None, (
            "the intensional atom is read under negation or forall "
            "(its complement is demanded, which a goal does not bound)"
        )
    data = {}
    for column, term in enumerate(atom.data_args):
        if not term.is_variable():
            data[column] = term.value
    if window is not None:
        low, high = window
        return QueryGoal.windowed(atom.predicate, low, high, data), None
    if atom.temporal_args and all(
        term.is_constant() for term in atom.temporal_args
    ):
        instants = [term.offset for term in atom.temporal_args]
        return (
            QueryGoal.windowed(atom.predicate, min(instants), max(instants) + 1, data),
            None,
        )
    return QueryGoal.whole(atom.predicate, data), None


def goal_directed_model(engine, goal, budget=None):
    """Evaluate ``engine``'s program goal-directedly for ``goal``.

    Returns ``(model, info)``: the model is complete for the goal
    predicate *within the demanded region* (other demanded predicates
    are computed at least as far as the goal needs them), and ``info``
    summarizes the rewrite — or records the fallback.  The guarded
    program runs on an engine with ``engine``'s settings
    (:meth:`~repro.core.engine.DeductiveEngine.over`).  When the
    rewrite cannot apply, ``engine`` itself compiles and runs the full
    fixpoint (:func:`degraded_run`, the "magic → full" rung of the
    degradation ladder).  An early stop raises (:func:`run_reporting`).
    """
    try:
        rewrite = rewrite_for_goal(engine.program, goal)
    except MagicUnsupportedError as error:
        return degraded_run(engine, str(error), budget, goal)
    info = rewrite.info()
    info["degraded"] = False
    guarded = engine.over(rewrite.program, rewrite.augmented_edb(engine.edb))
    return run_reporting(guarded, info, budget), info


def degraded_run(engine, reason, budget=None, goal=None):
    """``engine``'s full fixpoint for a goal-directed request that the
    rewrite cannot serve.  Returns ``(model, info)``; both
    ``info["degraded"]`` and ``model.stats.magic_degraded`` carry the
    reason, and the ``goal`` when there is one."""
    named = {} if goal is None else {"goal": str(goal)}
    info = dict(named, degraded=True, reason=reason)
    model = run_reporting(engine, info, budget)
    model.stats.magic_degraded = dict(reason=reason, **named)
    return model, info


def run_reporting(engine, info, budget=None):
    """``engine.run(budget=budget)``; if the run stops early, the raised
    :class:`~repro.util.errors.PartialResultError` carries ``info`` as
    its ``magic``, so a stopped goal-directed run still reports its
    rewrite."""
    try:
        return engine.run(budget=budget)
    except PartialResultError as stopped:
        stopped.magic = info
        raise
