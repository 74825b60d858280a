"""Bottom-up evaluation with the generalized mapping T_GP (Section 4.3).

Every normalized clause is compiled into a
:class:`~repro.plan.compiler.ClausePlan` — an operator pipeline with
greedy join ordering, selection/constraint pushdown, negation as an
anti-join that subtracts a negated atom's matches (a join against the
exact complement only where a negated temporal variable is left
unpinned), and the head projection fused in (see :mod:`repro.plan`).  The paper-literal
product-then-select-then-project formulation survives as
:class:`~repro.plan.reference.ReferenceClauseEvaluator`
(``evaluation="reference"``), serving as the correctness oracle and
the benchmarks' baseline.

Plans are compiled once per content key per process, not once per
:class:`ProgramEvaluator`: the compiled program — plans or reference
evaluators, strata, and the stratum layout as clause indexes — is kept
in :data:`repro.plan.memo.PROGRAMS` under ``(str(program), schemas,
evaluation)``, so a second evaluator over the same program text reuses
the first one's plans.  The program is validated once per
:class:`~repro.core.ast.Program` object (its text and schemas are
computed once too); the EDB arity check still runs on every
construction.

Both the naive strategy (recompute every clause against the full
interpretation) and the semi-naive strategy (fire a clause once per
body position that has a last-round delta) are provided; they compute
the same interpretations.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.transform import normalize_program
from repro.gdb.relation import GeneralizedRelation
from repro.plan import memo
from repro.plan.compiler import ClausePlan
from repro.plan.explain import plan_fingerprint
from repro.plan.reference import ReferenceClauseEvaluator
from repro.util.errors import SchemaError

_EVALUATION_MODES = ("compiled", "reference")


class CompiledProgram(NamedTuple):
    """What :data:`repro.plan.memo.PROGRAMS` keeps per program: the
    plans, the clause evaluators (the plans themselves in compiled
    mode), the strata, each stratum's evaluators as indexes into
    ``evaluators``, and the program's data constants.  Indexes, not
    clause identities: two parses of one text have different clause
    objects but the same clause order."""

    plans: tuple
    evaluators: tuple
    strata: tuple
    layout: tuple
    constants: frozenset


def _compile(program, schemas, intensional, evaluation):
    normalized = normalize_program(program)
    plans = tuple(
        ClausePlan(clause, schemas, intensional) for clause in normalized
    )
    if evaluation == "reference":
        evaluators = tuple(
            ReferenceClauseEvaluator(clause, schemas)
            for clause in normalized
        )
    else:
        evaluators = plans
    strata, clause_strata = program.strata()
    index_of = {
        id(evaluator.normalized.original): index
        for index, evaluator in enumerate(evaluators)
    }
    layout = tuple(
        tuple(index_of[id(clause)] for clause in clauses)
        for clauses in clause_strata
    )
    constants = set()
    for clause in program.clauses:
        atoms = [clause.head] + clause.predicate_atoms()
        atoms += [negated.atom for negated in clause.negated_atoms()]
        for atom in atoms:
            for term in atom.data_args:
                if not term.is_variable():
                    constants.add(term.value)
    return CompiledProgram(
        plans, evaluators, tuple(strata), layout, frozenset(constants)
    )


def checked_schemas(program, edb, evaluation="compiled"):
    """``program``'s schemas once it is validated, ``evaluation`` names
    a clause evaluator and ``edb`` provides every extensional predicate
    with the program's arities (else :class:`SchemaError`)."""
    if evaluation not in _EVALUATION_MODES:
        raise ValueError("evaluation must be one of %s" % (_EVALUATION_MODES,))
    schemas = program.validate().schemas()
    for name in program.extensional_predicates():
        schema = edb.schema(name)
        edb_shape = (schema.temporal_arity, schema.data_arity)
        if schemas[name] != edb_shape:
            raise SchemaError(
                "predicate %r: program uses arities %s, EDB provides %s"
                % (name, schemas[name], edb_shape)
            )
    return schemas


class ProgramEvaluator:
    """Compiles a program and applies T_GP rounds over an environment.

    The environment maps predicate names to GeneralizedRelations; the
    extensional part stays fixed, the intensional part grows
    monotonically round by round.  ``evaluation`` selects the clause
    evaluator: ``"compiled"`` (the plan layer, default) or
    ``"reference"`` (the paper-literal oracle).  Plans are compiled in
    either mode — the plan fingerprint stamps checkpoints and feeds
    ``repro explain`` regardless of which evaluator runs.
    """

    def __init__(self, program, edb, evaluation="compiled"):
        self.program = program
        self.edb = edb
        self.evaluation = evaluation
        self.schemas = checked_schemas(program, edb, evaluation)
        self.intensional = program.intensional_predicates()
        key = (str(program), tuple(sorted(self.schemas.items())), evaluation)
        compiled = memo.PROGRAMS.lookup(
            key,
            lambda: _compile(
                program, dict(self.schemas), self.intensional, evaluation
            ),
        )
        self.plans = compiled.plans
        self.evaluators = compiled.evaluators
        self.strata = compiled.strata
        self.stratum_evaluators = [
            [self.evaluators[index] for index in layer]
            for layer in compiled.layout
        ]
        self._program_constants = compiled.constants
        self._domain_cache = None  # (env snapshot, sorted domain)

    def plan_fingerprint(self):
        """The digest of every compiled plan (see
        :func:`repro.plan.explain.plan_fingerprint`)."""
        return plan_fingerprint(self.plans)

    def stratum_count(self):
        """Number of evaluation strata (1 for negation-free programs)."""
        return len(self.stratum_evaluators)

    def complements_for(self, evaluators, env):
        """Exact complement relations for every predicate the given
        evaluators read through a complement, computed against the
        current environment with active-domain data semantics.  The
        reference evaluator reads every negated predicate that way; a
        compiled plan only those of its complement joins (its
        anti-joins read the environment itself), so complements built
        for one mode do not serve the other."""
        negated = set()
        for evaluator in evaluators:
            negated |= evaluator.negated_predicates
        if not negated:
            return {}
        domain = self.active_data_domain(env)
        complements = {}
        for predicate in sorted(negated):
            relation = env[predicate]
            domains = [domain] * relation.data_arity
            complements[predicate] = relation.complement(
                data_domains=domains if relation.data_arity else None
            )
        return complements

    def active_data_domain(self, env):
        """Every data constant visible in the environment and program.

        The program's own constants are collected once per compile;
        the environment scan is cached per relation *identity* — the
        relations are immutable value objects, so the cache goes stale
        exactly when a predicate actually grew (a new instance).
        """
        cached = self._domain_cache
        if cached is not None:
            snapshot, domain = cached
            if len(snapshot) == len(env) and all(
                env.get(name) is relation for name, relation in snapshot.items()
            ):
                return domain
        constants = set(self._program_constants)
        for relation in env.values():
            for column in range(relation.data_arity):
                constants |= relation.data_values(column)
        domain = sorted(constants, key=repr)
        self._domain_cache = (dict(env), domain)
        return domain

    def initial_environment(self):
        """EDB relations plus empty IDB relations."""
        env = {}
        for name in self.edb.names():
            env[name] = self.edb.relation(name)
        for name in self.intensional:
            temporal_arity, data_arity = self.schemas[name]
            env[name] = GeneralizedRelation.empty(temporal_arity, data_arity)
        return env

    def naive_round(self, env, evaluators=None, complements=None, meter=None):
        """One naive T_GP application: every clause against the full
        environment.  Returns ``{predicate: [derived tuples]}``.

        An optional :class:`~repro.runtime.budget.BudgetMeter` is
        ticked before each clause firing (deadline check) and charged
        with the derived-tuple work after it."""
        if evaluators is None:
            evaluators = self.evaluators
        firings = [(evaluator, None) for evaluator in evaluators]
        return self._fire(firings, env, None, complements, meter)

    def seminaive_round(self, env, delta, evaluators=None, complements=None, meter=None):
        """One delta round: each clause fires once per body position
        whose predicate has a delta, reading the delta there.  In
        semi-naive rounds the delta holds last round's accepted
        (intensional) tuples; the incremental maintainer's warm start
        and DRed overdeletion (:mod:`repro.edb.maintain`) also put
        extensional predicates in it, whose plan variants are compiled
        lazily (:meth:`~repro.plan.compiler.ClausePlan.maintenance_variant`).
        Delta predicates no clause reads are ignored.  ``meter`` as in
        :meth:`naive_round`."""
        if evaluators is None:
            evaluators = self.evaluators
        delta_env = {
            name: GeneralizedRelation(*self.schemas[name], tuples=tuples)
            for name, tuples in delta.items()
            if name in self.schemas
        }
        firings = [
            (evaluator, position)
            for evaluator in evaluators
            for position, atom in enumerate(evaluator.normalized.body_atoms)
            if atom.predicate in delta_env
        ]
        return self._fire(firings, env, delta_env, complements, meter)

    @staticmethod
    def _fire(firings, env, delta, complements, meter):
        """Evaluate each ``(clause evaluator, delta position)`` firing
        and collect the derived tuples per head predicate."""
        derived = {}
        for evaluator, position in firings:
            if meter is not None:
                meter.tick_clause()
            relation = evaluator.evaluate(
                env, delta=delta, delta_position=position, complements=complements
            )
            if relation.tuples:
                if meter is not None:
                    meter.charge_derived(len(relation.tuples))
                derived.setdefault(evaluator.head_predicate, []).extend(
                    relation.tuples
                )
        return derived
