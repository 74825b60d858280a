"""Bottom-up evaluation with the generalized mapping T_GP (Section 4.3).

Every normalized clause is compiled into a
:class:`~repro.plan.compiler.ClausePlan` — an operator pipeline with
greedy join ordering, selection/constraint pushdown, negation as
anti-join against the exact complements, and the head projection
fused in (see :mod:`repro.plan`).  The paper-literal
product-then-select-then-project formulation survives as
:class:`~repro.plan.reference.ReferenceClauseEvaluator`
(``evaluation="reference"``), serving as the correctness oracle and
the benchmarks' baseline.

Plans are compiled once per content key per process, not once per
:class:`ProgramEvaluator`: the compiled program — plans or reference
evaluators, strata, and the stratum layout as clause indexes — is kept
in :data:`repro.plan.memo.PROGRAMS` under ``(str(program), schemas,
evaluation)``, so a second evaluator over the same program text reuses
the first one's plans.  Validation and the EDB arity check still run
on every construction.

Both the naive strategy (recompute every clause against the full
interpretation) and the semi-naive strategy (fire a clause only with a
last-round delta in some intensional body position) are provided; they
compute the same interpretations.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.stratify import stratify
from repro.core.transform import normalize_program
from repro.gdb.relation import GeneralizedRelation
from repro.plan import memo
from repro.plan.compiler import ClausePlan
from repro.plan.explain import plan_fingerprint
from repro.plan.reference import ReferenceClauseEvaluator
from repro.util import hooks
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
            ReferenceClauseEvaluator(clause, schemas, intensional)
            for clause in normalized
        )
    else:
        evaluators = plans
    strata, clause_strata = stratify(program)
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


class ProgramEvaluator:
    """Compiles a program and applies T_GP rounds over an environment.

    The environment maps predicate names to GeneralizedRelations; the
    extensional part stays fixed, the intensional part grows
    monotonically round by round.  ``evaluation`` selects the clause
    evaluator: ``"compiled"`` (the plan layer, default) or
    ``"reference"`` (the paper-literal oracle).  Plans are compiled in
    either mode — the plan fingerprint stamps checkpoints and feeds
    ``repro explain`` regardless of which evaluator runs.

    ``parallelism > 1`` shards each round's clause-variant firings
    across a process pool (:mod:`repro.plan.shard`); the merged result
    is bit-identical to the sequential round (see
    :meth:`parallel_round`), and ``parallelism=1`` (the default) never
    touches the pool machinery at all.  ``parallelism="auto"`` starts
    sequential and lets the engine's dispatch-overhead governor upshift
    mid-run when the measured per-round work can pay for sharding (see
    :meth:`resolve_auto_parallelism`; ``auto_parallelism_cap`` bounds
    the worker count it may choose).  The pool is supervised:
    ``shard_recv_deadline`` / ``shard_max_restarts`` tune hang
    detection and the respawn cap, and with ``shard_fallback`` (the
    default) an unhealable pool downshifts the rest of the run to
    in-process sequential evaluation — recorded in
    :attr:`shard_degraded` — instead of failing it.
    """

    def __init__(
        self,
        program,
        edb,
        evaluation="compiled",
        parallelism=1,
        shard_recv_deadline=None,
        shard_max_restarts=None,
        shard_fallback=True,
        auto_parallelism_cap=None,
    ):
        if evaluation not in _EVALUATION_MODES:
            raise ValueError(
                "evaluation must be one of %s" % (_EVALUATION_MODES,)
            )
        if parallelism is None:
            parallelism = 1
        if parallelism == "auto":
            self.parallelism_mode = "auto"
            parallelism = 1
        else:
            self.parallelism_mode = "fixed"
            parallelism = int(parallelism)
            if parallelism < 1:
                raise ValueError(
                    "parallelism must be a positive worker count or 'auto'"
                )
        self.parallelism = parallelism
        self.auto_parallelism_cap = auto_parallelism_cap
        #: The auto governor's decision record for the last run
        #: (``None`` before it decides / in fixed mode).
        self.parallel_auto = None
        self.shard_recv_deadline = shard_recv_deadline
        self.shard_max_restarts = shard_max_restarts
        self.shard_fallback = bool(shard_fallback)
        #: ``None`` while sharding is healthy (or unused); after a
        #: mid-run downshift, a dict describing why (reason,
        #: restarts_used, pending_tasks).
        self.shard_degraded = None
        #: Transport totals of the last pool this evaluator closed
        #: (``None`` when no pool ever ran) — benchmark fodder.
        self.shard_wire_stats = None
        self._shard_pool = None
        program.validate()
        self.program = program
        self.edb = edb
        self.evaluation = evaluation
        self.schemas = dict(program.schemas())
        self.intensional = program.intensional_predicates()
        for name in program.extensional_predicates():
            schema = edb.schema(name)
            declared = self.schemas.get(name)
            edb_shape = (schema.temporal_arity, schema.data_arity)
            if declared is not None and declared != edb_shape:
                raise SchemaError(
                    "predicate %r: program uses arities %s, EDB provides %s"
                    % (name, declared, edb_shape)
                )
            self.schemas[name] = edb_shape
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
        """Exact complement relations for every predicate negated by
        the given evaluators, computed against the current environment
        with active-domain data semantics."""
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
        derived = {}
        for evaluator in evaluators if evaluators is not None else self.evaluators:
            if meter is not None:
                meter.tick_clause()
            relation = evaluator.evaluate(env, complements=complements)
            if meter is not None and relation.tuples:
                meter.charge_derived(len(relation.tuples))
            if relation.tuples:
                derived.setdefault(evaluator.head_predicate, []).extend(
                    relation.tuples
                )
        return derived

    def seminaive_round(self, env, delta, evaluators=None, complements=None, meter=None):
        """One semi-naive round: each clause fires once per intensional
        body position, reading the last-round delta there.  Clauses
        without intensional body atoms do not fire (they are exhausted
        by the first naive round).  ``meter`` as in :meth:`naive_round`."""
        derived = {}
        delta_env = {
            name: GeneralizedRelation(
                *self.schemas[name], tuples=tuples
            )
            for name, tuples in delta.items()
        }
        for evaluator in evaluators if evaluators is not None else self.evaluators:
            for position in evaluator.intensional_positions:
                atom = evaluator.normalized.body_atoms[position]
                if atom.predicate not in delta_env:
                    continue
                if meter is not None:
                    meter.tick_clause()
                relation = evaluator.evaluate(
                    env,
                    delta=delta_env,
                    delta_position=position,
                    complements=complements,
                )
                if meter is not None and relation.tuples:
                    meter.charge_derived(len(relation.tuples))
                if relation.tuples:
                    derived.setdefault(evaluator.head_predicate, []).extend(
                        relation.tuples
                    )
        return derived

    def maintenance_round(self, env, delta, meter=None):
        """One delta-propagation round for incremental maintenance:
        each clause fires once per body position — intensional *or
        extensional* — whose predicate has a delta.

        Regular semi-naive rounds never read a delta at an extensional
        position (the EDB is immutable during a run), so the plan
        variants for those positions are compiled lazily on first use
        and cached outside the fingerprinted variant set (see
        :meth:`~repro.plan.compiler.ClausePlan.maintenance_variant`).
        When the delta holds only intensional predicates this fires
        exactly the same variants, in the same order, as
        :meth:`seminaive_round` — the maintainer's inner rounds are
        ordinary semi-naive rounds.
        """
        derived = {}
        delta_env = {
            name: GeneralizedRelation(*self.schemas[name], tuples=tuples)
            for name, tuples in delta.items()
        }
        for evaluator in self.evaluators:
            for position, atom in enumerate(evaluator.normalized.body_atoms):
                if atom.predicate not in delta_env:
                    continue
                if meter is not None:
                    meter.tick_clause()
                relation = evaluator.evaluate(
                    env,
                    delta=delta_env,
                    delta_position=position,
                    complements=None,
                )
                if meter is not None and relation.tuples:
                    meter.charge_derived(len(relation.tuples))
                if relation.tuples:
                    derived.setdefault(evaluator.head_predicate, []).extend(
                        relation.tuples
                    )
        return derived

    # -- parallel round execution ----------------------------------------

    def round_tasks(self, evaluators, delta):
        """The round's clause-variant firings as ``(clause index,
        delta position | None)`` pairs, **in the exact order the
        sequential loops fire them** — the shard merge replays this
        order, which is what makes the parallel round bit-identical.

        ``delta=None`` describes a naive round (one task per clause);
        otherwise one task per intensional body position whose
        predicate has a delta.
        """
        tasks = []
        for index, evaluator in enumerate(evaluators):
            if delta is None:
                tasks.append((index, None))
                continue
            for position in evaluator.intensional_positions:
                atom = evaluator.normalized.body_atoms[position]
                if atom.predicate in delta:
                    tasks.append((index, position))
        return tasks

    def shard_pool(self):
        """The lazily created process pool (``parallelism >= 2`` only)."""
        if self._shard_pool is None:
            from repro.plan.shard import ShardPool

            self._shard_pool = ShardPool(
                str(self.program),
                str(self.edb),
                self.evaluation,
                self.parallelism,
                plan_fingerprint=self.plan_fingerprint(),
                recv_deadline=self.shard_recv_deadline,
                max_restarts=self.shard_max_restarts,
            )
        return self._shard_pool

    def close_parallel(self):
        """Tear down the shard pool; a later parallel round restarts it.
        The closed pool's transport totals stay readable as
        :attr:`shard_wire_stats`."""
        if self._shard_pool is not None:
            self.shard_wire_stats = self._shard_pool.wire_stats()
            self._shard_pool.close()
            self._shard_pool = None

    def parallel_active(self):
        """True while sharded rounds are in effect: ``parallelism >= 2``
        and the pool has not been degraded away mid-run.  In auto mode
        this stays False until the governor upshifts."""
        return self.parallelism > 1 and self.shard_degraded is None

    def auto_target_workers(self):
        """The worker count an auto upshift would use: every core up to
        ``auto_parallelism_cap`` (default 4), but never fewer than 2 —
        below that a pool cannot beat staying sequential."""
        import os

        cap = self.auto_parallelism_cap or 4
        return max(2, min(os.cpu_count() or 1, cap))

    def resolve_auto_parallelism(self, workers):
        """Commit the auto governor's upshift decision: from here on
        the evaluator behaves exactly as if ``parallelism=workers`` had
        been configured (the pool spins up lazily on the next stratum
        broadcast)."""
        if self.parallelism_mode != "auto":
            raise ValueError("resolve_auto_parallelism requires auto mode")
        if workers < 2:
            raise ValueError("an auto upshift needs at least 2 workers")
        self.parallelism = int(workers)

    def _shard_degrade(self, error, pending_tasks=0):
        """Record the downshift to sequential, announce it, and drop
        the dead pool.  From here on :meth:`parallel_active` is False
        and the engine runs the remaining rounds in-process."""
        self.shard_degraded = {
            "reason": str(error),
            "restarts_used": getattr(error, "restarts_used", 0),
            "pending_tasks": pending_tasks,
        }
        if hooks.SINKS:
            hooks.emit("shard.degraded", dict(self.shard_degraded))
        self.close_parallel()

    def parallel_begin_stratum(self, stratum_index, env, complements, delta):
        """Ship the stratum context to every worker (see
        :meth:`repro.plan.shard.ShardPool.begin_stratum`).  An
        unhealable pool loss here degrades to sequential (the caller
        re-checks :meth:`parallel_active`) unless ``shard_fallback``
        is off."""
        from repro.plan.shard import ShardPoolLostError

        try:
            self.shard_pool().begin_stratum(
                stratum_index, env, complements, delta, self.intensional
            )
        except ShardPoolLostError as error:
            if not self.shard_fallback:
                raise
            self._shard_degrade(error)

    def parallel_end_stratum(self):
        """Stratum boundary housekeeping for an active pool: drain the
        workers' aggregated operator statistics onto the parent's event
        bus and retire the stratum's shared-memory segments (see
        :meth:`repro.plan.shard.ShardPool.end_stratum`)."""
        if self._shard_pool is not None and self._shard_pool.started():
            self._shard_pool.end_stratum()

    def parallel_round(
        self,
        evaluators,
        tasks,
        update,
        env=None,
        complements=None,
        delta=None,
        meter=None,
    ):
        """One sharded round: evaluate ``tasks`` across the pool and
        merge deterministically.

        The meter is consulted at the shard boundaries: one deadline
        tick per task before dispatch, then the per-task derived-work
        charges in sequential task order during the merge — the same
        totals (and the same ``budget.charge`` event order) as the
        sequential round, with the deadline enforced between shards
        instead of between firings.

        ``env`` / ``complements`` / ``delta`` are the parent-side round
        inputs (the parent maintains them whether or not it shards).
        They are only read on the graceful-degradation path: when the
        pool is lost beyond healing and ``shard_fallback`` is set, the
        tasks still missing results are evaluated right here, in task
        order, against those inputs — producing the identical merged
        round, since a task is a pure function of them.
        """
        from repro.plan.shard import ShardPoolLostError

        if meter is not None:
            for _ in tasks:
                meter.tick_clause()
        try:
            # The workers re-enumerate the task list themselves, so
            # they must know which enumeration this round used —
            # ``delta`` here is exactly what the parent enumerated
            # ``tasks`` from.
            per_task = self.shard_pool().run_round(
                tasks, update, seminaive=delta is not None
            )
        except ShardPoolLostError as error:
            if not self.shard_fallback or env is None:
                raise
            per_task = self._finish_round_sequentially(
                error, evaluators, tasks, env, complements, delta
            )
        derived = {}
        for (index, _position), tuples in zip(tasks, per_task):
            if meter is not None and tuples:
                meter.charge_derived(len(tuples))
            if tuples:
                derived.setdefault(
                    evaluators[index].head_predicate, []
                ).extend(tuples)
        return derived

    def _finish_round_sequentially(
        self, error, evaluators, tasks, env, complements, delta
    ):
        """Complete a pool-lost round in-process: keep every per-task
        result the pool did deliver, evaluate the rest here."""
        partial = error.partial
        if partial is None:
            partial = [None] * len(tasks)
        self._shard_degrade(
            error, pending_tasks=sum(1 for result in partial if result is None)
        )
        delta_env = None
        if delta is not None:
            delta_env = {
                name: GeneralizedRelation(*self.schemas[name], tuples=tuples)
                for name, tuples in delta.items()
            }
        per_task = []
        for (index, position), done in zip(tasks, partial):
            if done is not None:
                per_task.append(done)
                continue
            evaluator = evaluators[index]
            if position is None:
                relation = evaluator.evaluate(env, complements=complements)
            else:
                relation = evaluator.evaluate(
                    env,
                    delta=delta_env,
                    delta_position=position,
                    complements=complements,
                )
            per_task.append(list(relation.tuples))
        return per_task
