"""The user-facing bottom-up engine with the paper's give-up policy.

:class:`DeductiveEngine` runs the T_GP fixpoint of Section 4.3 on a
program and a generalized EDB.  Each round it derives tuples with
every clause, discards the ones already covered (the constraint-safety
test of Theorem 4.3 applied tuple-by-tuple), and stops successfully
when a round derives nothing new.  Free-extension safety (Theorem 4.2)
is tracked for diagnostics; once the free-signature set has been
stable for ``patience`` rounds while tuples still keep arriving, the
engine gives up — exactly the policy the paper recommends ("it is
reasonable to give up on the computation if the interpretation does
not become constraint safe after a few iterations").

Beyond the paper's give-up policy the engine is resource-governed
(:mod:`repro.runtime`): a run can carry a hard
:class:`~repro.runtime.budget.EvaluationBudget` (wall-clock deadline,
round / accepted-tuple / derived-work caps, checked cooperatively every
round and every clause firing), write round-granular checkpoints that
:meth:`DeductiveEngine.run` can resume bit-identically, and degrade
gracefully: every early exit — give-up, budget, or an unexpected crash
mid-fixpoint — surfaces as a typed
:class:`~repro.util.errors.PartialResultError` carrying the queryable
partial model and the statistics accumulated so far.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional

from repro.core.evaluation import ProgramEvaluator, checked_schemas
from repro.core.safety import (
    CoverageChecker,
    coverage_test,
    is_free_extension_safe,
)
from repro.runtime.checkpoint import (
    Checkpoint,
    engine_fingerprint,
    load_checkpoint,
    write_checkpoint,
)
from repro.util import hooks
from repro.util.errors import (
    BudgetExceededError,
    CheckpointError,
    EvaluationAbortedError,
    EvaluationError,
    GiveUpError,
    PartialResultError,
)
from repro.util.hooks import fault_point

@dataclass
class EvaluationStats:
    """Bookkeeping for one engine run.

    ``rounds`` counts T_GP applications; ``new_tuples_per_round`` the
    accepted (not-covered) tuples each round; ``signature_stable_round``
    is the first round after which no new free signature appeared
    (1-based; 0 when the EDB signatures already cover everything);
    ``constraint_safe`` reports successful Theorem-4.3 termination;
    ``gave_up`` the paper's give-up exit; ``budget_exceeded`` a
    resource-budget exit.  ``resumed_from_round`` is the global round
    count restored from a checkpoint (``None`` for fresh runs) and
    ``checkpoints_written`` the number of snapshots this run persisted.

    Timing is segment-aware: ``elapsed_seconds`` accumulates across
    resume (the checkpointed run's elapsed time plus this segment's),
    ``prior_elapsed_seconds`` is the part inherited from the
    checkpoint (0.0 for fresh runs), and their difference — reported as
    ``segment_elapsed_seconds`` in :meth:`to_dict` — is the
    post-resume segment alone.

    ``maintain_degraded`` is the incremental maintainer's rung on the
    degradation ladder (:mod:`repro.edb.maintain`): ``None`` unless a
    delta batch fell back to a from-scratch recompute, in which case it
    carries the reason (schema change, rederive budget, negation) and
    the batch's delta counts; included in :meth:`to_dict` only when
    set.

    ``magic_degraded`` is the goal-directed path's rung
    (:mod:`repro.plan.magic`): ``None`` unless a query asked for the
    magic rewrite and had to fall back to the full fixpoint, in which
    case it carries the goal and the reason; included in
    :meth:`to_dict` only when set.
    """

    strategy: str = "semi-naive"
    safety_mode: str = "paper"
    strata: int = 1
    rounds: int = 0
    new_tuples_per_round: List[int] = field(default_factory=list)
    derived_tuples_per_round: List[int] = field(default_factory=list)
    signature_stable_round: Optional[int] = None
    constraint_safe: bool = False
    gave_up: bool = False
    budget_exceeded: bool = False
    free_extension_safe_checked: Optional[bool] = None
    elapsed_seconds: float = 0.0
    prior_elapsed_seconds: float = 0.0
    resumed_from_round: Optional[int] = None
    checkpoints_written: int = 0
    maintain_degraded: Optional[dict] = None
    magic_degraded: Optional[dict] = None

    def total_new_tuples(self):
        """Tuples accepted into the model across all rounds."""
        return sum(self.new_tuples_per_round)

    def to_dict(self):
        """A JSON-safe dict of every field (powers the CLI ``--json``
        report and the checkpoint format)."""
        payload = {
            "strategy": self.strategy,
            "safety_mode": self.safety_mode,
            "strata": self.strata,
            "rounds": self.rounds,
            "new_tuples_per_round": list(self.new_tuples_per_round),
            "derived_tuples_per_round": list(self.derived_tuples_per_round),
            "total_new_tuples": self.total_new_tuples(),
            "signature_stable_round": self.signature_stable_round,
            "constraint_safe": self.constraint_safe,
            "gave_up": self.gave_up,
            "budget_exceeded": self.budget_exceeded,
            "free_extension_safe_checked": self.free_extension_safe_checked,
            "elapsed_seconds": self.elapsed_seconds,
            "prior_elapsed_seconds": self.prior_elapsed_seconds,
            "segment_elapsed_seconds": max(
                0.0, self.elapsed_seconds - self.prior_elapsed_seconds
            ),
            "resumed_from_round": self.resumed_from_round,
            "checkpoints_written": self.checkpoints_written,
        }
        if self.maintain_degraded is not None:
            payload["maintain_degraded"] = dict(self.maintain_degraded)
        if self.magic_degraded is not None:
            payload["magic_degraded"] = dict(self.magic_degraded)
        return payload

    def restore_progress(self, payload):
        """Adopt the *progress* fields of a checkpointed stats dict.

        Outcome flags (``constraint_safe``, ``gave_up``, …) restart
        with the resumed run; the monotone progress counters carry
        over, and so does accumulated wall time: the checkpointed
        ``elapsed_seconds`` (itself cumulative across earlier resumes)
        becomes this run's ``prior_elapsed_seconds``, so a resumed
        run's final ``elapsed_seconds`` covers every segment instead of
        silently dropping the pre-resume work.
        """
        self.rounds = payload["rounds"]
        self.new_tuples_per_round = list(payload["new_tuples_per_round"])
        self.derived_tuples_per_round = list(payload["derived_tuples_per_round"])
        self.signature_stable_round = payload["signature_stable_round"]
        self.prior_elapsed_seconds = payload.get("elapsed_seconds", 0.0)
        self.elapsed_seconds = self.prior_elapsed_seconds


class Model:
    """The result of an engine run: the IDB relations plus stats."""

    def __init__(self, relations, stats, edb=None):
        self._relations = dict(relations)
        self.stats = stats
        self._edb = edb

    def predicates(self):
        """The intensional predicate names."""
        return sorted(self._relations)

    def relation(self, name):
        """The closed-form relation computed for ``name``."""
        return self._relations[name]

    def extension(self, name, low, high):
        """Ground tuples of ``name`` within the window ``[low, high)``."""
        return self.relation(name).extension(low, high)

    def query(self, formula):
        """Evaluate a first-order query (text or AST) over this model's
        IDB together with the EDB it was computed from — deduction once,
        querying many times (the paper's Section 1 argument)."""
        from repro.fo import evaluate_query
        from repro.gdb.database import GeneralizedDatabase

        edb = self._edb if self._edb is not None else GeneralizedDatabase()
        return evaluate_query(edb, formula, extra_relations=self._relations)

    def as_database(self):
        """The model as a :class:`GeneralizedDatabase` — the paper's
        "closed form": derived predicates become ordinary generalized
        relations that can be stored, re-parsed, and queried without
        re-running the deduction (its Section 1 argument for computing
        the explicit form "once and for all")."""
        from repro.gdb.database import GeneralizedDatabase

        db = GeneralizedDatabase()
        for name in self.predicates():
            relation = self.relation(name)
            db.declare(name, relation.temporal_arity, relation.data_arity)
            db.set_relation(name, relation)
        return db

    def equivalent(self, other):
        """Exact extension equality with another model, predicate by
        predicate — the resilience tests' oracle: a retried run that
        resumed from a checkpoint must be ``equivalent()`` to an
        uninterrupted one."""
        if self.predicates() != other.predicates():
            return False
        return all(
            self.relation(name).equivalent(other.relation(name))
            for name in self.predicates()
        )

    def __getitem__(self, name):
        return self.relation(name)

    def __contains__(self, name):
        return name in self._relations

    def __str__(self):
        chunks = []
        for name in self.predicates():
            chunks.append("%s %s" % (name, self.relation(name)))
        return "\n".join(chunks)


class DeductiveEngine:
    """Closed-form bottom-up evaluation of a deductive program.

    Parameters
    ----------
    program:
        A :class:`~repro.core.ast.Program` (see
        :func:`~repro.core.parser.parse_program`).
    edb:
        A :class:`~repro.gdb.database.GeneralizedDatabase` providing
        every extensional predicate.
    strategy:
        ``"semi-naive"`` (default) or ``"naive"``.
    safety:
        Coverage test for accepting/stopping: ``"paper"`` (Theorem 4.3,
        same-free-extension implication) or ``"semantic"`` (full
        extension containment; ablation).
    max_rounds:
        Hard iteration cap.
    patience:
        Give-up budget: extra rounds allowed after the free-signature
        set stops growing.  ``None`` disables the give-up policy (only
        ``max_rounds`` limits the run).
    evaluation:
        Clause-evaluation backend: ``"compiled"`` (default; the plan
        layer of :mod:`repro.plan`) or ``"reference"`` (the
        paper-literal product-then-select oracle).

    A run that gives up raises :class:`~repro.util.errors.GiveUpError`
    with the partial model, as budget trips and aborts raise theirs.
    Construction checks the program against ``edb``; the program is
    compiled (:attr:`evaluator`) only when the engine first needs it.

    >>> from repro.core import DeductiveEngine, parse_program
    >>> from repro.gdb import parse_database
    >>> edb = parse_database('''
    ...   relation course[2; 1] {
    ...     (168n+8, 168n+10; "database") where T2 = T1 + 2;
    ...   }''')
    >>> program = parse_program('''
    ...   problems(t1 + 2, t2 + 2; X) <- course(t1, t2; X).
    ...   problems(t1 + 48, t2 + 48; X) <- problems(t1, t2; X).
    ... ''')
    >>> model = DeductiveEngine(program, edb).run()
    >>> model.relation("problems").contains_point((10, 12), ("database",))
    True
    """

    def __init__(
        self,
        program,
        edb,
        strategy="semi-naive",
        safety="paper",
        max_rounds=500,
        patience=10,
        evaluation="compiled",
    ):
        if strategy not in ("naive", "semi-naive"):
            raise ValueError("strategy must be 'naive' or 'semi-naive'")
        self.program = program
        self.edb = edb
        self.strategy = strategy
        self.safety = safety
        self.max_rounds = max_rounds
        self.patience = patience
        self.evaluation = evaluation
        coverage_test(safety)  # validate the mode name eagerly
        checked_schemas(program, edb, evaluation)
        program.strata()  # a recursion through negation fails here too

    @cached_property
    def evaluator(self):
        """The compiled program (:class:`ProgramEvaluator`)."""
        return ProgramEvaluator(self.program, self.edb, evaluation=self.evaluation)

    # -- public API -------------------------------------------------------

    def fingerprint(self):
        """The digest checkpoints are stamped with: program text, EDB
        text, strategy, safety mode, and the compiled plans must all
        match for a resume — a plan-layer change that would alter
        derivation order invalidates old checkpoints instead of
        silently replaying differently."""
        return engine_fingerprint(
            str(self.program),
            str(self.edb),
            self.strategy,
            self.safety,
            self.evaluator.plan_fingerprint(),
        )

    def run(
        self,
        check_free_extension_safety=False,
        budget=None,
        checkpoint_every=None,
        checkpoint_path=None,
        resume_from=None,
    ):
        """Run to constraint safety, give-up, budget, or the round cap.

        With ``check_free_extension_safety`` the paper-literal
        Theorem-4.2 test is evaluated on the final interpretation and
        recorded in the stats (it costs one extra T_GP round).

        A run that gives up (``patience`` or ``max_rounds``) raises
        :class:`~repro.util.errors.GiveUpError` with the partial model
        attached.  ``budget`` is an optional
        :class:`~repro.runtime.budget.EvaluationBudget`; when a limit
        trips, :class:`~repro.util.errors.BudgetExceededError` is raised
        with the partial model attached.  ``checkpoint_every=N`` with
        ``checkpoint_path`` writes a resumable snapshot after every Nth
        round of each stratum; ``resume_from`` restores such a snapshot
        (same program, EDB, strategy, and safety mode required) and
        continues mid-stratum, replaying bit-identically to an
        uninterrupted run.  Any other exception escaping the fixpoint is
        wrapped in :class:`~repro.util.errors.EvaluationAbortedError`,
        again with the partial model attached.
        """
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ValueError("checkpoint_every must be a positive round count")
            if checkpoint_path is None:
                raise ValueError("checkpoint_every requires checkpoint_path")
        stats = EvaluationStats(strategy=self.strategy, safety_mode=self.safety)
        env = self.evaluator.initial_environment()
        resume = None
        if resume_from is not None:
            resume = load_checkpoint(resume_from)
            if resume.fingerprint != self.fingerprint():
                raise CheckpointError(
                    "checkpoint was written by a different program/EDB/"
                    "configuration (fingerprint mismatch)"
                )
            for name, relation in resume.env.items():
                if name not in self.evaluator.intensional:
                    raise CheckpointError(
                        "checkpoint carries unknown intensional predicate %r" % name
                    )
                env[name] = relation
            stats.restore_progress(resume.stats)
            stats.resumed_from_round = stats.rounds
        return self._evaluate(
            env,
            stats,
            budget,
            check_free_extension_safety=check_free_extension_safety,
            resume=resume,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
        )

    def run_goal_directed(self, goal, budget=None):
        """Evaluate goal-directedly for ``goal`` (a
        :class:`~repro.plan.magic.QueryGoal`) via the magic-set rewrite,
        falling back to the full fixpoint — with the degradation
        recorded in ``stats.magic_degraded`` — when the rewrite cannot
        apply.  Returns ``(model, info)``; see
        :func:`~repro.plan.magic.goal_directed_model`; this engine
        compiles its own program only for that fallback.
        """
        from repro.plan.magic import goal_directed_model

        return goal_directed_model(self, goal, budget=budget)

    def over(self, program, edb):
        """A new engine over ``program`` and ``edb`` with this engine's
        settings (the goal-directed path's guarded engine)."""
        return DeductiveEngine(
            program,
            edb,
            strategy=self.strategy,
            safety=self.safety,
            max_rounds=self.max_rounds,
            patience=self.patience,
            evaluation=self.evaluation,
        )

    def maintain(self, relations, delta, budget=None):
        """Continue the fixpoint from a warm intensional state instead
        of the empty one — the engine entry point of incremental
        maintenance (:mod:`repro.edb.maintain`).

        ``relations`` maps intensional predicate names to relations
        that are a *sound under-approximation* of the least fixpoint
        over this engine's (already updated) EDB: the previous
        materialization when only inserts happened, or the DRed
        survivors plus their rederived tuples after a retraction.
        ``delta`` maps predicate names — intensional **or
        extensional** — to the tuples that are new relative to a state
        closed under T_P; those tuples must already be present in the
        EDB/``relations`` (the semi-naive invariant).  The first round
        fires each clause at every body position holding a delta
        predicate (:meth:`ProgramEvaluator.seminaive_round`); later
        rounds are ordinary semi-naive rounds over the fresh tuples.
        An empty delta leaves the state as it is, after no round.  The
        rounds are :meth:`run`'s own (one loop, with its round events).

        Only single-stratum programs without negation can be grown
        from a warm state (see :meth:`warm_start_blocker`); anything
        else raises :class:`~repro.util.errors.EvaluationError`.
        Give-up, budget, and abort behavior mirror :meth:`run`.
        """
        blocker = self.warm_start_blocker()
        if blocker is not None:
            raise EvaluationError(blocker)
        stats = EvaluationStats(strategy="semi-naive", safety_mode=self.safety)
        env = self.evaluator.initial_environment()
        for name, relation in relations.items():
            if name not in self.evaluator.intensional:
                raise EvaluationError(
                    "maintained state carries unknown intensional "
                    "predicate %r" % name
                )
            env[name] = relation
        delta = {name: list(tuples) for name, tuples in delta.items() if tuples}
        if not delta:
            # Nothing changed relative to the warm state.
            stats.constraint_safe = True
            return self._partial_model(env, stats)
        return self._evaluate(env, stats, budget, delta=delta)

    def warm_start_blocker(self):
        """Why :meth:`maintain` cannot grow this program from a warm
        state, or None when it can.  Non-monotone strata would have to
        be recomputed anyway, so only single-stratum programs without
        negation qualify; the maintainer recomputes the others."""
        if self.evaluator.stratum_count() > 1:
            return (
                "incremental maintenance requires a single stratum "
                "(program has %d)" % self.evaluator.stratum_count()
            )
        for evaluator in self.evaluator.evaluators:
            if evaluator.normalized.negated_atoms:
                return (
                    "incremental maintenance cannot warm-start clauses "
                    "with negation: %s" % evaluator.normalized
                )
        return None

    def _emit_run_end(self, stats, outcome):
        if hooks.SINKS:
            hooks.emit(
                "engine.run",
                {
                    "phase": "end",
                    "outcome": outcome,
                    "rounds": stats.rounds,
                    "constraint_safe": stats.constraint_safe,
                    "elapsed_seconds": stats.elapsed_seconds,
                },
            )

    def _partial_model(self, env, stats, best_effort=False):
        """The (possibly partial) model for the current environment.

        Normalizing checks only the tuples past each relation's normal
        prefix and returns the relation itself when it drops nothing,
        so the model shares the environment's relations and stores.
        With ``best_effort`` a failure during normalization (a fault
        plan can fire inside it) degrades to the raw relations instead
        of propagating — used when the model rides on an error that
        must not be displaced."""
        try:
            relations = {
                name: env[name].normalize() for name in self.evaluator.intensional
            }
        except Exception:
            if not best_effort:
                raise
            relations = {
                name: env[name] for name in self.evaluator.intensional
            }
        return Model(relations, stats, edb=self.edb)

    def _evaluate(self, env, stats, budget, check_free_extension_safety=False, **state):
        """Drain :meth:`_rounds` from ``env`` into a model: the one exit
        path of :meth:`run` and :meth:`maintain`.  ``state`` seeds the
        loop (a checkpoint to resume, a warm delta, checkpointing)."""
        started = time.perf_counter()
        meter = budget.start() if budget is not None else None
        if hooks.SINKS:
            hooks.emit(
                "engine.run",
                {
                    "phase": "begin",
                    "strategy": stats.strategy,
                    "safety": self.safety,
                    "strata": self.evaluator.stratum_count(),
                    "resumed_from_round": stats.resumed_from_round,
                },
            )
        try:
            for _ in self._rounds(
                env, stats, self.max_rounds, self.patience, meter, started, **state
            ):
                pass
        except BudgetExceededError as error:
            stats.budget_exceeded = True
            stats.elapsed_seconds = stats.prior_elapsed_seconds + (
                time.perf_counter() - started
            )
            error.partial_model = self._partial_model(env, stats)
            error.stats = stats
            self._emit_run_end(stats, "budget-exceeded")
            raise
        except PartialResultError:
            self._emit_run_end(stats, "aborted")
            raise
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as error:
            stats.elapsed_seconds = stats.prior_elapsed_seconds + (
                time.perf_counter() - started
            )
            self._emit_run_end(stats, "aborted")
            raise EvaluationAbortedError(
                "evaluation aborted during round %d: %s" % (stats.rounds, error),
                partial_model=self._partial_model(env, stats, best_effort=True),
                stats=stats,
            ) from error

        stats.elapsed_seconds = stats.prior_elapsed_seconds + (
            time.perf_counter() - started
        )

        if check_free_extension_safety:
            # Theorem 4.2 describes the one-step T_GP chain; a model
            # whose shift chains were closed at acceptance has skipped
            # it, so the test does not apply (None).
            stats.free_extension_safe_checked = (
                None
                if self.evaluator.shifts
                else is_free_extension_safe(self.evaluator, env)
            )

        self._emit_run_end(stats, "gave-up" if stats.gave_up else "ok")
        try:
            model = self._partial_model(env, stats)
        except (KeyboardInterrupt, SystemExit, PartialResultError):
            raise
        except Exception as error:
            # A fault during final normalization (e.g. an injected
            # dbm_canonicalize fault whose hit count lands here) gets
            # the same typed wrapping as one during the rounds.
            raise EvaluationAbortedError(
                "evaluation aborted while finalizing the model: %s" % error,
                partial_model=self._partial_model(env, stats, best_effort=True),
                stats=stats,
            ) from error
        if stats.gave_up:
            raise GiveUpError(
                "bottom-up evaluation did not reach constraint safety "
                "within its budget (%d rounds, free signatures stable "
                "since round %d)" % (stats.rounds, stats.signature_stable_round),
                partial_model=model,
                stats=stats,
            )
        return model

    def _rounds(
        self,
        env,
        stats,
        max_rounds,
        patience,
        meter=None,
        started=None,
        resume=None,
        delta=None,
        checkpoint_every=None,
        checkpoint_path=None,
    ):
        """The T_GP fixpoint, stratum by stratum: yields each round's
        accepted tuples ``{predicate: [tuples]}`` (productive rounds
        only) and grows ``env`` and ``stats`` in place.  Ends with
        ``stats.constraint_safe`` once every stratum closes, or with
        ``stats.gave_up`` when a stratum hits ``max_rounds`` or
        ``patience`` rounds pass without a new free signature (``None``
        disables the give-up).  This is the engine's only round loop:
        :meth:`run` and :meth:`maintain` drain it, :meth:`trace`
        re-yields it.

        ``stats.strategy`` picks naive or semi-naive rounds.  A
        ``resume`` checkpoint restarts mid-stratum; a ``delta`` seeds
        the first round's delta (the maintainer's warm start, at any
        body position); ``started`` is the run's
        :func:`time.perf_counter` origin, so checkpoints carry live
        elapsed time."""
        checker = CoverageChecker(self.safety, self.evaluator.shifts)
        strata = self.evaluator.stratum_evaluators
        stats.strata = len(strata)
        stratum_index = 0 if resume is None else resume.stratum_index
        while stratum_index < len(strata):
            evaluators = strata[stratum_index]
            if meter is not None:
                # Deadline-only check at the stratum boundary (no
                # budget.charge event).
                meter.tick_stratum()
            if hooks.SINKS:
                hooks.emit(
                    "engine.stratum",
                    {
                        "phase": "begin",
                        "stratum": stratum_index,
                        "clauses": len(evaluators),
                    },
                )
            if resume is not None:
                complements = dict(resume.complements)
                delta = None if resume.delta is None else dict(resume.delta)
                rounds_done = resume.rounds_in_stratum
                last_growth = resume.last_growth
                resume = None
            else:
                complements = self.evaluator.complements_for(evaluators, env)
                rounds_done = 0
                last_growth = stats.rounds
            closed = False
            while rounds_done < max_rounds:
                # Checked before the round, not after it, so a run
                # resumed from the checkpoint of the round that ran out
                # of patience gives up there too.
                if patience is not None and stats.rounds - last_growth >= patience:
                    break
                rounds_done += 1
                stats.rounds += 1
                observing = bool(hooks.SINKS)
                if observing:
                    round_started = time.perf_counter()
                    hooks.emit(
                        "engine.round",
                        {
                            "phase": "begin",
                            "round": stats.rounds,
                            "stratum": stratum_index,
                            "strategy": stats.strategy,
                        },
                    )
                fault_point("round")
                if meter is not None:
                    meter.charge_round()
                if stats.strategy != "naive" and delta is not None:
                    derived = self.evaluator.seminaive_round(
                        env, delta, evaluators=evaluators,
                        complements=complements, meter=meter,
                    )
                else:
                    derived = self.evaluator.naive_round(
                        env, evaluators=evaluators, complements=complements,
                        meter=meter,
                    )
                stats.derived_tuples_per_round.append(
                    sum(len(ts) for ts in derived.values())
                )

                if observing:
                    cache_hits, cache_misses = checker.hits, checker.misses
                fresh = checker.sweep(derived, env)

                accepted = sum(len(ts) for ts in fresh.values())
                stats.new_tuples_per_round.append(accepted)
                if observing:
                    hooks.emit(
                        "coverage.cache",
                        {
                            "round": stats.rounds,
                            "stratum": stratum_index,
                            "hits": checker.hits - cache_hits,
                            "misses": checker.misses - cache_misses,
                        },
                    )
                    hooks.emit(
                        "engine.round",
                        {
                            "phase": "end",
                            "round": stats.rounds,
                            "stratum": stratum_index,
                            "derived": stats.derived_tuples_per_round[-1],
                            "accepted": accepted,
                            "duration_s": time.perf_counter() - round_started,
                        },
                    )

                if not fresh:
                    closed = True
                    break

                # The free signatures grew exactly when an accepted
                # tuple's signature is missing from its relation's
                # signature index before the append.
                grew_signatures = False
                for predicate, tuples in fresh.items():
                    relation = env[predicate]
                    if not grew_signatures:
                        grew_signatures = any(
                            not relation.tuples_with_signature_id(gt.kernel_ids()[1])
                            for gt in tuples
                        )
                    env[predicate] = relation.with_tuples(tuples)
                if grew_signatures:
                    last_growth = stats.rounds
                delta = fresh

                if meter is not None:
                    meter.charge_accepted(accepted)

                if checkpoint_every is not None and rounds_done % checkpoint_every == 0:
                    # Checkpoints must carry live cumulative elapsed
                    # time: restore_progress turns it into the resumed
                    # run's prior_elapsed_seconds.
                    stats.elapsed_seconds = stats.prior_elapsed_seconds + (
                        time.perf_counter() - started
                    )
                    write_checkpoint(
                        checkpoint_path,
                        Checkpoint(
                            fingerprint=self.fingerprint(),
                            stratum_index=stratum_index,
                            rounds_in_stratum=rounds_done,
                            last_growth=last_growth,
                            env={
                                name: env[name]
                                for name in self.evaluator.intensional
                            },
                            stats=stats.to_dict(),
                            delta=delta,
                            complements=complements,
                        ),
                    )
                    stats.checkpoints_written += 1

                yield fresh
            stats.signature_stable_round = last_growth
            if hooks.SINKS:
                hooks.emit(
                    "engine.stratum",
                    {
                        "phase": "end",
                        "stratum": stratum_index,
                        "closed": closed,
                        "rounds": stats.rounds,
                    },
                )
            if not closed:
                stats.gave_up = True
                return
            stratum_index += 1
            delta = None
        stats.constraint_safe = True

    def trace(self, max_rounds=None, budget=None):
        """Yield ``(round_number, {predicate: [accepted tuples]})`` for
        each productive round of a naive run — the form in which the
        paper prints the Example 4.1 computation.  The rounds are
        :meth:`run`'s own loop, lazily: naive strategy, no give-up, and
        a cap of ``max_rounds`` (default: the engine's) per stratum; the
        trace ends where such a run ends.  An optional ``budget`` is
        charged per round and clause firing, raising
        :class:`~repro.util.errors.BudgetExceededError` (without a
        partial model — the tuples already yielded are the partial
        result)."""
        stats = EvaluationStats(strategy="naive", safety_mode=self.safety)
        meter = budget.start() if budget is not None else None
        env = self.evaluator.initial_environment()
        for fresh in self._rounds(
            env, stats, max_rounds or self.max_rounds, None, meter
        ):
            yield stats.rounds, fresh
