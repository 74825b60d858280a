"""One attempt of one job, under a remaining-time budget.

The executor is the bridge between a :class:`~repro.service.jobs.JobSpec`
and the library's four front ends.  It is deliberately *policy-free*:
it runs exactly one attempt with the backend it is told to use and the
wall-clock that is still left, and either returns an
:class:`AttemptOutcome` (complete, gave-up, or deadline-degraded
partial — all healthy terminal shapes) or lets the failure propagate
for the worker pool to classify (retry / degrade / fail fast).

For ``run`` jobs every attempt writes round-granular checkpoints to
the job's own file under the service work directory, and a later
attempt resumes from the last committed snapshot instead of
restarting from round 0 — the engine's fingerprint check plus the
atomic+durable :func:`~repro.runtime.checkpoint.write_checkpoint`
make that safe even when the previous attempt died mid-write.  A
corrupt or mismatched checkpoint falls back to a fresh start rather
than failing the attempt.

Program and EDB texts are parsed through :func:`repro.plan.memo.parsed`:
a job that resends a text the process has seen reuses the parsed
objects, which every job and worker thread shares read-only (the
goal-directed path copies the EDB before adding demand relations).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.core import DeductiveEngine, parse_program
from repro.datalog1s import minimal_model, parse_datalog1s
from repro.fo import evaluate_query
from repro.gdb import parse_database
from repro.plan import memo
from repro.runtime.budget import EvaluationBudget
from repro.templog import parse_templog, templog_minimal_model
from repro.util.errors import BudgetExceededError, CheckpointError, SchemaError
from repro.util.sorting import typed_sort_key

#: Backend labels reported per job kind.
BACKEND_COMPILED = "compiled"
BACKEND_REFERENCE = "reference"
BACKEND_CLOSED_FORM = "closed-form"
BACKEND_FO = "fo"


@dataclass
class AttemptOutcome:
    """A healthy terminal result of one attempt.

    ``outcome`` is ``"ok"``, ``"gave-up"``, or ``"budget-exceeded"``
    (the latter two map to the ``partial`` job state); ``resumed``
    reports whether this attempt continued from a checkpoint.
    ``model`` is kept as computed; the job report renders its text
    only when it is read (:attr:`repro.service.jobs.JobResult.model_text`).
    """

    outcome: str
    backend: str
    model: Optional[object] = None
    stats: Optional[dict] = None
    error: Optional[BaseException] = None
    resumed: bool = False
    window: Optional[dict] = None
    #: True when a goal-directed query attempt fell back to the full
    #: fixpoint (the "magic → full" rung): the result is still exact,
    #: so the attempt completes and the pool annotates the job's
    #: degradation ladder instead of burning a retry.
    magic_degraded: bool = False


#: A ``run`` attempt checkpoints after every round, so a retry loses
#: at most one round of work.
CHECKPOINT_EVERY = 1


class JobExecutor:
    """Runs single attempts; owns the per-job checkpoint files."""

    def __init__(self, work_dir=None):
        self.work_dir = work_dir

    def checkpoint_path(self, spec):
        """Where ``run`` attempts for this job checkpoint (``None``
        when checkpointing is disabled)."""
        if self.work_dir is None or spec.kind != "run":
            return None
        return os.path.join(self.work_dir, "%s.ckpt.json" % spec.job_id)

    def discard_checkpoint(self, spec):
        """Remove any leftover checkpoint before a job's first attempt
        (a stale file from an earlier batch must not seed this run)."""
        path = self.checkpoint_path(spec)
        if path is not None and os.path.exists(path):
            os.unlink(path)

    def execute(self, spec, backend, remaining_seconds=None):
        """Run one attempt of ``spec``; raises on retryable/permanent
        failures, returns an :class:`AttemptOutcome` otherwise."""
        budget = self._budget(spec, remaining_seconds)
        if spec.kind == "run":
            return self._run_deductive(spec, backend, budget)
        if spec.kind == "query":
            return self._run_query(spec, budget)
        if spec.kind == "maintain":
            return self._run_maintain(spec, backend, budget)
        return self._run_periodic(spec, budget)

    # -- per-kind attempts ------------------------------------------------

    def _budget(self, spec, remaining_seconds):
        budget = EvaluationBudget(
            deadline_seconds=remaining_seconds, max_rounds=spec.max_rounds
        )
        return budget if budget.limited() else None

    def _run_deductive(self, spec, backend, budget):
        program = memo.parsed("program", spec.program, parse_program)
        edb = memo.parsed("edb", spec.edb, parse_database)
        engine = DeductiveEngine(
            program,
            edb,
            strategy=spec.strategy,
            patience=spec.patience,
            on_give_up="partial",
            evaluation=backend,
        )
        path = self.checkpoint_path(spec)
        resume_from = path if path is not None and os.path.exists(path) else None
        run_kwargs = {
            "budget": budget,
            "checkpoint_every": CHECKPOINT_EVERY if path else None,
            "checkpoint_path": path,
        }
        try:
            try:
                model = engine.run(resume_from=resume_from, **run_kwargs)
            except CheckpointError:
                # A corrupt/mismatched checkpoint must not fail the job:
                # drop it and restart this attempt from round 0.
                if resume_from is not None and os.path.exists(resume_from):
                    os.unlink(resume_from)
                resume_from = None
                model = engine.run(resume_from=None, **run_kwargs)
        except BudgetExceededError as error:
            return self._budget_outcome(spec, backend, error)
        outcome = "gave-up" if model.stats.gave_up else "ok"
        return AttemptOutcome(
            outcome=outcome,
            backend=backend,
            model=model,
            stats=model.stats.to_dict(),
            resumed=model.stats.resumed_from_round is not None,
            window=self._model_window(spec, model),
        )

    def _run_query(self, spec, budget):
        db = memo.parsed("edb", spec.edb, parse_database)
        outcome = "ok"
        stats = None
        backend = BACKEND_FO
        magic_degraded = False
        if spec.program:
            from repro.plan.magic import goal_from_formula

            program = memo.parsed("program", spec.program, parse_program)
            engine = DeductiveEngine(
                program,
                db,
                strategy=spec.strategy,
                patience=spec.patience,
                on_give_up="partial",
            )
            backend = BACKEND_COMPILED
            try:
                if spec.goal_directed:
                    goal, reason = goal_from_formula(
                        spec.query,
                        program.intensional_predicates(),
                        window=spec.window,
                    )
                    if goal is None:
                        model = engine.run(budget=budget)
                        model.stats.magic_degraded = {"reason": reason}
                        magic_degraded = True
                    else:
                        model, info = engine.run_goal_directed(
                            goal, budget=budget
                        )
                        magic_degraded = bool(info.get("degraded"))
                else:
                    model = engine.run(budget=budget)
            except BudgetExceededError as error:
                return self._budget_outcome(spec, backend, error)
            if model.stats.gave_up:
                outcome = "gave-up"
            stats = model.stats.to_dict()
            answers = model.query(spec.query)
        else:
            try:
                answers = evaluate_query(db, spec.query, budget=budget)
            except BudgetExceededError as error:
                return self._budget_outcome(spec, BACKEND_FO, error)
        window = None
        if spec.window is not None:
            low, high = spec.window
            window = {
                "low": low,
                "high": high,
                "tuples": sorted(
                    [list(flat) for flat in answers.extension(low, high)],
                    key=typed_sort_key,
                ),
            }
        return AttemptOutcome(
            outcome=outcome,
            backend=backend,
            model=answers,
            stats=stats,
            window=window,
            magic_degraded=magic_degraded,
        )

    def _run_maintain(self, spec, backend, budget):
        # Imported here so the service layer stays importable without
        # the edb subsystem loaded for jobs that never use it.
        from repro.edb import MAINTAINERS, EdbStore

        maintainer = MAINTAINERS.get(spec.store, spec.program, evaluation=backend)
        store = EdbStore(spec.store)
        try:
            try:
                model = maintainer.refresh(store, budget=budget)
            except BudgetExceededError as error:
                return self._budget_outcome(spec, backend, error)
        finally:
            store.close()
        outcome = "gave-up" if model.stats.gave_up else "ok"
        return AttemptOutcome(
            outcome=outcome,
            backend=backend,
            model=model,
            stats=model.stats.to_dict(),
            window=self._model_window(spec, model),
        )

    def _run_periodic(self, spec, budget):
        if spec.kind == "datalog1s":
            program = parse_datalog1s(spec.program)
            evaluate = minimal_model
        else:
            program = parse_templog(spec.program)
            evaluate = templog_minimal_model
        try:
            model = evaluate(program, budget=budget)
        except BudgetExceededError as error:
            return self._budget_outcome(spec, BACKEND_CLOSED_FORM, error)
        return AttemptOutcome(
            outcome="ok",
            backend=BACKEND_CLOSED_FORM,
            model=model,
        )

    # -- shared shapes ----------------------------------------------------

    def _budget_outcome(self, spec, backend, error):
        """Deadline rung of the degradation ladder: the typed partial
        model the evaluation carried out of the budget trip."""
        model = error.partial_model
        stats = getattr(error, "stats", None)
        if stats is not None and hasattr(stats, "to_dict"):
            stats = stats.to_dict()
        resumed = False
        if isinstance(stats, dict):
            resumed = stats.get("resumed_from_round") is not None
        return AttemptOutcome(
            outcome="budget-exceeded",
            backend=backend,
            model=model,
            stats=stats,
            error=error,
            resumed=resumed,
            window=self._model_window(spec, model),
        )

    def _model_window(self, spec, model):
        if spec.window is None or model is None or not hasattr(model, "extension"):
            return None
        low, high = spec.window
        window = {"low": low, "high": high, "predicates": {}}
        try:
            for name in model.predicates():
                window["predicates"][name] = sorted(
                    [list(flat) for flat in model.extension(name, low, high)],
                    key=typed_sort_key,
                )
        except (SchemaError, AttributeError, KeyError, TypeError):
            # Windowing is a best-effort decoration of the outcome: a
            # partial model missing a predicate or carrying an
            # unexpected shape must not fail the attempt.  Anything
            # else — WalCorruptError, injected faults — propagates so
            # the pool's classifier (and the chaos tests watching it)
            # sees the typed error with its cause chain intact.
            return None
        return window
