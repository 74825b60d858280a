"""One attempt of one job: the front door every evaluation goes through.

The executor is the bridge between a :class:`~repro.service.jobs.JobSpec`
and the library's front ends.  The query service's workers and the
CLI's evaluating commands (``run``, ``query``, ``asof``, ``datalog1s``,
``templog``, ``txn apply --maintain``) both run their evaluations
through :meth:`JobExecutor.execute`.  It is deliberately *policy-free*:
it runs exactly one attempt with the backend, budget and checkpoint
files its caller passes in, and returns an :class:`AttemptOutcome`.
:func:`attempt` is the one place where a give-up, a budget trip or an
abort becomes an outcome; every other failure propagates for the caller
to classify (the worker pool retries, degrades or fails the job; the
CLI reports an error).

What differs between callers is an argument of the call, never a mode:
the pool checkpoints ``run`` attempts into its work directory and
resumes from the last committed snapshot (dropping a corrupt one), the
CLI passes the user's ``--checkpoint``/``--resume-from`` files, an
as-of snapshot EDB, a goal, or its open store.

Program and EDB texts are parsed through :func:`repro.plan.memo.parsed`:
a job that resends a text the process has seen reuses the parsed
objects, which every job and worker thread shares read-only (the
goal-directed path copies the EDB before adding demand relations).
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Optional

from repro.core import DeductiveEngine, parse_program
from repro.datalog1s import minimal_model, parse_datalog1s
from repro.fo import evaluate_query
from repro.gdb import parse_database
from repro.plan import memo
from repro.templog import parse_templog, templog_minimal_model
from repro.util.errors import (
    BudgetExceededError,
    EvaluationAbortedError,
    GiveUpError,
    SchemaError,
)
from repro.util.sorting import typed_sort_key

#: Backend labels reported per job kind.
BACKEND_COMPILED = "compiled"
BACKEND_REFERENCE = "reference"
BACKEND_CLOSED_FORM = "closed-form"
BACKEND_FO = "fo"

#: The outcome each typed early exit of an evaluation maps to.
EARLY_EXITS = {
    GiveUpError: "gave-up",
    BudgetExceededError: "budget-exceeded",
    EvaluationAbortedError: "aborted",
}


@dataclass
class AttemptOutcome:
    """How one attempt ended.

    ``outcome`` is ``"ok"``, ``"gave-up"``, ``"budget-exceeded"`` or
    ``"aborted"``; the last three carry the typed ``error`` and the
    partial ``model`` it held.  ``resumed`` reports whether this attempt
    continued from a checkpoint.  ``model`` is kept as computed (a
    deductive model, query answers, or a closed-form model); its text is
    rendered only when read (the CLI's renderers,
    :attr:`repro.service.jobs.JobResult.model_text`).
    """

    outcome: str
    backend: str
    model: Optional[object] = None
    stats: Optional[dict] = None
    error: Optional[BaseException] = None
    resumed: bool = False
    window: Optional[dict] = None
    #: The magic-set rewrite summary of a goal-directed evaluation that
    #: completed.  ``magic["degraded"]`` marks the fall back to the full
    #: fixpoint (the "magic → full" rung): the result is still exact, so
    #: the attempt completes and the pool annotates the job's
    #: degradation ladder instead of burning a retry.
    magic: Optional[dict] = None


def attempt(backend, evaluate):
    """Run ``evaluate()``, which returns ``(model, magic)``, and map how
    it ended to an :class:`AttemptOutcome`.

    This is the one place where a :class:`GiveUpError`,
    :class:`BudgetExceededError` or :class:`EvaluationAbortedError`
    becomes an outcome, carrying the partial model and the statistics
    the error holds.  Any other exception propagates.
    """
    error = magic = None
    try:
        model, magic = evaluate()
    except tuple(EARLY_EXITS) as stopped:
        error, model = stopped, stopped.partial_model
    stats = getattr(model if error is None else error, "stats", None)
    return AttemptOutcome(
        outcome="ok" if error is None else EARLY_EXITS[type(error)],
        backend=backend,
        model=model,
        stats=None if stats is None else stats.to_dict(),
        error=error,
        resumed=stats is not None and stats.resumed_from_round is not None,
        magic=magic,
    )


class JobExecutor:
    """Runs single attempts; owns the service's per-job checkpoint files."""

    def __init__(self, work_dir=None):
        self.work_dir = work_dir

    def checkpoint_path(self, spec):
        """Where the service checkpoints ``run`` attempts of this job
        (``None`` when checkpointing is disabled)."""
        if self.work_dir is None or spec.kind != "run":
            return None
        return os.path.join(self.work_dir, "%s.ckpt.json" % spec.job_id)

    def discard_checkpoint(self, spec):
        """Remove any leftover checkpoint before a job's first attempt
        (a stale file from an earlier batch must not seed this run)."""
        path = self.checkpoint_path(spec)
        if path is not None and os.path.exists(path):
            os.unlink(path)

    def execute(
        self,
        spec,
        backend,
        budget=None,
        checkpoint_path=None,
        checkpoint_every=None,
        resume_from=None,
        edb=None,
        goal=None,
        store=None,
        maintainer=None,
    ):
        """Run one attempt of ``spec`` on ``backend`` under ``budget`` (an
        :class:`~repro.runtime.budget.EvaluationBudget` or ``None``) and
        return its :class:`AttemptOutcome`.

        ``run`` attempts write a checkpoint to ``checkpoint_path`` every
        ``checkpoint_every`` rounds and resume from ``resume_from``;
        ``edb`` stands in for the parsed ``spec.edb`` (an as-of
        snapshot); a ``goal`` (:class:`~repro.plan.magic.QueryGoal`)
        makes the attempt goal-directed.  ``maintain`` attempts refresh
        ``maintainer`` (default: the process-cached one for the spec)
        over ``store`` (default: the spec's store, opened for the
        attempt).
        """
        if spec.kind == "run":
            engine = self._engine(spec, backend, edb)
            if goal is not None:
                evaluate = lambda: engine.run_goal_directed(goal, budget=budget)
            else:
                evaluate = lambda: (
                    engine.run(
                        budget=budget,
                        checkpoint_every=checkpoint_every,
                        checkpoint_path=checkpoint_path,
                        resume_from=resume_from,
                    ),
                    None,
                )
            result = attempt(backend, evaluate)
        elif spec.kind == "query":
            result = self._run_query(spec, backend, budget)
        elif spec.kind == "maintain":
            result = self._run_maintain(spec, backend, budget, store, maintainer)
        else:
            result = self._run_periodic(spec, budget)
        result.window = _window(spec, result.model)
        return result

    # -- per-kind attempts ------------------------------------------------

    def _engine(self, spec, backend, edb=None):
        program = memo.parsed("program", spec.program, parse_program)
        if edb is None:
            edb = memo.parsed("edb", spec.edb, parse_database)
        return DeductiveEngine(
            program,
            edb,
            strategy=spec.strategy,
            patience=spec.patience,
            evaluation=backend,
        )

    def _run_query(self, spec, backend, budget):
        db = memo.parsed("edb", spec.edb, parse_database)
        if not spec.program:
            return attempt(
                BACKEND_FO,
                lambda: (evaluate_query(db, spec.query, budget=budget), None),
            )
        from repro.plan.magic import goal_from_formula

        engine = self._engine(spec, backend, db)

        def evaluate():
            if not spec.goal_directed:
                return engine.run(budget=budget), None
            goal, reason = goal_from_formula(
                spec.query,
                engine.program.intensional_predicates(),
                window=spec.window,
            )
            if goal is not None:
                return engine.run_goal_directed(goal, budget=budget)
            model = engine.run(budget=budget)
            model.stats.magic_degraded = {"reason": reason}
            return model, {"degraded": True, "reason": reason}

        result = attempt(backend, evaluate)
        if result.outcome in ("ok", "gave-up"):
            result.model = result.model.query(spec.query)
        return result

    def _run_maintain(self, spec, backend, budget, store, maintainer):
        # Imported here so the service layer stays importable without
        # the edb subsystem loaded for jobs that never use it.
        from repro.edb import MAINTAINERS, EdbStore

        if maintainer is None:
            maintainer = MAINTAINERS.get(spec.store, spec.program, evaluation=backend)
        if store is None:
            opened = contextlib.closing(EdbStore(spec.store))
        else:
            opened = contextlib.nullcontext(store)
        with opened as store:
            return attempt(
                backend, lambda: (maintainer.refresh(store, budget=budget), None)
            )

    def _run_periodic(self, spec, budget):
        if spec.kind == "datalog1s":
            program, evaluate = parse_datalog1s(spec.program), minimal_model
        else:
            program, evaluate = parse_templog(spec.program), templog_minimal_model
        return attempt(
            BACKEND_CLOSED_FORM, lambda: (evaluate(program, budget=budget), None)
        )


def _rows(flats):
    return sorted([list(flat) for flat in flats], key=typed_sort_key)


def _window(spec, model):
    """The ground rows of ``model`` within the job's window: the
    answers' tuples, or each predicate's tuples of a deductive model."""
    if spec.window is None or not hasattr(model, "extension"):
        return None
    low, high = spec.window
    if not hasattr(model, "predicates"):
        return {"low": low, "high": high, "tuples": _rows(model.extension(low, high))}
    try:
        predicates = {
            name: _rows(model.extension(name, low, high))
            for name in model.predicates()
        }
    except (SchemaError, AttributeError, KeyError, TypeError):
        # Windowing is a best-effort decoration of the outcome: a
        # partial model missing a predicate or carrying an
        # unexpected shape must not fail the attempt.  Anything
        # else — WalCorruptError, injected faults — propagates so
        # the pool's classifier (and the chaos tests watching it)
        # sees the typed error with its cause chain intact.
        return None
    return {"low": low, "high": high, "predicates": predicates}
