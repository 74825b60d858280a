"""Hard resource budgets for the fixpoint loops.

The paper's own termination story is partial: Theorem 4.2 guarantees
free-extension safety is reached, but constraint safety "may never
hold", and Section 4.3 recommends giving up after a few iterations.
The give-up policy (patience on the free-signature set) is one budget;
this module supplies the rest — wall-clock deadlines and caps on
rounds, accepted tuples, and derived-tuple work — checked cooperatively
at every round boundary and every clause firing, so a pathological
program can never hold the process hostage.

An :class:`EvaluationBudget` is immutable configuration; calling
:meth:`~EvaluationBudget.start` produces a :class:`BudgetMeter` that
accumulates charges for one run and raises
:class:`~repro.util.errors.BudgetExceededError` the moment a limit
trips.  The engine catches the error at the top of its loop, attaches
the partial model, and re-raises — callers always get a typed error
with a queryable partial result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.util import hooks
from repro.util.errors import BudgetExceededError


@dataclass(frozen=True)
class EvaluationBudget:
    """Limits for one evaluation run; ``None`` disables a dimension.

    ``deadline_seconds``
        Wall-clock ceiling for the whole run, checked at round
        boundaries and before every clause firing.
    ``max_rounds``
        Cap on fixpoint rounds (T_GP applications across all strata,
        or time slices / fixpoint passes for the Datalog1S evaluators).
    ``max_tuples``
        Cap on tuples *accepted* into the interpretation.
    ``max_derived``
        Cap on total derived-tuple work, counting every tuple a clause
        produces before coverage filtering — the measure of effort on
        programs that keep re-deriving covered tuples.

    >>> EvaluationBudget(max_rounds=10).limited()
    True
    >>> EvaluationBudget().limited()
    False
    """

    deadline_seconds: Optional[float] = None
    max_rounds: Optional[int] = None
    max_tuples: Optional[int] = None
    max_derived: Optional[int] = None

    def __post_init__(self):
        for name in ("deadline_seconds", "max_rounds", "max_tuples", "max_derived"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError("%s must be non-negative, got %r" % (name, value))

    def limited(self):
        """True when at least one dimension is constrained."""
        return any(
            value is not None
            for value in (
                self.deadline_seconds,
                self.max_rounds,
                self.max_tuples,
                self.max_derived,
            )
        )

    def start(self, clock=None):
        """A fresh :class:`BudgetMeter` charging against this budget."""
        return BudgetMeter(self, clock=clock)


class BudgetMeter:
    """Mutable per-run accountant for an :class:`EvaluationBudget`.

    The fixpoint loops call the ``charge_*`` methods as work happens;
    any method may raise :class:`BudgetExceededError` (without a
    partial model — the engine attaches it where the environment is in
    scope).  ``clock`` is injectable for tests.
    """

    def __init__(self, budget, clock=None):
        self.budget = budget
        self._clock = clock or time.monotonic
        self.started_at = self._clock()
        self.rounds = 0
        self.accepted = 0
        self.derived = 0

    def elapsed(self):
        """Wall-clock seconds since the meter started."""
        return self._clock() - self.started_at

    def check_deadline(self, site="evaluation"):
        """Raise when the wall-clock deadline has passed."""
        deadline = self.budget.deadline_seconds
        if deadline is not None and self.elapsed() > deadline:
            raise BudgetExceededError(
                "wall-clock deadline of %gs exceeded at %s (%.3fs elapsed)"
                % (deadline, site, self.elapsed()),
                limit="deadline_seconds",
            )

    def _emit_charge(self, dimension, amount, total, limit):
        if hooks.SINKS:
            hooks.emit(
                "budget.charge",
                {
                    "dimension": dimension,
                    "amount": amount,
                    "total": total,
                    "limit": limit,
                },
            )

    def charge_round(self):
        """Account for one fixpoint round starting."""
        self.rounds += 1
        limit = self.budget.max_rounds
        self._emit_charge("rounds", 1, self.rounds, limit)
        if limit is not None and self.rounds > limit:
            raise BudgetExceededError(
                "round budget of %d exceeded" % limit, limit="max_rounds"
            )
        self.check_deadline("round boundary")

    def charge_derived(self, count=1):
        """Account for ``count`` tuples derived by clause firings."""
        self.derived += count
        limit = self.budget.max_derived
        self._emit_charge("derived", count, self.derived, limit)
        if limit is not None and self.derived > limit:
            raise BudgetExceededError(
                "derived-tuple work budget of %d exceeded (%d derived)"
                % (limit, self.derived),
                limit="max_derived",
            )

    def charge_accepted(self, count=1):
        """Account for ``count`` tuples accepted into the model."""
        self.accepted += count
        limit = self.budget.max_tuples
        self._emit_charge("accepted", count, self.accepted, limit)
        if limit is not None and self.accepted > limit:
            raise BudgetExceededError(
                "accepted-tuple budget of %d exceeded (%d accepted)"
                % (limit, self.accepted),
                limit="max_tuples",
            )

    def tick_clause(self):
        """Cheap per-clause-firing check (deadline only)."""
        self.check_deadline("clause firing")

    def tick_stratum(self):
        """Deadline-only check at a stratum boundary.  Emits no
        ``budget.charge`` event."""
        self.check_deadline("stratum boundary")

    def snapshot(self):
        """The meter's counters as a plain dict (for run reports)."""
        return {
            "rounds": self.rounds,
            "accepted": self.accepted,
            "derived": self.derived,
            "elapsed_seconds": self.elapsed(),
        }
