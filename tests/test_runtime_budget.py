"""Resource budgets: every dimension trips as a typed
``BudgetExceededError`` whose partial model stays queryable."""

import pytest

from repro.core import DeductiveEngine, parse_program
from repro.datalog1s import minimal_model, parse_datalog1s
from repro.gdb import parse_database
from repro.runtime.budget import EvaluationBudget
from repro.templog import parse_templog, templog_minimal_model
from repro.templog.query import parse_goal, yes_no
from repro.util.errors import (
    BudgetExceededError,
    PartialResultError,
    ReproError,
)

EDB = """
relation course[2; 1] {
  (168n+8, 168n+10; "database") where T2 = T1 + 2;
}
relation zero[2; 0] { (n, n) where T1 = 0 & T2 = 0; }
"""

# Example 4.1 of the paper: terminates at constraint safety.
PROGRAM = """
problems(t1 + 2, t2 + 2; X) <- course(t1, t2; X).
problems(t1 + 48, t2 + 48; X) <- problems(t1, t2; X).
"""

# Diverging program (E7's unary arithmetic, t2 = 2 * t1): never
# becomes constraint safe.
DIVERGING = """
double(t1, t2) <- zero(t1, t2).
double(t1 + 1, t2 + 2) <- double(t1, t2).
"""

D1S = """
train(5; liege).
train(t + 40; liege) <- train(t; liege).
"""

TEMPLOG = """
next^5 go.
always (next^40 go <- go).
"""


def make_engine(program_text=PROGRAM, **kwargs):
    return DeductiveEngine(
        parse_program(program_text), parse_database(EDB), **kwargs
    )


class TestBudgetConfig:
    def test_unlimited(self):
        assert not EvaluationBudget().limited()
        assert EvaluationBudget(max_rounds=1).limited()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            EvaluationBudget(deadline_seconds=-1)
        with pytest.raises(ValueError):
            EvaluationBudget(max_rounds=-3)

    def test_meter_deadline_fake_clock(self):
        ticks = iter([0.0, 0.5, 1.5, 1.5])
        meter = EvaluationBudget(deadline_seconds=1.0).start(
            clock=lambda: next(ticks)
        )
        meter.check_deadline()  # 0.5s elapsed: fine
        with pytest.raises(BudgetExceededError) as info:
            meter.check_deadline()  # 1.5s elapsed
        assert info.value.limit == "deadline_seconds"

    def test_meter_counters_and_snapshot(self):
        meter = EvaluationBudget(max_derived=5).start(clock=lambda: 0.0)
        meter.charge_derived(3)
        meter.charge_accepted(2)
        meter.charge_round()
        snapshot = meter.snapshot()
        assert snapshot["rounds"] == 1
        assert snapshot["accepted"] == 2
        assert snapshot["derived"] == 3
        with pytest.raises(BudgetExceededError) as info:
            meter.charge_derived(3)
        assert info.value.limit == "max_derived"


class TestEngineBudgets:
    def test_deadline_zero_example_41(self):
        """The ISSUE acceptance test: a deadline of 0 on Example 4.1
        raises a typed error whose partial model is still queryable
        over a window."""
        engine = make_engine()
        with pytest.raises(BudgetExceededError) as info:
            engine.run(budget=EvaluationBudget(deadline_seconds=0))
        error = info.value
        assert isinstance(error, PartialResultError)
        assert isinstance(error, ReproError)
        assert error.limit == "deadline_seconds"
        assert error.partial_model is not None
        assert "problems" in error.partial_model.predicates()
        # queryable even though (possibly) empty
        window = error.partial_model.extension("problems", 0, 200)
        assert isinstance(window, (set, frozenset, list))
        assert error.stats is not None
        assert error.stats.budget_exceeded

    def test_max_rounds_diverging(self):
        engine = make_engine(DIVERGING, patience=50)
        with pytest.raises(BudgetExceededError) as info:
            engine.run(budget=EvaluationBudget(max_rounds=3))
        error = info.value
        assert error.limit == "max_rounds"
        assert error.stats.rounds == 4  # tripped entering round 4
        # the partial model holds what the first rounds derived
        assert error.partial_model.relation("double").contains_point((0, 0), ())

    def test_max_tuples(self):
        engine = make_engine(DIVERGING, patience=50)
        with pytest.raises(BudgetExceededError) as info:
            engine.run(budget=EvaluationBudget(max_tuples=2))
        assert info.value.limit == "max_tuples"
        assert info.value.partial_model is not None

    def test_max_derived(self):
        engine = make_engine(DIVERGING, patience=50)
        with pytest.raises(BudgetExceededError) as info:
            engine.run(budget=EvaluationBudget(max_derived=2))
        assert info.value.limit == "max_derived"

    def test_generous_budget_is_invisible(self):
        budget = EvaluationBudget(
            deadline_seconds=3600, max_rounds=10_000, max_tuples=10_000,
            max_derived=100_000,
        )
        model = make_engine().run(budget=budget)
        assert model.stats.constraint_safe
        assert not model.stats.budget_exceeded
        unbudgeted = make_engine().run()
        assert model.stats.rounds == unbudgeted.stats.rounds
        assert (
            model.stats.new_tuples_per_round
            == unbudgeted.stats.new_tuples_per_round
        )

    def test_trace_respects_budget(self):
        engine = make_engine(DIVERGING, patience=50)
        rounds = []
        with pytest.raises(BudgetExceededError):
            for round_number, _ in engine.trace(
                budget=EvaluationBudget(max_rounds=2)
            ):
                rounds.append(round_number)
        assert rounds == [1, 2]


class TestPeriodicModelBudgets:
    def test_datalog1s_budget(self):
        program = parse_datalog1s(D1S)
        with pytest.raises(BudgetExceededError) as info:
            minimal_model(program, budget=EvaluationBudget(max_rounds=1))
        assert info.value.partial_model is not None
        # unconstrained run still fine
        model = minimal_model(program)
        assert model.holds("train", 45, ("liege",))

    def test_templog_budget_strips_auxiliaries(self):
        program = parse_templog(TEMPLOG)
        with pytest.raises(BudgetExceededError) as info:
            templog_minimal_model(program, budget=EvaluationBudget(max_rounds=1))
        partial = info.value.partial_model
        assert partial is not None
        assert all(not name.startswith("_ev") for name in partial.predicates())

    def test_templog_goal_deadline(self):
        model = templog_minimal_model(parse_templog(TEMPLOG))
        goal = parse_goal("<>(go)")
        assert yes_no(model, goal)
        with pytest.raises(BudgetExceededError):
            yes_no(model, goal, budget=EvaluationBudget(deadline_seconds=0))
