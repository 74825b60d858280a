"""Graceful-degradation guarantees of the pre-existing paths: the
paper's give-up policy (Section 4.3) exposes a usable partial model,
and the error hierarchy keeps every early exit typed."""

import pytest

from repro.core import DeductiveEngine, parse_program
from repro.gdb import parse_database
from repro.util.errors import (
    BudgetExceededError,
    CheckpointError,
    EvaluationAbortedError,
    EvaluationError,
    GiveUpError,
    PartialResultError,
    ReproError,
)

EDB = """
relation course[2; 1] {
  (168n+8, 168n+10; "database") where T2 = T1 + 2;
}
relation zero[2; 0] { (n, n) where T1 = 0 & T2 = 0; }
"""

# E7's unary arithmetic: t2 = 2 * t1 has no lrp closed form, so every
# evaluator gives up on it.
DIVERGING = """
double(t1, t2) <- zero(t1, t2).
double(t1 + 1, t2 + 2) <- double(t1, t2).
"""


def make_engine(**kwargs):
    return DeductiveEngine(
        parse_program(DIVERGING), parse_database(EDB), **kwargs
    )


class TestGiveUp:
    def test_give_up_error_carries_partial_model(self):
        engine = make_engine(patience=3)
        with pytest.raises(GiveUpError) as info:
            engine.run()
        error = info.value
        assert error.partial_model is not None
        # the pre-give-up interpretation holds the facts derived so far:
        # double starts at (0, 0) and re-derives itself shifted by (1, 2)
        relation = error.partial_model.relation("double")
        assert relation.contains_point((0, 0), ())
        assert relation.contains_point((1, 2), ())
        assert error.stats is not None
        assert error.stats.gave_up
        assert not error.stats.constraint_safe

    def test_partial_mode_returns_model_and_flags_stats(self):
        with pytest.raises(GiveUpError) as info:
            make_engine(patience=3).run()
        model = info.value.partial_model
        assert model.stats.gave_up
        assert not model.stats.constraint_safe
        assert model.relation("double").contains_point((0, 0), ())
        # window query over the partial model works
        assert (0, 0) in model.extension("double", 0, 3)

    def test_partial_model_matches_partial_mode(self):
        """Giving up on patience and on the round cap after as many
        rounds expose the same interpretation."""
        with pytest.raises(GiveUpError) as info:
            make_engine(patience=3).run()
        raised = info.value.partial_model
        with pytest.raises(GiveUpError) as capped:
            make_engine(patience=None, max_rounds=raised.stats.rounds).run()
        returned = capped.value.partial_model
        keys = lambda rel: sorted(gt.canonical_key() for gt in rel.tuples)
        assert keys(raised.relation("double")) == keys(returned.relation("double"))

    def test_trace_round_cap_per_stratum(self):
        engine = make_engine(patience=50)
        rounds = [number for number, _ in engine.trace(max_rounds=4)]
        assert rounds == [1, 2, 3, 4]

    def test_patience_none_runs_to_max_rounds(self):
        with pytest.raises(GiveUpError) as info:
            make_engine(patience=None, max_rounds=5).run()
        model = info.value.partial_model
        assert model.stats.rounds == 5
        assert model.stats.gave_up


class TestStatsTyping:
    def test_to_dict_is_json_safe_and_complete(self):
        import json

        model = DeductiveEngine(
            parse_program(
                "problems(t1 + 2, t2 + 2; X) <- course(t1, t2; X)."
            ),
            parse_database(EDB),
        ).run()
        payload = model.stats.to_dict()
        json.dumps(payload)  # JSON-safe
        assert payload["constraint_safe"] is True
        assert payload["signature_stable_round"] is not None
        assert payload["total_new_tuples"] == sum(
            payload["new_tuples_per_round"]
        )
        assert payload["resumed_from_round"] is None
        assert payload["budget_exceeded"] is False

    def test_optional_fields_start_none(self):
        from repro.core.engine import EvaluationStats

        stats = EvaluationStats()
        assert stats.signature_stable_round is None
        assert stats.free_extension_safe_checked is None
        assert stats.resumed_from_round is None
        assert stats.new_tuples_per_round == []


class TestErrorHierarchy:
    def test_partial_result_family(self):
        for family in (GiveUpError, BudgetExceededError, EvaluationAbortedError):
            assert issubclass(family, PartialResultError)
            assert issubclass(family, EvaluationError)
            assert issubclass(family, ReproError)

    def test_checkpoint_error_is_repro_error(self):
        assert issubclass(CheckpointError, ReproError)
        assert not issubclass(CheckpointError, PartialResultError)

    def test_partial_result_error_fields(self):
        error = BudgetExceededError("boom", limit="max_rounds")
        assert error.partial_model is None
        assert error.stats is None
        assert error.limit == "max_rounds"
