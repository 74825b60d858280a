"""Tests for model verification and relation statistics."""

import pytest

from repro.core import DeductiveEngine, parse_program
from repro.core.verify import verify_model
from repro.gdb import parse_database
from repro.gdb.analysis import analyze


def example_41():
    edb = parse_database(
        """
        relation course[2; 1] {
          (168n+8, 168n+10; "database") where T2 = T1 + 2;
        }
        """
    )
    program = parse_program(
        """
        problems(t1 + 2, t2 + 2; X) <- course(t1, t2; X).
        problems(t1 + 48, t2 + 48; X) <- problems(t1, t2; X).
        """
    )
    return program, edb


class TestVerifyModel:
    def test_correct_model_verifies(self):
        program, edb = example_41()
        model = DeductiveEngine(program, edb).run()
        report = verify_model(program, edb, model, window=(0, 400))
        assert report.ok()
        assert report.stable and report.window_sound and report.window_complete
        assert "verified" in str(report)

    def test_truncated_model_fails_stability(self):
        program, edb = example_41()
        model = DeductiveEngine(program, edb).run()
        # Sabotage: drop half the closed form.
        from repro.core.engine import Model
        from repro.gdb.relation import GeneralizedRelation

        problems = model.relation("problems")
        broken_rel = GeneralizedRelation(
            problems.temporal_arity,
            problems.data_arity,
            problems.tuples[:3],
        )
        broken = Model({"problems": broken_rel}, model.stats, edb=edb)
        report = verify_model(program, edb, broken, window=(0, 400))
        assert not report.ok()
        assert not report.stable or not report.window_complete

    def test_bloated_model_fails_support(self):
        program, edb = example_41()
        model = DeductiveEngine(program, edb).run()
        from repro.core.engine import Model
        from repro.gdb import GeneralizedTuple
        from repro.lrp import Lrp

        extra = GeneralizedTuple(
            (Lrp(168, 9), Lrp(168, 11)), ("database",)
        )
        bloated_rel = model.relation("problems").with_tuple(extra)
        bloated = Model({"problems": bloated_rel}, model.stats, edb=edb)
        report = verify_model(program, edb, bloated, window=(0, 300))
        assert not report.window_sound
        assert report.unsupported_atoms
        assert "FAILED" in str(report)

    def test_negation_program_gets_stability_check(self):
        edb = parse_database("relation sched[1; 0] { (10n) where T1 >= 0; }")
        program = parse_program("quiet(t) <- not sched(t), t >= 0, t < 30.")
        model = DeductiveEngine(program, edb).run()
        report = verify_model(program, edb, model, window=(0, 30))
        # t is bound by no positive atom, so the ground oracle cannot
        # run this clause; stability must still hold.
        assert report.stable

    def test_negation_program_is_checked_against_ground(self):
        edb = parse_database(
            "relation slot[1; 0] { (n) where T1 >= 0; }\n"
            "relation sched[1; 0] { (10n) where T1 >= 0; }"
        )
        program = parse_program(
            "busy(t) <- sched(t).\nbusy(t + 3) <- busy(t).\n"
            "quiet(t) <- slot(t), not busy(t)."
        )
        model = DeductiveEngine(program, edb).run()
        assert verify_model(program, edb, model, window=(0, 60)).ok()


class TestAnalyze:
    def test_example_41_statistics(self):
        program, edb = example_41()
        model = DeductiveEngine(program, edb).run()
        stats = analyze(model.relation("problems"))
        assert stats.tuple_count == 7
        assert stats.signature_count == 7
        assert stats.data_vectors == 1
        assert stats.column_periods == (168, 168)
        assert stats.common_period == 168
        assert stats.densities == (7 / 168, 7 / 168)
        assert stats.bounded_columns == (False, False)

    def test_bounded_detection(self):
        db = parse_database(
            "relation p[1; 0] { (2n) where T1 >= 0 & T1 < 20; }"
        )
        stats = analyze(db.relation("p"))
        assert stats.bounded_columns == (True,)
        assert stats.densities == (0.5,)  # residue {0} of period 2

    def test_empty_relation(self):
        from repro.gdb.relation import GeneralizedRelation

        stats = analyze(GeneralizedRelation.empty(2, 1))
        assert stats.tuple_count == 0
        assert stats.common_period == 1
        assert stats.densities == (0.0, 0.0)
        assert stats.bounded_columns == (False, False)

    def test_str_is_informative(self):
        db = parse_database("relation p[1; 0] { (6n+1); (6n+4); }")
        text = str(analyze(db.relation("p")))
        assert "2 tuples" in text
        assert "lcm 6" in text
