"""Integration tests for the T_GP bottom-up engine (paper Section 4.3).

The centerpiece is the verbatim reproduction of the Example 4.1
computation, plus cross-validation of the closed-form engine against
the ground tuple-at-a-time oracle on bounded windows.
"""

import pytest

from repro.core import DeductiveEngine, GroundEvaluator, parse_program
from repro.core.safety import (
    CoverageChecker,
    covered_paper,
    covered_semantic,
)
from repro.gdb import parse_database
from repro.lrp import Lrp
from repro.util import hooks
from repro.util.errors import EvaluationError, GiveUpError

COURSE_EDB = """
relation course[2; 1] {
  (168n+8, 168n+10; "database") where T2 = T1 + 2;
}
"""

PROBLEMS_PROGRAM = """
problems(t1 + 2, t2 + 2; "database") <- course(t1, t2; "database").
problems(t1 + 48, t2 + 48; X) <- problems(t1, t2; X).
"""


def run_example_41(**kwargs):
    edb = parse_database(COURSE_EDB)
    program = parse_program(PROBLEMS_PROGRAM)
    return DeductiveEngine(program, edb, **kwargs).run()


class TestExample41:
    """The paper's worked evaluation, asserted in detail."""

    def test_terminates_constraint_safe(self):
        model = run_example_41()
        assert model.stats.constraint_safe
        assert not model.stats.gave_up

    def test_exact_offsets(self):
        # The paper derives offsets 10, 58, 106, 154, 202, 250, 298, 346
        # (+2 for the second column).  Canonically mod 168 that is the
        # 7 residue classes 10 + 24k: the 8th derived tuple (346 ≡ 10)
        # closes the cycle and triggers constraint-safe termination.
        model = run_example_41()
        problems = model.relation("problems")
        offsets = sorted(gt.lrps[0].offset for gt in problems)
        assert offsets == [10, 34, 58, 82, 106, 130, 154]
        assert all(gt.lrps[0].period == 168 for gt in problems)
        assert all(
            gt.lrps[1] == gt.lrps[0].shift(2) for gt in problems
        )

    def test_paper_listed_points(self):
        model = run_example_41()
        problems = model.relation("problems")
        for start in (10, 58, 106, 154, 202, 250, 298, 346):
            assert problems.contains_point((start, start + 2), ("database",))
        # Points not in the schedule:
        assert not problems.contains_point((8, 10), ("database",))
        assert not problems.contains_point((11, 13), ("database",))

    def test_round_count_matches_paper(self):
        # 7 productive rounds (one new tuple each), then a round that
        # derives only covered tuples and stops.
        model = run_example_41(strategy="naive")
        assert model.stats.rounds == 8
        assert model.stats.new_tuples_per_round[-1] == 0
        assert sum(model.stats.new_tuples_per_round) == 7

    def test_trace_matches_paper_sequence(self):
        edb = parse_database(COURSE_EDB)
        program = parse_program(PROBLEMS_PROGRAM)
        engine = DeductiveEngine(program, edb, strategy="naive")
        offsets = []
        for _, fresh in engine.trace():
            for gt in fresh.get("problems", []):
                offsets.append(gt.lrps[0].offset)
        assert offsets == [10, 58, 106, 154, 34, 82, 130]  # mod 168

    def test_agrees_with_ground_oracle(self):
        model = run_example_41()
        edb = parse_database(COURSE_EDB)
        program = parse_program(PROBLEMS_PROGRAM)
        # The temporal domain is Z: derivations may pass through
        # negative times, so the ground window needs slack on both ends.
        ground = GroundEvaluator(program, edb, -600, 900)
        ground.run()
        closed = {
            flat
            for flat in model.relation("problems").extension(0, 900)
            if flat[0] < 500  # interior margin for window truncation
        }
        oracle = {
            flat
            for flat in ground.extension("problems")
            if 0 <= flat[0] < 500
        }
        assert closed == oracle

    def test_free_extension_safety_reached(self):
        model = run_example_41(strategy="naive")
        # Theorem 4.2: free-extension safety holds at the fixpoint.
        edb = parse_database(COURSE_EDB)
        program = parse_program(PROBLEMS_PROGRAM)
        engine = DeductiveEngine(program, edb)
        model = engine.run(check_free_extension_safety=True)
        assert model.stats.free_extension_safe_checked is True


class TestStrategies:
    def test_naive_and_seminaive_agree(self):
        naive = run_example_41(strategy="naive")
        seminaive = run_example_41(strategy="semi-naive")
        assert naive.relation("problems").equivalent(
            seminaive.relation("problems")
        )

    def test_semantic_safety_agrees(self):
        paper = run_example_41(safety="paper")
        semantic = run_example_41(safety="semantic")
        assert paper.relation("problems").equivalent(
            semantic.relation("problems")
        )

    def test_semantic_coverage_fires_its_fault_site_once_per_test(
        self, monkeypatch
    ):
        """Semantic mode never memoizes, so every coverage test is a
        miss, and each one passes the ``coverage`` site exactly once."""
        fired = []
        monkeypatch.setattr(
            hooks, "FAULT_HOOK",
            lambda site: fired.append(site) if site == "coverage" else None,
        )
        misses = []
        sink = hooks.subscribe(
            lambda kind, fields: misses.append(fields["misses"])
            if kind == "coverage.cache"
            else None
        )
        try:
            model = run_example_41(safety="semantic")
        finally:
            hooks.unsubscribe(sink)
        assert model.stats.constraint_safe
        assert len(fired) == sum(misses) > 0

        relation = model.relation("problems")
        checker = CoverageChecker("semantic")
        fired.clear()
        for gt in relation.tuples:
            assert checker.covered(gt, relation) == covered_semantic(gt, relation)
        assert len(fired) == 2 * len(relation.tuples)
        assert (checker.hits, checker.misses) == (0, len(relation.tuples))

    def test_invalid_options(self):
        edb = parse_database(COURSE_EDB)
        program = parse_program(PROBLEMS_PROGRAM)
        with pytest.raises(ValueError):
            DeductiveEngine(program, edb, strategy="magic")
        with pytest.raises(ValueError):
            DeductiveEngine(program, edb, safety="wrong")


class TestSmallPrograms:
    def test_facts_only(self):
        edb = parse_database("relation dummy[1; 0] {}")
        program = parse_program("p(5). p(7).")
        model = DeductiveEngine(program, edb).run()
        assert model.extension("p", 0, 10) == {(5,), (7,)}

    def test_copy_rule(self):
        edb = parse_database("relation q[1; 0] { (3n+1); }")
        program = parse_program("p(t) <- q(t).")
        model = DeductiveEngine(program, edb).run()
        assert model.relation("p").contains_point((4,))
        assert not model.relation("p").contains_point((5,))

    def test_shift_rule(self):
        edb = parse_database("relation q[1; 0] { (10n); }")
        program = parse_program("p(t + 3) <- q(t).")
        model = DeductiveEngine(program, edb).run()
        assert model.relation("p").tuples[0].lrps == (Lrp(10, 3),)

    def test_predecessor_rule(self):
        edb = parse_database("relation q[1; 0] { (10n); }")
        program = parse_program("p(t - 3) <- q(t).")
        model = DeductiveEngine(program, edb).run()
        assert model.relation("p").contains_point((7,))
        assert model.relation("p").contains_point((-3,))

    def test_join_on_shared_variable(self):
        edb = parse_database(
            """
            relation a[1; 0] { (4n+1); }
            relation b[1; 0] { (6n+3); }
            """
        )
        program = parse_program("both(t) <- a(t), b(t).")
        model = DeductiveEngine(program, edb).run()
        rel = model.relation("both")
        assert rel.contains_point((9,))
        assert not rel.contains_point((1,))
        # CRT: 4n+1 ∩ 6n+3 = 12n+9.
        assert rel.normalize().tuples[0].lrps == (Lrp(12, 9),)

    def test_disjoint_join_is_empty(self):
        edb = parse_database(
            """
            relation a[1; 0] { (4n); }
            relation b[1; 0] { (4n+1); }
            """
        )
        program = parse_program("both(t) <- a(t), b(t).")
        model = DeductiveEngine(program, edb).run()
        assert model.relation("both").is_empty()

    def test_constraint_in_body(self):
        edb = parse_database("relation q[1; 0] { (2n); }")
        program = parse_program("p(t) <- q(t), t >= 0, t < 10.")
        model = DeductiveEngine(program, edb).run()
        assert model.extension("p", -20, 20) == {(0,), (2,), (4,), (6,), (8,)}

    def test_two_temporal_arguments_in_constraint(self):
        edb = parse_database(
            """
            relation leave[1; 0] { (5n) where T1 >= 0; }
            relation arrive[1; 0] { (5n+2) where T1 >= 0; }
            """
        )
        program = parse_program(
            "trip(t, u) <- leave(t), arrive(u), t < u, u <= t + 2."
        )
        model = DeductiveEngine(program, edb).run()
        assert model.relation("trip").contains_point((0, 2))
        assert not model.relation("trip").contains_point((0, 7))

    def test_free_head_variable_denotes_all_of_z(self):
        edb = parse_database("relation q[1; 0] { (7n) where T1 = 0; }")
        program = parse_program("p(t, u) <- q(t).")
        model = DeductiveEngine(program, edb).run()
        rel = model.relation("p")
        assert rel.contains_point((0, -1234))
        assert rel.contains_point((0, 999))
        assert not rel.contains_point((1, 0))

    def test_data_variable_propagation(self):
        edb = parse_database(
            """
            relation q[1; 2] { (2n; "x", "y") where T1 >= 0; }
            """
        )
        program = parse_program("p(t; B, A) <- q(t; A, B).")
        model = DeductiveEngine(program, edb).run()
        assert model.relation("p").contains_point((2,), ("y", "x"))

    def test_data_join(self):
        edb = parse_database(
            """
            relation q[1; 1] { (2n; "x"); (2n; "y"); }
            relation r[1; 1] { (3n; "x"); }
            """
        )
        program = parse_program("p(t; A) <- q(t; A), r(t; A).")
        model = DeductiveEngine(program, edb).run()
        ext = model.extension("p", 0, 13)
        assert ext == {(0, "x"), (6, "x"), (12, "x")}

    def test_repeated_temporal_variable_in_atom(self):
        edb = parse_database("relation q[2; 0] { (2n, 3n); }")
        program = parse_program("diag(t) <- q(t, t).")
        model = DeductiveEngine(program, edb).run()
        # q(t, t) forces t ≡ 0 mod 6.
        assert model.relation("diag").contains_point((6,))
        assert not model.relation("diag").contains_point((2,))
        assert not model.relation("diag").contains_point((3,))


class TestRecursion:
    def test_transitive_shift(self):
        # p(0); p(t+5) <- p(t): an lrp 5n (t >= 0) in the limit; the
        # generalized engine cannot close this from a single point
        # (periods stay 1) and must give up — exactly the situation
        # the paper describes for point-like EDBs.
        edb = parse_database("relation seed[1; 0] { (n) where T1 = 0; }")
        program = parse_program("p(t) <- seed(t). p(t + 5) <- p(t).")
        engine = DeductiveEngine(program, edb, patience=5)
        with pytest.raises(GiveUpError) as excinfo:
            engine.run()
        model = excinfo.value.partial_model
        assert model.stats.gave_up
        # The partial model is still sound: its points are derivable.
        assert model.relation("p").contains_point((0,))
        assert model.relation("p").contains_point((5,))

    def test_periodic_recursion_closes(self):
        # Same rule over a periodic seed closes quickly (Example 4.1
        # pattern): p over 10n, shift by 5 → two residue classes.
        edb = parse_database("relation seed[1; 0] { (10n); }")
        program = parse_program("p(t) <- seed(t). p(t + 5) <- p(t).")
        model = DeductiveEngine(program, edb).run()
        assert model.stats.constraint_safe
        ext = model.extension("p", 0, 20)
        assert ext == {(0,), (5,), (10,), (15,)}

    def test_mutual_recursion(self):
        edb = parse_database("relation seed[1; 0] { (12n); }")
        program = parse_program(
            """
            even(t) <- seed(t).
            odd(t + 3) <- even(t).
            even(t + 3) <- odd(t).
            """
        )
        model = DeductiveEngine(program, edb).run()
        assert model.stats.constraint_safe
        assert model.extension("even", 0, 12) == {(0,), (6,)}
        assert model.extension("odd", 0, 12) == {(3,), (9,)}

    def test_recursion_with_constraints(self):
        edb = parse_database("relation seed[1; 0] { (8n) where T1 >= 0; }")
        program = parse_program(
            """
            p(t) <- seed(t).
            p(t + 2) <- p(t), t >= 0.
            """
        )
        model = DeductiveEngine(program, edb).run()
        assert model.stats.constraint_safe
        ext = model.extension("p", -10, 11)
        assert ext == {(0,), (2,), (4,), (6,), (8,), (10,)}

    def test_cross_validation_random_window(self):
        edb = parse_database(
            """
            relation seed[1; 0] { (6n+1) where T1 >= 0; }
            """
        )
        program = parse_program(
            """
            p(t) <- seed(t).
            p(t + 4) <- p(t).
            """
        )
        model = DeductiveEngine(program, edb).run()
        ground = GroundEvaluator(program, edb, 0, 400)
        ground.run()
        closed = {f for f in model.extension("p", 0, 400) if f[0] < 200}
        oracle = {f for f in ground.extension("p") if f[0] < 200}
        assert closed == oracle


class TestGiveUpPolicy:
    def test_giveup_raises_with_partial_model(self):
        edb = parse_database("relation seed[1; 0] { (n) where T1 = 0; }")
        program = parse_program("p(t) <- seed(t). p(t + 5) <- p(t).")
        engine = DeductiveEngine(program, edb, patience=4)
        with pytest.raises(GiveUpError) as excinfo:
            engine.run()
        error = excinfo.value
        assert error.partial_model is not None
        assert error.stats.gave_up
        assert error.partial_model.relation("p").contains_point((0,))

    def test_max_rounds_cap(self):
        edb = parse_database("relation seed[1; 0] { (n) where T1 = 0; }")
        program = parse_program("p(t) <- seed(t). p(t + 5) <- p(t).")
        engine = DeductiveEngine(program, edb, patience=None, max_rounds=7)
        with pytest.raises(GiveUpError) as excinfo:
            engine.run()
        model = excinfo.value.partial_model
        assert model.stats.gave_up
        assert model.stats.rounds == 7


class TestGroundEvaluator:
    def test_window_fixpoint(self):
        edb = parse_database("relation seed[1; 0] { (n) where T1 = 0; }")
        program = parse_program("p(t) <- seed(t). p(t + 5) <- p(t).")
        ground = GroundEvaluator(program, edb, 0, 23)
        stats = ground.run()
        assert ground.extension("p") == {(0,), (5,), (10,), (15,), (20,)}
        assert stats.rounds >= 5

    def test_range_restriction_enforced(self):
        edb = parse_database("relation q[1; 0] { (2n); }")
        program = parse_program("p(t, u) <- q(t).")
        with pytest.raises(EvaluationError):
            GroundEvaluator(program, edb, 0, 10)

    def test_constraints_respected(self):
        edb = parse_database("relation q[1; 0] { (2n); }")
        program = parse_program("p(t) <- q(t), t >= 4, t < 9.")
        ground = GroundEvaluator(program, edb, 0, 20)
        ground.run()
        assert ground.extension("p") == {(4,), (6,), (8,)}

    def test_data_arguments(self):
        edb = parse_database('relation q[1; 1] { (2n; "x") where T1 >= 0; }')
        program = parse_program("p(t; A) <- q(t; A).")
        ground = GroundEvaluator(program, edb, 0, 5)
        ground.run()
        assert ground.extension("p") == {(0, "x"), (2, "x"), (4, "x")}

    def test_negated_atom_is_non_membership(self):
        edb = parse_database('relation a[1; 1] { (6n; "x") where T1 >= 0; }')
        program = parse_program('p(t; "x") <- a(t; "x"), not a(t; "x").')
        ground = GroundEvaluator(program, edb, 0, 24)
        ground.run()
        assert ground.extension("p") == set()

    def test_negation_runs_stratum_by_stratum(self):
        edb = parse_database(
            "relation a[1; 0] { (2n) where T1 >= 0; }\n"
            "relation b[1; 0] { (3n) where T1 >= 0; }"
        )
        # q is listed after the clause negating it: only stratified
        # evaluation finishes q before p tests it.
        program = parse_program("p(t) <- a(t), not q(t). q(t) <- b(t).")
        ground = GroundEvaluator(program, edb, 0, 13)
        ground.run()
        assert ground.extension("p") == {(2,), (4,), (8,), (10,)}

    def test_negated_temporal_variable_must_be_bound(self):
        edb = parse_database("relation q[1; 0] { (2n); }")
        program = parse_program("p(t) <- q(t), not q(u).")
        with pytest.raises(EvaluationError):
            GroundEvaluator(program, edb, 0, 10)


# -- coverage cache ---------------------------------------------------------


def _single_tuple(text):
    return parse_database(text).relation("r")


def test_coverage_cache_hits_on_retest():
    relation = _single_tuple("relation r[1; 0] { (2n) where T1 >= 0; }")
    candidate = _single_tuple(
        "relation r[1; 0] { (2n+4) where T1 >= 0; }"
    ).tuples[0]
    checker = CoverageChecker("paper")
    assert checker.covered(candidate, relation)
    assert (checker.hits, checker.misses) == (0, 1)
    assert checker.covered(candidate, relation)
    assert (checker.hits, checker.misses) == (1, 1)


def test_coverage_cache_invalidated_by_insert():
    """A negative verdict must not survive an insert that touches its
    signature — the inserted tuple may be exactly what covers it."""
    relation = _single_tuple("relation r[1; 0] { (4n) where T1 >= 0; }")
    candidate = _single_tuple(
        "relation r[1; 0] { (4n+2) where T1 >= 0; }"
    ).tuples[0]
    checker = CoverageChecker("paper")
    assert not checker.covered(candidate, relation)
    grown = relation.with_tuples([candidate])
    assert grown.coverage_generation == relation.coverage_generation + 1
    assert checker.covered(candidate, grown)
    # The re-test on the grown relation recomputed (miss), then caches.
    assert checker.misses == 2
    assert checker.covered(candidate, grown)
    assert checker.hits == 1


def test_coverage_cache_positive_verdicts_survive_other_inserts():
    """True verdicts are monotone (coverage only grows), so an insert
    at a *different* signature keeps them warm."""
    relation = _single_tuple(
        'relation r[1; 1] { (2n; "x") where T1 >= 0; }'
    )
    covered = _single_tuple(
        'relation r[1; 1] { (2n+4; "x") where T1 >= 0; }'
    ).tuples[0]
    other = _single_tuple(
        'relation r[1; 1] { (3n; "y") where T1 >= 0; }'
    ).tuples[0]
    checker = CoverageChecker("paper")
    assert checker.covered(covered, relation)
    grown = relation.with_tuples([other])
    assert checker.covered(covered, grown)
    assert (checker.hits, checker.misses) == (1, 1)


def test_coverage_cache_events_and_model_identity(monkeypatch):
    """Example 4.1 naive: every verdict the cache answers equals the
    uncached paper test (so the model cannot change), the cache answers
    some re-tests, and the sweep emits ``coverage.cache`` events whose
    per-round deltas add up to the coverage decisions asked."""
    asked = []
    memoized = CoverageChecker.covered

    def checked(self, gt, relation, snapshot=None):
        verdict = memoized(self, gt, relation, snapshot)
        assert verdict == covered_paper(gt, relation)
        asked.append(verdict)
        return verdict

    monkeypatch.setattr(CoverageChecker, "covered", checked)
    events = []
    sink = hooks.subscribe(
        lambda kind, fields: events.append(dict(fields))
        if kind == "coverage.cache"
        else None
    )
    try:
        model = DeductiveEngine(
            parse_program(PROBLEMS_PROGRAM),
            parse_database(COURSE_EDB),
            strategy="naive",
        ).run()
    finally:
        hooks.unsubscribe(sink)
    assert model.stats.rounds == 8
    assert len(events) == model.stats.rounds
    hits = sum(event["hits"] for event in events)
    misses = sum(event["misses"] for event in events)
    assert hits > 0
    assert hits + misses == len(asked)


def test_free_signature_is_memoized():
    relation = _single_tuple("relation r[1; 0] { (2n) where T1 >= 0; }")
    gt = relation.tuples[0]
    assert gt._free_signature is None
    first = gt.free_signature()
    assert gt._free_signature is first
    assert gt.free_signature() is first
