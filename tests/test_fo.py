"""Tests for the KSW90 first-order query language."""

import pytest

from repro.fo import evaluate_query, parse_formula
from repro.fo.ast import FoExists, FoNot, free_variables
from repro.gdb import parse_database
from repro.util.errors import EvaluationError, ParseError

TRAIN_DB = """
relation train[2; 2] {
  (40n+5, 40n+65; "Liege", "Brussels") where T1 >= 0 & T2 = T1 + 60;
  (60n+10, 60n+100; "Liege", "Antwerp") where T1 >= 0 & T2 = T1 + 90;
}
"""


def db():
    return parse_database(TRAIN_DB)


class TestParser:
    def test_free_variables(self):
        formula = parse_formula('exists t2 (train(t1, t2; "Liege", C))')
        assert free_variables(formula) == (("t1",), ("C",))

    def test_nested(self):
        formula = parse_formula(
            "exists t (p(t) and not exists u (q(u) and u < t))"
        )
        assert isinstance(formula, FoExists)

    def test_forall_sugar(self):
        formula = parse_formula("forall t (p(t))")
        assert free_variables(formula) == ((), ())

    def test_precedence_or_and(self):
        formula = parse_formula("p(t) and q(t) or r(t)")
        # or binds last
        from repro.fo.ast import FoOr

        assert isinstance(formula, FoOr)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_formula("p(t) q(t)")


class TestAtoms:
    def test_atom_answers(self):
        answers = evaluate_query(db(), 'train(t1, t2; "Liege", "Brussels")')
        assert answers.temporal_vars == ("t1", "t2")
        assert answers.relation.contains_point((5, 65))
        assert not answers.relation.contains_point((5, 66))

    def test_data_variable_column(self):
        answers = evaluate_query(db(), 'exists t2 (train(t1, t2; "Liege", C))')
        assert answers.data_vars == ("C",)
        assert answers.relation.contains_point((45,), ("Brussels",))
        assert answers.relation.contains_point((10,), ("Antwerp",))
        assert not answers.relation.contains_point((10,), ("Brussels",))

    def test_temporal_constant_selection(self):
        answers = evaluate_query(db(), 'train(5, t2; "Liege", "Brussels")')
        assert answers.temporal_vars == ("t2",)
        assert answers.relation.contains_point((65,))
        assert not answers.relation.contains_point((105,))

    def test_shifted_argument(self):
        # u such that a train leaves at u + 10.
        answers = evaluate_query(db(), 'train(u + 10, t2; "Liege", "Brussels")')
        # u + 10 = 45 → u = 35
        projected = evaluate_query(
            db(), 'exists t2 (train(u + 10, t2; "Liege", "Brussels"))'
        )
        assert projected.relation.contains_point((35,))
        assert not projected.relation.contains_point((45,))

    def test_schema_mismatch(self):
        with pytest.raises(EvaluationError):
            evaluate_query(db(), "train(t; X, Y)")

    def test_comparison_alone(self):
        answers = evaluate_query(db(), "t < u")
        assert answers.relation.contains_point((3, 9))
        assert not answers.relation.contains_point((9, 3))


class TestConnectives:
    def test_conjunction_join(self):
        # Trains from Liege to Brussels and to Antwerp leaving at the
        # same minute t.
        answers = evaluate_query(
            db(),
            'exists b (train(t, b; "Liege", "Brussels")) and '
            'exists a (train(t, a; "Liege", "Antwerp"))',
        )
        # Brussels trains at 40n+5 (t>=0), Antwerp at 60n+10 (t>=0):
        # 40n+5 ∩ 60n+10 = empty (5 mod 20 vs 10 mod 20).
        assert answers.relation.is_empty()

    def test_conjunction_with_comparison(self):
        answers = evaluate_query(
            db(),
            'exists b (train(t, b; "Liege", "Brussels")) and t >= 0 and t < 90',
        )
        assert answers.extension(-10, 200) == {(5,), (45,), (85,)}

    def test_disjunction(self):
        answers = evaluate_query(
            db(),
            'exists b (train(t, b; "Liege", "Brussels")) or '
            'exists a (train(t, a; "Liege", "Antwerp"))',
        )
        for t in (5, 45, 10, 70):
            assert answers.relation.contains_point((t,))
        assert not answers.relation.contains_point((6,))

    def test_negation_temporal(self):
        answers = evaluate_query(
            db(),
            'not exists b (train(t, b; "Liege", "Brussels"))',
        )
        assert answers.relation.contains_point((6,))
        assert answers.relation.contains_point((-35,))
        assert not answers.relation.contains_point((45,))

    def test_double_negation(self):
        base = evaluate_query(db(), 'exists b (train(t, b; "Liege", "Brussels"))')
        doubled = evaluate_query(
            db(),
            'not not exists b (train(t, b; "Liege", "Brussels"))',
        )
        assert base.relation.equivalent(doubled.relation)

    def test_negation_with_data(self):
        answers = evaluate_query(
            db(), 'not exists t1, t2 (train(t1, t2; "Liege", C))'
        )
        # Active domain: Liege, Brussels, Antwerp.  Brussels and
        # Antwerp receive trains; only Liege does not.
        assert answers.relation.contains_point((), ("Liege",))
        assert not answers.relation.contains_point((), ("Brussels",))
        assert not answers.relation.contains_point((), ("Antwerp",))

    def test_yes_no_queries(self):
        yes = evaluate_query(
            db(), 'exists t1, t2 (train(t1, t2; "Liege", "Brussels"))'
        )
        assert yes.is_true()
        no = evaluate_query(
            db(), 'exists t1, t2 (train(t1, t2; "Brussels", "Liege"))'
        )
        assert not no.is_true()

    def test_forall(self):
        # Every Brussels departure is at time >= 0 (true by the
        # database constraint).
        answers = evaluate_query(
            db(),
            "forall t (not exists u (train(t, u; \"Liege\", \"Brussels\")) "
            "or t >= 0)",
        )
        assert answers.is_true()

    def test_forall_false(self):
        answers = evaluate_query(
            db(),
            "forall t (exists u (train(t, u; \"Liege\", \"Brussels\")))",
        )
        assert not answers.is_true()


class TestDisjunctionWidening:
    """A disjunct missing a variable of the disjunction is widened: a
    temporal variable ranges over ℤ, a data variable over the active
    domain."""

    DB = """
    relation r[1; 1] { (2n; "a") where T1 >= 0; (3n; "b") where T1 >= 0; }
    relation s[1; 0] { (5n) where T1 >= 0; }
    relation d[1; 1] { (n; "d") where T1 = 0; }
    """

    def test_missing_data_variable_ranges_over_active_domain(self):
        answers = evaluate_query(parse_database(self.DB), "r(t; X) or s(t)")
        assert answers.temporal_vars == ("t",)
        assert answers.data_vars == ("X",)
        rows = answers.rows(0, 11)
        # s(5) holds, so every active-domain value pairs with t = 5;
        # r(5; X) holds for no X.
        assert [row["X"] for row in rows if row["t"] == 5] == ["a", "b", "d"]
        assert {"t": 4, "X": "a"} in rows
        assert {"t": 4, "X": "b"} not in rows

    def test_query_constants_join_the_active_domain(self):
        # "c" occurs in no relation, only in the query.
        answers = evaluate_query(
            parse_database(self.DB), 'r(t; X) or not d(t; "c")'
        )
        rows = answers.rows(0, 3)
        assert {"t": 1, "X": "c"} in rows
        assert {row["X"] for row in rows} == {"a", "b", "c", "d"}

    def test_query_constants_complement_without_disjunction(self):
        answers = evaluate_query(
            parse_database(self.DB),
            'not exists t (r(t; X)) and not exists t (d(t; "c"))',
        )
        assert answers.rows(0, 1) == [{"X": "c"}, {"X": "d"}]


class TestAgainstGroundEnumeration:
    def test_negation_window_cross_check(self):
        database = db()
        answers = evaluate_query(
            database,
            'not exists b (train(t, b; "Liege", "Brussels")) and t >= 0 and t < 50',
        )
        brussels = {
            flat[0]
            for flat in database.relation("train").extension(0, 200)
            if flat[2:] == ("Liege", "Brussels")
        }
        expected = {(t,) for t in range(0, 50) if t not in brussels}
        assert answers.extension(-10, 60) == expected

    def test_first_train_after(self):
        # The first Brussels train at or after minute 50: t with a
        # departure and no earlier departure in [50, t).
        query = (
            'exists b (train(t, b; "Liege", "Brussels")) and t >= 50 and '
            "not exists u (exists c (train(u, c; \"Liege\", \"Brussels\")) "
            "and u >= 50 and u < t)"
        )
        answers = evaluate_query(db(), query)
        assert answers.extension(0, 500) == {(85,)}


class TestWithEngineModel:
    def test_query_over_idb(self):
        from repro.core import DeductiveEngine, parse_program

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
        model = DeductiveEngine(program, edb).run()
        answers = evaluate_query(
            edb,
            'problems(t, u; "database") and t >= 0 and t < 60',
            extra_relations={"problems": model.relation("problems")},
        )
        assert answers.extension(0, 100) == {(10, 12), (34, 36), (58, 60)}
