"""Tests for the deductive-language parser and AST."""

import pytest

from repro.core import parse_clause, parse_program
from repro.core.ast import (
    Clause,
    ConstraintAtom,
    DataTerm,
    PredicateAtom,
    Program,
    TemporalTerm,
)
from repro.util.errors import ParseError, SchemaError

EXAMPLE_41 = """
% Example 4.1 of the paper.
problems(t1 + 2, t2 + 2; "database") <- course(t1, t2; "database").
problems(t1 + 48, t2 + 48; X) <- problems(t1, t2; X).
"""


class TestParsing:
    def test_example_41(self):
        program = parse_program(EXAMPLE_41)
        assert len(program) == 2
        first, second = program.clauses
        assert first.head.predicate == "problems"
        assert first.head.temporal_args == (
            TemporalTerm("t1", 2),
            TemporalTerm("t2", 2),
        )
        assert first.head.data_args == (DataTerm.constant("database"),)
        assert second.head.data_args == (DataTerm.variable("X"),)

    def test_fact_without_arrow(self):
        clause = parse_clause("p(5).")
        assert clause.body == ()
        assert clause.head.temporal_args == (TemporalTerm(None, 5),)

    def test_fact_with_arrow(self):
        clause = parse_clause("p(5) <- .")
        assert clause.body == ()

    def test_negative_offsets(self):
        clause = parse_clause("p(t - 3) <- q(t).")
        assert clause.head.temporal_args == (TemporalTerm("t", -3),)

    def test_negative_constant(self):
        clause = parse_clause("p(-7).")
        assert clause.head.temporal_args == (TemporalTerm(None, -7),)

    def test_constraint_atoms(self):
        clause = parse_clause("p(t) <- q(t, u), t < u + 5, u >= 0.")
        constraints = clause.constraint_atoms()
        assert len(constraints) == 2
        assert constraints[0] == ConstraintAtom(
            "<", TemporalTerm("t"), TemporalTerm("u", 5)
        )
        assert constraints[1] == ConstraintAtom(
            ">=", TemporalTerm("u"), TemporalTerm(None, 0)
        )

    def test_data_conventions(self):
        clause = parse_clause('p(t; X, liege, "Brussels", 3) <- q(t; X).')
        data = clause.head.data_args
        assert data[0].is_variable()
        assert data[1] == DataTerm.constant("liege")
        assert data[2] == DataTerm.constant("Brussels")
        assert data[3] == DataTerm.constant(3)

    def test_prolog_arrow(self):
        clause = parse_clause("p(t) :- q(t).")
        assert clause.head.predicate == "p"
        assert clause.predicate_atoms()[0].predicate == "q"

    def test_comments(self):
        program = parse_program("% a comment\np(0). # another\n")
        assert len(program) == 1

    def test_missing_period(self):
        with pytest.raises(ParseError):
            parse_program("p(0) q(1).")

    def test_bad_constraint(self):
        with pytest.raises(ParseError):
            parse_clause("p(t) <- t < .")

    def test_str_roundtrip(self):
        program = parse_program(EXAMPLE_41)
        again = parse_program(str(program))
        assert str(again) == str(program)


class TestProgramStructure:
    def test_predicate_classification(self):
        program = parse_program(EXAMPLE_41)
        assert program.intensional_predicates() == {"problems"}
        assert program.extensional_predicates() == {"course"}

    def test_schemas(self):
        program = parse_program(EXAMPLE_41)
        assert program.schemas() == {"problems": (2, 1), "course": (2, 1)}

    def test_inconsistent_arity(self):
        with pytest.raises(SchemaError):
            parse_program("p(t) <- q(t). p(t, u) <- q(t).")

    def test_unbound_head_data_var(self):
        with pytest.raises(SchemaError):
            parse_program("p(t; X) <- q(t).")

    def test_free_head_temporal_var_allowed(self):
        # Temporal head variables may be unbound: they denote all of Z.
        program = parse_program("p(t, u) <- q(t).")
        assert len(program) == 1


class TestNormalization:
    def test_head_offsets_become_constraints(self):
        from repro.core.transform import normalize_clause

        clause = parse_clause("p(t + 2) <- q(t).")
        normalized = normalize_clause(clause)
        assert normalized.head_vars != ("t",)
        links = [str(c) for c in normalized.constraints]
        assert any("t+2" in link for link in links)

    def test_head_constant(self):
        from repro.core.transform import normalize_clause

        clause = parse_clause("p(5).")
        normalized = normalize_clause(clause)
        assert len(normalized.head_vars) == 1
        assert any("= 5" in str(c) for c in normalized.constraints)

    def test_body_atoms_have_distinct_bare_vars(self):
        from repro.core.transform import normalize_clause

        clause = parse_clause("p(t) <- q(t, t + 1), r(t).")
        normalized = normalize_clause(clause)
        seen = set()
        for atom in normalized.body_atoms:
            for term in atom.temporal_args:
                assert term.offset == 0 and term.var is not None
                assert term.var not in seen
                seen.add(term.var)

    def test_duplicate_head_var(self):
        from repro.core.transform import normalize_clause

        clause = parse_clause("p(t, t) <- q(t).")
        normalized = normalize_clause(clause)
        assert len(set(normalized.head_vars)) == 2

    def test_constant_in_body_atom(self):
        from repro.core.transform import normalize_clause

        clause = parse_clause("p(t) <- q(t, 0).")
        normalized = normalize_clause(clause)
        assert any("= 0" in str(c) for c in normalized.constraints)
