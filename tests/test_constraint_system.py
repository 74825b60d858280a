"""Tests for ConstraintSystem and the constraint atom front end."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import Comparison, ConstraintSystem, TemporalTerm
from repro.constraints.atoms import parse_constraint_text
from repro.util.errors import ParseError


def system_from(text, arity=2):
    return ConstraintSystem.parse(text, arity)


class TestParsing:
    def test_paper_train_constraint(self):
        # Example 2.1: "T1 >= 0 & T2 = T1 + 60"
        cs = system_from("T1 >= 0 & T2 = T1 + 60")
        assert cs.satisfied_by((5, 65))
        assert not cs.satisfied_by((-1, 59))
        assert not cs.satisfied_by((5, 64))

    def test_all_atom_forms(self):
        # The grammar of Section 2.1 constraints.
        forms = [
            "T1 < T2 + 3",
            "T1 < T2 - 3",
            "T1 = T2 + 3",
            "T1 = T2 - 3",
            "T1 < 3",
            "T1 = 3",
            "3 < T1",
        ]
        for text in forms:
            cs = ConstraintSystem.parse(text, 2)
            assert isinstance(cs, ConstraintSystem)

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            ConstraintSystem.parse("T9 = 0", 2)

    def test_garbage(self):
        with pytest.raises(ParseError):
            ConstraintSystem.parse("T1 = = 3", 2)

    def test_empty_text_is_top(self):
        assert ConstraintSystem.parse("", 2).is_trivial()

    def test_separators(self):
        for text in ("T1 = 0, T2 = 1", "T1 = 0 & T2 = 1", "T1 = 0 and T2 = 1"):
            cs = ConstraintSystem.parse(text, 2)
            assert cs.satisfied_by((0, 1))
            assert not cs.satisfied_by((1, 0))

    def test_negative_constants(self):
        cs = ConstraintSystem.parse("T1 = -5", 1)
        assert cs.satisfied_by((-5,))
        cs2 = ConstraintSystem.parse("T1 < T2 - 3", 2)
        assert cs2.satisfied_by((0, 4))
        assert not cs2.satisfied_by((0, 3))


class TestAtomLowering:
    def test_strict_tightens(self):
        lt = Comparison("<", TemporalTerm(0), TemporalTerm(1))
        assert lt.to_bounds() == [(1, 2, -1)]

    def test_equality_two_bounds(self):
        eq = Comparison("=", TemporalTerm(0), TemporalTerm(1, 60))
        assert sorted(eq.to_bounds()) == [(1, 2, 60), (2, 1, -60)]

    def test_constant_side(self):
        atom = Comparison(">", TemporalTerm(None, 3), TemporalTerm(0))
        # 3 > T1 → T1 - 0 <= 2
        assert atom.to_bounds() == [(1, 0, 2)]

    def test_ne_not_convex(self):
        ne = Comparison("!=", TemporalTerm(0), TemporalTerm(1))
        assert not ne.is_convex()
        with pytest.raises(ValueError):
            ne.to_bounds()

    def test_negated(self):
        eq = Comparison("=", TemporalTerm(0), TemporalTerm(1))
        ops = sorted(a.op for a in eq.negated())
        assert ops == ["<", ">"]


class TestSystemAlgebra:
    def test_conjoin(self):
        a = system_from("T1 >= 0")
        b = system_from("T1 < 10")
        both = a.conjoin(b)
        assert both.satisfied_by((5, 0))
        assert not both.satisfied_by((10, 0))

    def test_bottom(self):
        assert not ConstraintSystem.bottom(2).is_satisfiable()

    def test_project_out(self):
        cs = system_from("T1 >= 0 & T2 = T1 + 60")
        only_t2 = cs.project_out(0)
        assert only_t2.arity == 1
        assert only_t2.satisfied_by((60,))
        assert not only_t2.satisfied_by((59,))

    def test_shift_column(self):
        cs = system_from("T2 = T1 + 2")
        shifted = cs.shift_column(0, 48).shift_column(1, 48)
        # Both columns moved by 48: relation preserved.
        assert shifted == cs

    def test_shift_column_single(self):
        cs = system_from("T2 = T1")
        shifted = cs.shift_column(1, 60)
        assert shifted == system_from("T2 = T1 + 60")

    def test_remapped(self):
        cs = ConstraintSystem.parse("T1 < T2", 2)
        wide = cs.remapped({0: 2, 1: 0}, 3)
        # old T1 -> new T3, old T2 -> new T1
        assert wide.satisfied_by((5, 99, 1))
        assert not wide.satisfied_by((1, 99, 5))

    def test_implies(self):
        narrow = system_from("T1 = 5")
        wide = system_from("T1 >= 0")
        assert narrow.implies(wide)
        assert not wide.implies(narrow)

    def test_implied_by_union(self):
        # 0 <= T1 <= 10 is covered by T1 <= 5 union T1 >= 6.
        whole = ConstraintSystem.parse("T1 >= 0 & T1 < 11", 1)
        left = ConstraintSystem.parse("T1 < 6", 1)
        right = ConstraintSystem.parse("T1 >= 6", 1)
        assert whole.implied_by_union([left, right])
        assert not whole.implied_by_union([left])

    def test_minus(self):
        whole = ConstraintSystem.parse("T1 >= 0 & T1 < 11", 1)
        hole = ConstraintSystem.parse("T1 >= 3 & T1 < 8", 1)
        pieces = whole.minus(hole)
        values = set()
        for piece in pieces:
            values |= {t for t in range(-5, 20) if piece.satisfied_by((t,))}
        assert values == {0, 1, 2, 8, 9, 10}

    def test_equal_to_constant(self):
        cs = ConstraintSystem.equal_to_constant(2, 1, 7)
        assert cs.satisfied_by((0, 7))
        assert not cs.satisfied_by((0, 8))

    def test_column_interval(self):
        cs = ConstraintSystem.parse("T1 >= 2 & T1 < 9", 1)
        assert cs.column_interval(0) == (2, 8)


class TestDisplay:
    def test_str_roundtrip(self):
        cs = system_from("T1 >= 0 & T2 = T1 + 60")
        again = ConstraintSystem.parse(str(cs), 2)
        assert again == cs

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["<", "<=", "=", ">", ">="]),
                st.integers(0, 2),
                st.integers(0, 2),
                st.integers(-10, 10),
            ),
            max_size=4,
        )
    )
    @settings(max_examples=80)
    def test_str_roundtrip_random(self, atom_specs):
        atoms = [
            Comparison(op, TemporalTerm(i), TemporalTerm(j, c))
            for (op, i, j, c) in atom_specs
        ]
        cs = ConstraintSystem.from_atoms(3, atoms)
        if cs.is_satisfiable():
            assert ConstraintSystem.parse(str(cs), 3) == cs


class TestHull:
    def test_hull_is_the_smallest_enclosing_zone(self):
        a = ConstraintSystem.parse("T1 >= 0 & T1 < 10 & T2 = T1 + 2", 2)
        b = ConstraintSystem.parse("T1 >= 5 & T1 < 15 & T2 = T1 + 4", 2)
        hull = a.hull(b)
        assert a.implies(hull) and b.implies(hull)
        assert hull == ConstraintSystem.parse(
            "T1 >= 0 & T1 < 15 & T2 >= T1 + 2 & T2 <= T1 + 4", 2
        )

    def test_hull_with_unsatisfiable_is_the_other(self):
        a = ConstraintSystem.parse("T1 >= 3", 1)
        bottom = ConstraintSystem.bottom(1)
        assert a.hull(bottom) is a
        assert bottom.hull(a) is a
