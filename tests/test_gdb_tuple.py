"""Tests for generalized tuples, the aligned disjunct form, and exact
tuple-level operations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import Comparison, ConstraintSystem, TemporalTerm
from repro.gdb import GeneralizedTuple
from repro.lrp import Lrp

WINDOW = 60


def times_in_window(gt, low=-WINDOW, high=WINDOW):
    """Brute-force ground extension of a tuple inside a window."""
    import itertools

    pools = [lrp.enumerate(low, high) for lrp in gt.lrps]
    found = set()
    for times in itertools.product(*pools):
        if gt.constraints.satisfied_by(times):
            found.add(times)
    return found


small_lrps = st.builds(Lrp, st.integers(1, 6), st.integers(0, 5))


@st.composite
def small_tuples(draw, arity=2):
    lrps = tuple(draw(small_lrps) for _ in range(arity))
    n_atoms = draw(st.integers(0, 3))
    atoms = []
    for _ in range(n_atoms):
        op = draw(st.sampled_from(["<", "<=", "=", ">=", ">"]))
        i = draw(st.integers(0, arity - 1))
        j = draw(st.integers(0, arity - 1))
        c = draw(st.integers(-12, 12))
        right = TemporalTerm(j, c) if draw(st.booleans()) else TemporalTerm(None, c)
        atoms.append(Comparison(op, TemporalTerm(i), right))
    constraints = ConstraintSystem.from_atoms(arity, atoms)
    return GeneralizedTuple(lrps, (), constraints)


class TestPaperExamples:
    def test_example_21_train(self):
        # Example 2.1: trains leave at 40n+5 (>= 0), arrive 60 min later.
        train = GeneralizedTuple(
            (Lrp(40, 5), Lrp(40, 65)),
            ("Liege", "Brussels"),
            ConstraintSystem.parse("T1 >= 0 & T2 = T1 + 60", 2),
        )
        assert train.contains_point((5, 65), ("Liege", "Brussels"))
        assert train.contains_point((45, 105), ("Liege", "Brussels"))
        assert not train.contains_point((-35, 25), ("Liege", "Brussels"))
        assert not train.contains_point((5, 66), ("Liege", "Brussels"))
        assert not train.contains_point((5, 65), ("Liege", "Antwerp"))

    def test_generalized_tuple_of_section_21(self):
        # (2n1+3, 2n2+5) with T2 = T1 + 2 represents {…,(-1,1),(1,3),(3,5),…}
        gt = GeneralizedTuple(
            (Lrp(2, 3), Lrp(2, 5)),
            (),
            ConstraintSystem.parse("T2 = T1 + 2", 2),
        )
        for pair in ((-1, 1), (1, 3), (3, 5)):
            assert gt.contains_point(pair)
        assert not gt.contains_point((1, 4))
        assert not gt.contains_point((2, 4))

    def test_example_41_course(self):
        course = GeneralizedTuple(
            (Lrp(168, 8), Lrp(168, 10)),
            ("database",),
            ConstraintSystem.parse("T2 = T1 + 2", 2),
        )
        assert course.contains_point((8, 10), ("database",))
        assert course.contains_point((176, 178), ("database",))
        assert not course.contains_point((8, 12), ("database",))


class TestConstructionAndIdentity:
    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            GeneralizedTuple((Lrp(2, 0),), (), ConstraintSystem.top(2))

    def test_default_constraints_trivial(self):
        gt = GeneralizedTuple((Lrp(2, 0),))
        assert gt.constraints.is_trivial()

    def test_free_extension(self):
        gt = GeneralizedTuple(
            (Lrp(2, 0),), (), ConstraintSystem.parse("T1 >= 0", 1)
        )
        free = gt.free_extension()
        assert free.constraints.is_trivial()
        assert free.contains_point((-4,))
        assert gt.free_signature() == free.free_signature()

    def test_equality_canonical(self):
        a = GeneralizedTuple(
            (Lrp(2, 0),), (), ConstraintSystem.parse("T1 >= 0 & T1 >= -5", 1)
        )
        b = GeneralizedTuple((Lrp(2, 0),), (), ConstraintSystem.parse("T1 >= 0", 1))
        assert a == b and hash(a) == hash(b)

    def test_str_mentions_constraints(self):
        gt = GeneralizedTuple(
            (Lrp(40, 5),), ("x",), ConstraintSystem.parse("T1 >= 0", 1)
        )
        assert "40n+5" in str(gt) and "T1" in str(gt)


class TestAlignedForm:
    def test_congruence_gap_empty(self):
        # T1 ≡ 0 (4), T2 ≡ 2 (4), T1 <= T2 <= T1 + 1: zone non-empty,
        # extension empty — congruences and bounded gaps interact.
        gt = GeneralizedTuple(
            (Lrp(4, 0), Lrp(4, 2)),
            (),
            ConstraintSystem.parse("T1 <= T2 & T2 <= T1 + 1", 2),
        )
        assert gt.constraints.is_satisfiable()
        assert gt.is_empty()
        assert gt.aligned() == []

    def test_congruence_gap_nonempty(self):
        gt = GeneralizedTuple(
            (Lrp(4, 0), Lrp(4, 2)),
            (),
            ConstraintSystem.parse("T1 <= T2 & T2 <= T1 + 2", 2),
        )
        assert not gt.is_empty()
        times, _ = gt.sample()
        assert gt.contains_point(times)

    @given(small_tuples())
    @settings(max_examples=80)
    def test_aligned_preserves_extension(self, gt):
        disjuncts = gt.aligned()
        ground = times_in_window(gt, -30, 30)
        for times in ground:
            hits = [d for d in disjuncts if d.contains_times(times)]
            assert len(hits) == 1  # disjoint cover
        # And nothing extra: every disjunct point in window is in ground.
        for d in disjuncts:
            back = d.to_generalized()
            assert times_in_window(back, -30, 30) <= ground

    @given(small_tuples())
    @settings(max_examples=80)
    def test_aligned_roundtrip(self, gt):
        rebuilt = [d.to_generalized() for d in gt.aligned()]
        ground = times_in_window(gt, -25, 25)
        union = set()
        for r in rebuilt:
            union |= times_in_window(r, -25, 25)
        assert union == ground

    @given(small_tuples())
    @settings(max_examples=60)
    def test_is_empty_matches_enumeration(self, gt):
        # Empty within a generous window implies empty overall only for
        # the implication direction we can check cheaply:
        if not gt.is_empty():
            sample = gt.sample()
            assert sample is not None
            times, data = sample
            assert gt.contains_point(times, data)
        else:
            assert times_in_window(gt, -40, 40) == set()

    def test_alignment_with_explicit_period(self):
        gt = GeneralizedTuple((Lrp(2, 1),))
        disjuncts = gt.aligned(6)
        assert {d.residues for d in disjuncts} == {(1,), (3,), (5,)}

    def test_alignment_rejects_bad_period(self):
        with pytest.raises(ValueError):
            GeneralizedTuple((Lrp(4, 0),)).aligned(6)


class TestTransformations:
    def test_shift_column(self):
        gt = GeneralizedTuple(
            (Lrp(168, 8), Lrp(168, 10)),
            ("database",),
            ConstraintSystem.parse("T2 = T1 + 2", 2),
        )
        shifted = gt.shift_column(0, 2).shift_column(1, 2)
        assert shifted.lrps == (Lrp(168, 10), Lrp(168, 12))
        assert shifted.contains_point((10, 12), ("database",))
        assert not shifted.contains_point((8, 10), ("database",))

    @given(small_tuples(), st.integers(-20, 20))
    @settings(max_examples=60)
    def test_shift_extensional(self, gt, delta):
        shifted = gt.shift_column(0, delta)
        for times in times_in_window(gt, -20, 20):
            moved = (times[0] + delta,) + times[1:]
            assert shifted.contains_point(moved)

    def test_permuted(self):
        gt = GeneralizedTuple(
            (Lrp(4, 1), Lrp(6, 2)), (), ConstraintSystem.parse("T1 < T2", 2)
        )
        swapped = gt.permuted([1, 0])
        assert swapped.lrps == (Lrp(6, 2), Lrp(4, 1))
        # Original contains (1, 2); the swap contains (2, 1).
        assert gt.contains_point((1, 2))
        assert swapped.contains_point((2, 1))
        assert not swapped.contains_point((1, 2))

    def test_product(self):
        a = GeneralizedTuple((Lrp(2, 0),), ("x",), ConstraintSystem.parse("T1 >= 0", 1))
        b = GeneralizedTuple((Lrp(3, 1),), ("y",), ConstraintSystem.parse("T1 < 9", 1))
        ab = a.product(b)
        assert ab.lrps == (Lrp(2, 0), Lrp(3, 1))
        assert ab.data == ("x", "y")
        assert ab.contains_point((4, 7), ("x", "y"))
        assert not ab.contains_point((-2, 7), ("x", "y"))
        assert not ab.contains_point((4, 10), ("x", "y"))


class TestPropagation:
    def test_equality_refines_lrps(self):
        gt = GeneralizedTuple(
            (Lrp(4, 1), Lrp(6, 3)), (), ConstraintSystem.parse("T2 = T1", 2)
        )
        refined = gt.propagate_equalities()
        assert refined is not None
        assert refined.lrps == (Lrp(12, 9), Lrp(12, 9))

    def test_incompatible_equality(self):
        gt = GeneralizedTuple(
            (Lrp(4, 0), Lrp(4, 1)), (), ConstraintSystem.parse("T2 = T1", 2)
        )
        assert gt.propagate_equalities() is None

    def test_pinned_constant_outside_lrp(self):
        gt = GeneralizedTuple(
            (Lrp(4, 0),), (), ConstraintSystem.parse("T1 = 3", 1)
        )
        assert gt.propagate_equalities() is None

    def test_conjoined(self):
        gt = GeneralizedTuple((Lrp(40, 5), Lrp(40, 25)))
        atoms = [Comparison("=", TemporalTerm(1), TemporalTerm(0, 60))]
        refined = gt.conjoined(atoms)
        assert refined is not None
        assert refined.contains_point((5, 65))
        assert not refined.contains_point((5, 66))

    def test_conjoined_unsat(self):
        gt = GeneralizedTuple((Lrp(2, 0),))
        atoms = [
            Comparison("<", TemporalTerm(0), TemporalTerm(None, 0)),
            Comparison(">", TemporalTerm(0), TemporalTerm(None, 0)),
        ]
        assert gt.conjoined(atoms) is None


class TestProjection:
    def test_project_equality_linked(self):
        gt = GeneralizedTuple(
            (Lrp(168, 8), Lrp(168, 10)),
            ("database",),
            ConstraintSystem.parse("T2 = T1 + 2", 2),
        )
        projected = gt.project([1], [0])
        assert len(projected) == 1
        only = projected[0]
        assert only.lrps == (Lrp(168, 10),)
        assert only.contains_point((10,), ("database",))
        assert not only.contains_point((8,), ("database",))

    def test_project_drops_data(self):
        gt = GeneralizedTuple((Lrp(2, 0),), ("x", "y"))
        projected = gt.project([0], [1])
        assert projected[0].data == ("y",)

    def test_project_unconstrained_column(self):
        gt = GeneralizedTuple((Lrp(5, 2), Lrp(3, 1)))
        projected = gt.project([0], [])
        assert len(projected) == 1
        assert projected[0].lrps == (Lrp(5, 2),)

    def test_project_congruence_window(self):
        # Dropping T2 with period 4 under 0 <= T2 - T1 <= 1 must keep
        # only the T1 values with a residue-compatible witness.
        gt = GeneralizedTuple(
            (Lrp(1, 0), Lrp(4, 2)),
            (),
            ConstraintSystem.parse("T1 <= T2 & T2 <= T1 + 1", 2),
        )
        pieces = gt.project([0], [])
        kept = set()
        for piece in pieces:
            kept |= {t[0] for t in times_in_window(piece, -20, 20)}
        # T1 = t feasible iff some T2 in {t, t+1} is ≡ 2 mod 4.
        expected = {
            t
            for t in range(-20, 20)
            if any((u - 2) % 4 == 0 for u in (t, t + 1))
        }
        assert kept == expected

    @given(small_tuples())
    @settings(max_examples=60)
    def test_projection_extensional(self, gt):
        pieces = gt.project([0], [])
        shadow = {(t[0],) for t in times_in_window(gt, -25, 25)}
        covered = set()
        for piece in pieces:
            covered |= times_in_window(piece, -25, 25)
        # Every shadow point is covered (witness may live outside the
        # window, so covered may be larger near the edges — check the
        # inner region both ways).
        assert shadow <= covered
        inner = {
            (t,)
            for (t,) in covered
            if -10 <= t < 10
        }
        wide_shadow = {(t[0],) for t in times_in_window(gt, -60, 60)}
        assert inner <= wide_shadow

    def test_project_reorder(self):
        gt = GeneralizedTuple(
            (Lrp(2, 0), Lrp(3, 1), Lrp(5, 2)),
            (),
            ConstraintSystem.parse("T1 < T2 & T2 < T3", 3),
        )
        pieces = gt.project([2, 0], [])
        ground = times_in_window(gt, -10, 15)
        expected = {(t3, t1) for (t1, t2, t3) in ground}
        covered = set()
        for piece in pieces:
            covered |= times_in_window(piece, -10, 15)
        assert expected <= covered


class TestContainmentAndDifference:
    def test_covered_on_lattice_counts_lattice_points_only(self):
        # On 6n+4, the zone 4 <= T1 <= 10 holds only the points 4 and
        # 10; the integers 5..9 between them are not on the lattice.
        def point_zone(text):
            return ConstraintSystem.parse(text, 1)

        gt = GeneralizedTuple((Lrp(6, 4),), ("x",), point_zone("T1 >= 4 & T1 <= 10"))
        ends = [point_zone("T1 = 4"), point_zone("T1 = 10")]
        assert not gt.constraints.implied_by_union(ends)
        assert gt.covered_on_lattice(ends)
        assert not gt.covered_on_lattice(ends[:1])

    def test_covered_on_lattice_without_zones_is_emptiness(self):
        empty = GeneralizedTuple(
            (Lrp(2, 0),), (), ConstraintSystem.parse("T1 >= 1 & T1 <= 1", 1)
        )
        assert empty.covered_on_lattice([])
        assert not GeneralizedTuple((Lrp(2, 0),)).covered_on_lattice([])

    @given(small_tuples(), st.lists(small_tuples(), max_size=3))
    @settings(max_examples=60)
    def test_covered_on_lattice_is_exact(self, a, others):
        # The zones are read on a's own lrps: coverage holds exactly
        # when subtracting those same-lrp tuples leaves no point.
        zones = [other.constraints for other in others]
        same_lrps = [GeneralizedTuple(a.lrps, a.data, zone) for zone in zones]
        exact = all(piece.is_empty() for piece in a.subtract(same_lrps))
        assert a.covered_on_lattice(zones) == exact

    def test_subtract(self):
        whole = GeneralizedTuple(
            (Lrp(2, 0),), (), ConstraintSystem.parse("T1 >= 0 & T1 < 20", 1)
        )
        hole = GeneralizedTuple(
            (Lrp(2, 0),), (), ConstraintSystem.parse("T1 >= 6 & T1 < 10", 1)
        )
        pieces = whole.subtract([hole])
        covered = set()
        for piece in pieces:
            covered |= {t[0] for t in times_in_window(piece, -5, 30)}
        assert covered == {0, 2, 4, 10, 12, 14, 16, 18}

    def test_subtract_different_residues(self):
        evens = GeneralizedTuple((Lrp(2, 0),))
        odds = GeneralizedTuple((Lrp(2, 1),))
        pieces = evens.subtract([odds])
        covered = set()
        for piece in pieces:
            covered |= {t[0] for t in times_in_window(piece, -6, 6)}
        assert covered == {-6, -4, -2, 0, 2, 4}

    def test_subtract_aligns_on_a_given_period(self):
        point = GeneralizedTuple((Lrp(1, 0),), (), ConstraintSystem.parse("T1 = 1", 1))
        assert point.subtract([]) == [point]
        (piece,) = point.subtract([], 2)
        assert piece.lrps == (Lrp(2, 1),)
        assert times_in_window(piece, -6, 6) == times_in_window(point, -6, 6)

    @given(small_tuples(), small_tuples())
    @settings(max_examples=40)
    def test_subtract_extensional(self, a, b):
        pieces = a.subtract([b])
        expected = times_in_window(a, -24, 24) - times_in_window(b, -24, 24)
        covered = set()
        for piece in pieces:
            covered |= times_in_window(piece, -24, 24)
        assert covered == expected
