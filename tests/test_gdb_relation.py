"""Tests for the generalized relation algebra."""

import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.constraints import Comparison, ConstraintSystem, TemporalTerm
from repro.core import DeductiveEngine
from repro.gdb import GeneralizedRelation, GeneralizedTuple
from repro.lrp import Lrp
from repro.util.errors import SchemaError
from tests.e14 import workloads

W = 30


def rel_of(*tuples, m=1, l=0):
    return GeneralizedRelation(m, l, tuples)


def interval_tuple(low, high, period=1, offset=0):
    text = "T1 >= %d & T1 < %d" % (low, high)
    return GeneralizedTuple(
        (Lrp(period, offset),), (), ConstraintSystem.parse(text, 1)
    )


small_lrps = st.builds(Lrp, st.integers(1, 5), st.integers(0, 4))


@st.composite
def small_relations(draw, m=1, l=0, max_tuples=3):
    n = draw(st.integers(0, max_tuples))
    tuples = []
    for _ in range(n):
        lrps = tuple(draw(small_lrps) for _ in range(m))
        atoms = []
        for _ in range(draw(st.integers(0, 2))):
            op = draw(st.sampled_from(["<", "<=", "=", ">="]))
            i = draw(st.integers(0, m - 1))
            c = draw(st.integers(-10, 10))
            if m > 1 and draw(st.booleans()):
                j = draw(st.integers(0, m - 1))
                right = TemporalTerm(j, c)
            else:
                right = TemporalTerm(None, c)
            atoms.append(Comparison(op, TemporalTerm(i), right))
        data = tuple(draw(st.sampled_from(["a", "b"])) for _ in range(l))
        tuples.append(
            GeneralizedTuple(lrps, data, ConstraintSystem.from_atoms(m, atoms))
        )
    return GeneralizedRelation(m, l, tuples)


class TestBasics:
    def test_empty(self):
        rel = GeneralizedRelation.empty(2, 1)
        assert rel.is_empty()
        assert len(rel) == 0

    def test_schema_check(self):
        rel = GeneralizedRelation.empty(2, 0)
        with pytest.raises(SchemaError):
            rel.with_tuple(GeneralizedTuple((Lrp(2, 0),)))

    def test_universe(self):
        uni = GeneralizedRelation.universe(1)
        for t in (-100, 0, 37):
            assert uni.contains_point((t,))

    def test_universe_with_data(self):
        uni = GeneralizedRelation.universe(1, [("a",), ("b",)])
        assert uni.contains_point((5,), ("a",))
        assert uni.contains_point((5,), ("b",))
        assert not uni.contains_point((5,), ("c",))

    def test_extension_window(self):
        rel = rel_of(interval_tuple(0, 6, period=2))
        assert rel.extension(-4, 10) == {(0,), (2,), (4,)}

    def test_data_values(self):
        rel = GeneralizedRelation(
            0, 1, [GeneralizedTuple((), ("x",)), GeneralizedTuple((), ("y",))]
        )
        assert rel.data_values(0) == {"x", "y"}


class TestUnionIntersect:
    def test_union(self):
        a = rel_of(interval_tuple(0, 3))
        b = rel_of(interval_tuple(5, 7))
        assert (a.union(b)).extension(-2, 10) == {(0,), (1,), (2,), (5,), (6,)}

    def test_union_schema_mismatch(self):
        with pytest.raises(SchemaError):
            rel_of(interval_tuple(0, 3)).union(GeneralizedRelation.empty(2))

    def test_intersect_crt(self):
        # 4n+1 ∩ 6n+3 = 12n+9
        a = rel_of(GeneralizedTuple((Lrp(4, 1),)))
        b = rel_of(GeneralizedTuple((Lrp(6, 3),)))
        meet = a.intersect(b)
        assert len(meet) == 1
        assert meet.tuples[0].lrps == (Lrp(12, 9),)

    def test_intersect_disjoint_residues(self):
        a = rel_of(GeneralizedTuple((Lrp(4, 0),)))
        b = rel_of(GeneralizedTuple((Lrp(4, 1),)))
        assert a.intersect(b).is_empty()

    def test_intersect_data_filter(self):
        a = GeneralizedRelation(0, 1, [GeneralizedTuple((), ("x",))])
        b = GeneralizedRelation(0, 1, [GeneralizedTuple((), ("y",))])
        assert a.intersect(b).is_empty()

    @given(small_relations(), small_relations())
    @settings(max_examples=50)
    def test_intersect_extensional(self, a, b):
        meet = a.intersect(b)
        assert meet.extension(-W, W) == (a.extension(-W, W) & b.extension(-W, W))

    @given(small_relations(), small_relations())
    @settings(max_examples=50)
    def test_union_extensional(self, a, b):
        assert a.union(b).extension(-W, W) == (a.extension(-W, W) | b.extension(-W, W))


class TestSelectProjectShift:
    def test_select(self):
        rel = rel_of(GeneralizedTuple((Lrp(2, 0),)))
        atoms = [Comparison(">=", TemporalTerm(0), TemporalTerm(None, 0))]
        selected = rel.select(atoms)
        assert selected.extension(-6, 6) == {(0,), (2,), (4,)}

    def test_select_data(self):
        rel = GeneralizedRelation(
            1,
            1,
            [
                GeneralizedTuple((Lrp(2, 0),), ("x",)),
                GeneralizedTuple((Lrp(2, 0),), ("y",)),
            ],
        )
        assert rel.select_data_constant(0, "x").data_values(0) == {"x"}

    def test_select_data_equal(self):
        rel = GeneralizedRelation(
            0,
            2,
            [
                GeneralizedTuple((), ("x", "x")),
                GeneralizedTuple((), ("x", "y")),
            ],
        )
        assert len(rel.select_data_equal(0, 1)) == 1

    def test_shift(self):
        rel = rel_of(interval_tuple(0, 3))
        shifted = rel.shift(0, 10)
        assert shifted.extension(0, 20) == {(10,), (11,), (12,)}

    @given(small_relations(m=2), st.integers(-10, 10))
    @settings(max_examples=40)
    def test_shift_extensional(self, rel, delta):
        shifted = rel.shift(1, delta)
        expected = {(t1, t2 + delta) for (t1, t2) in rel.extension(-15, 15)}
        got = shifted.extension(-30, 30)
        assert expected <= got

    def test_project(self):
        gt = GeneralizedTuple(
            (Lrp(168, 8), Lrp(168, 10)),
            ("database",),
            ConstraintSystem.parse("T2 = T1 + 2", 2),
        )
        rel = GeneralizedRelation(2, 1, [gt])
        projected = rel.project([0], [0])
        assert projected.temporal_arity == 1
        assert projected.contains_point((8,), ("database",))
        assert not projected.contains_point((10,), ("database",))

    def test_permuted(self):
        rel = GeneralizedRelation(
            2, 0, [GeneralizedTuple((Lrp(2, 0), Lrp(3, 1)))]
        )
        swapped = rel.permuted([1, 0])
        assert swapped.contains_point((1, 0))


class TestDifferenceComplement:
    def test_difference(self):
        a = rel_of(interval_tuple(0, 10))
        b = rel_of(interval_tuple(3, 6))
        assert a.difference(b).extension(-2, 12) == {
            (t,) for t in (0, 1, 2, 6, 7, 8, 9)
        }

    @given(small_relations(), small_relations())
    @settings(max_examples=40)
    def test_difference_extensional(self, a, b):
        diff = a.difference(b)
        assert diff.extension(-W, W) == a.extension(-W, W) - b.extension(-W, W)

    def test_complement_temporal(self):
        evens = rel_of(GeneralizedTuple((Lrp(2, 0),)))
        odds = evens.complement()
        assert odds.extension(-4, 4) == {(-3,), (-1,), (1,), (3,)}

    @given(small_relations())
    @settings(max_examples=40)
    def test_complement_extensional(self, rel):
        comp = rel.complement()
        universe = {(t,) for t in range(-W, W)}
        assert comp.extension(-W, W) == universe - rel.extension(-W, W)

    @given(small_relations())
    @settings(max_examples=30)
    def test_double_complement(self, rel):
        assert rel.complement().complement().equivalent(rel)

    def test_complement_with_data(self):
        rel = GeneralizedRelation(
            1,
            1,
            [
                GeneralizedTuple(
                    (Lrp(2, 0),), ("x",), ConstraintSystem.parse("T1 >= 0", 1)
                )
            ],
        )
        comp = rel.complement(data_domains=[["x", "y"]])
        assert comp.contains_point((-2,), ("x",))
        assert comp.contains_point((1,), ("x",))
        assert comp.contains_point((0,), ("y",))
        assert not comp.contains_point((0,), ("x",))


class TestContainmentEquivalence:
    def test_contains(self):
        big = rel_of(interval_tuple(0, 10))
        small = rel_of(interval_tuple(2, 5))
        assert big.contains(small)
        assert not small.contains(big)

    def test_equivalent_different_representations(self):
        one = rel_of(GeneralizedTuple((Lrp(2, 0),)))
        two = rel_of(
            GeneralizedTuple((Lrp(4, 0),)), GeneralizedTuple((Lrp(4, 2),))
        )
        assert one.equivalent(two)

    @given(small_relations(), small_relations())
    @settings(max_examples=30)
    def test_contains_extensional(self, a, b):
        if a.contains(b):
            assert b.extension(-W, W) <= a.extension(-W, W)


class TestNormalizeCoalesce:
    def test_normalize_duplicates(self):
        gt = interval_tuple(0, 5)
        rel = rel_of(gt, gt)
        assert len(rel.normalize()) == 1

    def test_normalize_prunes_empty(self):
        empty_gt = GeneralizedTuple(
            (Lrp(4, 0), Lrp(4, 2)),
            (),
            ConstraintSystem.parse("T1 <= T2 & T2 <= T1 + 1", 2),
        )
        rel = GeneralizedRelation(2, 0, [empty_gt])
        assert len(rel.normalize()) == 0

    def test_coalesce_zone_merge(self):
        a = interval_tuple(0, 5)
        b = interval_tuple(5, 10)
        merged = rel_of(a, b).coalesce()
        assert len(merged) == 1
        assert merged.extension(-2, 12) == {(t,) for t in range(10)}

    def test_coalesce_zone_merge_rejects_gap(self):
        a = interval_tuple(0, 5)
        b = interval_tuple(6, 10)
        merged = rel_of(a, b).coalesce()
        assert len(merged) == 2

    def test_coalesce_zone_merge_accepts_a_lattice_empty_gap(self):
        # The hull adds 5 only, which is not even: one tuple covers both.
        a = interval_tuple(0, 5, period=2)
        b = interval_tuple(6, 11, period=2)
        merged = rel_of(a, b).coalesce()
        assert len(merged) == 1
        assert str(merged.tuples[0]) == "(2n) where 0 <= T1 & T1 <= 10"
        assert merged.extension(-2, 14) == {(t,) for t in range(0, 11, 2)}

    def test_coalesce_lrp_merge(self):
        evens = GeneralizedTuple((Lrp(4, 0),))
        twos = GeneralizedTuple((Lrp(4, 2),))
        merged = rel_of(evens, twos).coalesce()
        assert len(merged) == 1
        assert merged.tuples[0].lrps == (Lrp(2, 0),)

    @given(small_relations())
    @settings(max_examples=40)
    def test_coalesce_preserves_extension(self, rel):
        assert rel.coalesce().extension(-W, W) == rel.extension(-W, W)

    @given(small_relations())
    @settings(max_examples=30)
    def test_normalize_preserves_extension(self, rel):
        normalized = rel.normalize()
        assert normalized.extension(-W, W) == rel.extension(-W, W)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_grown_relation_normalizes_like_a_fresh_one(self, data):
        # A normalized relation grown by with_tuples (copies of its own
        # rows, repeats within the new tail, empty tuples) or shrunk by
        # without checks only its tail, yet must normalize to exactly
        # the sequence a scan of every tuple gives, and to itself when
        # that scan drops nothing.
        pool = data.draw(small_relations(max_tuples=4)).tuples + (
            interval_tuple(5, 5),
            interval_tuple(1, 3, period=4, offset=3),
        )
        relation = rel_of(*data.draw(st.lists(st.sampled_from(pool), max_size=5)))
        relation = relation.normalize()
        for _ in range(data.draw(st.integers(1, 4))):
            if relation.tuples and data.draw(st.booleans()):
                positions = data.draw(
                    st.sets(st.integers(0, len(relation.tuples) - 1))
                )
                relation = relation.without(positions)
            else:
                rows = st.sampled_from(pool + relation.tuples)
                relation = relation.with_tuples(
                    data.draw(st.lists(rows, min_size=1, max_size=5))
                )
            expected = normalized_from_scratch(relation.tuples)
            normalized = relation.normalize()
            assert normalized.tuples == expected
            assert (normalized is relation) == (len(expected) == len(relation))
            if data.draw(st.booleans()):
                relation = normalized


def residues(lrp, period):
    """The residues modulo ``period`` (a multiple of the lrp's) it holds."""
    return set(lrp.residues_modulo(period))


@st.composite
def residue_unions(draw):
    """A period and a union of its residue classes, as one group of the
    fold: tuples equal in everything but their lrp's offset."""
    period = draw(st.sampled_from([1, 2, 4, 6, 8, 12, 18, 24, 30, 36, 48, 60]))
    offsets = draw(st.sets(st.integers(0, period - 1), min_size=1))
    return period, offsets


class TestResidueFold:
    """coalesce's residue fold: full residue classes of a coarser
    modulus become one lrp, in one pass per group."""

    def test_multi_chain_closed_forms_fold_to_period_two(self):
        # The reference backend walks each shift chain one round per
        # step, so its relations hold every period-48 class.
        program, edb = workloads().multi_chain_workload(chains=6)
        model = DeductiveEngine(program, edb, evaluation="reference").run()
        p0, meet0 = model.relation("p0"), model.relation("meet0")
        assert (len(p0), len(meet0)) == (96, 192)
        for relation, folded_size in ((p0, 4), (meet0, 8)):
            folded = relation.coalesce()
            assert len(folded) == folded_size
            assert {gt.lrps for gt in folded.tuples} <= {(Lrp(2, 0),), (Lrp(2, 1),)}
            assert folded.equivalent(relation)

    @given(residue_unions(), st.randoms(use_true_random=False))
    @example((6, {0, 2, 4}), random.Random(0))  # a three-way merge
    @settings(max_examples=80, deadline=None)
    def test_fold_of_one_group_is_exact_disjoint_and_final(self, union, rng):
        period, offsets = union
        order = sorted(offsets)
        rng.shuffle(order)
        relation = rel_of(*(GeneralizedTuple((Lrp(period, b),)) for b in order))
        folded = [gt.lrps[0] for gt in relation.coalesce().tuples]
        window = 2 * period + 3
        assert rel_of(
            *(GeneralizedTuple((lrp,)) for lrp in folded)
        ).extension(-window, window) == relation.extension(-window, window)
        held = [residues(lrp, period) for lrp in folded]
        assert sum(map(len, held)) == len(set().union(*held)) == len(offsets)
        for g in range(1, period):
            if period % g:
                continue
            for b in range(g):
                inside = [lrp for lrp in folded if lrp.is_subset(Lrp(g, b))]
                covered = sum(len(residues(lrp, period)) for lrp in inside)
                assert len(inside) == 1 or covered < period // g, (g, b, folded)

    @given(st.lists(
        st.tuples(
            st.sampled_from([2, 4, 6, 12]),
            st.integers(0, 11),
            st.sampled_from([2, 4, 6, 12]),
            st.integers(0, 11),
            st.sampled_from(["a", "b"]),
            st.sampled_from(["true", "T1 >= 0", "T2 <= T1 + 5"]),
        ),
        max_size=24,
    ))
    @settings(max_examples=60, deadline=None)
    def test_fold_across_columns_keeps_the_extension(self, rows):
        relation = rel_of(
            *(
                GeneralizedTuple(
                    (Lrp(p1, b1), Lrp(p2, b2)), (x,), ConstraintSystem.parse(c, 2)
                )
                for p1, b1, p2, b2, x, c in rows
            ),
            m=2,
            l=1,
        )
        folded = relation.coalesce()
        assert len(folded) <= len(relation.normalize())
        assert folded.extension(-14, 14) == relation.extension(-14, 14)

    def test_a_thousand_classes_fold_to_every_instant(self):
        relation = rel_of(*(GeneralizedTuple((Lrp(1000, b),)) for b in range(1000)))
        started = time.perf_counter()
        folded = relation.coalesce()
        assert time.perf_counter() - started < 5.0
        assert [gt.lrps for gt in folded.tuples] == [(Lrp(1, 0),)]

    def test_coprime_periods_are_never_aligned(self):
        # Aligning these three to the lcm of their periods would take
        # about 10^9 residues; each is its own group, so nothing folds.
        relation = rel_of(
            *(GeneralizedTuple((Lrp(p, b),)) for p, b in ((1009, 0), (1013, 1), (1019, 2)))
        )
        started = time.perf_counter()
        folded = relation.coalesce()
        assert time.perf_counter() - started < 1.0
        assert folded.tuples == relation.tuples


def normalized_from_scratch(tuples):
    """The first copy of each row key, empty tuples dropped, in order."""
    seen, kept = set(), []
    for gt in tuples:
        if gt.row_key() in seen:
            continue
        seen.add(gt.row_key())
        if not gt.is_empty():
            kept.append(gt)
    return tuple(kept)


class TestProduct:
    def test_product(self):
        a = rel_of(interval_tuple(0, 2))
        b = rel_of(interval_tuple(10, 12))
        prod = a.product(b)
        assert prod.temporal_arity == 2
        assert prod.extension(-1, 15) == {
            (0, 10),
            (0, 11),
            (1, 10),
            (1, 11),
        }

    @given(small_relations(), small_relations())
    @settings(max_examples=30)
    def test_product_extensional(self, a, b):
        prod = a.product(b)
        expected = {
            ta + tb
            for ta in a.extension(-10, 10)
            for tb in b.extension(-10, 10)
        }
        assert prod.extension(-10, 10) == expected
