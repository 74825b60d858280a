"""Unit tests for linear repeating points (repro.lrp.point)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lrp import Lrp

lrps = st.builds(Lrp, st.integers(1, 60), st.integers(-200, 200))


class TestConstruction:
    def test_offset_normalized(self):
        assert Lrp(5, -2) == Lrp(5, 3)
        assert Lrp(5, 8).offset == 3

    def test_rejects_zero_period(self):
        with pytest.raises(ValueError):
            Lrp(0, 3)

    def test_rejects_negative_period(self):
        with pytest.raises(ValueError):
            Lrp(-5, 3)

    def test_paper_example_5n3(self):
        # "the lrp 5m+3 denotes {…, -7, -2, 3, 8, 13, …}" (Section 2.1)
        lrp = Lrp(5, 3)
        for t in (-7, -2, 3, 8, 13):
            assert t in lrp
        for t in (-6, 0, 5, 12):
            assert t not in lrp

    def test_parse(self):
        assert Lrp.parse("168n+8") == Lrp(168, 8)
        assert Lrp.parse("5n") == Lrp(5, 0)
        assert Lrp.parse("n+3") == Lrp(1, 0)  # period 1 absorbs every offset
        assert Lrp.parse("n") == Lrp(1, 0)

    def test_parse_rejects_plain_integer(self):
        with pytest.raises(ValueError):
            Lrp.parse("42")

    def test_str_roundtrip(self):
        for lrp in (Lrp(168, 8), Lrp(5, 0), Lrp(1, 0)):
            assert Lrp.parse(str(lrp)) == lrp


class TestMembershipAndSubset:
    @given(lrps, st.integers(-500, 500))
    def test_membership_definition(self, lrp, t):
        assert (t in lrp) == ((t - lrp.offset) % lrp.period == 0)

    def test_subset(self):
        assert Lrp(10, 3).is_subset(Lrp(5, 3))
        assert not Lrp(5, 3).is_subset(Lrp(10, 3))
        assert not Lrp(10, 4).is_subset(Lrp(5, 3))

    @given(lrps, lrps)
    def test_subset_agrees_with_enumeration(self, a, b):
        window = range(-120, 120)
        enumerated = all((t not in a) or (t in b) for t in window)
        if a.is_subset(b):
            assert enumerated
        else:
            # Some point of a outside b must exist; check a full period.
            assert any(t in a and t not in b for t in range(a.period * b.period))


class TestIntersection:
    def test_textbook(self):
        assert Lrp(4, 1).intersect(Lrp(6, 3)) == Lrp(12, 9)

    def test_disjoint(self):
        assert Lrp(4, 0).intersect(Lrp(4, 1)) is None

    @given(lrps, lrps)
    def test_agrees_with_enumeration(self, a, b):
        meet = a.intersect(b)
        period = a.period * b.period
        brute = [t for t in range(period) if t in a and t in b]
        if meet is None:
            assert brute == []
            assert not a.intersects(b)
        else:
            assert a.intersects(b)
            assert brute == [t for t in range(period) if t in meet]

    @given(lrps)
    def test_self_intersection(self, lrp):
        assert lrp.intersect(lrp) == lrp


class TestTransformations:
    def test_shift(self):
        assert Lrp(5, 3).shift(4) == Lrp(5, 2)
        assert Lrp(5, 3).shift(-4) == Lrp(5, 4)

    @given(lrps, st.integers(-100, 100), st.integers(-100, 100))
    def test_shift_membership(self, lrp, c, t):
        assert (t in lrp.shift(c)) == ((t - c) in lrp)

    def test_scale_period(self):
        assert Lrp(2, 1).scale_period(2) == [Lrp(4, 1), Lrp(4, 3)]

    @given(lrps, st.integers(1, 6))
    def test_scale_period_partitions(self, lrp, factor):
        parts = lrp.scale_period(factor)
        window = range(0, lrp.period * factor * 2)
        for t in window:
            count = sum(t in p for p in parts)
            assert count <= 1  # parts are disjoint
            assert (t in lrp) == (count == 1)

    def test_residues_modulo(self):
        assert Lrp(2, 0).residues_modulo(6) == [0, 2, 4]

    def test_residues_modulo_rejects_non_multiple(self):
        with pytest.raises(ValueError):
            Lrp(4, 0).residues_modulo(6)


class TestEnumeration:
    def test_enumerate(self):
        assert list(Lrp(5, 3).enumerate(-5, 15)) == [-2, 3, 8, 13]

    def test_enumerate_empty_window(self):
        assert list(Lrp(5, 3).enumerate(4, 4)) == []

    @given(lrps, st.integers(-100, 100), st.integers(0, 100))
    def test_enumerate_matches_membership(self, lrp, low, width):
        high = low + width
        assert list(lrp.enumerate(low, high)) == [t for t in range(low, high) if t in lrp]
