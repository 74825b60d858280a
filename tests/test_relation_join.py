"""Tests for the forced-aligned projection (the E12 ablation path)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import ConstraintSystem
from repro.gdb import GeneralizedRelation, GeneralizedTuple
from repro.lrp import Lrp


class TestForcedAlignedProjection:
    def make_tuple(self):
        return GeneralizedTuple(
            (Lrp(4, 1), Lrp(6, 3)),
            (),
            ConstraintSystem.parse("T1 < T2 & T2 <= T1 + 9", 2),
        )

    def test_same_extension_both_paths(self):
        gt = self.make_tuple()
        fast = gt.project([0], [])
        forced = gt.project([0], [], force_aligned=True)

        def union_window(pieces):
            out = set()
            for piece in pieces:
                rel = GeneralizedRelation(1, 0, [piece])
                out |= rel.extension(-40, 40)
            return out

        assert union_window(fast) == union_window(forced)

    @given(
        st.integers(1, 6),
        st.integers(0, 5),
        st.integers(1, 6),
        st.integers(0, 5),
        st.integers(0, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_projections_agree(self, p1, o1, p2, o2, width):
        gt = GeneralizedTuple(
            (Lrp(p1, o1), Lrp(p2, o2)),
            (),
            ConstraintSystem.parse("T1 <= T2 & T2 <= T1 + %d" % width, 2),
        )
        fast = gt.project([1], [])
        forced = gt.project([1], [], force_aligned=True)

        def union_window(pieces):
            out = set()
            for piece in pieces:
                rel = GeneralizedRelation(1, 0, [piece])
                out |= rel.extension(-30, 30)
            return out

        assert union_window(fast) == union_window(forced)

    def test_forced_path_produces_aligned_periods(self):
        gt = self.make_tuple()
        forced = gt.project([0], [], force_aligned=True)
        assert all(piece.lrps[0].period in (12, 6, 4, 3, 2, 1) for piece in forced)
