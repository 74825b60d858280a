"""Compiled plans against the paper-literal reference plans.

The fixpoint mode of the differential matrix
(``tests/test_differential.py``), one test per strategy: over the
generator's cases the compiled model must be ``equivalent()`` to the
reference run (:mod:`repro.plan.reference`, naive rounds), or give up
exactly where it does and then agree with ground.
"""

from hypothesis import given, settings

from tests.differential import Oracle, assert_fixpoint_agrees, cases


@settings(max_examples=20, deadline=None)
@given(case=cases())
def test_fixpoint_matches_reference(case):
    """Naive rounds: compiled and reference plans run the same rounds."""
    assert_fixpoint_agrees(Oracle(case, case.program(), case.edb()), "naive")


@settings(max_examples=20, deadline=None)
@given(case=cases())
def test_columnar_kernel_matches_reference(case):
    """Semi-naive rounds: the compiled delta plans, whose operators run
    through the batch kernel (:mod:`repro.gdb.kernel`), against the
    reference."""
    assert_fixpoint_agrees(Oracle(case, case.program(), case.edb()), "semi-naive")
