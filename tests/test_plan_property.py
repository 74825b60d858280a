"""Compiled plans against the paper-literal reference plans.

The fixpoint mode of the differential matrix
(``tests/test_differential.py``), one test per strategy: over the
generator's cases the compiled model must be ``equivalent()`` to the
reference run (:mod:`repro.plan.reference`, naive rounds), or give up
exactly where it does and then agree with ground.
"""

from hypothesis import example, given, settings

from repro.core import DeductiveEngine, parse_program
from repro.gdb import parse_database
from tests.differential import Case, Oracle, assert_fixpoint_agrees, cases

# The anti-join pins p0's rows to lattice points (``(6n+4; "x") where
# T1 = 10``) that the reference keeps as intervals; on the integers
# ``(6n+4; "x") where 4 <= T1 <= 10`` is not covered by the points 4
# and 10, on its lattice it is.
LATTICE_EDB = 'relation a[1; 1] { (2n; "x") where T1 >= 5; (3n; "x") where T1 >= 0; }'
LATTICE_PROGRAM = (
    'p0(t; "x") <- a(t; "x"), not a(t + 1; "x"), t < 12.\n'
    "p0(t + 1; X) <- p0(t; X), t < 10."
)
LATTICE_CASE = Case(
    relations=(
        ("a", 1, 1, ('(2n; "x") where T1 >= 5', '(3n; "x") where T1 >= 0')),
        ("b", 1, 1, ('(2n; "x") where T1 >= 0',)),
    ),
    program_text=LATTICE_PROGRAM,
    goal=("p0", 0, 1, ()),
    batches=((("assert", "a", '(2n; "x") where T1 >= 0'),),),
    strategy="naive",
    resume_at=0,
    rederive_budget=0,
    window=(-24, 96),
    interior=(0, 60),
)


@settings(max_examples=20, deadline=None)
@given(case=cases())
@example(case=LATTICE_CASE)
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


def test_coverage_on_the_lattice_closes_where_the_reference_closes():
    program, edb = parse_program(LATTICE_PROGRAM), parse_database(LATTICE_EDB)
    reference = DeductiveEngine(
        program, edb, strategy="naive", evaluation="reference", patience=5
    ).run()
    assert reference.stats.rounds == 5
    for strategy in ("naive", "semi-naive"):
        model = DeductiveEngine(program, edb, strategy=strategy, patience=5).run()
        assert model.stats.rounds == 5, strategy
        assert model.equivalent(reference), strategy
