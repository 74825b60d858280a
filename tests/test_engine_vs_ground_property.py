"""Closed-form evaluation against the ground T_P oracle.

The other half of the differential matrix's fixpoint mode
(``tests/test_differential.py``): on the generator's range-restricted
cases the reference model must agree with
:class:`repro.core.GroundEvaluator` on every temporal column inside
the window interior.  This exercises lrps, CRT refinement, the DBM
algebra, the generalized-program transformation, T_GP, both safety
criteria and stratified negation at once.
"""

from hypothesis import assume, given, settings

from repro.util.errors import GiveUpError

from tests.differential import DATA, Oracle, cases, run, settle


def assert_reference_matches_ground(case):
    oracle = Oracle(case, case.program(), case.edb())
    assume(not oracle.gave_up and oracle.ground is not None)
    oracle.assert_matches_ground(oracle.reference, "reference")


@settings(max_examples=25, deadline=None)
@given(case=cases(shape="unary"))
def test_engine_matches_ground_oracle(case):
    """Temporal arity 1: shift recursion over periodic, bounded and
    folding seeds, with EDB and IDB negation."""
    assert_reference_matches_ground(case)


@settings(max_examples=15, deadline=None)
@given(case=cases(shape="gap"))
def test_two_argument_recursion_matches_oracle(case):
    """Temporal arity 2: ``go`` chains ``hop`` under a gap constraint."""
    assert_reference_matches_ground(case)


@settings(max_examples=15, deadline=None)
@given(case=cases(shape="negation"))
def test_stratified_negation_matches_hand_semantics(case):
    """``neg(t; X) <- b(t; X), not pK(t; X).`` holds exactly where ``b``
    holds and the finished lower stratum ``pK`` does not."""
    program, edb = case.program(), case.edb()
    model = settle(lambda: run(program, edb))
    assume(not isinstance(model, GiveUpError))
    # pK is the last of p0, p1, ...
    lower = max(p for p in program.intensional_predicates() if p.startswith("p"))
    values = [()]
    if model.relation("neg").data_arity:
        values = [(value.strip('"'),) for value in DATA]
    for t in range(*case.interior):
        for data in values:
            expected = edb.relation("b").contains_point(
                (t,), data
            ) and not model.relation(lower).contains_point((t,), data)
            assert model.relation("neg").contains_point((t,), data) == expected, (
                t,
                data,
            )
