"""Shift closure at acceptance (:mod:`repro.core.shift`).

The closure of a tuple under a one-column shift is checked point by
point against the one-step chain it replaces, the shape detection
against programs just inside and just outside it, and the monadic
example the one-step engine gives up on against Datalog1S.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.constraints.dbm import INF, Dbm
from repro.constraints.system import ConstraintSystem
from repro.core import DeductiveEngine, parse_program
from repro.core.evaluation import ProgramEvaluator
from repro.core.shift import shift_closure
from repro.datalog1s import datalog1s_model_to_relation, minimal_model, parse_datalog1s
from repro.gdb import parse_database
from repro.gdb.relation import GeneralizedRelation
from repro.gdb.tuple import GeneralizedTuple
from repro.lrp import Lrp
from repro.plan.magic import QueryGoal, rewrite_for_goal

WINDOW = (-150, 150)


def interval_tuple(period, offset, lo, hi):
    zone = Dbm.unconstrained(1)
    if lo is not None:
        zone.add_bound(0, 1, -lo)
    if hi is not None:
        zone.add_bound(1, 0, hi)
    return GeneralizedTuple((Lrp(period, offset),), (), ConstraintSystem(1, zone))


@st.composite
def closures(draw):
    period = draw(st.sampled_from(list(range(1, 13)) + [24, 48]))
    shift = draw(st.integers(1, 60))
    offset = draw(st.integers(0, period - 1))
    lo = draw(st.none() | st.integers(-60, 60))
    hi = draw(st.none() | st.integers(-60, 120))
    low, high = -INF, INF
    if draw(st.booleans()):
        # A demand window containing the tuple (every guarded clause
        # carries the guard, so what it derives lies inside).
        low = draw(st.integers(-80, 40))
        high = low + draw(st.integers(0, 150))
        lo = low if lo is None else max(lo, low)
        hi = high if hi is None else min(hi, high)
    if lo is not None and hi is not None and hi < lo:
        hi = lo
    return period, shift, offset, lo, hi, low, high


@settings(max_examples=300, deadline=None)
@given(closures())
@example((1, 5, 0, 0, 0, -INF, INF))  # the point seed: (5n) where T1 >= 0
@example((48, 2, 5, None, None, -INF, INF))  # a period-48 seed folds to 2n+1
@example((1, 1_000_000, 0, 0, 5, -INF, INF))  # too long a shift: not taken
def test_closure_is_the_chain_of_one_step_shifts(drawn):
    period, shift, offset, lo, hi, low, high = drawn
    gt = interval_tuple(period, offset, lo, hi)
    closure = shift_closure(gt, shift, low, high)
    copies = period // math.gcd(period, shift)
    if closure is None:
        # Only a bounded tuple whose residue form outgrows a/g is left
        # to the one-step chain.
        assert hi is not None and lo is not None
        assert len(list(gt.lrps[0].enumerate(lo, hi + 1))) > copies
        return
    assert len(closure) <= copies
    got = GeneralizedRelation(1, 0, closure).extension(*WINDOW)
    assert {flat[0] for flat in got} == walked(gt, shift, high)


def walked(gt, shift, high):
    """Every point of the window the one-step chain reaches from
    ``gt``: x + k·shift for a point x of gt and k >= 0, up to ``high``
    (the chain's lower end is gt's own, inside the demand zone)."""
    lrp = gt.lrps[0]
    start = WINDOW[0] - lrp.period * shift - (WINDOW[1] - WINDOW[0])
    reached = set()
    for x in lrp.enumerate(start, WINDOW[1]):
        if not gt.contains_point((x,)):
            continue
        y = x
        while y < WINDOW[1] and y <= high:
            if y >= WINDOW[0]:
                reached.add(y)
            y += shift
    return reached


def accelerated(text, edb="relation s[1; 1] { }"):
    return ProgramEvaluator(parse_program(text), parse_database(edb)).shifts


class TestShape:
    def test_pure_shift_is_accelerated(self):
        shifts = accelerated("p(t; X) <- s(t; X). p(t + 4; X) <- p(t; X).")
        assert {name: shift.shift for name, shift in shifts.items()} == {"p": 4}

    def test_shift_written_as_a_constraint(self):
        shifts = accelerated("p(t; X) <- s(t; X). p(u; X) <- p(t; X), u = t + 3.")
        assert shifts["p"].shift == 3

    def test_outside_the_shape(self):
        for text in (
            # a constraint besides the link
            "p(t; X) <- s(t; X). p(t + 2; X) <- p(t; X), t < 17.",
            # another body atom
            "p(t; X) <- s(t; X). p(t + 2; X) <- p(t; X), s(t; X).",
            # a backward shift
            "p(t; X) <- s(t; X). p(t - 2; X) <- p(t; X).",
            # two recursive clauses
            "p(t; X) <- s(t; X). p(t + 2; X) <- p(t; X). p(t + 3; X) <- p(t; X).",
            # mutual recursion
            "p(t; X) <- s(t; X). q(t + 1; X) <- p(t; X). p(t + 1; X) <- q(t; X).",
            # data columns permuted or pinned
            "p(t; X, Y) <- s(t; X), s(t; Y). p(t + 1; Y, X) <- p(t; X, Y).",
            'p(t; X) <- s(t; X). p(t + 1; "a") <- p(t; "a").',
        ):
            assert accelerated(text) == {}, text
        assert accelerated(
            "p(t, u) <- s(t; X), u = t. p(t + 1, u + 1) <- p(t, u)."
        ) == {}
        program = "p(t; X) <- s(t; X). p(t + 2; X) <- p(t; X)."
        reference = ProgramEvaluator(
            parse_program(program),
            parse_database("relation s[1; 1] { }"),
            evaluation="reference",
        )
        assert reference.shifts == {}

    def test_goal_directed_guard_binds_data_columns(self):
        program = parse_program("p(t; X) <- s(t; X). p(t + 2; X) <- p(t; X).")
        edb = parse_database('relation s[1; 1] { (24n; "x"); (24n+1; "y"); }')
        rewrite = rewrite_for_goal(program, QueryGoal.windowed("p", 0, 30, {0: "x"}))
        shifts = ProgramEvaluator(rewrite.program, rewrite.augmented_edb(edb)).shifts
        assert (shifts["p"].guard, shifts["p"].guard_columns) == ("_m__p", (0,))


def test_monadic_example_closes_to_the_datalog1s_model():
    # p(t + 3) <- p(t) over s = {0, 1}: the one-step chain never
    # closes the points, the closure takes each to its class.
    edb = parse_database("relation s[1; 0] { (n) where T1 = 0; (n) where T1 = 1; }")
    program = parse_program("p(t) <- s(t). p(t + 3) <- p(t). q(t) <- p(t), p(t + 5).")
    model = DeductiveEngine(program, edb).run()
    assert model.stats.constraint_safe
    expected = datalog1s_model_to_relation(
        minimal_model(
            parse_datalog1s("p(0). p(1). p(t + 3) <- p(t). q(t) <- p(t), p(t + 5).")
        ),
        "q",
    )
    assert model.relation("q").equivalent(expected)
    assert [str(gt) for gt in model.relation("q").tuples] == ["(3n+1) where 0 <= T1 - 1"]
