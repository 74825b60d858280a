"""The one generator of deductive test cases, for the differential matrix.

:func:`cases` draws a :class:`Case`: an EDB, a stratified program over
it, a goal window and a stream of transaction batches against the EDB.
``tests/test_differential.py`` evaluates every case in each evaluation
mode and checks it against :class:`Oracle`: the paper-literal reference
run and, where the program is range restricted, the ground T_P oracle
(:mod:`repro.core.grounding`) on the interior of a window.  The
fixpoint mode's checks sit in ``tests/test_plan_property.py`` and
``tests/test_engine_vs_ground_property.py``.

Two shapes are drawn.  The **unary** shape has temporal arity 1, with
or without one data column.  Its intensional predicates ``p0, p1, p2``
are ordered: a clause for ``pi`` reads the EDB and ``pj`` for ``j < i``
only, so negating ``pj`` is always stratified, and ``pi`` may add one
shift recursion ``pi(t + k) <- pi(t), ...``.  The **gap** shape has
temporal arity 2: a ``hop`` relation chained by ``go`` under a gap
constraint.  ``cases(shape=...)`` fixes the shape; its ``"negation"``
variant tops the unary shape with ``neg(t; X) <- b(t; X), not pK(t;
X).``, whose extension is known by hand once ``pK``'s is.  Between
them the cases cover

* data variables and constants, in bodies and heads;
* EDB negation, and IDB negation across strata;
* shift recursion over periodic seeds;
* temporal arity 2 with gap constraints;
* give-up-prone programs: finite or bounded seeds under an unbounded
  shift recursion (§4.4);
* seeds whose periods fold: period-48 seeds under shift 2, whose
  residue classes fill period 2 (the E14 multi-chain shape);
* a clause whose temporal variable only comparisons bound, so the
  program is not range restricted and only the reference applies;
* batches mixing asserts and retracts of EDB tuples.

The edge cases are the ones the DatalogMTL work on infinite answers
(Bellomarini et al., *Taming Infinite Query Results*) singles out:
recursion that never stops shifting, periods that fold, and negation
over infinite sets.

Ground agreement on the interior is exact by construction: every EDB
tuple is bounded below at 0 or later, and every recursion shifts
upward, so the window's lower edge truncates nothing and the upper
edge's truncation (which negation turns into spurious facts) moves
down by at most a few instants per clause, well inside the margin.
"""

import functools
from dataclasses import dataclass

from hypothesis import strategies as st

from repro.core import DeductiveEngine, GroundEvaluator, parse_program
from repro.gdb import parse_database
from repro.gdb.parser import parse_generalized_tuple
from repro.plan.magic import QueryGoal
from repro.util.errors import EvaluationError, GiveUpError

DATA = ('"x"', '"y"')
VARIABLES = ("X", "Y")
#: Unary seed periods.  Their lcm stays at 12: complementing a union
#: of lrps refines it to the lcm of their periods, and periods such as
#: 7, 8 and 11 together make that thousands of residue classes.
PERIODS = (2, 3, 4, 6, 12)


@dataclass(frozen=True)
class Case:
    """One drawn test case.

    ``relations`` holds ``(name, temporal_arity, data_arity, tuple
    texts)`` per EDB relation; ``goal`` is ``(predicate, low, high,
    ((column, constant), ...))``; each batch is a tuple of ``(op,
    relation, tuple text)`` with ``op`` ``"assert"`` or ``"retract"``.
    ``window`` is the ground oracle's window and ``interior`` the part
    of it where ground and closed form must agree on every temporal
    column."""

    relations: tuple
    program_text: str
    goal: tuple
    batches: tuple
    strategy: str
    resume_at: int
    rederive_budget: int
    window: tuple
    interior: tuple

    @property
    def edb_text(self):
        return "\n".join(
            "relation %s[%d; %d] { %s }"
            % (name, ta, da, " ".join(text + ";" for text in tuples))
            for name, ta, da, tuples in self.relations
        )

    def program(self):
        return parse_program(self.program_text)

    def edb(self):
        return parse_database(self.edb_text)

    def query_goal(self):
        predicate, low, high, bindings = self.goal
        return QueryGoal.windowed(predicate, low, high, dict(bindings))

    def initial_ops(self):
        """One transaction declaring every relation and asserting the
        initial tuples: its snapshot is :meth:`edb`."""
        ops = []
        for name, ta, da, tuples in self.relations:
            ops.append(
                {
                    "op": "declare",
                    "relation": name,
                    "temporal_arity": ta,
                    "data_arity": da,
                }
            )
            ops.extend(self._op("assert", name, text) for text in tuples)
        return ops

    def batch_ops(self):
        """The transaction batches as store ops."""
        return [
            [self._op(kind, name, text) for kind, name, text in batch]
            for batch in self.batches
        ]

    def _op(self, kind, name, text):
        shape = {entry[0]: entry[1:3] for entry in self.relations}[name]
        return {
            "op": kind,
            "relation": name,
            "tuple": parse_generalized_tuple(text, *shape),
        }

    def __str__(self):
        return "%s\n--\n%s\n-- goal %s, batches %s" % (
            self.edb_text,
            self.program_text,
            self.goal,
            self.batches,
        )


@st.composite
def cases(draw, give_up=False, shape=None):
    """A :class:`Case`; with ``give_up`` the unary shape always seeds
    an unbounded shift recursion with a finite tuple.  ``shape`` fixes
    the shape, ``"unary"`` or ``"gap"``, instead of drawing it;
    ``"negation"`` is the unary shape with one more stratum on top,
    ``neg(t; X) <- b(t; X), not pK(t; X).`` over the last intensional
    predicate ``pK``."""
    if shape is None:
        shape = "unary" if give_up or draw(st.integers(0, 3)) else "gap"
    if shape == "gap":
        relations, program, tuple_drawers, cap = _gap(draw)
        window = (-8, 72)
    else:
        relations, program, tuple_drawers, cap = _unary(
            draw, give_up, negation=shape == "negation"
        )
        window = (-24, 96)
    parsed = parse_program(program)
    predicate = draw(st.sampled_from(sorted(parsed.intensional_predicates())))
    low = draw(st.integers(0, 40))
    bindings = ()
    if parsed.schemas()[predicate][1] and draw(st.booleans()):
        bindings = ((0, draw(st.sampled_from(DATA)).strip('"')),)
    goal = (predicate, low, low + draw(st.integers(1, 20)), bindings)
    return Case(
        relations=tuple(
            (name, ta, da, tuple(sorted(tuples)))
            for name, ta, da, tuples in relations
        ),
        program_text=program,
        goal=goal,
        batches=_batches(draw, relations, tuple_drawers, cap),
        strategy=draw(st.sampled_from(["naive", "semi-naive"])),
        resume_at=draw(st.integers(0, 30)),
        rederive_budget=draw(st.sampled_from([0, 64])),
        window=window,
        interior=(0, 60),
    )


# -- the oracles ----------------------------------------------------------------


#: Round cap and give-up patience of every run in the matrix.
LIMITS = dict(max_rounds=40, patience=5)

def run(program, edb, **options):
    """A full compiled run (semi-naive unless ``options`` say
    otherwise) under the matrix's limits."""
    return DeductiveEngine(program, edb, **dict(LIMITS, **options)).run()


def settle(mode):
    """A mode's outcome: its model, or the GiveUpError it raised."""
    try:
        return mode()
    except GiveUpError as error:
        return error


class Oracle:
    """The reference run of one program over one EDB, and the ground
    fixpoint on the case's window when the program is range
    restricted."""

    def __init__(self, case, program, edb):
        self.case = case
        self.program = program
        self.edb = edb
        self.schemas = program.schemas()
        self.reference = settle(
            lambda: run(program, edb, strategy="naive", evaluation="reference")
        )
        self.gave_up = isinstance(self.reference, GiveUpError)

    @functools.cached_property
    def ground(self):
        """The ground evaluator after its run, or None when the program
        is not range restricted."""
        try:
            ground = GroundEvaluator(self.program, self.edb, *self.case.window)
        except EvaluationError:
            return None
        ground.run()
        return ground

    def inside(self, predicate, flats, goal=None):
        """The flat tuples with every temporal column in the interior,
        narrowed to the goal's window and data bindings if given."""
        low, high = self.case.interior
        temporal = self.schemas[predicate][0]
        bindings = ()
        if goal is not None:
            low, high = max(low, goal.low), min(high, goal.high)
            bindings = goal.data
        return {
            flat
            for flat in flats
            if all(low <= value < high for value in flat[:temporal])
            and all(flat[temporal + column] == value for column, value in bindings)
        }

    def assert_agrees(self, outcome, label, goal=None, own_rounds=False):
        """The give-up rule and the equality rule for one mode's
        outcome; with ``goal``, only the goal predicate inside the goal
        window counts.  A mode whose rounds are the reference's must
        give up exactly where it does; one with ``own_rounds`` (demand
        predicates, a warm start) may run out of patience where the
        reference did not, and its typed give-up is accepted."""
        if isinstance(outcome, GiveUpError):
            assert self.gave_up or own_rounds, (
                "%s gave up where the reference closed" % label
            )
            return
        if not self.gave_up:
            if goal is None:
                assert outcome.equivalent(self.reference), label
            else:
                assert self.window(outcome, goal) == self.window(
                    self.reference, goal
                ), label
        elif self.ground is not None:
            self.assert_matches_ground(outcome, label, goal)

    def window(self, model, goal):
        return self.inside(
            goal.predicate, model.extension(goal.predicate, goal.low, goal.high), goal
        )

    def assert_matches_ground(self, model, label, goal=None):
        predicates = model.predicates() if goal is None else [goal.predicate]
        for predicate in predicates:
            closed = model.extension(predicate, *self.case.window)
            assert self.inside(predicate, closed, goal) == self.inside(
                predicate, self.ground.extension(predicate), goal
            ), "%s differs from ground on %s" % (label, predicate)


def assert_fixpoint_agrees(oracle, strategy):
    """The compiled fixpoint under ``strategy`` against the oracles."""
    oracle.assert_agrees(
        settle(lambda: run(oracle.program, oracle.edb, strategy=strategy)),
        "compiled " + strategy,
    )


# -- the unary shape -----------------------------------------------------------


def _unary(draw, give_up, negation=False):
    # Folding clauses keep no negation (see _clause), so the negation
    # stratum is drawn over unfolded seeds.
    fold = not (give_up or negation) and draw(st.integers(0, 4)) == 0
    data = not fold and draw(st.booleans())

    def tuple_drawer(draw):
        return _unary_tuple(draw, data, fold)

    # p0 folds a's seed into 24 residue classes; one seed keeps it cheap.
    most = {"a": 1, "b": 2} if fold else {"a": 3, "b": 3}
    relations = []
    for name in ("a", "b"):
        count = draw(st.integers(1, most[name]))
        tuples = {tuple_drawer(draw) for _ in range(count)}
        relations.append((name, 1, int(data), tuples))
    if give_up:
        relations[0][3].add(
            "(n%s) where T1 = %d" % ('; "x"' if data else "", draw(st.integers(0, 10)))
        )
    idb = ["p%d" % index for index in range(draw(st.integers(1, 2)))]
    clauses = []
    for index, head in enumerate(idb):
        sources = ["a", "b"] + idb[:index]
        if index == 0 and (fold or give_up):
            clauses.append(
                "p0(t%s) <- a(t%s)." % ((("; X",) * 2) if data else ("", ""))
            )
        else:
            clauses.append(_clause(draw, head, sources, data, folding=fold))
        if draw(st.booleans()):
            clauses.append(_clause(draw, head, sources, data, folding=fold))
        if index == 0 and (fold or give_up):
            clauses.append(
                _recursion(draw, head, 2 if fold else None, sources, data, cut=False)
            )
        elif not fold and draw(st.booleans()):
            clauses.append(_recursion(draw, head, None, sources, data))
    if not (give_up or fold) and draw(st.integers(0, 5)) == 0:
        # Only comparisons bound t: the complement of an EDB relation
        # over a finite stretch, which ground evaluation cannot range
        # over, so only the reference checks this program.
        datum = '; "x"' if data else ""
        clauses.append(
            "free(t%s) <- not %s(t%s), t >= 0, t < %d."
            % (datum, draw(st.sampled_from(["a", "b"])), datum, draw(st.integers(1, 30)))
        )
    if negation:
        datum = "X" if data else None
        clauses.append(
            "%s <- %s, not %s."
            % (_atom("neg", "t", datum), _atom("b", "t", datum), _atom(idb[-1], "t", datum))
        )
    drawers = {"a": tuple_drawer, "b": tuple_drawer}
    return relations, "\n".join(clauses), drawers, 2 if fold else 3


def _unary_tuple(draw, data, fold):
    datum = "; %s" % draw(st.sampled_from(DATA)) if data else ""
    if fold:
        return "(%s%s) where T1 >= 0" % (_lrp(48, draw(st.integers(0, 47))), datum)
    low = draw(st.integers(0, 10))
    kind = draw(st.sampled_from(["periodic"] * 8 + ["bounded", "finite"]))
    if kind == "finite":
        return "(n%s) where T1 = %d" % (datum, low)
    period = draw(st.sampled_from(PERIODS))
    text = "(%s%s) where T1 >= %d" % (
        _lrp(period, draw(st.integers(0, period - 1))),
        datum,
        low,
    )
    if kind == "bounded":
        text += " & T1 <= %d" % (low + draw(st.integers(0, 40)))
    return text


def _clause(draw, head, sources, data, folding=False):
    """A non-recursive clause for ``head`` over ``sources``: one or two
    positive atoms, then maybe a comparison and, after a lone positive
    atom, a negated one; all range restricted.  These limits keep the
    reference run's product-then-select, which pairs every tuple of
    every body relation (a complement included) each naive round, to
    milliseconds: only EDB atoms form cross products (an intensional
    relation that grows each round would square the growth), and over
    ``folding`` relations (24 residue classes of period 48 each) the
    clause keeps one positive atom and no negation."""
    body = []
    temporal = []
    bound = []
    predicates = [
        draw(st.sampled_from(sources))
        for _ in range(1 if folding else draw(st.integers(1, 2)))
    ]
    for predicate in predicates:
        var = "t"
        if set(predicates) <= {"a", "b"}:
            var = draw(st.sampled_from(["t", "u"]))
        datum = draw(st.sampled_from(DATA + VARIABLES)) if data else None
        body.append(_atom(predicate, _term(var, draw(st.integers(-2, 2))), datum))
        temporal.append(var)
        if datum in VARIABLES:
            bound.append(datum)
    temporal = sorted(set(temporal))
    bound = sorted(set(bound))
    if not folding and len(body) == 1 and draw(st.booleans()):
        var = temporal[0]
        datum = draw(st.sampled_from(DATA + tuple(bound))) if data else None
        body.append(
            "not "
            + _atom(draw(st.sampled_from(sources)), _term(var, draw(st.integers(-1, 1))), datum)
        )
    if draw(st.booleans()):
        left = draw(st.sampled_from(temporal))
        right = draw(st.sampled_from(temporal + ["0", "12"]))
        if right not in ("0", "12"):
            right = _term(right, draw(st.integers(-2, 2)))
        body.append("%s %s %s" % (left, draw(st.sampled_from(["<", "<=", ">=", "="])), right))
    datum = draw(st.sampled_from(DATA + tuple(bound))) if data else None
    head_atom = _atom(
        head, _term(draw(st.sampled_from(temporal)), draw(st.integers(0, 3))), datum
    )
    return "%s <- %s." % (head_atom, ", ".join(body))


def _recursion(draw, head, shift, sources, data, cut=True):
    """``head(t + k; X) <- head(t; X)``, maybe joined with a source
    atom (the shift stays upward) or, with ``cut``, cut off by
    ``t < c``."""
    if shift is None:
        shift = draw(st.integers(1, 6))
    datum = "X" if data else None
    body = [_atom(head, "t", datum)]
    extra = draw(st.sampled_from(["none", "atom", "bound"] if cut else ["none", "atom"]))
    if extra == "atom":
        body.append(
            _atom(draw(st.sampled_from(sources)), _term("t", draw(st.integers(-1, 1))), datum)
        )
    elif extra == "bound":
        body.append("t < %d" % draw(st.integers(10, 30)))
    return "%s <- %s." % (_atom(head, _term("t", shift), datum), ", ".join(body))


# -- the gap shape -------------------------------------------------------------


def _gap(draw):
    relations = [("hop", 2, 0, {_hop_tuple(draw)})]
    clauses = [
        "go(t1, t2) <- hop(t1, t2).",
        "go(t1, t3) <- go(t1, t2), hop(u, t3), t2 <= u, u <= t2 + %d."
        % draw(st.integers(0, 6)),
    ]
    if draw(st.booleans()):
        clauses.append("far(t1, t2) <- go(t1, t2), not hop(t1, t2).")
    # Two hop tuples of different periods multiply the closed form of
    # go; batches replace the one hop tuple instead.
    return relations, "\n".join(clauses), {"hop": _hop_tuple}, 1


def _hop_tuple(draw):
    period = draw(st.integers(4, 10))
    ride = draw(st.integers(1, period))
    return "(%s, %s) where T1 >= 0 & T2 = T1 + %d" % (
        _lrp(period, 0),
        _lrp(period, ride % period),
        ride,
    )


# -- transaction batches ---------------------------------------------------------


def _batches(draw, relations, tuple_drawers, cap):
    """One to three batches of one to three ops each.  A retract names
    a tuple live before its batch, no batch touches one tuple twice,
    and an assert goes only into a relation holding fewer than ``cap``
    live tuples (a full one gets a retract first), so snapshots stay
    as cheap as the initial EDB."""
    live = {name: set(tuples) for name, _ta, _da, tuples in relations}
    batches = []
    for _ in range(draw(st.integers(1, 3))):
        batch = []
        for _ in range(draw(st.integers(1, 3))):
            name = draw(st.sampled_from(sorted(live)))
            touched = {text for _kind, _name, text in batch}
            candidates = sorted(live[name] - touched)
            if candidates and (len(live[name]) >= cap or draw(st.booleans())):
                text = draw(st.sampled_from(candidates))
                batch.append(("retract", name, text))
                live[name].discard(text)
                if draw(st.booleans()):
                    continue
            if len(live[name]) < cap:
                text = tuple_drawers[name](draw)
                if text not in touched and text not in live[name]:
                    batch.append(("assert", name, text))
                    live[name].add(text)
        batches.append(tuple(batch))
    return tuple(batches)


# -- text helpers ----------------------------------------------------------------


def _lrp(period, offset):
    return "%dn+%d" % (period, offset) if offset else "%dn" % period


def _term(var, offset):
    if offset == 0:
        return var
    return "%s %s %d" % (var, "+" if offset > 0 else "-", abs(offset))


def _atom(predicate, term, datum):
    if datum is None:
        return "%s(%s)" % (predicate, term)
    return "%s(%s; %s)" % (predicate, term, datum)
