"""Randomized cross-validation of the FO evaluator.

Hypothesis generates guarded formulas (every temporal variable is
fenced into ``[0, BOUND)``), which makes brute-force evaluation over
the window exact; the algebraic evaluator must agree on every
assignment.  Data variables range over the active domain: the data
constants of the database plus those of the formula (``"c"`` occurs in
no relation).  Atoms carry temporal constants and offsets, repeated
and shared data variables and data constants, so the oracle covers
every lowering of an atom into a compiled clause.
"""

import itertools
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fo import evaluate_query
from repro.fo.ast import (
    FoAnd,
    FoAtom,
    FoComparison,
    FoExists,
    FoForAll,
    FoNot,
    FoOr,
    free_variables,
    is_data_name,
    parse_formula,
)
from repro.gdb import parse_database

BOUND = 12

DB_TEXT = """
relation p[1; 0] { (3n) where T1 >= 0; }
relation q[1; 0] { (4n+1) where T1 >= 0; }
relation r[2; 0] { (2n, 2n) where T1 >= 0 & T2 = T1 + 2; }
relation e[1; 1] {
  (2n; "a") where T1 >= 0;
  (3n+1; "b") where T1 >= 0 & T1 < 9;
}
relation f[1; 2] {
  (n; "a", "a") where T1 >= 2 & T1 < 6;
  (4n; "a", "b") where T1 >= 0;
}
"""

TEMPORAL = ("t", "u")
DATA = ("X", "Y")
CONSTANTS = ('"a"', '"c"')


def database():
    return parse_database(DB_TEXT)


def guard(var):
    return "%s >= 0 and %s < %d" % (var, var, BOUND)


@st.composite
def guarded_formula(draw):
    """A formula whose every temporal variable is guarded into [0, BOUND)."""

    def time():
        if draw(st.integers(0, 4)) == 0:
            return str(draw(st.integers(0, BOUND - 1)))
        v = draw(st.sampled_from(TEMPORAL))
        c = draw(st.integers(-2, 2))
        if c == 0:
            return v
        return "%s %s %d" % (v, "+" if c > 0 else "-", abs(c))

    def datum():
        if draw(st.integers(0, 3)) == 0:
            return draw(st.sampled_from(CONSTANTS))
        return draw(st.sampled_from(DATA))

    def atom(depth):
        choice = draw(st.integers(0, 7 if depth > 0 else 5))
        if choice == 0:
            return "p(%s)" % time()
        if choice == 1:
            return "q(%s)" % time()
        if choice == 2:
            return "r(%s, %s)" % (time(), time())
        if choice == 3:
            return "e(%s; %s)" % (time(), datum())
        if choice == 4:
            return "f(%s; %s, %s)" % (time(), datum(), datum())
        if choice == 5:
            v = draw(st.sampled_from(TEMPORAL))
            w = draw(st.sampled_from(TEMPORAL))
            c = draw(st.integers(-3, 3))
            op = draw(st.sampled_from(["<", "<=", "=", ">="]))
            sign = "+" if c >= 0 else "-"
            return "%s %s %s %s %d" % (v, op, w, sign, abs(c))
        if choice == 6:
            return "not (%s)" % formula(depth - 1)
        sub = formula(depth - 1)
        bound_var = draw(st.sampled_from(TEMPORAL + DATA))
        if is_data_name(bound_var):
            return "exists %s (%s)" % (bound_var, sub)
        return "exists %s ((%s) and %s)" % (bound_var, sub, guard(bound_var))

    def formula(depth):
        parts = [atom(depth) for _ in range(draw(st.integers(1, 2)))]
        connective = draw(st.sampled_from([" and ", " or "]))
        return connective.join("(%s)" % part for part in parts)

    body = formula(2)
    # Guard every free temporal variable.
    parsed = parse_formula(body)
    temporal, _ = free_variables(parsed)
    guards = [guard(v) for v in temporal]
    if guards:
        body = "(%s) and %s" % (body, " and ".join(guards))
    return body


def active_domain(db, text):
    domain = set(re.findall(r'"(\w+)"', text))
    for name in db.names():
        relation = db.relation(name)
        for column in range(relation.data_arity):
            domain |= relation.data_values(column)
    return sorted(domain)


def brute_truth(db, domain, node, assignment):
    def value(term):
        return (assignment[term.var] if term.var else 0) + term.offset

    def quantified(names):
        ranges = [
            domain if is_data_name(name) else range(-2, BOUND + 2)
            for name in names
        ]
        for combo in itertools.product(*ranges):
            extended = dict(assignment)
            extended.update(zip(names, combo))
            yield brute_truth(db, domain, node.sub, extended)

    if isinstance(node, FoAtom):
        times = tuple(value(t) for t in node.atom.temporal_args)
        data = tuple(
            assignment[d.name] if d.is_variable() else d.value
            for d in node.atom.data_args
        )
        return db.relation(node.atom.predicate).contains_point(times, data)
    if isinstance(node, FoComparison):
        left, right = value(node.atom.left), value(node.atom.right)
        return {
            "<": left < right,
            "<=": left <= right,
            "=": left == right,
            ">=": left >= right,
            ">": left > right,
        }[node.atom.op]
    if isinstance(node, FoAnd):
        return all(brute_truth(db, domain, part, assignment) for part in node.parts)
    if isinstance(node, FoOr):
        return any(brute_truth(db, domain, part, assignment) for part in node.parts)
    if isinstance(node, FoNot):
        return not brute_truth(db, domain, node.sub, assignment)
    if isinstance(node, FoExists):
        return any(quantified(node.variables))
    if isinstance(node, FoForAll):
        return all(quantified(node.variables))
    raise TypeError(node)


@given(guarded_formula())
@settings(max_examples=40, deadline=None)
def test_fo_evaluator_matches_brute_force(text):
    db = database()
    formula = parse_formula(text)
    domain = active_domain(db, text)
    temporal, data = free_variables(formula)
    answers = evaluate_query(db, formula)
    assert answers.temporal_vars == temporal
    assert answers.data_vars == data
    for times in itertools.product(range(-2, BOUND + 2), repeat=len(temporal)):
        for values in itertools.product(domain, repeat=len(data)):
            assignment = dict(zip(temporal, times))
            assignment.update(zip(data, values))
            expected = brute_truth(db, domain, formula, assignment)
            got = answers.relation.contains_point(times, values)
            assert got == expected, (text, assignment)
