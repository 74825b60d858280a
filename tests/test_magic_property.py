"""Goal-directed (magic-set) evaluation: unit tests.

The core contract — within the demanded window, goal-directed answers
are exactly the full fixpoint's — is checked on generated programs by
the differential matrix (``tests/test_differential.py``).  These unit
tests pin the adornment meet, the demand zones seeded into magic
facts, the negation cone, the fallback degradations, the work gates on
E14, and the CLI's typed (numeric-before-lexicographic) sort of
windowed answers.
"""

import io
import json

import pytest

from repro.cli import main
from repro.core import DeductiveEngine, parse_program
from repro.gdb import parse_database
from repro.plan.magic import (
    MagicUnsupportedError,
    QueryGoal,
    goal_directed_model,
    goal_from_formula,
    magic_predicate,
    rewrite_for_goal,
)
from repro.service.executor import JobExecutor
from repro.service.jobs import JobSpec
from repro.util.errors import SchemaError

from tests.e14 import workloads

EDB = parse_database(
    """
relation seed[1; 1] {
  (24n+0; "a") where T1 >= 0;
  (24n+3; "b") where T1 >= 0;
}
"""
)

PROGRAM = parse_program(
    """
p(t; X) <- seed(t; X).
p(t + 6; X) <- p(t; X).
q(t; X) <- p(t; X).
r(t; X) <- q(t + 1; X).
"""
)


def test_reachability_drops_unrelated_clauses():
    rewrite = rewrite_for_goal(PROGRAM, QueryGoal.point("q", 12))
    assert rewrite.reachable == {"p", "q"}
    assert rewrite.dropped_clauses == 1  # the r clause
    heads = {clause.head.predicate for clause in rewrite.program.clauses}
    assert "r" not in heads


def test_magic_facts_carry_demand_zone_as_dbm():
    rewrite = rewrite_for_goal(PROGRAM, QueryGoal.point("q", 12))
    [gt] = rewrite.magic_relations[magic_predicate("q")].tuples
    assert gt.constraints.satisfied_by((12,))
    assert not gt.constraints.satisfied_by((13,))
    # p's demand is widened below the goal instant (the +6 shift walks
    # the demand downward), never above it.
    [gt_p] = rewrite.magic_relations[magic_predicate("p")].tuples
    assert gt_p.constraints.satisfied_by((6,))
    assert gt_p.constraints.satisfied_by((0,))
    assert not gt_p.constraints.satisfied_by((18,))
    assert rewrite.widenings >= 1


def test_adornment_meets_over_all_occurrences():
    program = parse_program(
        """
reach(t; X, Y) <- edge(t; X, Y).
reach(t; X, Z) <- reach(t; X, Y), edge(t; Y, Z).
"""
    )
    goal = QueryGoal.windowed("reach", 0, 5, {0: "a"})
    rewrite = rewrite_for_goal(program, goal)
    # Column 0 stays bound through the recursion (X flows head->body);
    # column 1 is unresolvable in the recursive occurrence, so the
    # meet drops it.
    assert rewrite.bound_columns["reach"] == (0,)
    [gt] = rewrite.magic_relations[magic_predicate("reach")].tuples
    assert gt.data == ("a",)


def test_adornment_drops_column_not_passed_sideways():
    program = parse_program(
        """
out(t; Y) <- pair(t; X, Y).
pair(t; X, Y) <- left(t; X), right(t; Y).
"""
    )
    goal = QueryGoal.whole("out")
    rewrite = rewrite_for_goal(program, goal)
    # out's head data var Y is unbound in the goal, so nothing is
    # resolvable at pair's occurrence: no bound data columns at all.
    assert rewrite.bound_columns["pair"] == ()


def test_negation_cone_stays_unguarded():
    program = parse_program(
        """
busy(t; X) <- edge(t; X, Y).
free(t; X) <- node(t; X), not busy(t; X).
"""
    )
    rewrite = rewrite_for_goal(program, QueryGoal.point("free", 3))
    assert rewrite.restricted == {"free"}
    assert rewrite.unrestricted == {"busy"}
    for clause in rewrite.program.clauses:
        body_predicates = [a.predicate for a in clause.predicate_atoms()]
        if clause.head.predicate == "busy":
            assert magic_predicate("busy") not in body_predicates
        if clause.head.predicate == "free":
            assert body_predicates[0] == magic_predicate("free")


def test_negation_results_match_full_fixpoint():
    program = parse_program(
        """
busy(t; X) <- edge(t; X, Y).
free(t; X) <- node(t; X), not busy(t; X).
"""
    )
    edb = parse_database(
        """
relation edge[1; 2] { (24n+0; "a", "b") where T1 >= 0; }
relation node[1; 1] {
  (n; "a") where T1 >= 0 & T1 <= 100;
  (n; "z") where T1 >= 0 & T1 <= 100;
}
"""
    )
    full = DeductiveEngine(program, edb).run()
    model, info = goal_directed_model(
        DeductiveEngine(program, edb),
        QueryGoal.windowed("free", 0, 10),
    )
    assert not info["degraded"]
    assert set(model.extension("free", 0, 10)) == set(
        full.extension("free", 0, 10)
    )


def test_unknown_goal_predicate_degrades_to_full():
    with pytest.raises(MagicUnsupportedError):
        rewrite_for_goal(PROGRAM, QueryGoal.point("nosuch", 0))
    model, info = goal_directed_model(
        DeductiveEngine(PROGRAM, EDB),
        QueryGoal.point("nosuch", 0),
    )
    assert info["degraded"]
    assert model.stats.magic_degraded is not None
    assert "magic_degraded" in model.stats.to_dict()
    # The fallback is the full fixpoint: every predicate is complete.
    full = DeductiveEngine(PROGRAM, EDB).run()
    assert model.equivalent(full)


def test_demand_prefix_collision_degrades():
    program = parse_program("_m__p(t) <- seed2(t). p(t) <- _m__p(t).")
    with pytest.raises(MagicUnsupportedError):
        rewrite_for_goal(program, QueryGoal.point("p", 0))


def test_edb_arity_mismatch_outside_the_goal_cone_still_fails():
    """The EDB check covers the whole program, not only the clauses a
    goal-directed job runs: ``extra`` lies outside ``p``'s cone, and
    the job fails with the same SchemaError a full run raises."""
    program = "p(t; X) <- seed(t; X).\nother(t) <- extra(t; Y).\n"
    edb = str(EDB) + "\nrelation extra[1; 0] { (n); }\n"
    rewrite = rewrite_for_goal(parse_program(program), QueryGoal.whole("p"))
    assert "other" not in rewrite.reachable
    message = r"predicate 'extra': program uses arities \(1, 1\), EDB provides \(1, 0\)"
    with pytest.raises(SchemaError, match=message):
        DeductiveEngine(parse_program(program), parse_database(edb))
    spec = JobSpec(
        "mismatch",
        "query",
        program=program,
        edb=edb,
        query="p(t; X)",
        window=(0, 24),
        goal_directed=True,
    )
    with pytest.raises(SchemaError, match=message):
        JobExecutor().execute(spec, "compiled")


def test_goal_from_formula_single_atom():
    idb = {"q", "p"}
    goal, reason = goal_from_formula('q(t; X)', idb, window=(5, 9))
    assert reason is None
    assert goal == QueryGoal.windowed("q", 5, 9)
    goal, reason = goal_from_formula('q(12; "a")', idb)
    assert reason is None
    assert goal.predicate == "q"
    assert (goal.low, goal.high) == (12, 13)
    assert goal.data == ((0, "a"),)


def test_goal_from_formula_rejections():
    idb = {"q", "p"}
    goal, reason = goal_from_formula("q(t; X) and p(t; X)", idb)
    assert goal is None and "2 intensional" in reason
    goal, reason = goal_from_formula("not q(t; X)", idb)
    assert goal is None and "negation" in reason
    goal, reason = goal_from_formula("seed(t; X)", idb)
    assert goal is None and "no intensional" in reason
    # EDB atoms alongside the one IDB atom are fine.
    goal, reason = goal_from_formula("exists u (q(t; X) and seed(u; X))", idb)
    assert reason is None and goal.predicate == "q"


def test_cli_window_sorts_numerically(tmp_path):
    """t=2 rows print before t=10: the typed sort key orders numbers
    numerically where the old ``repr`` sort put "(10" before "(2"."""
    edb = tmp_path / "edb.gdb"
    edb.write_text(
        """
relation s[1; 1] {
  (24n+2; "x") where T1 >= 0;
  (24n+10; "x") where T1 >= 0;
}
"""
    )
    out = io.StringIO()
    code = main(
        ["query", str(edb), "s(t; X)", "--window", "0", "24", "--json"],
        out=out,
    )
    assert code == 0
    tuples = json.loads(out.getvalue())["window"]["tuples"]
    assert tuples == [[2, "x"], [10, "x"]]


def test_cli_goal_directed_matches_full(tmp_path):
    edb = tmp_path / "edb.gdb"
    edb.write_text(
        """
relation seed[1; 1] {
  (24n+0; "a") where T1 >= 0;
  (24n+3; "b") where T1 >= 0;
}
"""
    )
    prog = tmp_path / "prog.dtl"
    prog.write_text(
        """
p(t; X) <- seed(t; X).
p(t + 6; X) <- p(t; X).
q(t; X) <- p(t; X).
r(t; X) <- q(t + 1; X).
"""
    )
    reports = {}
    for label, extra in (("full", []), ("goal", ["--goal-directed"])):
        out = io.StringIO()
        code = main(
            [
                "query",
                str(edb),
                "q(t; X)",
                "--program",
                str(prog),
                "--window",
                "10",
                "14",
                "--json",
            ]
            + extra,
            out=out,
        )
        assert code == 0
        reports[label] = json.loads(out.getvalue())
    assert (
        reports["goal"]["window"]["tuples"]
        == reports["full"]["window"]["tuples"]
    )
    assert not reports["goal"]["magic"]["degraded"]
    assert reports["goal"]["magic"]["dropped_clauses"] == 1


def test_point_goal_derives_at_most_half_the_full_fixpoint():
    """The goal-directed path's acceptance gate, as deterministic work
    counts: one instant of the last chain's join predicate on E14
    multi-chain-4 derives at most half the tuples of full
    materialization, with the same answers in the window."""
    program, edb = workloads().multi_chain_workload(chains=4, period=24)
    goal = QueryGoal.point("meet3", 13)
    full = DeductiveEngine(program, edb).run()
    directed, info = goal_directed_model(
        DeductiveEngine(program, edb), goal
    )
    assert not info.get("degraded"), info
    answers = set(directed.extension("meet3", 13, 14))
    assert answers and answers == set(full.extension("meet3", 13, 14))
    assert 2 * directed.stats.total_new_tuples() <= full.stats.total_new_tuples()


def test_reachability_goal_equals_full_fixpoint_with_fewer_tuples():
    """A goal with no window and no bindings restricts by reachability
    alone: on E14 multi-chain-4 demanding ``p1`` drops the other
    chains, derives fewer tuples, and answers exactly as the full
    fixpoint over two periods."""
    program, edb = workloads().multi_chain_workload(chains=4, period=24)
    goal = QueryGoal.whole("p1")
    full = DeductiveEngine(program, edb).run()
    directed, info = goal_directed_model(
        DeductiveEngine(program, edb), goal
    )
    assert not info.get("degraded"), info
    answers = set(directed.extension("p1", 0, 48))
    assert answers and answers == set(full.extension("p1", 0, 48))
    assert directed.stats.total_new_tuples() < full.stats.total_new_tuples()
