"""Safe negation as an anti-join.

A negated atom whose temporal variables the positive atoms bind (or
pin through equalities) compiles to an anti-join step that subtracts
each working-set tuple's overlap with the predicate's relation; a
negated temporal variable nothing pins keeps the join against the
exact complement.  Every check here compares against the paper-literal
reference evaluator (which still joins complements), a brute-force
ground oracle, or both.
"""

import random
import shutil

import pytest

import repro.core.engine as engine_module
from repro.core import DeductiveEngine, parse_program
from repro.core.evaluation import ProgramEvaluator
from repro.fo import evaluate_query
from repro.gdb import parse_database
from repro.obs import TraceRecorder
from repro.plan.explain import format_program_plans
from repro.runtime.checkpoint import load_checkpoint, write_checkpoint
from repro.util import hooks
from repro.util.errors import CheckpointError

EDB = """
relation a[1; 0] { (3n) where T1 >= 0; }
relation empty[1; 0] { }
relation q[2; 0] { (n, n) where T1 >= 5 & T2 = T1 + 1; }
relation b[1; 1] { (2n; "x"); (2n+1; "y") where T1 >= 0; }
relation d[1; 1] { (4n; "x") where T1 >= 0; (6n; "y"); }
relation r[1; 2] { (4n; "x", "x"); (5n; "y", "z"); (3n; "y", "y") where T1 < 10; }
"""

WINDOW = (-20, 40)


def models(program_text, edb_text=EDB):
    """The compiled and the reference model of one program."""
    program, edb = parse_program(program_text), parse_database(edb_text)
    compiled = DeductiveEngine(program, edb).run()
    reference = DeductiveEngine(program, edb, evaluation="reference").run()
    return compiled, reference


def assert_same_models(compiled, reference):
    assert compiled.predicates() == reference.predicates()
    for name in compiled.predicates():
        assert compiled.relation(name).equivalent(reference.relation(name)), name


def operators(program_text, edb_text=EDB):
    """The ``plan.operator`` names of one traced compiled run."""
    recorder = TraceRecorder()
    with hooks.subscribed(recorder):
        DeductiveEngine(parse_program(program_text), parse_database(edb_text)).run()
    return {event["op"] for event in recorder.of_kind("plan.operator")}


def plan_text(program_text, edb_text=EDB):
    evaluator = ProgramEvaluator(parse_program(program_text), parse_database(edb_text))
    return format_program_plans(evaluator.plans), evaluator


# -- (a) the query_mix FO template ------------------------------------------------


def query_mix_edb(seed, chains=4, period=24):
    """Seed relations shaped like the query_mix workload's: every chain
    holds four items at even offsets of one period."""
    rng = random.Random("antijoin/%d" % seed)
    relations = []
    for chain in range(chains):
        offsets = sorted(rng.sample(range(0, period, 2), 4))
        rows = "".join(
            ' (%dn+%d; "c%d");' % (period, offset, item)
            for item, offset in enumerate(offsets)
        )
        relations.append("relation seed%d[1; 1] {%s }" % (chain, rows))
    return "\n".join(relations)


@pytest.mark.parametrize("seed", [101, 102, 103])
def test_query_mix_template_matches_reference_and_ground(seed):
    edb_text = query_mix_edb(seed)
    edb = parse_database(edb_text)
    rng = random.Random(seed)
    for _ in range(4):
        first, second, third = rng.sample(range(4), 3)
        formula = (
            "seed%d(t; X) and seed%d(u; Y) and u > t and u < t + 4 "
            "and not seed%d(u; Y)" % (first, second, third)
        )
        recorder = TraceRecorder()
        with hooks.subscribed(recorder):
            answers = evaluate_query(edb, formula)
        ops = {event["op"] for event in recorder.of_kind("plan.operator")}
        assert "anti-join" in ops and "complement-join" not in ops
        assert answers.temporal_vars == ("t", "u")
        assert answers.data_vars == ("X", "Y")

        program = parse_program(
            "ans(t, u; X, Y) <- seed%d(t; X), seed%d(u; Y), u > t, u < t + 4, "
            "not seed%d(u; Y)." % (first, second, third)
        )
        reference = DeductiveEngine(program, edb, evaluation="reference").run()
        assert answers.relation.equivalent(reference.relation("ans"))

        low, high = 0, 48
        a, b, c = (
            edb.relation("seed%d" % k).extension(low - 4, high + 4)
            for k in (first, second, third)
        )
        expected = {
            (t, u, x, y)
            for t, x in a
            for u, y in b
            if t < u < t + 4 and (u, y) not in c and low <= t < high
            and low <= u < high
        }
        assert answers.extension(low, high) == expected


# -- (b) an empty negated relation -------------------------------------------------


def test_empty_negated_relation_keeps_every_row():
    text = "p(t) <- a(t), not empty(t).\nw(t + 1) <- p(t), t < 12, not empty(t + 1)."
    compiled, reference = models(text)
    assert_same_models(compiled, reference)
    assert compiled.relation("p").equivalent(parse_database(EDB).relation("a"))
    # The observed pipeline keeps the working set too.
    assert operators(text) >= {"join", "anti-join", "projection"}
    recorder = TraceRecorder()
    with hooks.subscribed(recorder):
        traced = DeductiveEngine(parse_program(text), parse_database(EDB)).run()
    assert_same_models(traced, reference)
    kept = [
        event for event in recorder.of_kind("plan.operator")
        if event["op"] == "anti-join"
    ]
    assert kept and all(event["source"] == 0 for event in kept)
    assert all(event["out"] == event["in"] for event in kept)


def test_empty_negated_relation_in_a_query():
    edb = parse_database(EDB)
    answers = evaluate_query(edb, "a(t) and not empty(t)")
    assert answers.relation.equivalent(edb.relation("a"))


def test_untouched_row_is_split_on_the_negated_relations_period():
    # p0's (n) where T1 = 1 overlaps nothing in a (the even T >= 0).
    # Kept whole, its shifts (n) where T1 = 2, 3, ... were each new to
    # p1 and the compiled run gave up where the reference closed; split
    # on a's period 2, as the reference's complement join splits it,
    # it is (2n+1) where T1 = 1 and the run closes.  The anti-join's
    # round output is compared, since the compiled run then closes p1's
    # shift chain at acceptance.
    edb = "relation a[1; 0] { (2n) where T1 >= 0; (n) where T1 = 0; }"
    text = (
        "p0(t) <- a(t).\np0(t + 1) <- p0(t), a(t).\n"
        "p1(t) <- p0(t), not a(t).\np1(t + 1) <- p1(t)."
    )
    program, database = parse_program(text), parse_database(edb)
    reference = DeductiveEngine(
        program, database, strategy="naive", evaluation="reference",
        max_rounds=40, patience=5,
    ).run()
    for strategy in ("naive", "semi-naive"):
        compiled = DeductiveEngine(
            program, database, strategy=strategy, max_rounds=40, patience=5
        ).run()
        assert compiled.relation("p1").equivalent(reference.relation("p1"))
    assert compiled.extension("p1", *WINDOW) == {(t,) for t in range(1, WINDOW[1])}
    outputs = []
    for evaluation in ("compiled", "reference"):
        evaluator = ProgramEvaluator(program, database, evaluation=evaluation)
        env = evaluator.initial_environment()
        env["p0"] = reference.relation("p0")
        negation = [e for e in evaluator.evaluators if e.normalized.negated_atoms]
        derived = evaluator.naive_round(
            env, evaluators=negation,
            complements=evaluator.complements_for(negation, env),
        )
        outputs.append([str(gt) for gt in derived["p1"]])
    assert "(2n+1) where T1 = 1" in outputs[0]
    assert outputs[0] == outputs[1]


# -- (c) a negated variable only an equality pins ----------------------------------


def test_pinned_negated_variable_keeps_its_head_column():
    text = "p0(t) <- a(t + 1), not a(t)."
    rendered, _ = plan_text(text)
    assert "anti-join a" in rendered and "complement-join" not in rendered
    compiled, reference = models(text)
    assert_same_models(compiled, reference)
    # a = 3n, n >= 0: t + 1 in a and t not in a.
    expected = {(t,) for t in range(-1, 40, 3) if t >= WINDOW[0]}
    assert compiled.extension("p0", *WINDOW) == {
        row for row in expected if row[0] < WINDOW[1]
    }


def test_every_pinned_negated_variable_is_resolved():
    text = (
        "p1(t, u) <- a(t + 1), a(u + 2), not q(t, u).\n"
        "p2(t, s) <- a(s), not q(t, s + 1), t = s."
    )
    rendered, evaluator = plan_text(text)
    assert rendered.count("anti-join q") == 2
    assert all(not plan.negated_predicates for plan in evaluator.plans)
    compiled, reference = models(text)
    assert_same_models(compiled, reference)


# -- (d) a free negated temporal variable ------------------------------------------


def test_free_negated_variable_keeps_the_complement():
    text = "p(t) <- a(t), not q(t, u)."
    rendered, evaluator = plan_text(text)
    assert "complement-join ~ q" in rendered and "anti-join" not in rendered
    assert evaluator.plans[0].negated_predicates == {"q"}
    assert operators(text) >= {"complement-join"}
    compiled, reference = models(text)
    assert_same_models(compiled, reference)
    # ∃u ¬q(t, u) holds for every t: q relates t to t + 1 only.
    assert compiled.relation("p").equivalent(parse_database(EDB).relation("a"))


# -- (e) data constants and repeated variables in a negated atom -------------------


def test_negated_data_constant_and_repeated_variable():
    text = (
        's(t; X) <- b(t; X), not d(t; "x").\n'
        "v(t; X) <- b(t; X), not r(t; X, X).\n"
        "w(t; X) <- b(t; X), d(u; X), u > t, u < t + 4, not d(u; X)."
    )
    rendered, evaluator = plan_text(text)
    assert "complement-join" not in rendered
    assert "anti-join d -> [_n1] where data[0] = 'x'" in rendered
    assert "data[0] = data[1]" in rendered
    assert all(not plan.negated_predicates for plan in evaluator.plans)
    compiled, reference = models(text)
    assert_same_models(compiled, reference)
    d = parse_database(EDB).relation("d").extension(*WINDOW)
    assert all((t, "x") not in d for t, _ in compiled.extension("s", *WINDOW))


# -- (f) FO negation shapes ----------------------------------------------------------

FO_EDB = """
relation a[1; 1] { (2n; "x") where T1 >= 0; (3n; "y") where T1 >= 0; }
relation b[1; 1] { (n; "x") where T1 >= 4 & T1 <= 9; (n; "y") where T1 >= 0 & T1 <= 2; }
"""


def fo(formula):
    recorder = TraceRecorder()
    with hooks.subscribed(recorder):
        answers = evaluate_query(parse_database(FO_EDB), formula)
    ops = {event["op"] for event in recorder.of_kind("plan.operator")}
    return answers, ops


def ground():
    db = parse_database(FO_EDB)
    return db.relation("a").extension(-30, 60), db.relation("b").extension(-30, 60)


def test_fo_negated_disjunction():
    answers, ops = fo("a(t; X) and not (b(t; X) or b(t + 1; X))")
    assert "anti-join" in ops and "complement-join" not in ops
    a, b = ground()
    expected = {
        (t, x) for t, x in a
        if (t, x) not in b and (t + 1, x) not in b and 0 <= t < 30
    }
    assert answers.extension(0, 30) == expected


def test_fo_negated_existential():
    answers, ops = fo("a(t; X) and not exists u (b(u; X) and u > t)")
    assert "anti-join" in ops and "complement-join" not in ops
    a, b = ground()
    expected = {
        (t, x) for t, x in a
        if not any(u > t and y == x for u, y in b) and 0 <= t < 30
    }
    assert answers.extension(0, 30) == expected


def test_fo_top_level_not_and_forall_take_the_complement():
    a, b = ground()
    answers, _ = fo("not a(t; X)")
    expected = {(t, x) for t in range(-10, 30) for x in "xy" if (t, x) not in a}
    assert answers.extension(-10, 30) == expected

    answers, _ = fo("forall u (not b(u; X) or u < t)")
    latest = {x: max(u for u, y in b if y == x) for x in "xy"}
    expected = {(t, x) for t in range(-10, 30) for x in "xy" if t > latest[x]}
    assert answers.extension(-10, 30) == expected


def test_fo_negated_conjunct_with_a_free_temporal_variable():
    # u is bound by no positive conjunct: the negated atom joins its
    # complement, and the answer keeps u as a column.
    answers, ops = fo("a(t; X) and t < 6 and not b(u; X)")
    assert "complement-join" in ops
    a, b = ground()
    expected = {
        (t, u, x) for t, x in a for u in range(-5, 15)
        if t < 6 and (u, x) not in b and 0 <= t
    }
    assert answers.extension(-5, 15) == {
        row for row in expected if -5 <= row[0] < 15
    }


# -- (g) checkpoints of a negation program -----------------------------------------

CHECKPOINTED = """
p(t) <- a(t), t < 30.
p(t + 2) <- p(t), t < 30.
n(t) <- b(t; X), not p(t), t < 30.
n(t + 5) <- n(t), not p(t + 5), t < 40.
m(t) <- a(t), not q(t, u), t < 12.
"""


def test_checkpointed_negation_run_resumes_bit_identically(tmp_path, monkeypatch):
    def engine():
        return DeductiveEngine(parse_program(CHECKPOINTED), parse_database(EDB))

    copies = []
    original = engine_module.write_checkpoint

    def copying_write(target, checkpoint):
        original(target, checkpoint)
        copy = tmp_path / ("round%d.ckpt.json" % len(copies))
        shutil.copyfile(target, copy)
        copies.append(str(copy))

    monkeypatch.setattr(engine_module, "write_checkpoint", copying_write)
    clean = engine().run(
        checkpoint_every=1, checkpoint_path=str(tmp_path / "run.ckpt.json")
    )
    monkeypatch.setattr(engine_module, "write_checkpoint", original)
    assert len(copies) > 2
    # Only the complement join's predicate is complemented.
    assert {
        tuple(sorted(load_checkpoint(copy).complements)) for copy in copies
    } <= {(), ("q",)}

    def keys(model):
        return {
            name: sorted(gt.canonical_key() for gt in model.relation(name).tuples)
            for name in model.predicates()
        }

    for copy in copies:
        resumed = engine().run(resume_from=copy)
        assert keys(resumed) == keys(clean)
        assert resumed.stats.new_tuples_per_round == clean.stats.new_tuples_per_round

    # A checkpoint stamped under other plans — such as one written before
    # these negated atoms compiled to anti-joins — is refused.
    stale = load_checkpoint(copies[-1])
    stale.fingerprint = "0" * 64
    write_checkpoint(str(tmp_path / "stale.ckpt.json"), stale)
    with pytest.raises(CheckpointError):
        engine().run(resume_from=str(tmp_path / "stale.ckpt.json"))

    _, reference = models(CHECKPOINTED)
    assert_same_models(clean, reference)
