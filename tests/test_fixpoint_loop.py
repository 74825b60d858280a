"""One round loop: ``run``, ``maintain`` and ``trace`` share the
engine's fixpoint (:meth:`DeductiveEngine._rounds`).

``trace`` is a lazy view of the naive run, so the Example 4.1 trace
comes from the code every run uses; maintained rounds are the
engine's rounds, with the same round events; and one delta round
serves semi-naive rounds and the maintainer's warm start.
"""

import shutil
from unittest import mock

import pytest

import repro.core.engine as engine_module
from repro.core import DeductiveEngine, parse_program
from repro.gdb import parse_database
from repro.util import hooks
from repro.util.errors import GiveUpError
from tests.e14 import workloads

COURSE_EDB = """
relation course[2; 1] {
  (168n+8, 168n+10; "database") where T2 = T1 + 2;
}
"""

PROBLEMS_PROGRAM = """
problems(t1 + 2, t2 + 2; X) <- course(t1, t2; X).
problems(t1 + 48, t2 + 48; X) <- problems(t1, t2; X).
"""

NEGATION_EDB = "relation s[1; 0] { (4n) where T1 >= 0; }"
NEGATION_PROGRAM = "a(t) <- s(t). b(t) <- not a(t), t >= 0, t < 6."

SEED_EDB = "relation seed[1; 0] { (n) where T1 = 0; }"
DIVERGING = """
p(t) <- seed(t).
p(t + 5) <- p(t).
"""


def engine(program, edb, **kwargs):
    return DeductiveEngine(parse_program(program), parse_database(edb), **kwargs)


def recorded(kind, phase):
    """A hook sink and the list of ``kind``/``phase`` events it keeps."""
    events = []

    def sink(event_kind, fields):
        if event_kind == kind and fields.get("phase") == phase:
            events.append(dict(fields))

    return sink, events


def test_trace_is_lazy():
    sink, begins = recorded("engine.round", "begin")
    rounds = []
    with hooks.subscribed(sink):
        for number, _ in engine(DIVERGING, SEED_EDB, patience=None).trace():
            rounds.append(number)
            if len(rounds) == 3:
                break
    assert rounds == [1, 2, 3]
    assert len(begins) == 3


def test_trace_rounds_are_the_naive_runs_rounds():
    cases = [
        (PROBLEMS_PROGRAM, COURSE_EDB),
        (NEGATION_PROGRAM, NEGATION_EDB),
    ]
    for program, edb in cases:
        stats = engine(program, edb, strategy="naive").run().stats
        traced = [
            sum(len(tuples) for tuples in fresh.values())
            for _, fresh in engine(program, edb).trace()
        ]
        assert traced == [n for n in stats.new_tuples_per_round if n]


def test_trace_ends_where_run_ends():
    # Stratum 0 diverges and hits its round cap: the run gives up there,
    # and so does the trace (it never enters stratum 1, where q would
    # derive 1 and 2).
    program = DIVERGING + "q(t) <- not p(t), t >= 0, t < 3."
    with pytest.raises(GiveUpError) as info:
        engine(program, SEED_EDB, max_rounds=4, patience=None).run()
    assert info.value.stats.gave_up
    rounds = list(engine(program, SEED_EDB).trace(max_rounds=4))
    assert [number for number, _ in rounds] == [1, 2, 3, 4]
    assert all(set(fresh) == {"p"} for _, fresh in rounds)


def test_maintained_rounds_emit_round_events():
    program = parse_program(PROBLEMS_PROGRAM)
    old = DeductiveEngine(program, parse_database(COURSE_EDB)).run()
    edb = parse_database(
        COURSE_EDB.replace(
            "}", '  (168n+20, 168n+22; "logic") where T2 = T1 + 2;\n}'
        )
    )
    inserted = [
        gt for gt in edb.relation("course").tuples if gt.data == ("logic",)
    ]
    assert len(inserted) == 1
    sink, ends = recorded("engine.round", "end")
    with hooks.subscribed(sink):
        model = DeductiveEngine(program, edb).maintain(
            {"problems": old.relation("problems")},
            delta={"course": inserted},
        )
    assert [event["derived"] for event in ends] == (
        model.stats.derived_tuples_per_round
    )
    assert [event["accepted"] for event in ends] == (
        model.stats.new_tuples_per_round
    )
    assert model.stats.rounds == len(ends) > 0
    assert model.equivalent(DeductiveEngine(program, edb).run())


def test_maintain_ignores_deltas_the_program_does_not_read():
    program = parse_program(PROBLEMS_PROGRAM)
    edb = parse_database(COURSE_EDB + NEGATION_EDB)
    old = DeductiveEngine(program, edb).run()
    model = DeductiveEngine(program, edb).maintain(
        {"problems": old.relation("problems")},
        delta={"s": list(edb.relation("s").tuples)},
    )
    assert model.stats.constraint_safe
    assert model.equivalent(old)


def test_seminaive_derives_less_than_naive_on_e14():
    # The E14 shift-cycle workload at 12 residue classes: both
    # strategies take 13 rounds to the same model, but semi-naive
    # derives each tuple once while naive re-derives the growing
    # relation every round.
    program, edb = workloads().shift_cycle_workload(12, 1)
    semi = DeductiveEngine(program, edb).run()
    naive = DeductiveEngine(program, edb, strategy="naive").run()
    assert semi.stats.rounds == naive.stats.rounds == 13
    assert sum(semi.stats.derived_tuples_per_round) == 13
    assert sum(naive.stats.derived_tuples_per_round) == 91
    assert semi.equivalent(naive)


def test_resume_from_the_round_that_runs_out_of_patience(tmp_path):
    """The checkpoint of a give-up run's last round resumes to the same
    give-up: patience is checked before a round, so the resumed run
    does not derive one round more than the uninterrupted one."""
    copies = []
    write = engine_module.write_checkpoint

    def copying_write(target, checkpoint):
        write(target, checkpoint)
        copies.append(str(tmp_path / ("round%d.json" % len(copies))))
        shutil.copyfile(target, copies[-1])

    def diverging(**kwargs):
        with pytest.raises(GiveUpError) as info:
            engine(DIVERGING, SEED_EDB, patience=3).run(**kwargs)
        return info.value.partial_model

    with mock.patch.object(engine_module, "write_checkpoint", copying_write):
        clean = diverging(
            checkpoint_every=1, checkpoint_path=str(tmp_path / "run.json")
        )
    assert clean.stats.gave_up
    resumed = diverging(resume_from=copies[-1])
    assert resumed.stats.rounds == clean.stats.rounds
    assert str(resumed) == str(clean)
