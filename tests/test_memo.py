"""The front-door caches: parsed texts, compiled programs, magic rewrites.

A cache hit must be indistinguishable from a cold compile — same plans,
same fingerprints, same answers — and a failure must never leave an
entry behind.  Every test starts from empty caches with the process's
hit/miss counts kept (they only ever grow).
"""

import sys
import threading
from collections import Counter, OrderedDict

import pytest

from repro.core import DeductiveEngine, parse_program
from repro.core.ast import Program
from repro.core.evaluation import ProgramEvaluator
from repro.fo import evaluate_query
from repro.gdb import parse_database
from repro.gdb.relation import GeneralizedRelation
from repro.gdb.tuple import GeneralizedTuple
from repro.lrp.point import Lrp
from repro.plan import memo
from repro.plan.magic import (
    MagicUnsupportedError,
    QueryGoal,
    goal_directed_model,
    rewrite_for_goal,
)
from repro.runtime import FaultPlan
from repro.runtime.faults import InjectedFaultError
from repro.service import QueryService
from repro.service.executor import JobExecutor
from repro.service.jobs import JobSpec
from repro.util.errors import SchemaError

EDB = """
relation course[2; 1] {
  (168n+8, 168n+10; "database") where T2 = T1 + 2;
  (168n+20, 168n+22; "logic") where T2 = T1 + 2;
}
"""

PROGRAM = """
problems(t1 + 2, t2 + 2; X) <- course(t1, t2; X).
problems(t1 + 48, t2 + 48; X) <- problems(t1, t2; X).
"""

NOT_STRATIFIED = "p(t) <- q(t), not p(t)."


@pytest.fixture(autouse=True)
def empty_caches(monkeypatch):
    for cache in memo.CACHES:
        monkeypatch.setattr(cache, "entries", OrderedDict())


def _evaluator(program_text=PROGRAM, edb_text=EDB, **kwargs):
    return ProgramEvaluator(
        parse_program(program_text), parse_database(edb_text), **kwargs
    )


class TestCompiledPrograms:
    def test_second_parse_of_a_text_hits_and_shares_the_plans(self):
        first = _evaluator()
        misses = memo.PROGRAMS.misses
        hits = memo.PROGRAMS.hits
        second = _evaluator()
        assert memo.PROGRAMS.hits == hits + 1
        assert memo.PROGRAMS.misses == misses
        assert second.plans is first.plans
        assert [
            [id(e) for e in layer] for layer in second.stratum_evaluators
        ] == [[id(e) for e in layer] for layer in first.stratum_evaluators]

    def test_edb_arity_mismatch_raises_on_every_construction(self):
        program = "p(t; X) <- q(t; X)."
        good = "relation q[1; 1] { (4n+1; \"a\"); }"
        bad = "relation q[2; 1] { (4n+1, 4n+1; \"a\"); }"
        _evaluator(program, good)
        assert len(memo.PROGRAMS.entries) == 1
        for _ in range(2):
            with pytest.raises(SchemaError):
                _evaluator(program, bad)
        assert len(memo.PROGRAMS.entries) == 1
        # Once the arities match, the schemas follow from the text, so a
        # second entry for the same text comes from the evaluation mode.
        _evaluator(program, good, evaluation="reference")
        assert len(memo.PROGRAMS.entries) == 2

    def test_unstratifiable_program_raises_every_time_and_is_never_cached(self):
        edb = "relation q[1; 0] { (4n+1); }"
        misses = memo.PROGRAMS.misses
        for _ in range(3):
            with pytest.raises(SchemaError):
                _evaluator(NOT_STRATIFIED, edb)
        assert memo.PROGRAMS.entries == OrderedDict()
        assert memo.PROGRAMS.misses == misses + 3

    def test_fault_during_compile_leaves_no_entry(self):
        with FaultPlan.inject("compile", at=2).installed():
            with pytest.raises(InjectedFaultError):
                _evaluator()
        assert memo.PROGRAMS.entries == OrderedDict()
        # The next construction compiles from scratch and succeeds.
        with FaultPlan.inject("compile", at=1000).installed() as plan:
            _evaluator()
        assert plan.hits["compile"] == 2
        assert len(memo.PROGRAMS.entries) == 1

    def test_hit_fingerprint_equals_cold_compile_and_checkpoints_resume(
        self, tmp_path, monkeypatch
    ):
        cold = DeductiveEngine(parse_program(PROGRAM), parse_database(EDB))
        path = str(tmp_path / "run.ck.json")
        expected = cold.run(checkpoint_every=1, checkpoint_path=path)
        warm = DeductiveEngine(parse_program(PROGRAM), parse_database(EDB))
        assert warm.evaluator.plans is cold.evaluator.plans
        assert warm.fingerprint() == cold.fingerprint()
        resumed = warm.run(resume_from=path)
        assert str(resumed) == str(expected)
        # A compile with nothing cached gives the same fingerprint.
        monkeypatch.setattr(memo.PROGRAMS, "entries", OrderedDict())
        fresh = DeductiveEngine(parse_program(PROGRAM), parse_database(EDB))
        assert fresh.evaluator.plans is not cold.evaluator.plans
        assert fresh.fingerprint() == cold.fingerprint()
        assert (
            fresh.evaluator.plan_fingerprint() == warm.evaluator.plan_fingerprint()
        )


class TestRewrites:
    def test_keys_differ_by_window_and_binding(self):
        """The window changes only the per-goal demand; the key, and
        with it the guarded program, differs by binding."""
        program = parse_program(PROGRAM)
        base = QueryGoal.windowed("problems", 0, 120)
        bound = QueryGoal.windowed("problems", 0, 120, {0: "database"})
        goals = [base, QueryGoal.windowed("problems", 0, 60), bound]
        rewrites = [rewrite_for_goal(program, goal) for goal in goals]
        assert list(memo.REWRITES.entries) == [
            (str(program), "problems", ()),
            (str(program), "problems", (0,)),
        ]
        assert rewrites[1].program is rewrites[0].program
        assert rewrites[2].program is not rewrites[0].program
        hits = memo.REWRITES.hits
        again = rewrite_for_goal(parse_program(PROGRAM), base)
        assert again.program is rewrites[0].program
        assert again.info() == rewrites[0].info()
        assert memo.REWRITES.hits == hits + 1

    def test_windows_of_one_adornment_share_one_rewrite(self):
        program, edb = parse_program(PROGRAM), parse_database(EDB)
        full = DeductiveEngine(program, edb).run()
        windows = [(0, 120), (0, 60), (48, 96)]
        rewrites = []
        for low, high in windows:
            goal = QueryGoal.windowed("problems", low, high)
            rewrites.append(rewrite_for_goal(program, goal))
            engine = DeductiveEngine(program, edb)
            model, info = goal_directed_model(engine, goal)
            assert not info["degraded"]
            assert model.extension("problems", low, high) == full.extension(
                "problems", low, high
            )
        assert len(memo.REWRITES.entries) == 1
        assert all(rewrite.program is rewrites[0].program for rewrite in rewrites)
        zones = {
            str(rewrite.magic_relations["_m__problems"]) for rewrite in rewrites
        }
        assert len(zones) == 3
        # The original program and the one guarded program, compiled once each.
        assert len(memo.PROGRAMS.entries) == 2

    def test_unsupported_goal_is_not_cached(self):
        program = parse_program(PROGRAM)
        for _ in range(2):
            with pytest.raises(MagicUnsupportedError):
                rewrite_for_goal(program, QueryGoal.whole("nowhere"))
        assert memo.REWRITES.entries == OrderedDict()

    def test_hit_still_announces_the_rewrite(self):
        from repro.util import hooks

        program = parse_program(PROGRAM)
        goal = QueryGoal.windowed("problems", 0, 120)
        rewrite_for_goal(program, goal)
        kinds = []
        sink = hooks.subscribe(lambda kind, fields: kinds.append(kind))
        try:
            rewrite_for_goal(program, goal)
        finally:
            hooks.unsubscribe(sink)
        assert memo.REWRITES.hits >= 1
        assert "magic.rewrite" in kinds and "magic.seed" in kinds

    def test_degraded_goal_directed_model_runs_the_callers_engine(self, monkeypatch):
        engine = DeductiveEngine(parse_program(PROGRAM), parse_database(EDB))
        built = []
        construct = ProgramEvaluator.__init__

        def counting(evaluator, *args, **kwargs):
            built.append(evaluator)
            construct(evaluator, *args, **kwargs)

        monkeypatch.setattr(ProgramEvaluator, "__init__", counting)
        model, info = goal_directed_model(engine, QueryGoal.whole("nowhere"))
        # The caller's engine compiles its own program, once, on the
        # fallback; no second engine is built.
        assert built == [engine.evaluator]
        assert list(info) == ["goal", "degraded", "reason"]
        assert info["goal"] == "nowhere" and info["degraded"]
        assert model.stats.magic_degraded == {
            "reason": info["reason"],
            "goal": "nowhere",
        }
        assert list(model.stats.magic_degraded) == ["reason", "goal"]
        assert model.equivalent(engine.run())


def test_goal_jobs_render_and_validate_each_program_once(monkeypatch):
    """Repeated goal-directed jobs render each Program object's text at
    most once and validate it at most once, the parsed program and the
    shared guarded one alike."""
    seen = {"_text": [], "_validated": []}
    for name, programs in seen.items():
        prop = Program.__dict__[name]

        def counting(program, compute=prop.func, programs=programs):
            programs.append(program)
            return compute(program)

        monkeypatch.setattr(prop, "func", counting)
    spec = JobSpec(
        "goal",
        "query",
        program=PROGRAM,
        edb=EDB,
        query="problems(t1, t2; X)",
        window=(0, 120),
        goal_directed=True,
    )
    executor = JobExecutor()
    results = [executor.execute(spec, "compiled") for _ in range(3)]
    assert [result.outcome for result in results] == ["ok"] * 3
    assert not results[-1].magic["degraded"]
    assert results[1].window == results[2].window == results[0].window
    for name, programs in seen.items():
        assert programs, name
        assert max(Counter(map(id, programs)).values()) == 1, name


def test_goal_job_compiles_only_the_guarded_program(monkeypatch):
    """A goal-directed job whose rewrite applies compiles one program,
    the guarded one: its full-program engine checks the program against
    the EDB and lends its settings, and never runs."""
    compiled = []
    construct = ProgramEvaluator.__init__

    def counting(evaluator, program, *args, **kwargs):
        compiled.append(program)
        construct(evaluator, program, *args, **kwargs)

    monkeypatch.setattr(ProgramEvaluator, "__init__", counting)
    spec = JobSpec(
        "goal",
        "query",
        program=PROGRAM,
        edb=EDB,
        query="problems(t1, t2; X)",
        window=(0, 120),
        goal_directed=True,
    )
    result = JobExecutor().execute(spec, "compiled")
    assert result.outcome == "ok" and not result.magic["degraded"]
    goal = QueryGoal.windowed("problems", 0, 120)
    guarded = rewrite_for_goal(memo.parsed("program", PROGRAM, parse_program), goal)
    assert compiled == [guarded.program]


class TestCaps:
    def test_programs_stay_at_the_cap_and_evict_the_oldest(self, monkeypatch):
        monkeypatch.setattr(memo.PROGRAMS, "cap", 2)
        edb = "relation q[1; 0] { (4n+1); }"
        texts = ["p%d(t) <- q(t)." % k for k in range(4)]
        for text in texts:
            _evaluator(text, edb)
            assert len(memo.PROGRAMS.entries) <= 2
        kept = [key[0] for key in memo.PROGRAMS.entries]
        assert kept == [str(parse_program(text)) for text in texts[2:]]

    def test_texts_stay_at_the_cap_and_evict_the_oldest(self, monkeypatch):
        monkeypatch.setattr(memo.TEXTS, "cap", 3)
        texts = ["p%d(t) <- q(t)." % k for k in range(5)]
        for text in texts:
            memo.parsed("program", text, parse_program)
        assert [key[1] for key in memo.TEXTS.entries] == texts[2:]
        assert memo.cache_stats()["texts"]["size"] == 3

    def test_rewrites_stay_at_the_cap_and_evict_the_oldest(self, monkeypatch):
        monkeypatch.setattr(memo.REWRITES, "cap", 2)
        program = parse_program(" ".join("p%d(t) <- q(t)." % k for k in range(4)))
        goals = [QueryGoal.point("p%d" % k, 0) for k in range(4)]
        for goal in goals:
            rewrite_for_goal(program, goal)
        assert [key[1] for key in memo.REWRITES.entries] == ["p2", "p3"]
        # The evicted adornment is a miss again; answers do not depend on it.
        misses = memo.REWRITES.misses
        rewrite_for_goal(program, goals[0])
        assert memo.REWRITES.misses == misses + 1
        assert len(memo.REWRITES.entries) == 2

    def test_cache_stats_shape(self):
        stats = memo.cache_stats()
        assert set(stats) == {"texts", "programs", "rewrites"}
        for entry in stats.values():
            assert set(entry) == {"size", "cap", "hits", "misses"}
        assert stats["programs"]["cap"] == memo.PROGRAM_CAP


def _answers(formula, model_or_db):
    if hasattr(model_or_db, "query"):
        return str(model_or_db.query(formula).relation)
    return str(evaluate_query(model_or_db, formula).relation)


def test_service_answers_equal_uncached_evaluation(monkeypatch):
    """Two worker threads over 200 repeated goal-directed and FO jobs
    answer exactly as cache-free evaluation, and leave the shared
    parsed EDB as it was."""
    goal_query = "problems(t1, t2; X)"
    fo_query = 'exists t2 (course(t1, t2; "logic"))'
    windows = [(0, 120), (100, 400)]
    with monkeypatch.context() as uncached:
        for cache in memo.CACHES:
            uncached.setattr(cache, "cap", 0)
        expected_goal = {}
        for window in windows:
            model, info = goal_directed_model(
                DeductiveEngine(parse_program(PROGRAM), parse_database(EDB)),
                QueryGoal.windowed("problems", *window),
            )
            assert not info["degraded"]
            expected_goal[window] = _answers(goal_query, model)
        expected_fo = _answers(fo_query, parse_database(EDB))
        assert all(not cache.entries for cache in memo.CACHES)
    before = str(parse_database(EDB))

    specs = []
    for k in range(200):
        window = windows[k % 2]
        if k % 3 == 2:
            specs.append(JobSpec("fo-%d" % k, "query", edb=EDB, query=fo_query))
        else:
            specs.append(
                JobSpec(
                    "goal-%d" % k,
                    "query",
                    program=PROGRAM,
                    edb=EDB,
                    query=goal_query,
                    window=window,
                    goal_directed=True,
                )
            )
    with QueryService(workers=2, queue_limit=len(specs)) as service:
        results = service.run_batch(specs, timeout=120)
        exposition = service.metrics_text()
    for spec, result in zip(specs, results):
        assert result.state == "ok", (spec.job_id, result.error)
        if spec.goal_directed:
            assert result.degradation == []
            assert result.model_text == expected_goal[spec.window], spec.job_id
        else:
            assert result.model_text == expected_fo, spec.job_id
    shared = memo.parsed("edb", EDB, parse_database)
    assert str(shared) == before
    assert memo.TEXTS.hits > 0 and memo.PROGRAMS.hits > 0 and memo.REWRITES.hits > 0
    assert 'repro_memo_lookups_total{cache="programs",result="hit"}' in exposition


def test_shared_relation_indexes_build_once_under_concurrent_readers():
    """Worker threads share parsed EDB relations; concurrent first
    reads of a data index must not fold the same rows in twice."""
    tuples = [
        GeneralizedTuple((Lrp(1000, k),), ("v%d" % (k % 7),)) for k in range(600)
    ]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            relation = GeneralizedRelation(1, 1, tuples)
            barrier = threading.Barrier(4)

            def read():
                barrier.wait()
                relation.data_index(0)
                relation.tuples_with_signature_id(-1)

            threads = [threading.Thread(target=read) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            positions = [p for rows in relation.data_index(0).values() for p in rows]
            assert sorted(positions) == list(range(len(tuples)))
            signature_rows = sum(
                len(rows) for rows in relation._ensure_store().signature_index().values()
            )
            assert signature_rows == len(tuples)
    finally:
        sys.setswitchinterval(previous)


def test_quoted_constants_round_trip_through_program_text():
    """``str(program)`` keys the compiled-program cache, so two programs
    with different constants must never render alike."""
    first = parse_program(r'p(t; "a\", \"b", "c") <- q(t).')
    second = parse_program(r'p(t; "a", "b\", \"c") <- q(t).')
    assert str(first) != str(second)
    for program in (first, second):
        again = parse_program(str(program))
        assert str(again) == str(program)
        assert again.clauses[0].head == program.clauses[0].head
