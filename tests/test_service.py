"""The supervised worker pool: admission control, worker supervision,
retry with checkpoint resume, both rungs of the degradation ladder,
and the circuit breaker — all driven by deterministic fault plans."""

import time

import pytest

from repro.core import DeductiveEngine, parse_program
from repro.gdb import parse_database
from repro.runtime.faults import FaultPlan, TransientFaultError
from repro.service import JobSpec, QueryService, RetryPolicy
from repro.service.breaker import CircuitBreaker
from repro.util.errors import CircuitOpenError, OverloadedError

EDB = """
relation course[2; 1] {
  (168n+8, 168n+10; "database") where T2 = T1 + 2;
}
"""

PROGRAM = """
problems(t1 + 2, t2 + 2; X) <- course(t1, t2; X).
problems(t1 + 48, t2 + 48; X) <- problems(t1, t2; X).
"""

# E7's unary arithmetic: t2 = 2 * t1 has no lrp closed form, so every
# evaluator gives up on it.
DOUBLE_EDB = "relation zero[2; 0] { (n, n) where T1 = 0 & T2 = 0; }"
DOUBLE_PROGRAM = """
double(t1, t2) <- zero(t1, t2).
double(t1 + 1, t2 + 2) <- double(t1, t2).
"""

FAST_RETRY = RetryPolicy(max_attempts=4, base_delay=0.001, max_delay=0.01)


class FakeClock:
    """Injectable breaker clock so cooldown tests never sleep."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def run_spec(job_id="job", **kwargs):
    return JobSpec(job_id, "run", program=PROGRAM, edb=EDB, **kwargs)


def service(**kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("retry", FAST_RETRY)
    kwargs.setdefault("default_deadline", 30.0)
    return QueryService(**kwargs)


@pytest.fixture
def baseline_model():
    return DeductiveEngine(parse_program(PROGRAM), parse_database(EDB)).run()


class TestSpecs:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            JobSpec("x", "nonsense")
        with pytest.raises(ValueError):
            JobSpec("", "run")

    def test_program_key_identifies_sources(self):
        assert run_spec("a").program_key() == run_spec("b").program_key()
        other = JobSpec("c", "run", program="p(t) <- q(t).", edb=EDB)
        assert other.program_key() != run_spec("a").program_key()

    def test_from_json_dict(self):
        spec = JobSpec.from_json_dict(
            {"kind": "query", "edb": EDB, "query": "course(t1, t2; C)",
             "deadline_seconds": 5, "window": [0, 60]},
            default_id="job-9",
        )
        assert spec.job_id == "job-9"
        assert spec.deadline_seconds == 5
        assert spec.window == (0, 60)

    @pytest.mark.parametrize("key", ["deadline_second", "max_round", "parallelism"])
    def test_from_json_dict_rejects_unknown_keys(self, key):
        payload = {"id": "j", "kind": "run", "program": PROGRAM, "edb": EDB, key: 5}
        with pytest.raises(ValueError, match=key):
            JobSpec.from_json_dict(payload)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("window", 5),
            ("window", [1]),
            ("window", [0, "60"]),
            ("patience", "x"),
            ("max_rounds", 2.5),
            ("deadline_seconds", "5"),
            ("strategy", "fast"),
            ("goal_directed", "yes"),
            ("program", 3),
        ],
    )
    def test_from_json_dict_rejects_invalid_values(self, key, value):
        with pytest.raises(ValueError, match=key):
            JobSpec.from_json_dict({"kind": "run", key: value}, default_id="j")

    def test_result_report_fields(self):
        with service() as svc:
            result = svc.run_batch([run_spec()])[0]
        report = result.to_json_dict()
        for key in ("job_id", "state", "outcome", "attempts", "backend",
                    "degradation", "resumed", "worker", "error", "stats",
                    "model"):
            assert key in report
        assert report["state"] == "ok"
        assert report["attempts"] == 1
        assert report["backend"] == "compiled"


class TestAdmission:
    def test_bounded_queue_sheds_typed(self):
        with QueryService(workers=0, queue_limit=2) as svc:
            svc.submit(run_spec("a"))
            svc.submit(run_spec("b"))
            with pytest.raises(OverloadedError) as info:
                svc.submit(run_spec("c"))
            assert info.value.queue_limit == 2
            assert svc.stats()["jobs"]["shed"] == 1

    def test_run_batch_converts_shedding_to_rejected_results(self):
        with QueryService(workers=0, queue_limit=1) as svc:
            results = svc.run_batch(
                [run_spec("a", deadline_seconds=0.0), run_spec("b")],
                timeout=0.2,
            )
        assert results[1].state == "rejected"
        assert results[1].outcome == "overloaded"

    def test_rejection_counters_agree_across_front_doors(self):
        # Pre-PR regression: direct submit() bumped shed/
        # breaker_rejections but never "rejected", so the serve front
        # door and run_batch disagreed on the same event.
        with QueryService(workers=0, queue_limit=1) as svc:
            svc.submit(run_spec("a"))
            with pytest.raises(OverloadedError):
                svc.submit(run_spec("direct"))
            direct = svc.stats()["jobs"]
        assert direct["shed"] == 1
        assert direct["rejected"] == 1

        with QueryService(workers=0, queue_limit=1) as svc:
            results = svc.run_batch(
                [run_spec("a", deadline_seconds=0.0), run_spec("b")],
                timeout=0.2,
            )
            batch = svc.stats()["jobs"]
        assert results[1].state == "rejected"
        assert batch["shed"] == 1
        assert batch["rejected"] == 1  # counted once, not re-counted by run_batch

    def test_submit_fault_site_is_typed_and_batch_safe(self):
        plan = FaultPlan.inject("submit", at=1, error=TransientFaultError)
        with plan.installed():
            with service() as svc:
                results = svc.run_batch([run_spec("a"), run_spec("b")])
        assert results[0].state == "rejected"
        assert results[1].state == "ok"


class TestHealthyBatch:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_twelve_job_batch_is_fully_ok(self, workers, baseline_model):
        # With no fault plan installed every job of a batch ends ok,
        # whatever the worker count; the faulted batch is
        # test_service_stress.py's fifty-job test.
        specs = [run_spec("batch-%02d" % index) for index in range(12)]
        with service(workers=workers, queue_limit=len(specs)) as svc:
            results = svc.run_batch(specs, timeout=300.0)
        assert [result.job_id for result in results] == [s.job_id for s in specs]
        assert [result.state for result in results] == ["ok"] * len(specs)
        assert all(result.model.equivalent(baseline_model) for result in results)


class TestDeadlines:
    def test_expired_job_degrades_to_typed_partial(self):
        with service() as svc:
            result = svc.run_batch([run_spec(deadline_seconds=0.0)])[0]
        assert result.state == "partial"
        assert result.outcome == "budget-exceeded"
        assert "partial-model" in result.degradation

    def test_deadline_mid_run_returns_partial_model(self):
        # A round-boundary delay longer than the deadline forces the
        # engine budget to trip after round 1 committed real tuples.
        plan = FaultPlan.delay("round", at=2, seconds=0.15)
        with plan.installed():
            with service() as svc:
                result = svc.run_batch([run_spec(deadline_seconds=0.1)])[0]
        assert result.state == "partial"
        assert result.outcome == "budget-exceeded"
        assert "partial-model" in result.degradation
        assert result.model is not None
        assert result.stats["rounds"] >= 1

    def test_queued_jobs_expire_without_workers_touching_them(self):
        # One worker is pinned by a slow job; the queued job's deadline
        # elapses before any worker frees up — the supervisor resolves
        # it instead of leaving it hanging.
        plan = FaultPlan.delay("round", at=1, seconds=0.3)
        with plan.installed():
            with service(default_deadline=1.0) as svc:
                slow = svc.submit(run_spec("slow"))
                fast = svc.submit(run_spec("fast", deadline_seconds=0.05))
                result = fast.result(timeout=5.0)
                assert result.state == "partial"
                assert result.outcome == "budget-exceeded"
                assert slow.result(timeout=10.0).state in ("ok", "partial")


class TestRetryAndResume:
    def test_transient_clause_fault_retries_and_resumes(self, baseline_model):
        plan = FaultPlan.inject("clause", at=4, error=TransientFaultError)
        with plan.installed():
            with service() as svc:
                result = svc.run_batch([run_spec()])[0]
        assert result.state == "ok"
        assert result.attempts == 2
        assert result.resumed is True
        assert result.stats["resumed_from_round"] >= 1
        assert result.model.equivalent(baseline_model)

    def test_result_return_fault_is_retried(self, baseline_model):
        plan = FaultPlan.inject("result_return", at=1, error=TransientFaultError)
        with plan.installed():
            with service() as svc:
                result = svc.run_batch([run_spec()])[0]
        assert result.state == "ok"
        assert result.attempts == 2
        assert result.resumed is True
        assert result.model.equivalent(baseline_model)

    def test_exhausted_retries_fail_terminally(self):
        plan = FaultPlan.inject(
            "clause", at=1, error=TransientFaultError, repeat=True
        )
        with plan.installed():
            with service() as svc:
                result = svc.run_batch([run_spec()])[0]
        assert result.state == "failed"
        assert result.attempts == FAST_RETRY.max_attempts


class TestSupervision:
    def test_transient_worker_start_fault_retries_in_place(self, baseline_model):
        plan = FaultPlan.inject("worker_start", at=1, error=TransientFaultError)
        with plan.installed():
            with service() as svc:
                result = svc.run_batch([run_spec()], timeout=30.0)[0]
                stats = svc.stats()
        assert result.state == "ok"
        assert result.attempts == 2
        assert stats["workers"]["restarts"] == 0
        assert result.model.equivalent(baseline_model)

    def test_repeated_worker_start_fault_degrades_then_fails(self):
        # A permanent fault at every attempt's start: rung one moves the
        # job to the reference backend, whose attempt faults too.
        plan = FaultPlan.inject("worker_start", at=1, repeat=True)
        with plan.installed():
            with service() as svc:
                result = svc.run_batch([run_spec()], timeout=30.0)[0]
                stats = svc.stats()
        assert (result.state, result.outcome) == ("failed", "error")
        assert result.degradation == ["reference-backend"]
        assert result.attempts == 2
        assert stats["workers"]["alive"] == 1

    def test_hung_worker_is_abandoned_and_its_job_resolves_partial(
        self, monkeypatch
    ):
        checks = []
        original = QueryService._check_workers

        def counted(svc):
            checks.append(time.monotonic())
            return original(svc)

        monkeypatch.setattr(QueryService, "_check_workers", counted)
        # The round-boundary sleep outlives the deadline plus HANG_GRACE:
        # the supervisor abandons the worker, resolves the job and
        # starts one replacement.
        plan = FaultPlan.delay("round", seconds=3.0)
        with plan.installed():
            with service(default_deadline=0.2) as svc:
                started = time.monotonic()
                result = svc.run_batch([run_spec()], timeout=30.0)[0]
                elapsed = time.monotonic() - started
                stats = svc.stats()
                # The abandoned thread still sleeps; its past-due job
                # must not keep the supervisor awake.
                resolved = len(checks)
                time.sleep(0.3)
                assert len(checks) - resolved <= 1
        assert (result.state, result.outcome) == ("partial", "budget-exceeded")
        assert result.attempts == 1
        assert elapsed < 2.5
        assert stats["workers"]["abandoned"] == 1
        assert stats["workers"]["restarts"] == 1


class TestDegradationLadder:
    def test_compiled_crash_degrades_to_reference(self, baseline_model):
        # A permanent (non-transient) crash in the compiled evaluator:
        # rung one retries the job on the reference backend, which does
        # not hit the already-consumed fault.
        plan = FaultPlan.inject("clause", at=1, error=RuntimeError)
        with plan.installed():
            with service() as svc:
                result = svc.run_batch([run_spec()])[0]
        assert result.state == "ok"
        assert result.backend == "reference"
        assert "reference-backend" in result.degradation
        assert result.model.equivalent(baseline_model)

    def test_stopped_goal_directed_query_keeps_magic_rung(self):
        # The formula's two reads of double defeat the rewrite, so the
        # job runs the full fixpoint, which gives up (E7's unary
        # arithmetic has no lrp closed form): the job is partial and
        # still records the "magic -> full" rung.
        spec = JobSpec(
            "stopped",
            "query",
            program=DOUBLE_PROGRAM,
            edb=DOUBLE_EDB,
            query="double(t, u) and not double(t + 1, u)",
            goal_directed=True,
        )
        with service() as svc:
            result = svc.run_batch([spec])[0]
            degraded = svc.stats()["jobs"]["degraded_magic"]
        assert (result.state, result.outcome) == ("partial", "gave-up")
        assert "magic-full" in result.degradation
        assert degraded == 1

    def test_parse_error_fails_fast_without_degrading(self):
        spec = JobSpec("bad", "run", program="this is not a program", edb=EDB)
        with service() as svc:
            result = svc.run_batch([spec])[0]
        assert result.state == "failed"
        assert result.attempts == 1
        assert result.degradation == []


class TestCircuitBreaker:
    def test_terminal_failures_open_the_circuit(self):
        bad = JobSpec("bad-1", "run", program="not a program", edb=EDB)
        bad2 = JobSpec("bad-2", "run", program="not a program", edb=EDB)
        with service(
            breaker=CircuitBreaker(failure_threshold=1, cooldown_seconds=60.0)
        ) as svc:
            first = svc.run_batch([bad])[0]
            assert first.state == "failed"
            with pytest.raises(CircuitOpenError):
                svc.submit(bad2)
            assert svc.stats()["jobs"]["breaker_rejections"] == 1
            assert svc.health()["status"] == "degraded"
            assert svc.health()["open_circuits"]

    def test_breaker_closes_after_cooldown_when_program_recovers(self):
        # The service-path regression: the probe claimed at submit time
        # must survive the worker-side re-check — a probe that rejects
        # itself would wedge the breaker half-open forever.
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=60.0, clock=clock
        )
        plan = FaultPlan.inject(
            "clause", at=1, error=TransientFaultError, repeat=True
        )
        with service(breaker=breaker) as svc:
            with plan.installed():
                sick = svc.run_batch([run_spec("sick")], timeout=30.0)[0]
            assert sick.state == "failed"
            with pytest.raises(CircuitOpenError):
                svc.submit(run_spec("rejected-while-open"))
            clock.advance(61.0)
            probe = svc.run_batch([run_spec("probe")], timeout=30.0)[0]
            assert probe.state == "ok"
            key = run_spec("x").program_key()
            assert svc.breaker.state(key) == "closed"
            assert svc.run_batch([run_spec("after")])[0].state == "ok"

    def test_queued_expiry_does_not_reset_breaker_failures(self):
        # A job that expires while still queued (attempts == 0) says
        # nothing about its program's health; recording it as a breaker
        # success would reset the consecutive-failure count.
        key = run_spec("x").program_key()
        pinning = JobSpec(
            "pinning", "run", program=PROGRAM + "\n", edb=EDB
        )  # distinct program text -> its own breaker key
        plan = FaultPlan.delay("round", at=1, seconds=0.3)
        with plan.installed():
            with service(
                default_deadline=5.0,
                breaker=CircuitBreaker(
                    failure_threshold=2, cooldown_seconds=60.0
                ),
            ) as svc:
                svc.breaker.record_failure(key)
                slow = svc.submit(pinning)
                fast = svc.submit(run_spec("fast", deadline_seconds=0.05))
                result = fast.result(timeout=5.0)
                assert result.state == "partial"
                assert result.attempts == 0
                svc.breaker.record_failure(key)
                assert svc.breaker.state(key) == "open"
                slow.result(timeout=10.0)

    def test_queued_job_rejected_when_circuit_opens_mid_flight(self):
        bad = [
            JobSpec("bad-%d" % i, "run", program="not a program", edb=EDB)
            for i in range(2)
        ]
        with service(
            breaker=CircuitBreaker(failure_threshold=1, cooldown_seconds=60.0)
        ) as svc:
            results = svc.run_batch(bad, timeout=30.0)
        assert results[0].state in ("failed", "rejected")
        assert results[1].state == "rejected"
        assert "circuit-open" in (results[0].outcome, results[1].outcome) or (
            results[1].outcome in ("circuit-open", "overloaded")
        )


class TestIdleService:
    def test_idle_supervisor_does_not_poll(self, monkeypatch):
        checks = []
        original = QueryService._check_workers

        def counted(svc):
            checks.append(time.monotonic())
            return original(svc)

        monkeypatch.setattr(QueryService, "_check_workers", counted)
        with service(workers=2) as svc:
            time.sleep(0.3)
            assert len(checks) <= 1
            # A job still runs, and the service still closes promptly.
            assert svc.run_batch([run_spec()])[0].state == "ok"

    def test_gave_up_job_reports_the_reason(self):
        spec = JobSpec(
            "g", "run", program=DOUBLE_PROGRAM, edb=DOUBLE_EDB, patience=3,
        )
        with service() as svc:
            result = svc.run_batch([spec])[0]
        assert (result.state, result.outcome) == ("partial", "gave-up")
        assert result.error["type"] == "GiveUpError"
        assert "constraint safety" in result.error["message"]
        assert result.model is not None


class TestObservability:
    def test_stats_and_health_snapshot(self):
        with service(workers=2) as svc:
            results = svc.run_batch([run_spec("s%d" % i) for i in range(5)])
            stats = svc.stats()
            health = svc.health()
        assert all(result.state == "ok" for result in results)
        assert stats["jobs"]["submitted"] == 5
        assert stats["jobs"]["completed"] == 5
        assert stats["jobs"]["ok"] == 5
        assert stats["queue"]["limit"] == 64
        assert health["status"] == "ok"
        assert health["open_circuits"] == []

    def test_mixed_kinds_in_one_batch(self):
        specs = [
            run_spec("r"),
            JobSpec("q", "query", edb=EDB, query="exists t2 (course(t1, t2; C))"),
            JobSpec("d", "datalog1s",
                    program="train(5; a).\ntrain(t + 40; a) <- train(t; a).\n"),
            JobSpec("t", "templog",
                    program="next^5 go.\nalways (next^40 go <- go).\n"),
        ]
        with service(workers=2) as svc:
            results = svc.run_batch(specs)
        assert [r.state for r in results] == ["ok"] * 4
        assert [r.backend for r in results] == [
            "compiled", "fo", "closed-form", "closed-form"
        ]


#: ``JobResult.to_json_dict()`` keys, in report order.
REPORT_KEYS = [
    "job_id", "state", "outcome", "attempts", "backend", "degradation",
    "resumed", "worker", "elapsed_seconds", "error", "stats", "model",
]

DATALOG1S = "train(5; a).\ntrain(t + 40; a) <- train(t; a).\n"
TEMPLOG = "next^5 go.\nalways (next^40 go <- go).\n"
QUERY = "exists t2 (course(t1, t2; C))"


def _expected_model_text(kind, store_root=None):
    """The job's model text computed without the service: what the
    report's ``model`` field must carry, byte for byte."""
    from repro.datalog1s import minimal_model, parse_datalog1s
    from repro.fo import evaluate_query
    from repro.templog import parse_templog, templog_minimal_model

    if kind == "run":
        return str(
            DeductiveEngine(parse_program(PROGRAM), parse_database(EDB)).run()
        )
    if kind == "query":
        return str(evaluate_query(parse_database(EDB), QUERY).relation)
    if kind == "datalog1s":
        return str(minimal_model(parse_datalog1s(DATALOG1S)))
    if kind == "templog":
        return str(templog_minimal_model(parse_templog(TEMPLOG)))
    from repro.edb import EdbStore

    store = EdbStore(store_root)
    try:
        edb = store.snapshot()
    finally:
        store.close()
    return str(DeductiveEngine(parse_program(PROGRAM), edb).run())


class TestJobReport:
    """The report renders ``model`` from the result's model when read;
    the JSON must equal the text of the model computed directly."""

    @pytest.mark.parametrize(
        "kind", ["run", "query", "datalog1s", "templog", "maintain"]
    )
    def test_to_json_dict_per_kind(self, kind, tmp_path):
        store_root = None
        if kind == "run":
            spec = run_spec("j")
        elif kind == "query":
            spec = JobSpec("j", "query", edb=EDB, query=QUERY)
        elif kind == "maintain":
            store = TestMaintainJobs()._store(tmp_path)
            store.close()
            store_root = store.root
            spec = JobSpec("j", "maintain", program=PROGRAM, store=store_root)
        else:
            spec = JobSpec(
                "j", kind, program=DATALOG1S if kind == "datalog1s" else TEMPLOG
            )
        with service(workers=1) as svc:
            result = svc.run_batch([spec])[0]
        assert result.state == "ok"
        report = result.to_json_dict()
        assert report == {
            "job_id": "j",
            "state": "ok",
            "outcome": "ok",
            "attempts": 1,
            "backend": result.backend,
            "degradation": [],
            "resumed": False,
            "worker": result.worker,
            "elapsed_seconds": result.elapsed_seconds,
            "error": None,
            "stats": result.stats,
            "model": _expected_model_text(kind, store_root),
        }
        assert list(report) == REPORT_KEYS

    def test_budget_partial_renders_partial_model(self):
        from repro.runtime.budget import EvaluationBudget
        from repro.util.errors import BudgetExceededError

        with pytest.raises(BudgetExceededError) as caught:
            DeductiveEngine(parse_program(PROGRAM), parse_database(EDB)).run(
                budget=EvaluationBudget(max_rounds=2)
            )
        with service(workers=1) as svc:
            result = svc.run_batch([run_spec("late", max_rounds=2)])[0]
        assert result.state == "partial"
        assert result.to_json_dict()["model"] == str(caught.value.partial_model)


class TestMaintainJobs:
    """``maintain`` jobs: the service refreshes a process-cached
    materialized model over a durable EDB store instead of evaluating
    inline sources."""

    def _store(self, tmp_path):
        from repro.edb import EdbStore
        from repro.gdb.parser import parse_generalized_tuple

        store = EdbStore(str(tmp_path / "store"))
        store.apply(
            [
                {
                    "op": "declare",
                    "relation": "course",
                    "temporal_arity": 2,
                    "data_arity": 1,
                },
                {
                    "op": "assert",
                    "relation": "course",
                    "tuple": parse_generalized_tuple(
                        '(168n+8, 168n+10; "database") where T2 = T1 + 2', 2, 1
                    ),
                },
            ]
        )
        return store

    def test_spec_requires_store(self):
        with pytest.raises(ValueError):
            JobSpec("m", "maintain", program=PROGRAM)

    def test_store_changes_program_key(self):
        a = JobSpec("m", "maintain", program=PROGRAM, store="/x")
        b = JobSpec("m", "maintain", program=PROGRAM, store="/y")
        assert a.program_key() != b.program_key()

    def test_maintain_job_tracks_commits(self, tmp_path, baseline_model):
        from repro.edb import MAINTAINERS
        from repro.gdb.parser import parse_generalized_tuple

        store = self._store(tmp_path)
        spec = JobSpec(
            "m1", "maintain", program=PROGRAM, store=store.root,
            window=(0, 200),
        )
        with service(workers=2) as svc:
            first = svc.run_batch([spec])[0]
            assert first.state == "ok"
            assert first.backend == "compiled"
            store.apply(
                [
                    {
                        "op": "assert",
                        "relation": "course",
                        "tuple": parse_generalized_tuple(
                            '(168n+20, 168n+22; "logic") where T2 = T1 + 2',
                            2,
                            1,
                        ),
                    }
                ]
            )
            second = svc.run_batch(
                [JobSpec("m2", "maintain", program=PROGRAM, store=store.root,
                         window=(0, 200))]
            )[0]
        store.close()
        assert second.state == "ok"
        maintainer = MAINTAINERS.get(store.root, PROGRAM)
        assert maintainer.tx == 2
        assert maintainer.last_report.recomputed is False
        assert maintainer.last_report.inserted == 1
        # The first job's window answers are the baseline's; the second
        # job's include the new chain too.
        first_problems = first.model.relation("problems")
        assert first_problems.equivalent(baseline_model.relation("problems"))
        assert not second.model.relation("problems").equivalent(first_problems)

    def test_maintain_results_report_model_window(self, tmp_path):
        store = self._store(tmp_path)
        store.close()
        spec = JobSpec(
            "m", "maintain", program=PROGRAM, store=store.root, window=(0, 60)
        )
        with service(workers=1) as svc:
            result = svc.run_batch([spec])[0]
        assert result.state == "ok"
        assert result.stats["rounds"] >= 1
        assert result.model_text
