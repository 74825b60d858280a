"""A 50-job batch under a fault plan that faults one attempt's start
and sprinkles transient clause faults must
terminate within its deadline with every job in a terminal state —
each one either a model ``equivalent()`` to the fault-free run or a
typed partial/failed result — and with retries resuming from
checkpoints rather than restarting from round 0."""

from repro.core import DeductiveEngine, parse_program
from repro.gdb import parse_database
from repro.runtime.faults import FaultPlan, TransientFaultError
from repro.service import (
    JobSpec,
    QueryService,
    RetryPolicy,
    STATE_OK,
    TERMINAL_STATES,
)

EDB = """
relation course[2; 1] {
  (168n+8, 168n+10; "database") where T2 = T1 + 2;
}
"""

PROGRAM = """
problems(t1 + 2, t2 + 2; X) <- course(t1, t2; X).
problems(t1 + 48, t2 + 48; X) <- problems(t1, t2; X).
"""

JOBS = 50

#: One healthy run makes ~9 clause hits over 8 rounds (2 in the naive
#: first round, before the first checkpoint exists).  Firing every 61st
#: hit from hit 20 scatters ~8 transient faults across the batch's
#: ~450 hits, almost surely past some job's first checkpoint.
FAULT_PLAN = FaultPlan.inject(
    "worker_start", at=3, error=TransientFaultError
).and_inject("clause", at=20, error=TransientFaultError, every=61)


def test_fifty_job_batch_survives_faults():
    baseline = DeductiveEngine(parse_program(PROGRAM), parse_database(EDB)).run()
    specs = [
        JobSpec("stress-%02d" % i, "run", program=PROGRAM, edb=EDB)
        for i in range(JOBS)
    ]
    retry = RetryPolicy(max_attempts=4, base_delay=0.001, max_delay=0.01)
    with FAULT_PLAN.installed():
        with QueryService(
            workers=4, queue_limit=JOBS, retry=retry, default_deadline=30.0
        ) as svc:
            results = svc.run_batch(specs, timeout=120.0)
            stats = svc.stats()

    # Every job reached a terminal state; nothing hung or vanished.
    assert len(results) == JOBS
    assert all(result.terminal() for result in results)
    assert all(result.state in TERMINAL_STATES for result in results)
    by_id = {result.job_id: result for result in results}
    assert sorted(by_id) == sorted(spec.job_id for spec in specs)

    # Jobs that completed produced the fault-free model; the rest are
    # typed partial/failed results, never silent corruption.
    ok = [result for result in results if result.state == STATE_OK]
    assert len(ok) >= JOBS - 5
    assert all(result.model.equivalent(baseline) for result in ok)
    for result in results:
        if result.state != STATE_OK:
            assert result.outcome
            assert result.error or result.model is not None

    # The injected faults actually bit: they forced retries on the
    # same threads, and the transient clause faults' retries resumed
    # from a checkpoint instead of round 0.
    retried = [result for result in results if result.attempts > 1]
    assert retried
    resumed = [
        result
        for result in results
        if result.resumed and result.stats.get("resumed_from_round", 0) >= 1
    ]
    assert resumed
    assert stats["workers"]["restarts"] == 0
    assert stats["jobs"]["completed"] == JOBS


def test_stats_health_and_histograms_consistent_under_faults():
    """Concurrent ``stats()``/``health()``/``metrics_text()`` snapshots
    taken WHILE a faulted batch runs must satisfy the pool invariants
    at every instant, and once the batch drains the latency histogram
    totals must match the job count exactly."""
    import threading

    jobs = 20
    specs = [
        JobSpec("obs-%02d" % i, "run", program=PROGRAM, edb=EDB)
        for i in range(jobs)
    ]
    retry = RetryPolicy(max_attempts=4, base_delay=0.001, max_delay=0.01)
    plan = FaultPlan.inject(
        "clause", at=10, error=TransientFaultError, every=29
    ).and_inject("worker_start", at=5, error=TransientFaultError)
    violations = []
    stop = threading.Event()

    with plan.installed():
        with QueryService(
            workers=3, queue_limit=jobs, retry=retry, default_deadline=30.0
        ) as svc:

            def probe():
                while not stop.is_set():
                    snapshot = svc.stats()
                    health = svc.health()
                    counters = snapshot["jobs"]
                    try:
                        assert counters["completed"] <= counters["submitted"]
                        assert (
                            counters["ok"] + counters["partial"] + counters["failed"]
                            <= counters["completed"] + counters["rejected"]
                        )
                        assert counters["shed"] <= counters["rejected"]
                        assert 0 <= snapshot["queue"]["depth"] <= snapshot["queue"]["limit"]
                        assert 0 <= snapshot["workers"]["alive"] <= snapshot["workers"]["configured"]
                        assert health["status"] in ("ok", "degraded")
                        text = svc.metrics_text()
                        assert text.startswith("# HELP")
                        assert "repro_queue_depth" in text
                    except AssertionError as failure:  # pragma: no cover
                        violations.append(failure)
                        return

            prober = threading.Thread(target=probe)
            prober.start()
            try:
                results = svc.run_batch(specs, timeout=120.0)
            finally:
                stop.set()
                prober.join()
            stats = svc.stats()
            metrics = svc.metrics.to_dict()

    assert violations == []
    assert len(results) == jobs
    assert stats["jobs"]["completed"] == jobs

    # Histogram totals match the job count: every job lands in exactly
    # one end-to-end series (keyed by outcome) and, having been claimed
    # at least once, exactly one queue-wait observation.
    end_to_end = metrics["repro_job_end_to_end_seconds"]["series"]
    assert sum(series["count"] for series in end_to_end) == jobs
    by_outcome = {
        series["labels"]["outcome"]: series["count"] for series in end_to_end
    }
    from collections import Counter

    assert by_outcome == dict(Counter(result.outcome for result in results))
    queue_wait = metrics["repro_job_queue_wait_seconds"]["series"]
    assert sum(series["count"] for series in queue_wait) == jobs
    execution = metrics["repro_job_execution_seconds"]["series"]
    assert sum(series["count"] for series in execution) == jobs
