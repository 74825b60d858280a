"""The supervised worker pool behind the resilient query service.

:class:`QueryService` accepts jobs (:mod:`repro.service.jobs`), admits
them through a *bounded* queue (typed
:class:`~repro.util.errors.OverloadedError` shedding, never a hang),
and runs them on a pool of supervised worker threads.  Resilience is
layered:

* **Deadlines.**  Every job's wall-clock deadline spans all of its
  attempts; each attempt runs under an
  :class:`~repro.runtime.budget.EvaluationBudget` holding the time
  still remaining, so evaluation stops cooperatively and returns the
  typed partial model (the ladder's second rung) instead of running
  long.
* **Retry + resume.**  Transient failures
  (:class:`~repro.runtime.faults.TransientFaultError`,
  :class:`~repro.util.errors.WorkerDiedError`) are retried with
  exponential backoff and deterministic seeded jitter
  (:class:`~repro.service.retry.RetryPolicy`); ``run`` attempts resume
  from the job's last round-granular checkpoint rather than restarting
  from round 0.
* **Supervision.**  A monitor thread detects dead workers (a
  ``worker_start`` fault injecting
  :class:`~repro.util.errors.WorkerDiedError` deterministically kills
  one) and hung workers (an attempt overrunning its deadline by the
  configured grace), requeues their jobs *excluding* the failed
  worker, and starts replacements.  Results from an abandoned worker
  are discarded by ownership checks, so a job never completes twice.
* **Circuit breaker.**  Programs that keep failing terminally trip a
  per-program breaker (:class:`~repro.service.breaker.CircuitBreaker`);
  further jobs for the same program are rejected typed-and-instantly
  until a cooldown passes and a probe succeeds.
* **Degradation ladder.**  Rung one: a ``run`` job whose compiled-plan
  evaluation crashes for a non-transient reason is re-attempted on the
  paper-literal ``reference`` backend.  Rung two: when the deadline
  trips, the typed partial model computed so far is returned as a
  ``partial`` result instead of an error.

Every admitted job reaches exactly one terminal
:class:`~repro.service.jobs.JobResult`; :meth:`QueryService.stats` and
:meth:`QueryService.health` expose the live counters monitoring scrapes.
"""

from __future__ import annotations

import collections
import os
import shutil
import tempfile
import threading
import time

from repro.obs.metrics import MetricsRegistry
from repro.plan import memo
from repro.runtime.report import error_summary
from repro.service.breaker import CircuitBreaker
from repro.service.executor import (
    BACKEND_COMPILED,
    BACKEND_REFERENCE,
    JobExecutor,
)
from repro.service.jobs import (
    STATE_FAILED,
    STATE_OK,
    STATE_PARTIAL,
    STATE_REJECTED,
    JobResult,
)
from repro.service.retry import RetryPolicy, is_transient
from repro.util.errors import (
    CircuitOpenError,
    EvaluationError,
    OverloadedError,
    ParseError,
    PartialResultError,
    ReproError,
    SchemaError,
    ServiceError,
    WorkerDiedError,
)
from repro.util import hooks
from repro.util.hooks import fault_point

#: Latency buckets for the service histograms (seconds): job deadlines
#: live in the tens-of-milliseconds to tens-of-seconds range.
SERVICE_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class JobHandle:
    """A future for one admitted job; resolves to a
    :class:`~repro.service.jobs.JobResult`."""

    def __init__(self, spec):
        self.spec = spec
        self._event = threading.Event()
        self._result = None

    def done(self):
        return self._event.is_set()

    def result(self, timeout=None):
        """Block until the job is terminal.  Raises
        :class:`~repro.util.errors.ServiceError` when ``timeout``
        elapses first (the job itself keeps running toward its own
        deadline)."""
        if not self._event.wait(timeout):
            raise ServiceError(
                "timed out after %gs waiting for job %r"
                % (timeout, self.spec.job_id)
            )
        return self._result

    def _resolve(self, result):
        self._result = result
        self._event.set()


class _Job:
    """Mutable service-side state of one admitted job."""

    __slots__ = (
        "spec",
        "handle",
        "attempts",
        "backend",
        "degradation",
        "excluded_workers",
        "resumed",
        "pending_delay",
        "submitted_at",
        "deadline_at",
        "owner",
        "started_at",
        "first_claimed_at",
        "first_claim_done",
        "lock",
    )

    def __init__(self, spec, now, default_deadline):
        self.spec = spec
        self.handle = JobHandle(spec)
        self.attempts = 0
        self.backend = BACKEND_COMPILED
        self.degradation = []
        self.excluded_workers = set()
        self.resumed = False
        self.pending_delay = 0.0
        self.submitted_at = now
        deadline = spec.deadline_seconds
        if deadline is None:
            deadline = default_deadline
        self.deadline_at = None if deadline is None else now + deadline
        self.owner = None
        self.started_at = None
        self.first_claimed_at = None
        self.first_claim_done = False
        self.lock = threading.Lock()

    def remaining(self, now):
        """Wall-clock seconds left before this job's deadline (``None``
        when unbounded)."""
        if self.deadline_at is None:
            return None
        return self.deadline_at - now


class _Worker:
    """One pool thread plus the supervisor-visible flags."""

    def __init__(self, name, service):
        self.name = name
        self.service = service
        self.dead = False
        self.abandoned = False
        self.current_job = None
        self.started_at = None
        self.thread = threading.Thread(
            target=service._worker_main, args=(self,), name=name, daemon=True
        )

    def alive(self):
        return self.thread.is_alive() and not self.dead and not self.abandoned


class QueryService:
    """A resilient multi-query evaluation service.

    Parameters
    ----------
    workers:
        Pool size.  ``0`` is allowed (admission-control testing: jobs
        queue but nothing drains them).
    queue_limit:
        Bound on jobs waiting in the admission queue; submissions
        beyond it are shed with :class:`OverloadedError`.
    retry:
        The :class:`~repro.service.retry.RetryPolicy` for transient
        failures.
    breaker:
        The per-program :class:`~repro.service.breaker.CircuitBreaker`.
    default_deadline:
        Wall-clock deadline applied to jobs that do not carry their
        own.
    work_dir:
        Directory for per-job checkpoints (a temporary directory is
        created — and removed on :meth:`close` — when omitted).
    hang_grace:
        Extra seconds past a job's deadline before the supervisor
        declares the worker hung and abandons it (jobs without any
        deadline are never declared hung).
    sleeper / clock:
        Injectable for tests.
    metrics:
        An optional :class:`~repro.obs.metrics.MetricsRegistry` to
        record into (one is created when omitted).  The service keeps
        three latency histograms — end-to-end and execution time per
        outcome, plus queue wait — and mirrors every counter as
        ``repro_service_events_total{event=…}``;
        :meth:`metrics_text` renders the Prometheus exposition.
    """

    def __init__(
        self,
        workers=4,
        queue_limit=64,
        retry=None,
        breaker=None,
        default_deadline=None,
        work_dir=None,
        checkpoint_every=1,
        hang_grace=1.0,
        supervise_interval=0.02,
        max_worker_restarts=32,
        sleeper=None,
        clock=None,
        metrics=None,
    ):
        if workers < 0:
            raise ValueError("workers must be non-negative")
        if queue_limit < 1:
            raise ValueError("queue_limit must be positive")
        self.configured_workers = workers
        self.queue_limit = queue_limit
        self.retry = retry or RetryPolicy()
        self.breaker = breaker or CircuitBreaker()
        self.default_deadline = default_deadline
        self.hang_grace = hang_grace
        self.supervise_interval = supervise_interval
        self.max_worker_restarts = max_worker_restarts
        self._sleeper = sleeper or time.sleep
        self._clock = clock or time.monotonic
        self._owns_work_dir = work_dir is None
        if work_dir is None:
            work_dir = tempfile.mkdtemp(prefix="repro-service-")
        else:
            os.makedirs(work_dir, exist_ok=True)
        self.work_dir = work_dir
        self.executor = JobExecutor(
            work_dir=work_dir, checkpoint_every=checkpoint_every
        )

        self._queue = collections.deque()
        self._cond = threading.Condition()
        self._stopping = False
        self._workers = []
        self._worker_seq = 0
        self._stats_lock = threading.Lock()
        self._stats = collections.Counter()
        self._supervisor = None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._events_total = self.metrics.counter(
            "repro_service_events_total",
            "Service counter events (mirrors stats()).",
            labelnames=("event",),
        )
        self._end_to_end = self.metrics.histogram(
            "repro_job_end_to_end_seconds",
            "Submit-to-terminal latency per job outcome.",
            labelnames=("outcome",),
            buckets=SERVICE_BUCKETS,
        )
        self._queue_wait = self.metrics.histogram(
            "repro_job_queue_wait_seconds",
            "Admission-to-first-claim wait.",
            buckets=SERVICE_BUCKETS,
        )
        self._execution = self.metrics.histogram(
            "repro_job_execution_seconds",
            "Last-claim-to-terminal execution time per job outcome.",
            labelnames=("outcome",),
            buckets=SERVICE_BUCKETS,
        )
        self._start_pool()

    # -- lifecycle --------------------------------------------------------

    def _start_pool(self):
        for _ in range(self.configured_workers):
            self._spawn_worker()
        if self.configured_workers:
            self._supervisor = threading.Thread(
                target=self._supervise, name="repro-supervisor", daemon=True
            )
            self._supervisor.start()

    def _spawn_worker(self):
        with self._cond:
            self._worker_seq += 1
            worker = _Worker("worker-%d" % self._worker_seq, self)
            self._workers.append(worker)
        worker.thread.start()
        return worker

    def close(self):
        """Stop accepting work, let queued jobs drain, join the pool."""
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
            workers = list(self._workers)
        for worker in workers:
            if worker.thread.is_alive() and not worker.abandoned:
                worker.thread.join(timeout=30.0)
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
        if self._owns_work_dir:
            shutil.rmtree(self.work_dir, ignore_errors=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    # -- admission --------------------------------------------------------

    def submit(self, spec):
        """Admit one job; returns a :class:`JobHandle`.

        Raises :class:`OverloadedError` when the queue is full,
        :class:`CircuitOpenError` when the job's program breaker is
        open, and propagates any ``submit``-site injected fault.

        Every admission rejection — shed, breaker-open, or
        shutting-down — is counted here, in ``rejected`` plus its
        specific counter, so :meth:`stats` agrees whether the caller
        came through :meth:`run_batch` or this front door directly
        (the ``repro serve`` path).
        """
        fault_point("submit")
        key = spec.program_key()
        job = _Job(spec, self._clock(), self.default_deadline)
        try:
            # The job itself is the probe token: when this admission is
            # the half-open probe, the worker-side re-check in
            # _process() admits the same token instead of rejecting its
            # own probe (which would wedge the breaker half-open).
            self.breaker.check(key, token=job)
        except CircuitOpenError:
            self._count_rejection(spec, "circuit-open", "breaker_rejections")
            raise
        try:
            with self._cond:
                if self._stopping:
                    raise ServiceError("service is shutting down")
                if len(self._queue) >= self.queue_limit:
                    raise OverloadedError(
                        "admission queue full (%d jobs queued, limit %d)"
                        % (len(self._queue), self.queue_limit),
                        queue_limit=self.queue_limit,
                    )
                self._queue.append(job)
                depth = len(self._queue)
                self._cond.notify()
        except ReproError as error:
            if isinstance(error, OverloadedError):
                self._count_rejection(spec, "overloaded", "shed")
            else:
                self._count_rejection(spec, "shutting-down", None)
            self.breaker.release_probe(key, job)
            raise
        self._count("submitted")
        if hooks.SINKS:
            hooks.emit(
                "service.job",
                {
                    "phase": "submit",
                    "job_id": spec.job_id,
                    "job_kind": spec.kind,
                    "queue_depth": depth,
                },
            )
        return job.handle

    def _count_rejection(self, spec, reason, extra_counter):
        """The single place admission rejections are tallied."""
        self._count("rejected")
        if extra_counter is not None:
            self._count(extra_counter)
        if hooks.SINKS:
            hooks.emit(
                "service.job",
                {"phase": "reject", "job_id": spec.job_id, "reason": reason},
            )

    def run_batch(self, specs, timeout=None):
        """Submit every spec and wait for all results, in input order.

        Shed/breaker-rejected submissions become ``rejected`` results
        instead of exceptions, so the returned list always matches the
        input one-to-one.  ``timeout`` bounds the *total* wait; jobs
        still pending when it expires resolve to typed
        ``batch-timeout`` failures (they keep running toward their own
        deadlines in the background).

        Rejections are counted by :meth:`submit` itself (never here),
        so ``stats()["jobs"]["rejected"]`` agrees with the direct
        front door.
        """
        handles = []
        for spec in specs:
            try:
                handles.append(self.submit(spec))
            except ReproError as error:
                outcome = (
                    "overloaded"
                    if isinstance(error, OverloadedError)
                    else "circuit-open"
                    if isinstance(error, CircuitOpenError)
                    else "error"
                )
                handles.append(
                    JobResult(
                        job_id=spec.job_id,
                        state=STATE_REJECTED,
                        outcome=outcome,
                        error=error_summary(error),
                    )
                )
        deadline = None if timeout is None else self._clock() + timeout
        results = []
        for handle in handles:
            if isinstance(handle, JobResult):
                results.append(handle)
                continue
            remaining = (
                None if deadline is None else max(0.0, deadline - self._clock())
            )
            try:
                results.append(handle.result(timeout=remaining))
            except ServiceError as error:
                results.append(
                    JobResult(
                        job_id=handle.spec.job_id,
                        state=STATE_FAILED,
                        outcome="batch-timeout",
                        error=error_summary(error),
                    )
                )
        return results

    # -- observability ----------------------------------------------------

    def _count(self, key, value=1):
        with self._stats_lock:
            self._stats[key] += value
        self._events_total.labels(event=key).inc(value)

    def stats(self):
        """A JSON-safe snapshot of the pool counters."""
        with self._stats_lock:
            counters = dict(self._stats)
        with self._cond:
            depth = len(self._queue)
            workers = list(self._workers)
        alive = sum(1 for worker in workers if worker.alive())
        return {
            "workers": {
                "configured": self.configured_workers,
                "alive": alive,
                "restarts": counters.get("worker_restarts", 0),
                "abandoned": counters.get("workers_abandoned", 0),
            },
            "queue": {"depth": depth, "limit": self.queue_limit},
            "jobs": {
                key: counters.get(key, 0)
                for key in (
                    "submitted",
                    "completed",
                    "ok",
                    "partial",
                    "failed",
                    "rejected",
                    "retries",
                    "requeues",
                    "resumed",
                    "degraded_backend",
                    "degraded_partial",
                    "degraded_magic",
                    "shed",
                    "breaker_rejections",
                )
            },
            "breaker": self.breaker.snapshot(),
        }

    def health(self):
        """The liveness/degradation summary for a health endpoint."""
        snapshot = self.stats()
        workers = snapshot["workers"]
        open_circuits = [
            key
            for key, entry in snapshot["breaker"].items()
            if entry["state"] != "closed"
        ]
        degraded = (
            workers["alive"] < workers["configured"] or bool(open_circuits)
        )
        return {
            "status": "degraded" if degraded else "ok",
            "workers": workers,
            "queue": snapshot["queue"],
            "open_circuits": open_circuits,
        }

    def metrics_text(self):
        """The Prometheus text exposition: latency histograms, counter
        mirrors, plus point-in-time gauges refreshed per scrape.  The
        front-door cache lookups (:func:`repro.plan.memo.cache_stats`)
        are process totals, brought up to date per scrape."""
        snapshot = self.stats()
        lookups = self.metrics.counter(
            "repro_memo_lookups_total",
            "Front-door cache lookups (parsed texts, compiled programs, "
            "magic rewrites) in this process.",
            labelnames=("cache", "result"),
        )
        for cache, counts in memo.cache_stats().items():
            for result, total in (("hit", counts["hits"]), ("miss", counts["misses"])):
                child = lookups.labels(cache=cache, result=result)
                child.inc(max(0, total - child.value))
        self.metrics.gauge(
            "repro_queue_depth", "Jobs waiting in the admission queue."
        ).set(snapshot["queue"]["depth"])
        self.metrics.gauge(
            "repro_workers_alive", "Live (non-abandoned) pool workers."
        ).set(snapshot["workers"]["alive"])
        self.metrics.gauge(
            "repro_workers_configured", "Configured pool size."
        ).set(snapshot["workers"]["configured"])
        return self.metrics.render()

    # -- the worker loop --------------------------------------------------

    def _worker_main(self, worker):
        while True:
            job = self._next_job(worker)
            if job is None:
                return
            if not self._claim(job, worker):
                continue
            try:
                self._process(job, worker)
            except WorkerDiedError as death:
                # This worker is gone: hand the job back (excluding
                # ourselves) and stop the loop; the supervisor restarts.
                worker.dead = True
                self._release(job, worker)
                self._handle_worker_death(job, worker, death)
                return
            finally:
                self._release(job, worker)
                if worker.abandoned:
                    return

    def _next_job(self, worker):
        with self._cond:
            while True:
                job = self._pop_runnable(worker)
                if job is not None:
                    return job
                if self._stopping and not self._queue:
                    return None
                self._cond.wait(timeout=0.05)

    def _pop_runnable(self, worker):
        """The first queued job this worker is not excluded from."""
        for _ in range(len(self._queue)):
            job = self._queue.popleft()
            if worker.name in job.excluded_workers:
                self._queue.append(job)
                continue
            return job
        return None

    def _claim(self, job, worker):
        with job.lock:
            if job.handle.done():
                return False
            job.owner = worker
        worker.current_job = job
        worker.started_at = self._clock()
        job.started_at = worker.started_at
        if not job.first_claim_done:
            job.first_claim_done = True
            job.first_claimed_at = worker.started_at
            self._queue_wait.observe(
                max(0.0, job.first_claimed_at - job.submitted_at)
            )
            self.executor.discard_checkpoint(job.spec)
        if hooks.SINKS:
            hooks.emit(
                "service.job",
                {
                    "phase": "dequeue",
                    "job_id": job.spec.job_id,
                    "worker": worker.name,
                    "queue_wait_s": max(0.0, job.started_at - job.submitted_at),
                },
            )
        return True

    def _release(self, job, worker):
        with job.lock:
            if job.owner is worker:
                job.owner = None
        worker.current_job = None
        worker.started_at = None

    def _process(self, job, worker):
        """Run attempts of ``job`` until it is terminal or this worker
        cannot continue (death propagates as WorkerDiedError)."""
        if job.pending_delay > 0.0:
            delay, job.pending_delay = job.pending_delay, 0.0
            self._sleeper(delay)
        try:
            fault_point("worker_start")
        except WorkerDiedError:
            # The pickup itself consumed an attempt: repeated deaths
            # must converge on a terminal failure, not requeue forever.
            job.attempts += 1
            raise
        try:
            # Re-check with the job as probe token: if this job holds
            # the half-open probe slot it claimed at submit time, the
            # breaker admits it again instead of rejecting its own
            # probe.  Only a trip that happened *after* admission (other
            # jobs for the key failing while this one queued) rejects.
            self.breaker.check(job.spec.program_key(), token=job)
        except CircuitOpenError as error:
            self._count("breaker_rejections")
            self._finish(
                job,
                worker,
                JobResult(
                    job_id=job.spec.job_id,
                    state=STATE_REJECTED,
                    outcome="circuit-open",
                    attempts=job.attempts,
                    error=error_summary(error),
                ),
                record_breaker=False,
            )
            return
        while True:
            job.attempts += 1
            now = self._clock()
            remaining = job.remaining(now)
            if hooks.SINKS:
                hooks.emit(
                    "service.job",
                    {
                        "phase": "attempt",
                        "job_id": job.spec.job_id,
                        "attempt": job.attempts,
                        "backend": job.backend,
                        "worker": worker.name,
                        "remaining_s": remaining,
                    },
                )
            if remaining is not None and remaining <= 0.0:
                self._finish_deadline(job, worker, outcome_error=None)
                return
            try:
                outcome = self.executor.execute(
                    job.spec, job.backend, remaining_seconds=remaining
                )
                fault_point("result_return")
            except WorkerDiedError:
                raise
            except Exception as error:
                if self.retry.retryable(error, job.attempts):
                    self._count("retries")
                    self._sleeper(self._bounded_delay(job))
                    continue
                if self._degradable(job, error):
                    job.backend = BACKEND_REFERENCE
                    job.degradation.append("reference-backend")
                    self._count("degraded_backend")
                    continue
                self._finish_failure(job, worker, error)
                return
            self._finish_outcome(job, worker, outcome)
            return

    def _bounded_delay(self, job):
        """The backoff before this job's next attempt, capped so the
        sleep itself can never outlive the job's deadline."""
        delay = self.retry.delay(job.spec.job_id, job.attempts)
        remaining = job.remaining(self._clock())
        if remaining is not None:
            delay = max(0.0, min(delay, remaining))
        return delay

    def _degradable(self, job, error):
        """Rung one of the ladder: compiled-plan evaluation crashed for
        a non-transient, non-input reason on a ``run`` job."""
        if job.spec.kind != "run" or job.backend != BACKEND_COMPILED:
            return False
        if is_transient(error):
            return False
        if isinstance(error, (ParseError, SchemaError)):
            return False
        # EvaluationError that is not a PartialResultError means the
        # input itself is bad (e.g. not range-restricted) — degrading
        # the backend cannot help.
        if isinstance(error, EvaluationError) and not isinstance(
            error, PartialResultError
        ):
            return False
        return True

    # -- terminal transitions ---------------------------------------------

    def _finish(self, job, worker, result, record_breaker=True):
        now = self._clock()
        with job.lock:
            if job.handle.done():
                return
            if worker is not None and job.owner is not worker:
                # The supervisor reassigned this job (the worker was
                # abandoned as hung); the stale attempt's result must
                # not beat the requeued one.
                return
            result.elapsed_seconds = now - job.submitted_at
            result.worker = None if worker is None else worker.name
            # Counters, histograms and the outcome span are recorded
            # BEFORE the handle resolves: a client unblocked by the
            # result must already find the job in stats()/metrics
            # snapshots (run_batch returning with a short histogram
            # otherwise races the last observation).
            self._count("completed")
            self._count(result.state)
            if result.resumed:
                self._count("resumed")
            self._end_to_end.labels(outcome=result.outcome).observe(
                max(0.0, result.elapsed_seconds)
            )
            if job.started_at is not None:
                self._execution.labels(outcome=result.outcome).observe(
                    max(0.0, now - job.started_at)
                )
            if hooks.SINKS:
                hooks.emit(
                    "service.job",
                    {
                        "phase": "outcome",
                        "job_id": job.spec.job_id,
                        "state": result.state,
                        "outcome": result.outcome,
                        "attempts": job.attempts,
                        "backend": result.backend,
                        "degradation": list(job.degradation),
                        "resumed": result.resumed,
                        "elapsed_s": result.elapsed_seconds,
                        "queue_wait_s": (
                            None
                            if job.first_claimed_at is None
                            else max(
                                0.0, job.first_claimed_at - job.submitted_at
                            )
                        ),
                        "worker": result.worker,
                    },
                )
            job.handle._resolve(result)
        key = job.spec.program_key()
        if record_breaker:
            if result.state == STATE_FAILED:
                self.breaker.record_failure(key)
            else:
                self.breaker.record_success(key)
        else:
            # No outcome recorded: if this job held the half-open probe
            # slot, hand it back so the next submission can probe.
            self.breaker.release_probe(key, job)

    def _finish_outcome(self, job, worker, outcome):
        job.resumed = job.resumed or outcome.resumed
        if getattr(outcome, "magic_degraded", False):
            # A goal-directed query fell back to the full fixpoint —
            # exact (indeed larger) result, so the state is untouched;
            # only the ladder records the "magic → full" rung.
            if "magic-full" not in job.degradation:
                job.degradation.append("magic-full")
            self._count("degraded_magic")
        if outcome.outcome == "ok":
            state = STATE_OK
        else:
            state = STATE_PARTIAL
            if outcome.outcome == "budget-exceeded":
                if "partial-model" not in job.degradation:
                    job.degradation.append("partial-model")
                self._count("degraded_partial")
        stats = outcome.stats
        if outcome.window is not None:
            stats = dict(stats or {})
            stats["window"] = outcome.window
        self._finish(
            job,
            worker,
            JobResult(
                job_id=job.spec.job_id,
                state=state,
                outcome=outcome.outcome,
                attempts=job.attempts,
                backend=outcome.backend,
                degradation=list(job.degradation),
                model=outcome.model,
                error=error_summary(outcome.error),
                stats=stats,
                resumed=job.resumed,
            ),
        )

    def _finish_deadline(self, job, worker, outcome_error):
        """The job's deadline elapsed before an attempt could start."""
        if "partial-model" not in job.degradation:
            job.degradation.append("partial-model")
        self._count("degraded_partial")
        self._finish(
            job,
            worker,
            JobResult(
                job_id=job.spec.job_id,
                state=STATE_PARTIAL,
                outcome="budget-exceeded",
                attempts=job.attempts,
                backend=job.backend,
                degradation=list(job.degradation),
                error=error_summary(outcome_error),
                resumed=job.resumed,
            ),
            # A job that expired without ever being evaluated says
            # nothing about the program's health — recording it as a
            # breaker success would mask trips under load.
            record_breaker=job.attempts > 0,
        )

    def _finish_failure(self, job, worker, error):
        self._finish(
            job,
            worker,
            JobResult(
                job_id=job.spec.job_id,
                state=STATE_FAILED,
                outcome="aborted" if is_transient(error) else "error",
                attempts=job.attempts,
                backend=job.backend,
                degradation=list(job.degradation),
                error=error_summary(error),
                resumed=job.resumed,
            ),
        )

    def _handle_worker_death(self, job, worker, death):
        """Requeue a dead worker's job, excluding that worker."""
        job.excluded_workers.add(worker.name)
        if self.retry.retryable(death, job.attempts):
            job.pending_delay = self._bounded_delay(job)
            self._count("retries")
            self._requeue(job)
        else:
            self._finish_failure(job, None, death)

    def _requeue(self, job):
        self._count("requeues")
        with self._cond:
            self._queue.appendleft(job)
            self._cond.notify()

    # -- supervision ------------------------------------------------------

    def _supervise(self):
        while True:
            with self._cond:
                if self._stopping and not self._queue:
                    alive_busy = any(
                        worker.alive() and worker.current_job is not None
                        for worker in self._workers
                    )
                    if not alive_busy:
                        return
            self._check_workers()
            self._expire_queued_jobs()
            time.sleep(self.supervise_interval)

    def _check_workers(self):
        with self._cond:
            workers = list(self._workers)
        for worker in workers:
            if worker.abandoned:
                continue
            if worker.dead or not worker.thread.is_alive():
                with self._cond:
                    if worker in self._workers:
                        self._workers.remove(worker)
                self._recover_orphan(worker)
                self._restart_worker()
                continue
            if self._hung(worker):
                worker.abandoned = True
                self._count("workers_abandoned")
                self._recover_orphan(worker)
                self._restart_worker()

    def _restart_worker(self):
        with self._stats_lock:
            restarts = self._stats["worker_restarts"]
            if self._stopping or restarts >= self.max_worker_restarts:
                return
            self._stats["worker_restarts"] += 1
        self._spawn_worker()

    def _expire_queued_jobs(self):
        """Resolve queued jobs whose deadline elapsed before any worker
        could take them — even a pool with zero live workers never
        leaves a deadline-carrying job hanging."""
        now = self._clock()
        expired = []
        with self._cond:
            for _ in range(len(self._queue)):
                job = self._queue.popleft()
                remaining = job.remaining(now)
                if remaining is not None and remaining <= 0.0:
                    expired.append(job)
                else:
                    self._queue.append(job)
        for job in expired:
            self._finish_deadline(job, None, outcome_error=None)

    def _hung(self, worker):
        job = worker.current_job
        if job is None or worker.started_at is None:
            return False
        if job.deadline_at is None:
            return False
        return self._clock() > job.deadline_at + self.hang_grace

    def _recover_orphan(self, worker):
        """Requeue the job a dead/hung worker was holding, if any."""
        job = worker.current_job
        if job is None:
            return
        with job.lock:
            if job.handle.done():
                return
            if job.owner is worker:
                job.owner = None
        worker.current_job = None
        death = WorkerDiedError(
            "worker %s declared dead by the supervisor while holding job %r"
            % (worker.name, job.spec.job_id)
        )
        self._handle_worker_death(job, worker, death)
