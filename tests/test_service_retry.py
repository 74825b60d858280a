"""Retry policy: the backoff schedule must be exponential, capped,
jittered deterministically by seed, and the retry-vs-fail-fast
classification must follow the error type, never timing."""

import pytest

from repro.runtime.faults import InjectedFaultError, TransientFaultError
from repro.service.retry import RetryPolicy, is_transient
from repro.util.errors import EvaluationAbortedError, ParseError


class TestSchedule:
    def test_exponential_without_jitter(self):
        policy = RetryPolicy(
            max_attempts=4, base_delay=0.1, multiplier=2.0, jitter=0.0
        )
        assert policy.schedule("job") == [0.1, 0.2, 0.4]

    def test_max_delay_caps_growth(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay=1.0, multiplier=10.0, max_delay=5.0,
            jitter=0.0,
        )
        assert policy.schedule("job") == [1.0, 5.0, 5.0, 5.0, 5.0]

    def test_seeded_jitter_is_reproducible(self):
        policy = RetryPolicy(max_attempts=5, seed=7)
        again = RetryPolicy(max_attempts=5, seed=7)
        assert policy.schedule("job-1") == again.schedule("job-1")

    def test_jitter_decorrelates_jobs_and_seeds(self):
        policy = RetryPolicy(max_attempts=5, seed=7)
        assert policy.schedule("job-1") != policy.schedule("job-2")
        assert (
            policy.schedule("job-1")
            != RetryPolicy(max_attempts=5, seed=8).schedule("job-1")
        )

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(
            max_attempts=8, base_delay=0.1, multiplier=2.0, max_delay=100.0,
            jitter=0.5, seed=3,
        )
        for attempt in range(1, 8):
            raw = min(0.1 * 2.0 ** (attempt - 1), 100.0)
            delay = policy.delay("job", attempt)
            assert raw * 0.5 <= delay <= raw * 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestClassification:
    def test_transient_classes_are_retryable(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.retryable(TransientFaultError("clause", 1), 1)
        assert policy.retryable(TransientFaultError("worker_start", 1), 2)

    def test_permanent_classes_fail_fast(self):
        policy = RetryPolicy(max_attempts=3)
        assert not policy.retryable(InjectedFaultError("clause", 1), 1)
        assert not policy.retryable(ParseError("bad"), 1)
        assert not policy.retryable(RuntimeError("bug"), 1)

    def test_attempt_budget_exhausts_retries(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.retryable(TransientFaultError("clause", 1), 2)
        assert not policy.retryable(TransientFaultError("clause", 1), 3)

    def test_wrapped_cause_is_classified(self):
        transient = EvaluationAbortedError("aborted")
        transient.__cause__ = TransientFaultError("clause", 1)
        permanent = EvaluationAbortedError("aborted")
        permanent.__cause__ = RuntimeError("bug")
        assert is_transient(transient)
        assert not is_transient(permanent)
        assert not is_transient(EvaluationAbortedError("bare"))
