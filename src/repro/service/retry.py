"""Retry policy: exponential backoff with deterministic seeded jitter.

Two decisions live here, both pure functions so tests can pin them
exactly:

* *whether* a failed attempt is retried — only the transient class
  (:class:`~repro.runtime.faults.TransientFaultError`) is, everything
  else fails fast or takes the degradation ladder; an error wrapped by
  the engine in :class:`~repro.util.errors.EvaluationAbortedError` is
  classified by its ``__cause__``;
* *when* — exponential backoff with jitter derived from a SHA-256 of
  ``(seed, job_id, attempt)``, so the schedule is fully reproducible
  for a given seed yet decorrelated across jobs (no thundering herd
  when a batch of retries lands together).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.runtime.faults import TransientFaultError
from repro.util.errors import EvaluationAbortedError

#: Error classes retried with backoff; everything else fails fast.
TRANSIENT_ERRORS = (TransientFaultError,)


def is_transient(error):
    """True when ``error`` (or the cause an
    :class:`EvaluationAbortedError` wraps) is a transient class."""
    if isinstance(error, TRANSIENT_ERRORS):
        return True
    if isinstance(error, EvaluationAbortedError):
        return isinstance(error.__cause__, TRANSIENT_ERRORS)
    return False


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff configuration for transient failures.

    ``max_attempts`` bounds total attempts (first try included);
    the delay before retry ``n`` (1-based count of failures so far)
    is ``min(base_delay * multiplier**(n-1), max_delay)`` scaled by a
    deterministic jitter factor in ``[1-jitter, 1+jitter]``.

    >>> policy = RetryPolicy(max_attempts=3, base_delay=0.1, jitter=0.0)
    >>> policy.schedule("job-1")
    [0.1, 0.2]
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def retryable(self, error, attempt):
        """True when a failure on the given 1-based attempt should be
        retried: the error is transient and attempts remain."""
        return attempt < self.max_attempts and is_transient(error)

    def delay(self, job_id, attempt):
        """Backoff (seconds) before the retry following the given
        1-based failed attempt."""
        raw = min(
            self.base_delay * self.multiplier ** (attempt - 1), self.max_delay
        )
        if self.jitter == 0.0:
            return raw
        digest = hashlib.sha256(
            ("%d|%s|%d" % (self.seed, job_id, attempt)).encode("utf-8")
        ).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2.0**64
        return raw * (1.0 + self.jitter * (2.0 * fraction - 1.0))

    def schedule(self, job_id):
        """Every backoff delay the policy would apply for one job, in
        order — ``max_attempts - 1`` entries."""
        return [
            self.delay(job_id, attempt)
            for attempt in range(1, self.max_attempts)
        ]
