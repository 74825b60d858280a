"""Deterministic fault injection for the evaluation runtime.

A :class:`FaultPlan` installs itself as the process-wide hook behind
:func:`repro.util.hooks.fault_point` and triggers configured behaviors
— raising an exception or sleeping — at exact hit counts of named
sites.  Determinism is the point: tests can crash the engine at "the
third clause firing" or "the second checkpoint write" and prove that
every such failure surfaces as a typed
:class:`~repro.util.errors.ReproError` carrying a usable partial model,
and that resuming from a checkpoint written before the fault converges
to the same model as an uninterrupted run.

Instrumented sites
------------------
``clause``
    Entry of :meth:`repro.plan.compiler.ClausePlan.evaluate` (and of
    the reference evaluator) — one hit per clause firing.  An FO query
    fires one clause per conjunction, lone atom or comparison, and
    disjunct it evaluates.
``compile``
    Each clause compiled into a
    :class:`~repro.plan.compiler.ClausePlan` — one hit per clause of a
    program compile (a program already in
    :data:`repro.plan.memo.PROGRAMS` compiles nothing, so it does not
    hit), and one per clause an FO query fires (FO clauses are
    compiled per evaluation, never cached).
``dbm_canonicalize``
    :meth:`repro.constraints.dbm.Dbm.close` actually recomputing a
    shortest-path closure (already-closed matrices do not hit).
``coverage``
    Each tuple-level constraint-safety coverage test
    (:func:`repro.core.safety.covered_paper` / ``covered_semantic``).
``checkpoint_write``
    Entry of :func:`repro.runtime.checkpoint.write_checkpoint`.
``round``
    Each T_GP round boundary in :class:`~repro.core.engine.DeductiveEngine`.
``submit``
    Entry of :meth:`repro.service.pool.QueryService.submit` — one hit
    per job submission.
``worker_start``
    A service worker starting an attempt of a job, before any
    evaluation — one hit per attempt.  A fault here goes through the
    service's one retry/degrade/fail classifier like any error of the
    attempt: a transient one is retried on the same thread, a
    permanent one takes the reference-backend rung.
``result_return``
    A service worker about to hand a finished attempt's result back to
    the supervisor — a fault here loses the attempt after the work was
    done, exactly the window retry-with-resume is for.
``wal_append``
    :meth:`repro.edb.wal.Wal.append` after framing a record but
    *before* any byte reaches the segment file — a fault here loses
    the whole record, never half of it (torn writes are modeled by
    SIGKILL mid-process instead, see ``"sigkill"`` below).
``wal_fsync``
    :meth:`repro.edb.wal.Wal.sync` before the ``fsync`` call — the
    window where a record is in the OS page cache but not durable.
``wal_rotate``
    :meth:`repro.edb.wal.Wal.rotate` before the new segment is
    created, between sealing the old segment and opening the next.
``maintain_delta``
    Entry of :meth:`repro.edb.maintain.MaterializedModel.apply_delta`
    — before the incremental maintainer touches the model, so a fault
    leaves the previous materialization intact.

Fault classification
--------------------
:class:`TransientFaultError` subclasses :class:`InjectedFaultError`;
the service retry policy (:mod:`repro.service.retry`) retries
transient faults with backoff, and fails fast on everything else — so
retry-vs-fail-fast behavior in tests is a property of the injected
plan, not of timing.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.util import hooks
from repro.util.errors import ReproError

#: The site names the library instruments.
SITES = (
    "clause",
    "compile",
    "dbm_canonicalize",
    "coverage",
    "checkpoint_write",
    "round",
    "submit",
    "worker_start",
    "result_return",
    "wal_append",
    "wal_fsync",
    "wal_rotate",
    "maintain_delta",
)


class InjectedFaultError(ReproError):
    """The exception a :class:`FaultSpec` raises by default.

    Injected faults of this exact class model *permanent* failures —
    the service fails such jobs fast (or degrades the backend) rather
    than retrying.
    """

    def __init__(self, site, hit):
        self.site = site
        self.hit = hit
        super().__init__("injected fault at site %r (hit %d)" % (site, hit))


class TransientFaultError(InjectedFaultError):
    """An injected fault that models a *transient* failure.

    The service retry policy treats exactly this class as retryable,
    so a fault plan chooses deterministically whether an injection is
    retried with backoff+resume or fails the job fast.
    """

    def __init__(self, site, hit):
        super().__init__(site, hit)
        # Rebuild the message to make the transient class visible in logs.
        self.args = (
            "injected transient fault at site %r (hit %d)" % (site, hit),
        )


class ProcessKillFault:
    """Sentinel error for :data:`ERROR_NAMES` ``"sigkill"``: instead
    of raising, the firing spec SIGKILLs the *current process*.

    This is how crash-recovery smokes model a real torn write: the
    process dies with no chance to unwind, leaving whatever bytes the
    kernel had accepted.  Only meaningful under the CLI (a test that
    installed the plan in-process would kill the test runner)."""


#: Names accepted by :meth:`FaultPlan.from_json_dict` for the ``error``
#: field of a spec.
ERROR_NAMES = {
    "injected": None,  # default InjectedFaultError (permanent)
    "transient": TransientFaultError,
    "runtime": RuntimeError,
    "sigkill": ProcessKillFault,
}


@dataclass
class FaultSpec:
    """One behavior at one site: at hit number ``at`` (1-based) of
    ``site``, sleep ``delay_seconds`` and/or raise.

    ``error`` may be an exception instance, an exception class, or
    ``None``; with ``raises=True`` and ``error=None`` an
    :class:`InjectedFaultError` is raised.  ``repeat`` triggers on
    every hit at or after ``at``; ``every=N`` instead triggers
    periodically — on hit ``at``, ``at+N``, ``at+2N``, … — which is how
    a plan models sparse transient faults over a long run.
    """

    site: str
    at: int = 1
    raises: bool = True
    error: Optional[BaseException] = None
    delay_seconds: float = 0.0
    repeat: bool = False
    every: Optional[int] = None

    def __post_init__(self):
        if self.site not in SITES:
            raise ValueError(
                "unknown fault site %r (expected one of %s)"
                % (self.site, ", ".join(SITES))
            )
        if self.at < 1:
            raise ValueError("hit counts are 1-based; got at=%d" % self.at)
        if self.every is not None and self.every < 1:
            raise ValueError("every must be a positive period; got %r" % self.every)

    def triggers_on(self, hit):
        """True when the spec fires on the given 1-based hit count."""
        if self.every is not None:
            return hit >= self.at and (hit - self.at) % self.every == 0
        return hit == self.at or (self.repeat and hit > self.at)

    def fire(self, hit):
        """Execute the behavior (sleep, then raise if configured)."""
        if self.delay_seconds > 0:
            time.sleep(self.delay_seconds)
        if self.raises:
            error = self.error
            if error is None:
                raise InjectedFaultError(self.site, hit)
            if error is ProcessKillFault:
                os.kill(os.getpid(), signal.SIGKILL)
            if isinstance(error, type):
                if issubclass(error, InjectedFaultError):
                    raise error(self.site, hit)
                raise error("injected fault at site %r (hit %d)" % (self.site, hit))
            raise error


@dataclass
class FaultPlan:
    """A deterministic schedule of faults and delays over named sites.

    Hit counting is thread-safe (service workers hit sites like
    ``clause`` concurrently); the *total* order of hits across threads
    is whatever the scheduler produces, so concurrent tests should use
    specs that do not depend on which thread makes a given hit.

    >>> plan = FaultPlan.inject("coverage", at=2)
    >>> with plan.installed():
    ...     pass  # evaluation under the plan
    >>> plan.hits
    {}
    """

    specs: list = field(default_factory=list)

    @classmethod
    def inject(cls, site, at=1, error=None, repeat=False, every=None):
        """A plan raising at the ``at``-th hit of ``site``."""
        return cls([FaultSpec(site, at=at, error=error, repeat=repeat, every=every)])

    @classmethod
    def delay(cls, site, at=1, seconds=0.0, repeat=False):
        """A plan sleeping ``seconds`` at the ``at``-th hit of ``site``
        without raising."""
        return cls(
            [FaultSpec(site, at=at, raises=False, delay_seconds=seconds, repeat=repeat)]
        )

    @classmethod
    def from_json_dict(cls, payload):
        """Build a plan from a JSON description (the CLI ``--fault-plan``).

        ``payload`` is a list of spec objects (or a dict with a
        ``"specs"`` list); each spec carries ``site`` plus any of
        ``at``, ``repeat``, ``every``, ``delay_seconds``, ``raises``,
        and ``error`` — the error being one of the names in
        :data:`ERROR_NAMES` (``"injected"``, ``"transient"``,
        ``"runtime"``, ``"sigkill"``).
        """
        if isinstance(payload, dict):
            payload = payload.get("specs", [])
        if not isinstance(payload, list):
            raise ValueError("fault plan must be a list of spec objects")
        specs = []
        for entry in payload:
            if not isinstance(entry, dict) or "site" not in entry:
                raise ValueError("fault spec must be an object with a 'site'")
            name = entry.get("error", "injected")
            if name not in ERROR_NAMES:
                raise ValueError(
                    "unknown fault error %r (expected one of %s)"
                    % (name, ", ".join(sorted(ERROR_NAMES)))
                )
            specs.append(
                FaultSpec(
                    entry["site"],
                    at=entry.get("at", 1),
                    raises=entry.get("raises", True),
                    error=ERROR_NAMES[name],
                    delay_seconds=entry.get("delay_seconds", 0.0),
                    repeat=entry.get("repeat", False),
                    every=entry.get("every"),
                )
            )
        return cls(specs)

    def __post_init__(self):
        self.hits = {}
        self._lock = threading.Lock()

    def and_inject(self, site, at=1, error=None, repeat=False, every=None):
        """This plan plus one more fault spec (builder style)."""
        self.specs.append(
            FaultSpec(site, at=at, error=error, repeat=repeat, every=every)
        )
        return self

    # -- the hook ---------------------------------------------------------

    def __call__(self, site):
        with self._lock:
            hit = self.hits.get(site, 0) + 1
            self.hits[site] = hit
        for spec in self.specs:
            if spec.site == site and spec.triggers_on(hit):
                spec.fire(hit)

    def installed(self):
        """Context manager installing this plan as the process hook.

        Counters reset on entry so a plan can be reused; nesting is
        rejected to keep determinism simple.
        """
        return _Installed(self)


class _Installed:
    def __init__(self, plan):
        self.plan = plan

    def __enter__(self):
        if hooks.FAULT_HOOK is not None:
            raise RuntimeError("another fault plan is already installed")
        self.plan.hits = {}
        hooks.FAULT_HOOK = self.plan
        return self.plan

    def __exit__(self, *exc_info):
        hooks.FAULT_HOOK = None
        return False
