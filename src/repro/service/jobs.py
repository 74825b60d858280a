"""Job specifications and terminal job results for the query service.

A :class:`JobSpec` is an immutable description of one unit of work —
one of the library's four front ends applied to inline source texts —
plus its service-level limits (a wall-clock deadline mapped onto
:class:`~repro.runtime.budget.EvaluationBudget.deadline_seconds`).
A :class:`JobResult` is the *terminal* outcome the service guarantees
for every admitted job: ``ok``, ``partial`` (typed degraded result),
``failed``, or ``rejected`` — never a hang.  Results carry the
resilience trace (``attempts``, ``backend``, ``degradation``,
``resumed``) so batch consumers can see *how* an answer was produced,
not just what it is.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

#: The front ends a job may target.  ``maintain`` jobs refresh a
#: materialized model over a durable EDB store (:mod:`repro.edb`)
#: instead of evaluating inline sources.
KINDS = ("run", "query", "datalog1s", "templog", "maintain")

#: Terminal job states.  Every admitted job reaches exactly one.
STATE_OK = "ok"
STATE_PARTIAL = "partial"
STATE_FAILED = "failed"
STATE_REJECTED = "rejected"
TERMINAL_STATES = (STATE_OK, STATE_PARTIAL, STATE_FAILED, STATE_REJECTED)


@dataclass(frozen=True)
class JobSpec:
    """One unit of service work.

    ``program`` holds the inline program text for ``run`` /
    ``datalog1s`` / ``templog`` / ``maintain`` jobs, ``edb`` the
    generalized-database text for ``run`` / ``query`` jobs, and
    ``query`` the FO formula for ``query`` jobs.  ``maintain`` jobs
    name a durable EDB ``store`` directory instead of an inline EDB:
    the service refreshes the (process-cached) materialized model of
    ``program`` over that store to its current head.
    ``deadline_seconds`` is the job's wall-clock budget across *all*
    attempts; each attempt runs under an
    :class:`~repro.runtime.budget.EvaluationBudget` whose deadline is
    the time still remaining.
    """

    job_id: str
    kind: str
    program: str = ""
    edb: str = ""
    query: str = ""
    store: str = ""
    deadline_seconds: Optional[float] = None
    max_rounds: Optional[int] = None
    patience: int = 10
    strategy: str = "semi-naive"
    window: Optional[Tuple[int, int]] = None
    #: ``query`` jobs with an inline ``program``: evaluate only the
    #: query's demand cone via the magic-set rewrite
    #: (:mod:`repro.plan.magic`), the binding pattern taken from the
    #: formula's constants and ``window``.  Falls back to the full
    #: fixpoint (degradation rung ``"magic-full"``) when the rewrite
    #: cannot apply.
    goal_directed: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(
                "unknown job kind %r (expected one of %s)"
                % (self.kind, ", ".join(KINDS))
            )
        if not self.job_id:
            raise ValueError("job_id must be non-empty")
        if self.kind == "maintain" and not self.store:
            raise ValueError("maintain jobs require a store directory")

    def program_key(self):
        """A stable digest identifying this job's *program* — the unit
        the circuit breaker trips on (two jobs evaluating the same
        sources share one breaker)."""
        digest = hashlib.sha256()
        for chunk in (self.kind, self.program, self.edb, self.query, self.store):
            digest.update(chunk.encode("utf-8"))
            digest.update(b"\x00")
        return digest.hexdigest()[:16]

    @classmethod
    def from_json_dict(cls, payload, default_id=None):
        """Build a spec from a JSON job object (the ``repro batch``
        input format).  ``id`` defaults to ``default_id`` so JSONL
        files may omit it.  A key the spec does not know, or a value of
        the wrong type, raises :class:`ValueError` naming the key: a
        misspelled limit must not run as a job without that limit."""
        if not isinstance(payload, dict):
            raise ValueError("job must be a JSON object")
        for key, value in payload.items():
            if key not in JSON_TYPES:
                raise ValueError("unknown job key %r" % key)
            if not JSON_TYPES[key](value):
                raise ValueError("job key %r has an invalid value %r" % (key, value))
        window = payload.get("window")
        return cls(
            job_id=str(payload.get("id", default_id or "")),
            kind=payload.get("kind", "run"),
            program=payload.get("program", ""),
            edb=payload.get("edb", ""),
            query=payload.get("query", ""),
            store=payload.get("store", ""),
            deadline_seconds=payload.get("deadline_seconds"),
            max_rounds=payload.get("max_rounds"),
            patience=payload.get("patience", 10),
            strategy=payload.get("strategy", "semi-naive"),
            window=None if window is None else tuple(window),
            goal_directed=payload.get("goal_directed", False),
        )


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


#: The keys of a JSON job object, each with the check its value must pass.
JSON_TYPES = {
    "id": lambda value: True,
    "kind": lambda value: isinstance(value, str),
    "program": lambda value: isinstance(value, str),
    "edb": lambda value: isinstance(value, str),
    "query": lambda value: isinstance(value, str),
    "store": lambda value: isinstance(value, str),
    "deadline_seconds": lambda value: value is None
    or (isinstance(value, (int, float)) and not isinstance(value, bool)),
    "max_rounds": lambda value: value is None or _is_int(value),
    "patience": _is_int,
    "strategy": lambda value: value in ("naive", "semi-naive"),
    "window": lambda value: value is None
    or (isinstance(value, list) and len(value) == 2 and all(map(_is_int, value))),
    "goal_directed": lambda value: isinstance(value, bool),
}


@dataclass
class JobResult:
    """The terminal outcome of one job.

    ``state`` is one of :data:`TERMINAL_STATES`; ``outcome`` refines it
    (``ok``, ``gave-up``, ``budget-exceeded``, ``aborted``, ``error``,
    ``overloaded``, ``circuit-open``).  ``backend`` records which
    clause-evaluation backend produced the answer (``compiled`` or, a
    rung down the degradation ladder, ``reference``); ``degradation``
    lists the rungs taken (``"reference-backend"``,
    ``"partial-model"``, and ``"magic-full"`` when a goal-directed
    query fell back to the full fixpoint — the result is still exact,
    so the state stays ``ok``).  ``resumed`` is True when any retry
    resumed from the job's checkpoint instead of restarting from
    round 0.
    ``model`` keeps the in-memory model object for library callers; the
    JSON form carries :attr:`model_text`, rendered from it on read.
    """

    job_id: str
    state: str
    outcome: str
    attempts: int = 0
    backend: Optional[str] = None
    degradation: List[str] = field(default_factory=list)
    model: Optional[object] = None
    error: Optional[dict] = None
    stats: Optional[dict] = None
    resumed: bool = False
    worker: Optional[str] = None
    elapsed_seconds: float = 0.0

    def __post_init__(self):
        if self.state not in TERMINAL_STATES:
            raise ValueError("non-terminal job state %r" % self.state)

    @property
    def model_text(self):
        """The model's text form (``None`` without a model), rendered
        when read: only the JSON report needs it."""
        return None if self.model is None else str(self.model)

    def terminal(self):
        """Always True — constructing a result *is* reaching a terminal
        state; exposed for symmetry with monitoring consumers."""
        return self.state in TERMINAL_STATES

    def to_json_dict(self):
        """The ``repro batch --json`` per-job report."""
        return {
            "job_id": self.job_id,
            "state": self.state,
            "outcome": self.outcome,
            "attempts": self.attempts,
            "backend": self.backend,
            "degradation": list(self.degradation),
            "resumed": self.resumed,
            "worker": self.worker,
            "elapsed_seconds": self.elapsed_seconds,
            "error": self.error,
            "stats": self.stats,
            "model": self.model_text,
        }
