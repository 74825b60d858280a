"""Exception hierarchy for the repro library.

All library errors derive from :class:`ReproError` so applications can
catch everything raised by this package with a single ``except``.

Errors raised *during* a bottom-up evaluation additionally derive from
:class:`PartialResultError`: they carry the partially computed model
and the evaluation statistics so callers can degrade gracefully — the
paper's Section 4.3 give-up argument (:class:`GiveUpError`), a resource
budget running out (:class:`BudgetExceededError`), or an unexpected
crash mid-fixpoint (:class:`EvaluationAbortedError`) all leave the
caller with a usable, queryable partial interpretation.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the repro library."""


class ParseError(ReproError):
    """A surface-language text could not be parsed.

    Carries the source position so front ends can point at the
    offending token.
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = "line %d, column %d: %s" % (line, column, message)
        super().__init__(message)


class SchemaError(ReproError):
    """A relation, atom, or tuple does not match its declared schema."""


class EvaluationError(ReproError):
    """A query or program could not be evaluated.

    Raised, e.g., when the bottom-up evaluation of a deductive program
    exhausts its give-up budget without reaching constraint safety
    (Section 4.3 of the paper), or when an FO query is not range
    restricted.
    """


class PartialResultError(EvaluationError):
    """An evaluation stopped early but produced a usable partial result.

    ``partial_model`` is the interpretation computed up to the stop
    (``None`` only when evaluation stopped before anything could be
    built); ``stats`` the bookkeeping accumulated so far.  The partial
    model is monotonically below the intended model (bottom-up
    evaluation only ever adds tuples), so every answer it gives is
    sound — it may merely be incomplete.  ``magic`` is the rewrite
    summary of a goal-directed evaluation that stopped early
    (:func:`repro.plan.magic.goal_directed_model`), else ``None``.
    """

    magic = None

    def __init__(self, message, partial_model=None, stats=None):
        super().__init__(message)
        self.partial_model = partial_model
        self.stats = stats


class GiveUpError(PartialResultError):
    """Bottom-up evaluation reached free-extension safety but not
    constraint safety within the configured patience budget.

    The paper (Section 4.3) recommends giving up in exactly this
    situation: Theorem 4.2 guarantees free-extension safety is always
    reached, but constraint safety — the actual termination criterion
    of Theorem 4.3 — may never hold.  The partially computed model is
    attached so callers can inspect how far evaluation got.
    """


class BudgetExceededError(PartialResultError):
    """A hard resource budget ran out before evaluation finished.

    Raised cooperatively by the fixpoint loops when an
    :class:`~repro.runtime.budget.EvaluationBudget` limit (wall-clock
    deadline, round cap, accepted-tuple cap, derived-tuple work cap)
    trips.  ``limit`` names the budget dimension that was exceeded.
    """

    def __init__(self, message, partial_model=None, stats=None, limit=None):
        super().__init__(message, partial_model=partial_model, stats=stats)
        self.limit = limit


class EvaluationAbortedError(PartialResultError):
    """An unexpected failure interrupted the fixpoint mid-flight.

    The engine wraps any exception escaping a T_GP round (an injected
    fault, an I/O failure while writing a checkpoint, a genuine bug) so
    that the caller still receives a typed error carrying the partial
    model computed before the crash.  The original exception is
    available as ``__cause__``.
    """


class CheckpointError(ReproError):
    """A checkpoint file is missing, corrupt, or belongs to a
    different program/configuration than the resuming engine.

    ``path`` and ``offset`` (byte offset of the failure inside the
    file, when known) locate the damage for operators.
    """

    def __init__(self, message, path=None, offset=None):
        self.path = path
        self.offset = offset
        if path is not None:
            where = str(path)
            if offset is not None:
                where = "%s at byte %d" % (where, offset)
            message = "%s (%s)" % (message, where)
        super().__init__(message)


class EdbError(ReproError):
    """Base class of errors raised by the durable EDB layer
    (:mod:`repro.edb`)."""


class WalError(EdbError):
    """The write-ahead log could not be read or written."""


class WalCorruptError(WalError):
    """A WAL segment holds a record that fails its CRC or framing
    check *before* the final record — damage that torn-tail
    truncation cannot explain, so the store refuses to open rather
    than silently dropping committed transactions.

    ``path`` and ``offset`` locate the first bad byte.
    """

    def __init__(self, message, path=None, offset=None):
        self.path = path
        self.offset = offset
        if path is not None:
            where = str(path)
            if offset is not None:
                where = "%s at byte %d" % (where, offset)
            message = "%s (%s)" % (message, where)
        super().__init__(message)


class TransactionError(EdbError):
    """A transaction batch was rejected before anything was written:
    an op referencing an undeclared relation, a retract matching no
    live fact, or a malformed op object.  The store is unchanged."""


class ServiceError(ReproError):
    """Base class of errors raised by the query service layer
    (:mod:`repro.service`)."""


class OverloadedError(ServiceError):
    """The service shed a submission because its admission queue is
    full.

    Load shedding is explicit and typed — a caller that submits into a
    saturated service gets this error immediately instead of blocking
    behind an unbounded backlog.  ``queue_limit`` records the bound
    that was hit.
    """

    def __init__(self, message, queue_limit=None):
        super().__init__(message)
        self.queue_limit = queue_limit


class CircuitOpenError(ServiceError):
    """The per-program circuit breaker is open for this job's program.

    A program that keeps failing terminally trips its breaker; further
    jobs for the same program are rejected without being evaluated
    until the cooldown elapses and a half-open probe succeeds.
    ``program_key`` identifies the tripped program.
    """

    def __init__(self, message, program_key=None):
        super().__init__(message)
        self.program_key = program_key


class WorkerDiedError(ServiceError):
    """A service worker died (or was declared dead by the supervisor)
    while holding a job.

    The supervisor treats this as transient: the job is requeued with
    the dead worker excluded and a replacement worker is started.
    """
