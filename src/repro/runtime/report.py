"""Machine-readable run reports for the CLI's ``--json`` mode.

A report is a plain dict (JSON-safe) describing one CLI invocation:
the outcome class, the process exit code, the evaluation statistics,
and a summary of the computed (possibly partial) model.  Monitoring
and batch consumers parse this instead of scraping the human output.
"""

from __future__ import annotations

from repro.util.sorting import typed_sort_key

OUTCOME_OK = "ok"
OUTCOME_GAVE_UP = "gave-up"
OUTCOME_BUDGET_EXCEEDED = "budget-exceeded"
OUTCOME_ABORTED = "aborted"
OUTCOME_ERROR = "error"


def model_summary(model, window=None):
    """A JSON-safe summary of a deductive :class:`~repro.core.engine.Model`."""
    if model is None:
        return None
    predicates = {}
    for name in model.predicates():
        relation = model.relation(name)
        entry = {
            "generalized_tuples": len(relation),
            "text": str(relation.coalesce()),
        }
        if window is not None:
            low, high = window
            entry["window"] = {
                "low": low,
                "high": high,
                "tuples": sorted(
                    [list(flat) for flat in model.extension(name, low, high)],
                    key=typed_sort_key,
                ),
            }
        predicates[name] = entry
    return {"predicates": predicates}


#: How deep :func:`error_summary` follows exception chains.  Deep
#: enough for the service's worst realistic nesting (degradation-ladder
#: failure → plan-layer crash → injected fault → …), small enough that
#: a cyclic or pathological chain cannot blow up a report.
MAX_CAUSE_DEPTH = 8


def error_summary(error, _depth=0):
    """A JSON-safe description of an exception: its type, message,
    (for budget errors) the limit that tripped, and its full cause
    chain.

    The chain recurses through ``__cause__`` (explicit ``raise … from``)
    and falls back to ``__context__`` (implicit chaining during an
    ``except`` block) when no explicit cause exists and the context is
    not suppressed — the same preference :mod:`traceback` renders — so
    a degradation-ladder failure wrapping a plan-layer crash wrapping
    an injected fault keeps its root cause in ``--json`` reports.
    Recursion stops at :data:`MAX_CAUSE_DEPTH`, marked by a
    ``"truncated"`` flag.
    """
    if error is None:
        return None
    summary = {"type": type(error).__name__, "message": str(error)}
    limit = getattr(error, "limit", None)
    if limit is not None:
        summary["limit"] = limit
    cause = error.__cause__
    if cause is None and not error.__suppress_context__:
        cause = error.__context__
    if cause is not None:
        if _depth + 1 >= MAX_CAUSE_DEPTH:
            summary["cause"] = {
                "type": type(cause).__name__,
                "message": str(cause),
                "truncated": True,
            }
        else:
            summary["cause"] = error_summary(cause, _depth=_depth + 1)
    return summary
