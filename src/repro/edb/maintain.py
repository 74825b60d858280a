"""Incremental maintenance of a materialized T_GP model over an EdbStore.

A :class:`MaterializedModel` keeps one program's least fixpoint live as
the store's EDB changes, instead of rematerializing the (finitely
represented, infinite) model from scratch per transaction:

* **insert-only batches** warm-start the semi-naive fixpoint: the new
  EDB tuples become the first round's delta, fired at every body
  position — including extensional ones, which regular runs never seed
  (:meth:`~repro.core.engine.DeductiveEngine.maintain`);
* **batches with retractions** run DRed-style overdelete/rederive:
  clauses fire with the retracted tuples as deltas against the
  *pre-retraction* state to over-approximate the derived tuples that
  may have depended on them, those are removed, and the surviving
  (sound, possibly incomplete) state is re-grown with one naive round
  plus semi-naive rounds to the fixpoint;
* anything the incremental path cannot handle soundly or cheaply —
  negation, multiple strata, a schema change, or an overdeletion
  larger than ``rederive_budget`` — **degrades to a from-scratch
  recompute**, recorded in the model's stats as ``maintain_degraded``
  (the same rung pattern as ``magic_degraded``) rather than failing.

Every successful delta application emits one ``maintain.delta`` event
and leaves :attr:`MaterializedModel.last_report` describing what
happened.  The ``maintain_delta`` fault site fires before the model is
touched, so an injected fault (or crash) leaves the previous
materialization — and the store — fully intact.

The module also hosts :class:`MaintainerCache`, the process-level
registry the service layer uses: maintained models are cached per
(store root, program) and invalidated by transaction id, so a ``tx``
committed through any handle makes every cached reader refresh before
answering.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.core.engine import DeductiveEngine
from repro.core.parser import parse_program
from repro.gdb.relation import GeneralizedRelation
from repro.util import hooks
from repro.util.errors import EvaluationError, PartialResultError
from repro.util.hooks import fault_point


@dataclass
class MaintainReport:
    """What one :meth:`MaterializedModel.refresh` actually did."""

    tx: int
    from_tx: Optional[int] = None
    inserted: int = 0
    retracted: int = 0
    overdeleted: int = 0
    rounds: int = 0
    recomputed: bool = False
    reason: Optional[str] = None
    duration_seconds: float = 0.0

    def to_json_dict(self):
        return {
            "tx": self.tx,
            "from_tx": self.from_tx,
            "inserted": self.inserted,
            "retracted": self.retracted,
            "overdeleted": self.overdeleted,
            "rounds": self.rounds,
            "recomputed": self.recomputed,
            "reason": self.reason,
            "duration_seconds": self.duration_seconds,
        }


class MaterializedModel:
    """One program's model, maintained across store transactions.

    The instance is a pure in-memory cache over the durable store: it
    holds the last materialized :class:`~repro.core.engine.Model` and
    the transaction id it reflects.  :meth:`refresh` brings it to the
    store's head (or any requested ``tx``) by the cheapest sound path.
    Engines are rebuilt per refresh (plan compilation is cheap relative
    to a fixpoint; schemas may have changed between refreshes).
    """

    def __init__(
        self,
        program_text,
        strategy="semi-naive",
        safety="paper",
        evaluation="compiled",
        rederive_budget=64,
        max_rounds=500,
        patience=10,
    ):
        self.program_text = program_text
        self.program = parse_program(program_text)
        self.strategy = strategy
        self.safety = safety
        self.evaluation = evaluation
        self.rederive_budget = rederive_budget
        self.max_rounds = max_rounds
        self.patience = patience
        self.model = None
        self.tx = None
        self.last_report = None
        self._lock = threading.RLock()

    # -- engines -----------------------------------------------------------

    def _engine(self, edb):
        return DeductiveEngine(
            self.program,
            edb,
            strategy=self.strategy,
            safety=self.safety,
            evaluation=self.evaluation,
            max_rounds=self.max_rounds,
            patience=self.patience,
        )

    # -- refresh -----------------------------------------------------------

    def refresh(self, store, tx=None, budget=None):
        """Bring the materialization to ``tx`` (default: the store
        head) and return the model.  No-op when already there."""
        with self._lock:
            target = store.head_tx if tx is None else tx
            if self.model is not None and self.tx == target:
                return self.model
            if self.model is None or self.tx is None or target < self.tx:
                # Nothing to maintain from (or time went backwards —
                # an as-of request older than the materialization).
                reason = None if self.model is None else "as-of-before-model"
                return self._recompute(store, target, reason, budget)
            inserts, retracts, declares = store.delta_between(self.tx, target)
            return self._apply_delta(
                store, target, inserts, retracts, declares, budget
            )

    def _finish(self, model, report, degraded=False):
        report.duration_seconds = time.monotonic() - self._started
        if degraded:
            model.stats.maintain_degraded = {
                "reason": report.reason,
                "inserted": report.inserted,
                "retracted": report.retracted,
                "overdeleted": report.overdeleted,
            }
        self.model = model
        self.tx = report.tx
        self.last_report = report
        if hooks.SINKS:
            hooks.emit("maintain.delta", report.to_json_dict())
        return model

    def _recompute(self, store, target, reason, budget, report=None):
        if report is None:
            self._started = time.monotonic()
            report = MaintainReport(tx=target, from_tx=self.tx)
        report.recomputed = True
        report.reason = reason
        engine = self._engine(store.snapshot(target))
        model = engine.run(budget=budget)
        report.rounds = model.stats.rounds
        # A first materialization is not a degradation — only a fallback
        # from the incremental path is.
        return self._finish(model, report, degraded=reason is not None)

    def _apply_delta(self, store, target, inserts, retracts, declares, budget):
        fault_point("maintain_delta")
        self._started = time.monotonic()
        report = MaintainReport(
            tx=target,
            from_tx=self.tx,
            inserted=sum(len(ts) for ts in inserts.values()),
            retracted=sum(len(ts) for ts in retracts.values()),
        )
        if declares:
            return self._recompute(store, target, "schema-change", budget, report)
        if not inserts and not retracts:
            # Transactions whose net effect cancelled out.
            report.rounds = 0
            return self._finish(self.model, report)
        engine = self._engine(store.snapshot(target))
        relations = {
            name: self.model.relation(name) for name in self.model.predicates()
        }
        if retracts:
            survived = self._overdelete(engine, relations, retracts, report)
            if survived is None:
                return self._recompute(
                    store, target, "rederive-budget", budget, report
                )
            relations = survived
            delta = None  # naive rederivation restart
        else:
            delta = inserts
        try:
            model = engine.maintain(relations, delta=delta, budget=budget)
        except PartialResultError:
            # Give-up / budget / abort: a recompute would fare no
            # better — surface the typed error with its partial model.
            raise
        except EvaluationError:
            # Negation / multi-stratum: the warm path is unsound here;
            # recompute instead.
            return self._recompute(store, target, "not-maintainable", budget, report)
        report.rounds = model.stats.rounds
        return self._finish(model, report)

    # -- DRed overdeletion -------------------------------------------------

    def _overdelete(self, engine, relations, retracts, report):
        """Remove from ``relations`` every derived tuple that may
        depend on a retracted EDB tuple; return the surviving state, or
        None when the overdeletion outgrew ``rederive_budget``.

        Fires clause deltas against the *pre-retraction* environment
        (old EDB tuples are still present there), so every historical
        derivation that consumed a retracted tuple re-fires and its
        head lands in the affected set — removal by non-empty
        intersection with that set is therefore a sound
        over-approximation of the tuples that lost support.
        """
        evaluator = engine.evaluator
        schemas = evaluator.schemas
        env_old = evaluator.initial_environment()
        for name, tuples in retracts.items():
            # initial_environment reflects the post-retraction EDB;
            # put the retracted tuples back for the overdelete rounds.
            env_old[name] = env_old[name].with_tuples(tuples)
        surviving = dict(relations)
        for name in surviving:
            env_old[name] = surviving[name]
        delta = {name: list(tuples) for name, tuples in retracts.items()}
        overdeleted = 0
        while delta:
            affected = evaluator.seminaive_round(env_old, delta)
            delta = {}
            for predicate, heads in affected.items():
                if predicate not in surviving:
                    continue
                schema = schemas[predicate]
                affected_rel = GeneralizedRelation(schema[0], schema[1], heads)
                kept, removed = [], []
                for gt in surviving[predicate].tuples:
                    one = GeneralizedRelation(schema[0], schema[1], [gt])
                    if one.intersect(affected_rel).tuples:
                        removed.append(gt)
                    else:
                        kept.append(gt)
                if not removed:
                    continue
                overdeleted += len(removed)
                if overdeleted > self.rederive_budget:
                    report.overdeleted = overdeleted
                    return None
                surviving[predicate] = GeneralizedRelation(
                    schema[0], schema[1], kept
                )
                delta[predicate] = removed
        report.overdeleted = overdeleted
        return surviving


class MaintainerCache:
    """Process-level registry of maintained models for the service.

    Keyed by ``(store_root, program text, strategy, safety,
    evaluation)`` so concurrent maintenance jobs for the same program
    share one materialization; the per-model lock in
    :class:`MaterializedModel` serializes refreshes.  ``invalidate``
    drops entries for a store root (e.g. after an out-of-band rewrite
    of the directory); ordinary commits need no invalidation call —
    refresh compares transaction ids and catches up by itself.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries = {}

    def get(self, root, program_text, **kwargs):
        key = (
            root,
            program_text,
            kwargs.get("strategy", "semi-naive"),
            kwargs.get("safety", "paper"),
            kwargs.get("evaluation", "compiled"),
        )
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = MaterializedModel(program_text, **kwargs)
                self._entries[key] = entry
            return entry

    def invalidate(self, root=None):
        with self._lock:
            if root is None:
                self._entries.clear()
                return
            for key in [k for k in self._entries if k[0] == root]:
                del self._entries[key]

    def __len__(self):
        with self._lock:
            return len(self._entries)


#: The shared cache the service executor uses.
MAINTAINERS = MaintainerCache()
