"""Incremental maintenance of a materialized T_GP model over an EdbStore.

A :class:`MaterializedModel` keeps one program's least fixpoint live as
the store's EDB changes, instead of rematerializing the (finitely
represented, infinite) model from scratch per transaction:

* **insert-only batches** warm-start the semi-naive fixpoint: the new
  EDB tuples become the first round's delta, fired at every body
  position — including extensional ones, which regular runs never seed
  (:meth:`~repro.core.engine.DeductiveEngine.maintain`).  The model's
  relations are the previous refresh's engine relations, so the warm
  rounds grow their column stores (indexes and coverage memo already
  built) and the final ``normalize`` checks only the appended rows:
  apart from the store snapshot, an insert refresh costs its delta;
* **batches with retractions** run DRed (Gupta, Mumick and
  Subrahmanian, SIGMOD 1993).  *Overdelete*: clauses fire with the
  retracted tuples as deltas against the *pre-retraction* state, and
  every model tuple that meets a head so derived (found through the
  relation's data index) is removed, round by round — a sound
  over-approximation of the tuples that lost support.  *Rederive*:
  one naive round fires the clauses whose head lost tuples over the
  survivors and the post-retraction EDB, and only the heads that meet
  an overdeleted tuple go to the coverage sweep; the accepted ones
  join the survivors.  That filter is sound because the old model was
  closed under T_P and the old EDB contains the new one: every other
  head lies, as ground points, in the old model minus the overdeleted
  tuples, which is the survivors.  The fixpoint then continues
  semi-naively from one delta, the rederived tuples plus the batch's
  inserts (which the closure argument does not cover).  A retraction
  thus costs one clause round over the model plus coverage tests in
  proportion to what it overdeleted, not one test per model tuple,
  plus rebuilding the survivors' column stores;
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
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.core.engine import DeductiveEngine
from repro.core.parser import parse_program
from repro.core.safety import CoverageChecker
from repro.gdb.relation import GeneralizedRelation
from repro.util import hooks
from repro.util.hooks import fault_point


@dataclass
class MaintainReport:
    """What one :meth:`MaterializedModel.refresh` actually did.

    ``overdeleted`` counts the model tuples a retraction's DRed pass
    removed and ``rederived`` the tuples its rederive step accepted
    back; ``rounds`` are the engine rounds after that step."""

    tx: int
    from_tx: Optional[int] = None
    inserted: int = 0
    retracted: int = 0
    overdeleted: int = 0
    rederived: int = 0
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
            "rederived": self.rederived,
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
    Each refresh builds one engine over one snapshot (plan compilation
    is cheap relative to a fixpoint; schemas may have changed between
    refreshes), with the engine's default strategy, safety mode, round
    cap and patience: warm rounds are semi-naive whatever the strategy.
    """

    def __init__(self, program_text, evaluation="compiled", rederive_budget=64):
        self.program_text = program_text
        self.program = parse_program(program_text)
        self.evaluation = evaluation
        self.rederive_budget = rederive_budget
        self.model = None
        self.tx = None
        self.last_report = None
        self._lock = threading.RLock()

    # -- engines -----------------------------------------------------------

    def _engine(self, edb):
        return DeductiveEngine(self.program, edb, evaluation=self.evaluation)

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
                engine = self._engine(store.snapshot(target))
                return self._recompute(engine, target, reason, budget)
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

    def _recompute(self, engine, target, reason, budget, report=None):
        if report is None:
            self._started = time.monotonic()
            report = MaintainReport(tx=target, from_tx=self.tx)
        report.recomputed = True
        report.reason = reason
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
        if not inserts and not retracts and not declares:
            # Transactions whose net effect cancelled out.
            report.rounds = 0
            return self._finish(self.model, report)
        engine = self._engine(store.snapshot(target))
        if declares:
            return self._recompute(engine, target, "schema-change", budget, report)
        if engine.warm_start_blocker() is not None:
            # Negation or several strata: the warm path is unsound, and
            # overdeletion could not fire a negated clause without its
            # complement.
            return self._recompute(engine, target, "not-maintainable", budget, report)
        relations = {
            name: self.model.relation(name) for name in self.model.predicates()
        }
        delta = inserts
        if retracts:
            overdeleted = self._overdelete(engine, relations, retracts, report)
            if overdeleted is None:
                return self._recompute(
                    engine, target, "rederive-budget", budget, report
                )
            delta = self._rederive(engine, relations, overdeleted, report)
            # The rederive filter holds for the old EDB only: the
            # batch's inserts seed the same first delta.
            for name, tuples in inserts.items():
                delta[name] = delta.get(name, []) + list(tuples)
        # Give-up / budget / abort propagate: a recompute would fare no
        # better, and the typed error carries its partial model.
        model = engine.maintain(relations, delta, budget=budget)
        report.rounds = model.stats.rounds
        return self._finish(model, report)

    # -- DRed overdeletion and rederivation --------------------------------

    def _overdelete(self, engine, relations, retracts, report):
        """Remove from ``relations`` (in place) every derived tuple that
        may depend on a retracted EDB tuple; return the removed tuples
        ``{predicate: [tuples]}``, or None when the overdeletion
        outgrew ``rederive_budget``.

        Fires clause deltas against the *pre-retraction* environment
        (old EDB tuples are still present there), so every historical
        derivation that consumed a retracted tuple re-fires and its
        head lands in the affected set — removing every tuple that
        meets an affected head is therefore a sound over-approximation
        of the tuples that lost support.  A head's candidates come from
        the relation's data index and are tested pairwise
        (:meth:`~repro.gdb.tuple.GeneralizedTuple.intersect`).
        """
        evaluator = engine.evaluator
        env_old = evaluator.initial_environment()
        for name, tuples in retracts.items():
            # initial_environment reflects the post-retraction EDB;
            # put the retracted tuples back for the overdelete rounds.
            env_old[name] = env_old[name].with_tuples(tuples)
        env_old.update(relations)
        delta = {name: list(tuples) for name, tuples in retracts.items()}
        gone = {}  # predicate -> positions in its relation
        count = 0
        while delta:
            affected = evaluator.seminaive_round(env_old, delta)
            delta = {}
            for predicate, heads in affected.items():
                if predicate not in relations:
                    continue
                relation = relations[predicate]
                removed = gone.get(predicate, set())
                fresh = _meeting(relation, heads, removed)
                if not fresh:
                    continue
                count += len(fresh)
                if count > self.rederive_budget:
                    report.overdeleted = count
                    return None
                gone[predicate] = removed | fresh
                delta[predicate] = [relation.tuples[index] for index in sorted(fresh)]
        report.overdeleted = count
        overdeleted = {}
        for predicate, removed in gone.items():
            relation = relations[predicate]
            overdeleted[predicate] = [relation.tuples[index] for index in sorted(removed)]
            relations[predicate] = relation.without(removed)
        return overdeleted

    def _rederive(self, engine, relations, overdeleted, report):
        """DRed's rederive step: add to ``relations`` (in place) the
        tuples derivable from the survivors and the post-retraction EDB
        that meet an overdeleted tuple and that the survivors do not
        cover, and return them ``{predicate: [tuples]}`` — the first
        delta of the fixpoint that follows.

        One naive round fires the clauses whose head lost tuples.  Only
        heads meeting an overdeleted tuple go to the coverage sweep:
        the old model was closed under T_P and the old EDB contains the
        new one (inserts aside — they seed that first delta), so every
        other head lies, as ground points, in the old model minus the
        overdeleted tuples, that is in the survivors.
        """
        evaluator = engine.evaluator
        env = evaluator.initial_environment()
        env.update(relations)
        firing = [
            clause
            for clause in evaluator.evaluators
            if clause.head_predicate in overdeleted
        ]
        candidates = {}
        for predicate, heads in evaluator.naive_round(env, firing).items():
            derived = GeneralizedRelation(*evaluator.schemas[predicate], heads)
            hits = _meeting(derived, overdeleted[predicate])
            if hits:
                candidates[predicate] = [heads[index] for index in sorted(hits)]
        accepted = CoverageChecker(engine.safety).sweep(candidates, env)
        for predicate, tuples in accepted.items():
            relations[predicate] = relations[predicate].with_tuples(tuples)
        report.rederived = sum(len(tuples) for tuples in accepted.values())
        return accepted


def _meeting(relation, heads, skip=frozenset()):
    """Positions of the tuples of ``relation``, outside ``skip``, that
    meet some tuple of ``heads``; candidates come from the first data
    column's index."""
    index = relation.data_index(0) if relation.data_arity else None
    everything = range(len(relation.tuples))
    meeting = set()
    for head in heads:
        positions = everything if index is None else index.get(head.data[0], ())
        for position in positions:
            if (
                position not in skip
                and position not in meeting
                and relation.tuples[position].intersect(head) is not None
            ):
                meeting.add(position)
    return meeting


#: Maintained models a :class:`MaintainerCache` keeps.
MAINTAINER_CAP = 32


class MaintainerCache:
    """Process-level registry of maintained models for the service.

    Keyed by ``(store_root, program text, evaluation)`` (the evaluation
    backend is the one engine setting the service executor passes), so
    concurrent maintenance jobs for the same program share one
    materialization; the per-model lock in
    :class:`MaterializedModel` serializes refreshes.  At most
    :data:`MAINTAINER_CAP` entries are kept, the oldest evicted first
    (a later job for an evicted key materializes afresh).  ``invalidate``
    drops entries for a store root (e.g. after an out-of-band rewrite
    of the directory); ordinary commits need no invalidation call —
    refresh compares transaction ids and catches up by itself.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries = OrderedDict()

    def get(self, root, program_text, evaluation="compiled"):
        key = (root, program_text, evaluation)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = MaterializedModel(program_text, evaluation=evaluation)
                self._entries[key] = entry
                while len(self._entries) > MAINTAINER_CAP:
                    self._entries.popitem(last=False)
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
