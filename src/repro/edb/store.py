"""Durable, bi-temporal EDB store over the write-ahead log.

An :class:`EdbStore` holds the full history of an extensional database
as *facts*: each assert creates a fact stamped with the transaction
that created it (``tx``); a retract never deletes — it stamps the fact
with ``retracted_by``, the retracting transaction.  The state visible
as of transaction ``N`` is exactly the facts with

    ``tx <= N  AND  (retracted_by IS NULL OR retracted_by > N)``

so every historical snapshot remains queryable forever (the
MnemonicDB/Graphiti transaction-time pattern, applied to generalized
tuples instead of ground ones).

Durability is WAL-first: a transaction is validated, appended to the
log, fsync'd, and only then applied in memory.  A fault or crash at any
point therefore leaves either a fully committed transaction or none of
it.  A write failure *poisons* the open handle (further writes raise
:class:`~repro.util.errors.WalError`) because the commit may or may not
have reached disk — reopening the store replays the log and settles the
question, which is exactly what the chaos tests do.

Round checkpoints (:meth:`EdbStore.checkpoint`) bound recovery time:
the WAL is rotated, the entire fact history is written atomically
(tmp + fsync + rename, sha256-digested) and sealed segments that the
checkpoint fully covers are pruned.  Recovery loads the newest
checkpoint, then replays only the records with ``tx`` beyond it.

Events: ``edb.txn`` per commit, ``edb.recover`` per open.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.edb.wal import Wal
from repro.gdb.database import GeneralizedDatabase
from repro.gdb.parser import parse_generalized_tuple
from repro.gdb.relation import GeneralizedRelation
from repro.gdb.tuple import GeneralizedTuple
from repro.util import hooks
from repro.util.errors import (
    EdbError,
    TransactionError,
    WalCorruptError,
    WalError,
)
from repro.util.files import atomic_write

_CHECKPOINT_NAME = "checkpoint.json"
_CHECKPOINT_VERSION = 1


@dataclass
class Fact:
    """One asserted generalized tuple with its transaction-time stamps."""

    fact_id: int
    relation: str
    gt: GeneralizedTuple
    tx: int
    retracted_by: Optional[int] = None

    def live_at(self, tx):
        """True when the fact is visible as of transaction ``tx``."""
        return self.tx <= tx and (self.retracted_by is None or self.retracted_by > tx)


@dataclass
class TxnReceipt:
    """What one committed transaction did."""

    tx: int
    asserted: int = 0
    retracted: int = 0
    declared: int = 0
    noops: int = 0
    wal_bytes: int = 0

    def to_json_dict(self):
        return {
            "tx": self.tx,
            "asserted": self.asserted,
            "retracted": self.retracted,
            "declared": self.declared,
            "noops": self.noops,
            "wal_bytes": self.wal_bytes,
        }


def _digest(payload_text):
    return hashlib.sha256(payload_text.encode("utf-8")).hexdigest()


class EdbStore:
    """One durable EDB directory: ``<root>/wal/`` plus an optional
    ``<root>/checkpoint.json``.

    All mutation goes through :meth:`apply`; reads
    (:meth:`snapshot`, :meth:`delta_between`, :meth:`transactions`)
    never touch disk after open.  Instances are thread-safe for the
    single-writer / many-reader pattern the service uses.
    """

    def __init__(self, root, segment_bytes=None):
        self.root = root
        self._lock = threading.RLock()
        self._poisoned = None
        self._facts = {}  # fact_id -> Fact
        self._live = {}  # relation -> {GeneralizedTuple -> fact_id}
        self._schemas = {}  # relation -> (temporal_arity, data_arity, declared_tx)
        self._txns = []  # [{"tx", "asserted", "retracted", "declared"}]
        self._head_tx = 0
        self._next_fact_id = 1
        self._checkpoint_tx = 0
        os.makedirs(root, exist_ok=True)
        self._load_checkpoint()
        kwargs = {} if segment_bytes is None else {"segment_bytes": segment_bytes}
        self.wal = Wal(os.path.join(root, "wal"), **kwargs)
        replayed = self._replay()
        if hooks.SINKS:
            hooks.emit(
                "edb.recover",
                {
                    "root": root,
                    "checkpoint_tx": self._checkpoint_tx,
                    "replayed_txns": replayed,
                    "truncated_bytes": self.wal.truncated_bytes,
                    "segments": len(self.wal.segment_indices()),
                    "head_tx": self._head_tx,
                    "facts": len(self._facts),
                },
            )

    @classmethod
    def open(cls, root, segment_bytes=None):
        """Open (creating if absent) the store at ``root``."""
        return cls(root, segment_bytes=segment_bytes)

    # -- recovery ----------------------------------------------------------

    def _checkpoint_path(self):
        return os.path.join(self.root, _CHECKPOINT_NAME)

    def _load_checkpoint(self):
        path = self._checkpoint_path()
        if not os.path.exists(path):
            return
        try:
            with open(path, "r", encoding="utf-8") as handle:
                wrapper = json.load(handle)
        except (OSError, ValueError) as exc:
            raise EdbError("unreadable store checkpoint %s: %s" % (path, exc)) from exc
        payload_text = wrapper.get("payload")
        if not isinstance(payload_text, str) or "digest" not in wrapper:
            raise EdbError("malformed store checkpoint %s" % path)
        if _digest(payload_text) != wrapper["digest"]:
            raise EdbError("store checkpoint digest mismatch in %s" % path)
        payload = json.loads(payload_text)
        if payload.get("version") != _CHECKPOINT_VERSION:
            raise EdbError(
                "unsupported store checkpoint version %r in %s"
                % (payload.get("version"), path)
            )
        for name, ta, da, declared_tx in payload["schemas"]:
            self._schemas[name] = (ta, da, declared_tx)
            self._live.setdefault(name, {})
        for fact_id, relation, gt_json, tx, retracted_by in payload["facts"]:
            gt = GeneralizedTuple.from_json_dict(gt_json)
            fact = Fact(fact_id, relation, gt, tx, retracted_by)
            self._facts[fact_id] = fact
            if retracted_by is None:
                self._live[relation][gt] = fact_id
        self._txns = [dict(entry) for entry in payload["txns"]]
        self._head_tx = payload["tx"]
        self._next_fact_id = payload["next_fact_id"]
        self._checkpoint_tx = payload["tx"]

    def _replay(self):
        replayed = 0
        for record in self.wal.records():
            if record.get("type") != "txn":
                raise WalCorruptError("unknown WAL record type %r" % record.get("type"))
            tx = record.get("tx")
            if not isinstance(tx, int):
                raise WalCorruptError("WAL record without a transaction id")
            if tx <= self._checkpoint_tx:
                continue  # already folded into the checkpoint
            if tx != self._head_tx + 1:
                raise WalCorruptError(
                    "transaction %d out of order after %d" % (tx, self._head_tx)
                )
            counts = {"tx": tx, "asserted": 0, "retracted": 0, "declared": 0}
            for op in record["ops"]:
                kind = op["op"]
                if kind == "declare":
                    self._apply_declare(
                        op["relation"], op["ta"], op["da"], tx
                    )
                    counts["declared"] += 1
                elif kind == "assert":
                    gt = GeneralizedTuple.from_json_dict(op["tuple"])
                    self._apply_assert(op["relation"], gt, tx)
                    counts["asserted"] += 1
                elif kind == "retract":
                    self._apply_retract(op["fact"], tx)
                    counts["retracted"] += 1
                else:
                    raise WalCorruptError("unknown WAL op %r" % kind)
            self._head_tx = tx
            self._txns.append(counts)
            replayed += 1
        return replayed

    # -- in-memory mutation primitives ------------------------------------

    def _apply_declare(self, name, ta, da, tx):
        self._schemas[name] = (ta, da, tx)
        self._live.setdefault(name, {})

    def _apply_assert(self, relation, gt, tx):
        fact = Fact(self._next_fact_id, relation, gt, tx)
        self._next_fact_id += 1
        self._facts[fact.fact_id] = fact
        self._live[relation][gt] = fact.fact_id

    def _apply_retract(self, fact_id, tx):
        fact = self._facts.get(fact_id)
        if fact is None or fact.retracted_by is not None:
            raise WalCorruptError("retract of unknown or dead fact %r" % fact_id)
        fact.retracted_by = tx
        del self._live[fact.relation][fact.gt]

    # -- writing -----------------------------------------------------------

    def _check_writable(self):
        if self._poisoned is not None:
            raise WalError(
                "store write path is poisoned by an earlier failure (%s); "
                "reopen the store to recover" % self._poisoned
            )

    def apply(self, ops):
        """Atomically commit one transaction of declare/assert/retract
        ops.

        ``ops`` is a list of dicts: ``{"op": "declare", "relation": r,
        "temporal_arity": t, "data_arity": d}``, ``{"op": "assert",
        "relation": r, "tuple": GeneralizedTuple}``, ``{"op":
        "retract", "relation": r, "tuple": GeneralizedTuple}``.  The
        whole batch is validated first — any problem raises
        :class:`~repro.util.errors.TransactionError` with the store
        untouched.  Idempotent ops (re-declare, re-assert of a live
        tuple) are skipped; a transaction whose every op is skipped
        commits nothing and returns a receipt with ``tx`` unchanged.
        """
        with self._lock:
            self._check_writable()
            tx = self._head_tx + 1
            wal_ops, effects, receipt = self._validate(ops, tx)
            if not wal_ops:
                return receipt
            record = {"type": "txn", "tx": tx, "ops": wal_ops}
            started = time.monotonic()
            try:
                receipt.wal_bytes = self.wal.append(record)
                self.wal.sync()
            except BaseException as exc:
                self._poisoned = "%s: %s" % (type(exc).__name__, exc)
                raise
            for effect in effects:
                if effect[0] == "declare":
                    self._apply_declare(effect[1], effect[2], effect[3], tx)
                elif effect[0] == "assert":
                    self._apply_assert(effect[1], effect[2], tx)
                else:
                    self._apply_retract(effect[1], tx)
            self._head_tx = tx
            self._txns.append(
                {
                    "tx": tx,
                    "asserted": receipt.asserted,
                    "retracted": receipt.retracted,
                    "declared": receipt.declared,
                }
            )
            if hooks.SINKS:
                hooks.emit(
                    "edb.txn",
                    {
                        "root": self.root,
                        "tx": tx,
                        "asserted": receipt.asserted,
                        "retracted": receipt.retracted,
                        "declared": receipt.declared,
                        "noops": receipt.noops,
                        "wal_bytes": receipt.wal_bytes,
                        "duration_seconds": time.monotonic() - started,
                    },
                )
            return receipt

    def _validate(self, ops, tx):
        """Resolve ``ops`` against current state without mutating it.

        Returns ``(wal_ops, effects, receipt)``: the JSON-framable op
        list for the WAL record, the parallel in-memory effect tuples
        (keeping the parsed :class:`GeneralizedTuple` handles out of
        the framed record), and the receipt.
        """
        receipt = TxnReceipt(tx=self._head_tx)
        wal_ops = []
        effects = []
        staged_schemas = {}
        staged_live = {}  # relation -> set of tuples asserted this txn
        staged_dead = set()  # fact_ids retracted this txn
        for position, op in enumerate(ops):
            if not isinstance(op, dict) or "op" not in op:
                raise TransactionError("op %d is not an op object" % position)
            kind = op["op"]
            if kind == "declare":
                name = op.get("relation")
                ta, da = op.get("temporal_arity"), op.get("data_arity")
                if not isinstance(name, str) or not isinstance(ta, int) or not isinstance(da, int):
                    raise TransactionError("op %d: malformed declare" % position)
                known = staged_schemas.get(name) or self._schemas.get(name)
                if known is not None:
                    if (known[0], known[1]) != (ta, da):
                        raise TransactionError(
                            "op %d: relation %r already declared with arity "
                            "[%d; %d]" % (position, name, known[0], known[1])
                        )
                    receipt.noops += 1
                    continue
                staged_schemas[name] = (ta, da, tx)
                wal_ops.append({"op": "declare", "relation": name, "ta": ta, "da": da})
                effects.append(("declare", name, ta, da))
                receipt.declared += 1
            elif kind in ("assert", "retract"):
                name = op.get("relation")
                gt = op.get("tuple")
                schema = staged_schemas.get(name) or self._schemas.get(name)
                if schema is None:
                    raise TransactionError(
                        "op %d: relation %r is not declared" % (position, name)
                    )
                if not isinstance(gt, GeneralizedTuple):
                    raise TransactionError(
                        "op %d: 'tuple' must be a GeneralizedTuple" % position
                    )
                if gt.temporal_arity != schema[0] or len(gt.data) != schema[1]:
                    raise TransactionError(
                        "op %d: tuple arity does not match %r[%d; %d]"
                        % (position, name, schema[0], schema[1])
                    )
                live_id = self._live.get(name, {}).get(gt)
                if live_id in staged_dead:
                    live_id = None
                staged = staged_live.setdefault(name, set())
                if kind == "assert":
                    if live_id is not None or gt in staged:
                        receipt.noops += 1
                        continue
                    staged.add(gt)
                    wal_ops.append(
                        {"op": "assert", "relation": name, "tuple": gt.to_json_dict()}
                    )
                    effects.append(("assert", name, gt))
                    receipt.asserted += 1
                else:
                    if live_id is None:
                        if gt in staged:
                            raise TransactionError(
                                "op %d: retract of a tuple asserted in the "
                                "same transaction" % position
                            )
                        raise TransactionError(
                            "op %d: no live fact in %r matches the tuple"
                            % (position, name)
                        )
                    staged_dead.add(live_id)
                    wal_ops.append({"op": "retract", "fact": live_id})
                    effects.append(("retract", live_id))
                    receipt.retracted += 1
            else:
                raise TransactionError("op %d: unknown op %r" % (position, kind))
        if wal_ops:
            receipt.tx = tx
        return wal_ops, effects, receipt

    # -- checkpointing -----------------------------------------------------

    def checkpoint(self):
        """Seal the current WAL segment, snapshot the full fact history
        atomically, and prune segments the snapshot covers.  Returns
        the checkpoint path."""
        with self._lock:
            self._check_writable()
            try:
                keep_from = self.wal.rotate()
            except BaseException as exc:
                self._poisoned = "%s: %s" % (type(exc).__name__, exc)
                raise
            payload = {
                "version": _CHECKPOINT_VERSION,
                "tx": self._head_tx,
                "next_fact_id": self._next_fact_id,
                "schemas": [
                    [name, ta, da, declared_tx]
                    for name, (ta, da, declared_tx) in sorted(self._schemas.items())
                ],
                "facts": [
                    [f.fact_id, f.relation, f.gt.to_json_dict(), f.tx, f.retracted_by]
                    for f in (
                        self._facts[fid] for fid in sorted(self._facts)
                    )
                ],
                "txns": self._txns,
            }
            payload_text = json.dumps(payload, separators=(",", ":"), sort_keys=True)
            wrapper = {"digest": _digest(payload_text), "payload": payload_text}
            path = self._checkpoint_path()
            atomic_write(path, json.dumps(wrapper))
            self._checkpoint_tx = self._head_tx
            self.wal.drop_segments_before(keep_from)
            return path

    def close(self):
        """Seal the WAL; the instance stays readable."""
        with self._lock:
            if self._poisoned is None:
                self.wal.close()

    # -- reading -----------------------------------------------------------

    @property
    def head_tx(self):
        """The newest committed transaction id (0 for an empty store)."""
        return self._head_tx

    def transactions(self):
        """Per-transaction op counts, oldest first."""
        with self._lock:
            return [dict(entry) for entry in self._txns]

    def snapshot(self, tx=None):
        """The :class:`GeneralizedDatabase` visible as of ``tx``
        (default: head).  Relations declared after ``tx`` are absent.
        Each relation is built once from its live facts, in commit
        order."""
        with self._lock:
            if tx is None:
                tx = self._head_tx
            db = GeneralizedDatabase()
            for name, (ta, da, declared_tx) in sorted(self._schemas.items()):
                if declared_tx <= tx:
                    db.declare(name, ta, da)
            live = {}
            for fact in self._facts.values():
                if fact.live_at(tx):
                    live.setdefault(fact.relation, []).append(fact.gt)
            for name, tuples in live.items():
                schema = db.schema(name)
                db.set_relation(
                    name,
                    GeneralizedRelation(schema.temporal_arity, schema.data_arity, tuples),
                )
            return db

    def delta_between(self, tx0, tx1):
        """Net change from the state as of ``tx0`` to the state as of
        ``tx1`` (``tx0 <= tx1``): ``(inserts, retracts, declares)``
        where inserts/retracts map relation name to tuple lists and
        ``declares`` is True when a schema changed in the window.
        Facts both born and retracted inside the window cancel out."""
        with self._lock:
            if tx0 > tx1:
                raise EdbError("delta_between(%d, %d): window is reversed" % (tx0, tx1))
            inserts = {}
            retracts = {}
            declares = any(
                tx0 < declared_tx <= tx1 for _, _, declared_tx in self._schemas.values()
            )
            for fact in self._facts.values():
                if tx0 < fact.tx <= tx1 and fact.live_at(tx1):
                    inserts.setdefault(fact.relation, []).append(fact.gt)
                elif (
                    fact.tx <= tx0
                    and fact.retracted_by is not None
                    and tx0 < fact.retracted_by <= tx1
                ):
                    retracts.setdefault(fact.relation, []).append(fact.gt)
            return inserts, retracts, declares

    def schema(self, name):
        """``(temporal_arity, data_arity)`` of a declared relation."""
        entry = self._schemas.get(name)
        if entry is None:
            raise EdbError("relation %r is not declared" % name)
        return entry[0], entry[1]


def ops_from_json(store, payload):
    """Normalize a JSON ops batch (the CLI / service wire form) into
    the op dicts :meth:`EdbStore.apply` takes.

    Tuples are written in the surface syntax, e.g. ``{"op": "assert",
    "relation": "course", "tuple": "(168n+8, 168n+10; \\"db\\")"}``;
    arities come from the store schema or from a declare earlier in the
    same batch.
    """
    if isinstance(payload, dict):
        payload = payload.get("ops", [])
    if not isinstance(payload, list):
        raise TransactionError("ops payload must be a list (or {'ops': [...]})")
    staged = {}
    ops = []
    for position, op in enumerate(payload):
        if not isinstance(op, dict) or "op" not in op:
            raise TransactionError("op %d is not an op object" % position)
        if op["op"] == "declare":
            ta, da = op.get("temporal_arity"), op.get("data_arity")
            if isinstance(ta, int) and isinstance(da, int):
                staged[op.get("relation")] = (ta, da)
            ops.append(dict(op))
            continue
        if op["op"] not in ("assert", "retract"):
            raise TransactionError("op %d: unknown op %r" % (position, op["op"]))
        name = op.get("relation")
        arity = staged.get(name)
        if arity is None:
            try:
                arity = store.schema(name)
            except EdbError as exc:
                raise TransactionError("op %d: %s" % (position, exc)) from exc
        text = op.get("tuple")
        if not isinstance(text, str):
            raise TransactionError("op %d: 'tuple' must be tuple text" % position)
        gt = parse_generalized_tuple(text, arity[0], arity[1])
        ops.append({"op": op["op"], "relation": name, "tuple": gt})
    return ops
