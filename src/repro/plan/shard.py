"""Supervised persistent-worker sharding of T_GP rounds (``parallelism > 1``).

Within a round, every clause-variant firing reads only the *previous*
environment (plus the last round's delta), so the firings of one round
are embarrassingly parallel.  The GIL makes threads useless for this
CPU-bound work, so the shards are **processes**: each worker is
bootstrapped once per run — it rebuilds the compiled plans from the
program/EDB *texts* (the same canonical texts the engine fingerprint
hashes; the worker verifies its plan fingerprint against the parent's
at startup) — and then stays resident for the whole run, replicating
the growing IDB environment from the per-round accepted-tuple updates.

The wire protocol (v2) is built around a **shared-memory delta
plane**.  Pipes carry only small control frames; bulk payloads ride
:mod:`multiprocessing.shared_memory` segments carrying the column-batch
codec of :mod:`repro.gdb.store` (each distinct constraint zone
serialized once per batch, rows referencing it by index):

* **Stratum broadcast** — at each stratum boundary the parent encodes
  the IDB environment, the negation complements, and any in-flight
  delta *once*, writes the pickled payload into one segment, and sends
  every worker a frame naming it.  The segment is retained for the
  stratum so replacements spawned mid-stratum rehydrate from it.
* **Round dispatch** — one control frame per worker per round.  It
  carries no task payloads at all: a compact *assignment descriptor*
  (``["block", slot, count]`` on the first attempt — contiguous blocks,
  because consecutive tasks share subgoal joins and cache affinity —
  an explicit index list on re-deals) plus the round's task-list
  length as a cross-check.
  The worker recomputes the round's task list itself — the enumeration
  is a pure function of the (replicated) delta, so it provably matches
  the parent's sequential firing order, and the ``tasks_total`` check
  turns any divergence into a hard error instead of a silent reorder.
* **Results** — each worker pickles its ``{task index: column batch}``
  map into a segment whose name the parent assigned in the dispatch
  frame (no segment when every assigned task derived nothing); the pipe
  reply carries only the name and size.
* **Accepted-delta broadcast as result references** — the parent never
  re-serializes accepted tuples.  Coverage sweeping preserves object
  identity, so each accepted tuple maps back to ``(task index, row)``
  in the round it was derived; the next round's dispatch ships those
  index pairs.  A worker resolves references into its *own* tasks from
  the derived tuples it retained, and decodes only the other workers'
  accepted rows from the previous round's result segments (which the
  parent retains exactly one round for this purpose).  Workers more
  than one round behind — respawned replacements, re-healed laggards —
  get the missing updates inline, lazily encoded from the accepted
  tuples the parent retains per stratum.

``wire_stats()`` counts pipe and segment bytes exactly, and every
round emits a ``shard.dispatch`` event with the totals.

Determinism is by construction, not by luck: tasks are enumerated in
exactly the sequential firing order, results are reassembled by global
task index, and tuples cross the process boundary in canonical form —
so the merged round is element-for-element the sequential one, no
matter how it was transported.

Supervision
-----------
Long-running fixpoints on real pods lose workers mid-round, so the
pool is supervised rather than trusted:

* every receive is deadline-bounded with exponentially backed-off
  liveness polling (:data:`DEFAULT_POLL_FLOOR` doubling to
  :data:`DEFAULT_POLL_CEILING`) — a
  dead worker wakes the poll immediately via pipe EOF, a *hung* one is
  detected within ``recv_deadline`` seconds (and is then killed), and
  an idle parent waiting on a long computation burns almost no CPU;
* a round task is a pure function of the broadcast ``(env, delta)``
  replica, so a failed worker's task slice is simply re-dealt to the
  survivors (or to a freshly respawned replacement) and the
  index-keyed merge stays bit-identical to sequential no matter which
  workers die when;
* replacements are rehydrated from the retained stratum broadcast plus
  the per-round accepted updates they missed — each worker tracks how
  many updates its replica has applied (``synced``), and every round
  dispatch carries exactly the missing suffix;
* respawns are capped (``max_restarts`` per pool lifetime).  When the
  pool empties with the cap spent, :class:`ShardPoolLostError` carries
  the per-task results already collected so the caller can finish the
  round sequentially instead of failing the run.

Shared-memory segments are parent-owned: the parent names every
segment (its own and the ones workers create for replies), keeps a
registry, and is the only process that ever unlinks — at round
retirement, stratum end, and unconditionally in :meth:`ShardPool.close`
(which every engine exit path reaches), so no segment outlives the
pool even when workers are SIGKILLed mid-write.  Python's resource
tracker remains the safety net for a SIGKILLed *parent*.

Worker loss, respawn, and retry surface as ``shard.worker`` events on
the bus; per-round transport totals as ``shard.dispatch``; the caller
emits ``shard.degraded`` when it downshifts.  Fault injection stays a
parent-side concern (workers clear the fault hook), but observability
is **aggregated, not dropped**: when the parent had sinks installed at
pool start, each worker accumulates its ``plan.operator`` and
``kernel.batch`` events locally and the parent drains them at stratum
end (``flush_stats``), re-emitting them as aggregated events carrying
a ``count`` — so ``explain --profile`` under ``--parallel`` reports
the worker-side operator work instead of silently under-counting.  The
parent-side chaos sites (``shard_dispatch``, ``shard_worker_crash``,
``shard_worker_hang`` — see :mod:`repro.runtime.faults`) let tests
kill, wedge, or unplug specific workers at exact dispatch counts.

The pool prefers the ``fork`` start method (cheap, copy-on-write) and
falls back to ``spawn`` where fork is unavailable; set
``REPRO_PARALLEL_START_METHOD`` to override (the test suite runs the
equivalence and heal suites under ``spawn`` too, since shared memory
plus ``spawn`` is the macOS/Windows reality).
"""

from __future__ import annotations

import multiprocessing
import os
import time

from repro.gdb.store import (
    decode_tuple_batch,
    decode_tuple_batch_rows,
    dump_payload,
    encode_relation_batch,
    encode_tuple_batch,
    load_payload,
)
from repro.util import hooks
from repro.util.errors import EvaluationError, ReproError
from repro.util.hooks import fault_point

#: Seconds a worker may stay silent mid-round before the parent
#: declares it hung and kills it.  Liveness is polled throughout, so a
#: worker that *dies* is detected immediately (pipe EOF) regardless.
DEFAULT_RECV_DEADLINE = 30.0

#: Worker respawns allowed per pool lifetime before a lost worker
#: means a lost pool slot (and an empty pool means degradation).
DEFAULT_MAX_RESTARTS = 2

#: Liveness-poll backoff inside :meth:`ShardPool._receive`: the first
#: poll waits the floor, each quiet wakeup doubles the wait up to the
#: ceiling.  Data (and pipe EOF) wake the poll immediately either way —
#: the interval only paces the ``is_alive`` check on a silent worker.
DEFAULT_POLL_FLOOR = 0.001
DEFAULT_POLL_CEILING = 0.1

#: Floor for the startup-handshake deadline: a worker re-parsing and
#: re-compiling a large program is slow but not hung.
_BOOT_DEADLINE = 60.0

#: Prefix of every shared-memory segment the pool creates (or assigns
#: to a worker); the leak tests scan ``/dev/shm`` for it.
SHM_PREFIX = "repro_shard_"


class ShardError(EvaluationError):
    """A shard worker failed or disagreed with the parent's plans."""


class ShardPoolLostError(ShardError):
    """The pool emptied and could not be healed within the restart cap.

    ``partial`` is the per-task result list collected before the loss
    (aligned with the round's task list, ``None`` where a result is
    missing — possibly ``None`` itself when the loss happened outside
    a round), so the caller can finish the remaining tasks
    sequentially and keep the run's results bit-identical.
    """

    def __init__(self, message, partial=None, restarts_used=0):
        super().__init__(message)
        self.partial = partial
        self.restarts_used = restarts_used


class _WorkerFailure(Exception):
    """Internal: one worker failed (``reason``: crash/hang/dispatch).

    Never escapes the pool — it marks the worker for discard-and-retry
    inside the supervision loop.
    """

    def __init__(self, reason, detail=""):
        super().__init__(detail or reason)
        self.reason = reason


def _start_method(override=None):
    method = override or os.environ.get("REPRO_PARALLEL_START_METHOD")
    if method:
        return method
    return (
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else multiprocessing.get_start_method(allow_none=False)
    )


class _ShardWorker:
    """One pool slot: the process, the parent pipe end, and how many of
    the stratum's per-round updates the replica has applied."""

    __slots__ = ("process", "connection", "synced")

    def __init__(self, process, connection):
        self.process = process
        self.connection = connection
        self.synced = 0

    @property
    def name(self):
        return self.process.name


class ShardPool:
    """``parallelism`` supervised worker processes evaluating round shards.

    The pool is built lazily from the *texts* of the program and EDB
    (``str(program)`` / ``str(edb)`` round-trip through the parsers —
    the same property the engine fingerprint depends on) so the
    snapshot shipped to workers is trivially picklable under any
    multiprocessing start method.

    ``recv_deadline`` bounds how long a silent-but-alive worker is
    waited on mid-round; ``max_restarts`` caps replacement spawns per
    pool lifetime.  Both default to the module constants when
    ``None``.  The pool is a context manager:
    ``with ShardPool(...) as pool: ...`` guarantees :meth:`close`.
    """

    def __init__(
        self,
        program_text,
        edb_text,
        evaluation,
        parallelism,
        plan_fingerprint=None,
        start_method=None,
        recv_deadline=None,
        max_restarts=None,
    ):
        if parallelism < 2:
            raise ValueError("a shard pool needs parallelism >= 2")
        self.program_text = program_text
        self.edb_text = edb_text
        self.evaluation = evaluation
        self.parallelism = parallelism
        self.expected_fingerprint = plan_fingerprint
        self.start_method = _start_method(start_method)
        self.recv_deadline = (
            DEFAULT_RECV_DEADLINE if recv_deadline is None else float(recv_deadline)
        )
        if self.recv_deadline <= 0:
            raise ValueError("recv_deadline must be positive")
        self.max_restarts = (
            DEFAULT_MAX_RESTARTS if max_restarts is None else int(max_restarts)
        )
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        self._workers = []  # [_ShardWorker]
        self._context = None
        self._spawn_seq = 0
        self.restarts_used = 0
        self.observe = False
        self._round = 0  # rounds dispatched this stratum (for events)
        self._stratum = 0
        # Rehydration state for respawned replacements: the last
        # stratum broadcast frame, and every per-round update applied
        # since — as accepted-tuple object refs, encoded lazily only
        # when a laggard actually needs the inline form.
        self._stratum_message = None
        self._updates = []  # [{"objects", "encoded", "refs"}]
        # Previous round's decoded per-task results (accept-reference
        # translation) and the segments that carried them.
        self._last_results = None
        self._prev_reply_segments = []  # [[name, size]]
        # Parent-owned shared-memory registry: every name the pool
        # created or assigned, mapped to an attached handle when the
        # parent holds one (None for assigned-but-unread names).
        self._segments = {}
        self._segment_seq = 0
        #: Exact transport totals for this pool's lifetime.
        self.wire = {
            "pipe_bytes": 0,
            "shm_bytes": 0,
            "dispatches": 0,
            "segments": 0,
            "rounds": 0,
        }

    # -- lifecycle --------------------------------------------------------

    def started(self):
        return bool(self._workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def wire_stats(self):
        """Lifetime transport totals (bytes are exact, both directions
        on the pipes plus every segment written)."""
        return dict(self.wire)

    def _spawn(self):
        """Start one worker process; the caller still owes a handshake."""
        if self._context is None:
            self._context = multiprocessing.get_context(self.start_method)
        bootstrap = {
            "program": self.program_text,
            "edb": self.edb_text,
            "evaluation": self.evaluation,
            "observe": self.observe,
        }
        parent_end, child_end = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(child_end, bootstrap),
            # The sequence number keeps replacement names unique while
            # preserving the repro-shard- prefix leak tests scan for.
            name="repro-shard-%d" % self._spawn_seq,
            daemon=True,
        )
        self._spawn_seq += 1
        process.start()
        child_end.close()
        return _ShardWorker(process, parent_end)

    def _handshake(self, worker):
        """Wait for the worker's ready message and verify its plans.

        Raises :class:`_WorkerFailure` when the worker dies or stalls,
        :class:`ShardError` on a fingerprint mismatch (a configuration
        error no respawn can heal).
        """
        ready = self._receive(
            worker, deadline=max(_BOOT_DEADLINE, self.recv_deadline)
        )
        fingerprint = ready.get("plan_fingerprint")
        if (
            self.expected_fingerprint is not None
            and fingerprint != self.expected_fingerprint
        ):
            raise ShardError(
                "shard worker compiled different plans than the parent "
                "(plan fingerprint mismatch %r != %r) — the program/EDB "
                "texts do not round-trip" % (fingerprint, self.expected_fingerprint)
            )

    def ensure_started(self):
        if self._workers:
            return
        # Whether the parent is observing is captured once, at pool
        # start: it decides whether workers aggregate their operator
        # events for the stratum-end flush.
        self.observe = bool(hooks.SINKS)
        try:
            for _ in range(self.parallelism):
                self._workers.append(self._spawn())
            for worker in list(self._workers):
                self._handshake(worker)
        except _WorkerFailure as failure:
            self.close()
            raise ShardError(
                "shard pool startup failed: %s" % failure
            ) from failure
        except Exception:
            self.close()
            raise

    def close(self):
        """Stop the workers and unlink every segment; safe to call
        repeatedly.

        Escalates per worker: cooperative stop, ``terminate()`` when
        the join times out, ``kill()`` when even SIGTERM is ignored
        (a worker wedged in uninterruptible state).  The parent pipe
        end is closed unconditionally so no descriptor outlives a dead
        worker, and the segment registry is drained unconditionally so
        no shared memory outlives the pool.
        """
        workers, self._workers = self._workers, []
        self._stratum_message = None
        self._updates = []
        self._last_results = None
        self._prev_reply_segments = []
        for worker in workers:
            try:
                self._send(worker, {"op": "stop"})
            except (_WorkerFailure, OSError, ValueError):
                pass
        for worker in workers:
            try:
                worker.connection.close()
            except OSError:
                pass
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=2.0)
        for name in list(self._segments):
            self._unlink_segment(name)

    # -- shared-memory registry -------------------------------------------

    def _new_segment_name(self):
        name = "%s%d_%d" % (SHM_PREFIX, os.getpid(), self._segment_seq)
        self._segment_seq += 1
        return name

    def _write_segment(self, data):
        """Create a segment holding ``data``; returns ``(name, size)``."""
        from multiprocessing import shared_memory

        name = self._new_segment_name()
        segment = shared_memory.SharedMemory(
            name=name, create=True, size=max(1, len(data))
        )
        segment.buf[: len(data)] = data
        self._segments[name] = segment
        self.wire["shm_bytes"] += len(data)
        self.wire["segments"] += 1
        return name, len(data)

    def _assign_segment_name(self):
        """Reserve a name for a worker-created reply segment.  It goes
        into the registry immediately (handle ``None``) so close() can
        unlink it even if the worker dies mid-write."""
        name = self._new_segment_name()
        self._segments[name] = None
        return name

    def _read_segment(self, name, size):
        """Attach and unpickle a worker-written segment.  The attached
        handle stays in the registry: the segment must survive for
        accept-reference resolution."""
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(name=name)
        try:
            view = segment.buf[:size]
            try:
                payload = load_payload(view)
            finally:
                view.release()
        except BaseException:
            segment.close()
            raise
        self._segments[name] = segment
        return payload

    def _unlink_segment(self, name):
        """Remove one segment, attached or not; tolerates the segment
        never having been created (a worker died before writing it)."""
        from multiprocessing import shared_memory

        handle = self._segments.pop(name, None)
        if handle is None:
            try:
                handle = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                return
        handle.close()
        try:
            handle.unlink()
        except FileNotFoundError:  # pragma: no cover - unlink raced
            pass

    # -- supervision ------------------------------------------------------

    def _discard(self, worker, reason, detail=""):
        """Forget a failed worker: kill it if needed, close its pipe,
        and announce the loss on the bus."""
        if worker in self._workers:
            self._workers.remove(worker)
        try:
            worker.connection.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(timeout=2.0)
        if hooks.SINKS:
            hooks.emit(
                "shard.worker",
                {
                    "phase": "lost",
                    "worker": worker.name,
                    "reason": reason,
                    "exitcode": worker.process.exitcode,
                    "round": self._round,
                    "detail": detail,
                },
            )

    def _heal(self):
        """Respawn workers up to the restart cap; returns the live list.

        A replacement is rehydrated through the normal bootstrap
        handshake plus a re-broadcast of the retained stratum context;
        its ``synced`` counter starts at 0, so its first round dispatch
        ships every update the stratum has applied so far (inline —
        the result segments its siblings resolve references from only
        cover the latest round).  A replacement that itself dies burns
        its restart credit — that is what bounds a crash-looping pod.
        """
        while (
            len(self._workers) < self.parallelism
            and self.restarts_used < self.max_restarts
        ):
            self.restarts_used += 1
            worker = None
            try:
                worker = self._spawn()
                self._handshake(worker)
                if self._stratum_message is not None:
                    self._send(worker, self._stratum_message)
                    self._receive(worker)
            except (_WorkerFailure, OSError) as failure:
                if worker is not None:
                    self._discard(worker, "respawn-failed", str(failure))
                continue
            self._workers.append(worker)
            if hooks.SINKS:
                hooks.emit(
                    "shard.worker",
                    {
                        "phase": "respawn",
                        "worker": worker.name,
                        "restarts_used": self.restarts_used,
                        "round": self._round,
                    },
                )
        return list(self._workers)

    def _inject_worker_faults(self, worker):
        """The deterministic chaos sites, hit once per worker dispatch.

        A triggered ``shard_worker_crash`` SIGKILLs the worker about to
        be dispatched to — a real process death, exercising the real
        broken-pipe/EOF detection.  A triggered ``shard_worker_hang``
        wedges the worker in a sleep loop, exercising the recv
        deadline.  Either way the dispatch itself proceeds normally.
        """
        if hooks.FAULT_HOOK is None:
            return
        try:
            fault_point("shard_worker_crash")
        except Exception:
            worker.process.kill()
            worker.process.join(timeout=2.0)
        try:
            fault_point("shard_worker_hang")
        except Exception:
            try:
                worker.connection.send({"op": "hang"})
            except (OSError, ValueError):
                pass

    # -- stratum protocol -------------------------------------------------

    def begin_stratum(self, stratum_index, env, complements, delta, intensional):
        """Broadcast the stratum context: the current IDB relations
        (which a resume may have pre-populated), the negated-predicate
        complements, and the in-flight delta (``None`` outside a
        mid-stratum start).  The payload is encoded and written to a
        segment exactly once; the frame — which is retained so
        replacements can be rehydrated — only names the segment."""
        self.ensure_started()
        self._release_stratum_state()
        payload = {
            "env": {
                name: encode_relation_batch(env[name]) for name in intensional
            },
            "complements": {
                name: encode_relation_batch(relation)
                for name, relation in complements.items()
            },
            "delta": None
            if delta is None
            else {
                name: encode_tuple_batch(tuples)
                for name, tuples in delta.items()
            },
        }
        pipe_before, shm_before = self.wire["pipe_bytes"], self.wire["shm_bytes"]
        name, size = self._write_segment(dump_payload(payload))
        message = {
            "op": "stratum",
            "stratum": stratum_index,
            "shm": name,
            "size": size,
        }
        self._stratum_message = message
        self._stratum = stratum_index
        self._round = 0
        acked = []
        for worker in list(self._workers):
            try:
                self._send(worker, message)
            except _WorkerFailure as failure:
                self._discard(worker, failure.reason, str(failure))
                continue
            acked.append(worker)
        for worker in acked:
            try:
                self._receive(worker)
            except _WorkerFailure as failure:
                self._discard(worker, failure.reason, str(failure))
                continue
            worker.synced = 0
        if len(self._workers) < self.parallelism:
            self._heal()
        if hooks.SINKS:
            hooks.emit(
                "shard.dispatch",
                {
                    "phase": "stratum",
                    "stratum": stratum_index,
                    "round": self._round,
                    "tasks": 0,
                    "workers": len(self._workers),
                    "pipe_bytes": self.wire["pipe_bytes"] - pipe_before,
                    "shm_bytes": self.wire["shm_bytes"] - shm_before,
                    "segments": 1,
                },
            )
        if not self._workers:
            raise ShardPoolLostError(
                "every shard worker was lost broadcasting stratum %d "
                "(restart cap %d spent)" % (stratum_index, self.max_restarts),
                partial=None,
                restarts_used=self.restarts_used,
            )

    def end_stratum(self):
        """Stratum boundary: drain worker-side operator statistics
        (re-emitted as aggregated events) and retire the stratum's
        segments and update history.  Best-effort on the stats side — a
        worker that dies during the flush loses its counters, never the
        run."""
        if self.observe and hooks.SINKS and self._workers:
            self.flush_worker_stats()
        self._release_stratum_state()

    def _release_stratum_state(self):
        for name, _size in self._prev_reply_segments:
            self._unlink_segment(name)
        self._prev_reply_segments = []
        message = self._stratum_message
        self._stratum_message = None
        if message is not None:
            self._unlink_segment(message["shm"])
        self._updates = []
        self._last_results = None

    def flush_worker_stats(self):
        """Collect every worker's aggregated ``plan.operator`` /
        ``kernel.batch`` counters and re-emit them on the parent's bus
        with ``aggregated: True`` and a ``count`` of folded events."""
        for worker in list(self._workers):
            try:
                self._send(worker, {"op": "flush_stats"})
                reply = self._receive(worker)
            except _WorkerFailure as failure:
                self._discard(worker, failure.reason, str(failure))
                continue
            except ShardError:
                continue
            for fields in reply.get("operators", ()):
                fields = dict(fields)
                fields["aggregated"] = True
                fields["worker"] = worker.name
                hooks.emit("plan.operator", fields)
            for fields in reply.get("kernel", ()):
                fields = dict(fields)
                fields["aggregated"] = True
                fields["worker"] = worker.name
                hooks.emit("kernel.batch", fields)

    # -- round protocol ---------------------------------------------------

    def run_round(self, tasks, update, seminaive=None):
        """Evaluate ``tasks`` (global sequential order) across the
        workers and return the per-task derived tuple lists, reassembled
        in that same order.

        ``update`` is the previous round's accepted-tuple delta as an
        ordered ``[(predicate, [tuples])]`` list (or ``None`` for the
        first round of a stratum); every worker applies it to its
        replica environment — in the parent's insertion order — before
        evaluating, which also makes it the round's semi-naive delta.
        The update crosses the wire as result references (see the
        module docstring), so accepting a tuple costs the parent no
        serialization at all.

        ``seminaive`` tells the workers which task enumeration this
        round used (they recompute the task list themselves).  It
        defaults to ``update is not None``; the caller must pass it
        explicitly for the two exceptions — a naive-strategy round
        (updates applied, naive enumeration) and the first round after
        a mid-stratum start (no update, but the stratum broadcast
        carried a delta).

        The supervision loop deals the still-pending task indices in
        contiguous blocks over the live workers, collects with the deadline,
        discards failures, and repeats until every index has a result —
        healing the pool between attempts.  Because results are keyed
        by global task index and replicas are value-identical, the
        merged list is the sequential one regardless of failures.
        Raises :class:`ShardPoolLostError` (carrying the partial
        results) when the pool empties with the restart cap spent.
        """
        self._round += 1
        self.wire["rounds"] += 1
        pipe_before, shm_before = self.wire["pipe_bytes"], self.wire["shm_bytes"]
        if seminaive is None:
            seminaive = update is not None
        if update is not None:
            self._push_update(update)
        merged = [None] * len(tasks)
        pending = list(range(len(tasks)))
        first_attempt = True
        reply_segments = []  # [[name, size]] successful replies this round
        while pending:
            workers = list(self._workers)
            if len(workers) < self.parallelism:
                workers = self._heal()
            if not workers:
                raise ShardPoolLostError(
                    "shard pool lost with %d of %d round task(s) outstanding "
                    "(restart cap %d spent)"
                    % (len(pending), len(tasks), self.max_restarts),
                    partial=merged,
                    restarts_used=self.restarts_used,
                )
            if not first_attempt and hooks.SINKS:
                hooks.emit(
                    "shard.worker",
                    {
                        "phase": "retry",
                        "worker": ",".join(w.name for w in workers),
                        "round": self._round,
                        "tasks": len(pending),
                    },
                )
            count = len(workers)
            # On the first attempt every index is pending, so the
            # assignment is a contiguous block the worker can recompute
            # from (slot, count) alone; re-deals ship explicit lists.
            # Blocks beat a stride deal because the task list is
            # ordered by clause: consecutive tasks share subgoal
            # relations, so keeping them on one worker keeps their
            # joins in that worker's caches instead of recomputing
            # them on every replica (measured ~1.3x faster end-to-end
            # on the multi-chain workload).
            block = first_attempt and len(pending) == len(tasks)
            first_attempt = False
            total = len(pending)
            dispatched = []  # [(worker, [global task index], reply name)]
            for slot, worker in enumerate(workers):
                if block:
                    indices = pending[
                        (total * slot) // count : (total * (slot + 1)) // count
                    ]
                else:
                    indices = pending[slot::count]
                if not indices:
                    continue
                self._inject_worker_faults(worker)
                assign = (
                    ["block", slot, count] if block else ["indices", indices]
                )
                try:
                    reply_name = self._dispatch(
                        worker, len(tasks), assign, seminaive
                    )
                except _WorkerFailure as failure:
                    self._discard(worker, failure.reason, str(failure))
                    continue
                dispatched.append((worker, indices, reply_name))
            completed = set()
            for worker, indices, reply_name in dispatched:
                try:
                    reply = self._receive(worker)
                    results = self._collect_results(reply, reply_name)
                except _WorkerFailure as failure:
                    self._discard(worker, failure.reason, str(failure))
                    self._unlink_segment(reply_name)
                    continue
                for index in indices:
                    batch = results.get(index)
                    merged[index] = (
                        [] if batch is None else decode_tuple_batch(batch)
                    )
                    completed.add(index)
                if reply.get("shm"):
                    reply_segments.append([reply_name, reply["size"]])
                else:
                    # Assigned but never created (all tasks empty).
                    self._segments.pop(reply_name, None)
            pending = [i for i in pending if i not in completed]
        # Retire the previous round's result segments — the accept
        # references of *this* round's update resolved against them —
        # and retain this round's for the next update.
        for name, _size in self._prev_reply_segments:
            self._unlink_segment(name)
        self._prev_reply_segments = reply_segments
        self._last_results = merged
        self.wire["dispatches"] += len(tasks)
        if hooks.SINKS:
            hooks.emit(
                "shard.dispatch",
                {
                    "phase": "round",
                    "stratum": self._stratum,
                    "round": self._round,
                    "tasks": len(tasks),
                    "workers": len(self._workers),
                    "pipe_bytes": self.wire["pipe_bytes"] - pipe_before,
                    "shm_bytes": self.wire["shm_bytes"] - shm_before,
                    "segments": len(reply_segments),
                },
            )
        return merged

    def _push_update(self, update):
        """Record one accepted-tuple update: object refs always (the
        laggard/inline source of truth), accept references when the
        tuples map back into the previous round's results."""
        entry = {
            "objects": [(name, list(tuples)) for name, tuples in update],
            "encoded": None,
            "refs": self._translate_update(update),
        }
        self._updates.append(entry)

    def _translate_update(self, update):
        """Map accepted tuple *objects* back to ``[task, row]`` pairs in
        the previous round's merged results (coverage sweeping preserves
        identity).  Returns ``None`` — forcing the inline path — when
        there is no previous round or any tuple fails to map."""
        if self._last_results is None:
            return None
        id_map = {}
        for task, tuples in enumerate(self._last_results):
            if tuples:
                for row, gt in enumerate(tuples):
                    id_map[id(gt)] = (task, row)
        refs = []
        for name, tuples in update:
            pairs = []
            for gt in tuples:
                ref = id_map.get(id(gt))
                if ref is None:
                    return None
                pairs.append([ref[0], ref[1]])
            refs.append([name, pairs])
        return refs

    def _encoded_update(self, entry):
        if entry["encoded"] is None:
            entry["encoded"] = [
                [name, encode_tuple_batch(tuples)]
                for name, tuples in entry["objects"]
            ]
        return entry["encoded"]

    def _update_field(self, worker):
        """The update portion of one worker's dispatch frame: nothing
        for a replica that is current, accept references for one
        exactly one round behind, the full missing suffix inline for a
        laggard or replacement."""
        total = len(self._updates)
        missing = total - worker.synced
        if missing <= 0:
            return None
        latest = self._updates[-1]
        if missing == 1 and latest["refs"] is not None:
            return {
                "accept": latest["refs"],
                "prev": list(self._prev_reply_segments),
            }
        return {
            "inline": [
                self._encoded_update(entry)
                for entry in self._updates[worker.synced :]
            ]
        }

    # -- plumbing ---------------------------------------------------------

    def _dispatch(self, worker, tasks_total, assign, seminaive):
        """Send one round control frame; returns the reply-segment name
        assigned to the worker."""
        reply_name = self._assign_segment_name()
        message = {
            "op": "round",
            "round": self._round,
            "seminaive": seminaive,
            "tasks_total": tasks_total,
            "assign": assign,
            "update": self._update_field(worker),
            "reply": reply_name,
        }
        try:
            fault_point("shard_dispatch")
            self._send_bytes(worker, dump_payload(message))
        except (OSError, ValueError, ReproError) as error:
            self._segments.pop(reply_name, None)
            # A send that fails because the process died is a crash;
            # pipe trouble with a live worker is dispatch failure.
            reason = "dispatch" if worker.process.is_alive() else "crash"
            raise _WorkerFailure(
                reason, "shard worker %s is gone: %s" % (worker.name, error)
            ) from error
        worker.synced = len(self._updates)
        return reply_name

    def _collect_results(self, reply, reply_name):
        """The ``{task index: batch}`` map of one worker reply, read
        from its segment (retained for accept references)."""
        if not reply.get("shm"):
            return {}
        size = reply["size"]
        payload = self._read_segment(reply_name, size)
        self.wire["shm_bytes"] += size
        self.wire["segments"] += 1
        return payload

    def _send(self, worker, message):
        try:
            self._send_bytes(worker, dump_payload(message))
        except (OSError, ValueError) as error:
            raise _WorkerFailure(
                "dispatch", "shard worker %s is gone: %s" % (worker.name, error)
            ) from error

    def _send_bytes(self, worker, data):
        worker.connection.send_bytes(data)
        self.wire["pipe_bytes"] += len(data)

    def _receive(self, worker, deadline=None):
        """Deadline-bounded receive with backed-off liveness polling.

        Raises :class:`_WorkerFailure` (reason ``crash``) as soon as
        the worker process is observed dead with nothing left to read,
        or (reason ``hang``) when the deadline expires on a live but
        silent worker — which is then killed so its slot can be healed.
        Worker-reported evaluation errors (``ok: False``) raise
        :class:`ShardError`: they are deterministic, so a retry
        elsewhere would fail identically.
        """
        if deadline is None:
            deadline = self.recv_deadline
        connection = worker.connection
        process = worker.process
        expires = time.monotonic() + deadline
        interval = DEFAULT_POLL_FLOOR
        while True:
            remaining = expires - time.monotonic()
            try:
                if connection.poll(min(interval, max(0.0, remaining))):
                    data = connection.recv_bytes()
                    self.wire["pipe_bytes"] += len(data)
                    reply = load_payload(data)
                    if not reply.get("ok"):
                        raise ShardError(
                            "shard worker %s failed: %s"
                            % (worker.name, reply.get("error", "unknown error"))
                        )
                    return reply
            except (EOFError, OSError) as error:
                raise _WorkerFailure(
                    "crash",
                    "shard worker %s died mid-round (exit code %r)"
                    % (worker.name, process.exitcode),
                ) from error
            if not process.is_alive():
                # Dead — but drain a reply it may have flushed before
                # exiting rather than discarding finished work.
                try:
                    if connection.poll(0):
                        continue
                except (EOFError, OSError):
                    pass
                raise _WorkerFailure(
                    "crash",
                    "shard worker %s died mid-round (exit code %r)"
                    % (worker.name, process.exitcode),
                )
            if remaining <= 0:
                process.kill()
                process.join(timeout=2.0)
                raise _WorkerFailure(
                    "hang",
                    "shard worker %s unresponsive for %.1fs (killed)"
                    % (worker.name, deadline),
                )
            # Quiet wakeup: back off before the next liveness check.
            interval = min(interval * 2.0, DEFAULT_POLL_CEILING)


# -- worker side -------------------------------------------------------------


class _WorkerStatSink:
    """Worker-side observability aggregator.

    Workers must not stream events over the pipe (that would serialize
    the hot path on exactly the IPC this module removes), but dropping
    them made ``explain --profile`` blind to worker-side operator work.
    So the worker folds its own events locally — ``plan.operator``
    keyed by (clause, variant, step), ``kernel.batch`` additionally by
    fast path — and the parent drains the totals at stratum end.
    """

    def __init__(self):
        self.operators = {}
        self.kernel = {}

    def __call__(self, kind, fields):
        if kind == "plan.operator":
            key = (fields.get("clause"), fields.get("variant"), fields.get("step"))
            entry = self.operators.get(key)
            if entry is None:
                entry = self.operators[key] = {
                    "clause": fields.get("clause"),
                    "variant": fields.get("variant"),
                    "step": fields.get("step"),
                    "op": fields.get("op"),
                    "predicate": fields.get("predicate"),
                    "count": 0,
                    "in": 0,
                    "source": 0,
                    "selected": 0,
                    "out": 0,
                    "duration_s": 0.0,
                }
            entry["count"] += 1
            entry["in"] += fields.get("in", 0)
            entry["source"] += fields.get("source", 0)
            entry["selected"] += fields.get("selected", 0)
            entry["out"] += fields.get("out", 0)
            entry["duration_s"] += fields.get("duration_s", 0.0)
        elif kind == "kernel.batch":
            key = (
                fields.get("clause"),
                fields.get("variant"),
                fields.get("step"),
                fields.get("fast_path"),
            )
            entry = self.kernel.get(key)
            if entry is None:
                entry = self.kernel[key] = {
                    "clause": fields.get("clause"),
                    "variant": fields.get("variant"),
                    "step": fields.get("step"),
                    "fast_path": fields.get("fast_path"),
                    "count": 0,
                    "size": 0,
                    "hits": 0,
                }
            entry["count"] += 1
            entry["size"] += fields.get("size", 0)
            entry["hits"] += fields.get("hits", 0)

    def drain(self):
        operators = list(self.operators.values())
        kernel = list(self.kernel.values())
        self.operators = {}
        self.kernel = {}
        return operators, kernel


def _worker_send(connection, message):
    connection.send_bytes(dump_payload(message))


def _worker_read_segment(name, size):
    """Attach, unpickle, detach — the worker never unlinks (segments
    are parent-owned)."""
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=name)
    try:
        view = segment.buf[:size]
        try:
            return load_payload(view)
        finally:
            view.release()
    finally:
        segment.close()


def _worker_write_segment(name, data):
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=name, create=True, size=len(data))
    try:
        segment.buf[: len(data)] = data
    finally:
        segment.close()


def _resolve_accept_refs(refs, prev_segments, retained):
    """Rebuild an accepted-tuple update from ``[task, row]`` references:
    the worker's own derived objects where it evaluated the task,
    selective decodes of the previous round's result segments
    elsewhere.  Returns the ordered ``[(predicate, [tuples])]`` list."""
    needed = {}  # task -> [row, ...] not resolvable locally
    for _name, pairs in refs:
        for task, row in pairs:
            if task not in retained:
                needed.setdefault(task, []).append(row)
    remote = {}  # (task, row) -> tuple
    if needed:
        batches = {}
        for name, size in prev_segments:
            batches.update(_worker_read_segment(name, size))
        for task, rows in needed.items():
            batch = batches.get(task)
            if batch is None:
                raise ValueError(
                    "accept reference to task %d missing from the previous "
                    "round's result segments" % task
                )
            unique = sorted(set(rows))
            for row, gt in zip(unique, decode_tuple_batch_rows(batch, unique)):
                remote[(task, row)] = gt
    update = []
    for name, pairs in refs:
        tuples = []
        for task, row in pairs:
            own = retained.get(task)
            tuples.append(own[row] if own is not None else remote[(task, row)])
        update.append((name, tuples))
    return update


def _disable_worker_shm_tracking():
    """Keep the worker's resource tracker out of segment lifecycle.

    Segments are parent-owned: the parent unlinks every name it
    registers, and its own resource tracker is the safety net for a
    SIGKILLed parent.  Workers, however, *attach* to those segments,
    and attaching also registers the name with the attaching process's
    tracker.  Under ``spawn`` each worker has a private tracker that
    dies with it — and on the way out it would "clean up" (unlink)
    segments the parent and surviving workers still need, turning a
    healed worker loss into a corrupted stratum.  Dropping
    shared-memory registrations in workers leaves exactly one owner.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def register(name, rtype):
        if rtype != "shared_memory":
            original(name, rtype)

    resource_tracker.register = register


def _worker_main(connection, bootstrap):
    """Shard worker loop: rebuild the evaluator, replicate the
    environment, answer round requests until told to stop."""
    # Fault injection belongs to the parent; a forked worker must not
    # re-fire inherited injected faults.  Observability is replaced,
    # not inherited: when the parent was observing at pool start the
    # worker aggregates its own events for the stratum-end flush,
    # otherwise events are disabled entirely.
    import gc

    from repro.util import hooks

    _disable_worker_shm_tracking()

    # The evaluator allocates heavily but acyclically (tuples, zones,
    # batches are refcount-collected); cycle detection in every worker
    # multiplies the collector's sweep cost by the pool size for no
    # reclaim.  Freeze the inherited/bootstrapped heap out of the
    # collector's view and switch cycle detection off for the worker's
    # lifetime — worth ~8% of round wall on the parallel benchmark.
    gc.freeze()
    gc.disable()

    hooks.FAULT_HOOK = None
    stat_sink = None
    if bootstrap.get("observe"):
        stat_sink = _WorkerStatSink()
        hooks.SINKS = (stat_sink,)
    else:
        hooks.SINKS = ()

    from repro.core.evaluation import ProgramEvaluator
    from repro.core.parser import parse_program
    from repro.gdb.parser import parse_database
    from repro.gdb.relation import GeneralizedRelation

    try:
        program = parse_program(bootstrap["program"])
        edb = parse_database(bootstrap["edb"])
        evaluator = ProgramEvaluator(
            program, edb, evaluation=bootstrap["evaluation"]
        )
        env = evaluator.initial_environment()
        _worker_send(
            connection,
            {"ok": True, "plan_fingerprint": evaluator.plan_fingerprint()},
        )
    except Exception as error:  # pragma: no cover - startup failure path
        try:
            _worker_send(connection, {"ok": False, "error": repr(error)})
        finally:
            connection.close()
        return

    stratum_index = 0
    complements = {}
    delta = None  # {predicate: [GeneralizedTuple]}
    retained = {}  # global task index -> derived tuples (last round)
    retained_round = 0

    def decode_relation(payload):
        return GeneralizedRelation(
            payload["temporal_arity"],
            payload["data_arity"],
            decode_tuple_batch(payload["batch"]),
        )

    while True:
        try:
            message = load_payload(connection.recv_bytes())
        except (EOFError, OSError):
            break
        op = message.get("op")
        if op == "stop":
            break
        if op == "hang":  # chaos testing: wedge until killed
            while True:  # pragma: no cover - exits only by SIGKILL
                time.sleep(60.0)
        try:
            if op == "stratum":
                stratum_index = message["stratum"]
                payload = _worker_read_segment(message["shm"], message["size"])
                for name, encoded in payload["env"].items():
                    env[name] = decode_relation(encoded)
                complements = {
                    name: decode_relation(encoded)
                    for name, encoded in payload["complements"].items()
                }
                delta = None
                if payload["delta"] is not None:
                    delta = {
                        name: decode_tuple_batch(batch)
                        for name, batch in payload["delta"].items()
                    }
                retained = {}
                retained_round = 0
                _worker_send(connection, {"ok": True})
            elif op == "round":
                # Apply whatever updates this replica has missed, in
                # parent order; the last one is the round's semi-naive
                # delta (a replica that kept up gets exactly one, as
                # accept references into the last round's results).
                update = message["update"]
                if update is not None:
                    if "accept" in update:
                        rounds = [
                            _resolve_accept_refs(
                                update["accept"], update["prev"], retained
                            )
                        ]
                    else:
                        rounds = [
                            [
                                (name, decode_tuple_batch(batch))
                                for name, batch in encoded
                            ]
                            for encoded in update["inline"]
                        ]
                    for one_round in rounds:
                        delta = {}
                        for name, tuples in one_round:
                            env[name] = env[name].with_tuples(tuples)
                            delta[name] = tuples
                round_no = message["round"]
                if round_no != retained_round:
                    retained = {}
                    retained_round = round_no
                evaluators = evaluator.stratum_evaluators[stratum_index]
                task_list = evaluator.round_tasks(
                    evaluators, delta if message["seminaive"] else None
                )
                if len(task_list) != message["tasks_total"]:
                    raise ValueError(
                        "task-list divergence: worker enumerated %d round "
                        "tasks, parent %d"
                        % (len(task_list), message["tasks_total"])
                    )
                kind, *spec = message["assign"]
                if kind == "block":
                    slot, count = spec
                    total = len(task_list)
                    indices = range(
                        (total * slot) // count, (total * (slot + 1)) // count
                    )
                else:
                    (indices,) = spec
                delta_env = None
                if delta is not None:
                    delta_env = {
                        name: GeneralizedRelation(
                            *evaluator.schemas[name], tuples=tuples
                        )
                        for name, tuples in delta.items()
                    }
                results = {}
                for i in indices:
                    index, position = task_list[i]
                    clause = evaluators[index]
                    if position is None:
                        relation = clause.evaluate(env, complements=complements)
                    else:
                        relation = clause.evaluate(
                            env,
                            delta=delta_env,
                            delta_position=position,
                            complements=complements,
                        )
                    retained[i] = relation.tuples
                    if relation.tuples:
                        results[i] = encode_tuple_batch(relation.tuples)
                reply = {"ok": True, "round": round_no, "shm": None, "size": 0}
                if results:
                    data = dump_payload(results)
                    _worker_write_segment(message["reply"], data)
                    reply["shm"] = message["reply"]
                    reply["size"] = len(data)
                _worker_send(connection, reply)
            elif op == "flush_stats":
                operators, kernel = (
                    stat_sink.drain() if stat_sink is not None else ([], [])
                )
                _worker_send(
                    connection,
                    {"ok": True, "operators": operators, "kernel": kernel},
                )
            else:
                _worker_send(
                    connection, {"ok": False, "error": "unknown op %r" % (op,)}
                )
        except Exception as error:
            try:
                _worker_send(connection, {"ok": False, "error": repr(error)})
            except (OSError, ValueError):
                break
    try:
        connection.close()
    except OSError:
        pass
