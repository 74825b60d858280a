"""The three workloads: set-up, one timed closed-loop pass, and the
correctness gate that checks the pass's outputs afterwards.  ``check``
takes every ``parts``-th output from ``part`` on, so the gate can split
the work across processes.

Each workload issues two op types and reports each separately: the
``op`` type (the operation the workload exists for) and the ``read``
type (the read that follows it).  A timed pass returns one
``(slot, seconds, ok)`` sample per op plus the outputs to check;
nothing the gate does runs inside the timed region or inside set-up.
"""

from __future__ import annotations

import collections
import os
import re
import shutil
import time

import repro.core as core
import repro.gdb as gdb
from repro.core.engine import DeductiveEngine
from repro.edb import EdbStore, MaterializedModel
from repro.gdb.parser import parse_generalized_tuple
from repro.plan.magic import QueryGoal
from repro.service import QueryService
from repro.service.jobs import JobSpec
from repro.util.errors import ReproError

import programs

clock = time.perf_counter


#: Ops per metered step of a timed pass: the host's speed is probed
#: between steps (see ``hostspeed.py``).
SEGMENT_OPS = 20


def warm_kernel_caches(meter=None):
    """Run the fixed warm-up draw that fills the kernel join and
    projection caches, one ``meter`` step per program."""
    edb_text, program_texts = programs.warmup_programs()
    database = gdb.parse_database(edb_text)
    for program_text in program_texts:
        DeductiveEngine(core.parse_program(program_text), database).run()
        if meter is not None:
            meter.step()


class Pass:
    """The samples and outputs of one timed pass, and with a ``meter``,
    the host scale of each metered step."""

    def __init__(self, meter=None):
        self.samples = []  # (slot, seconds, ok)
        self.outputs = []
        self.wall = 0.0
        self.meter = meter
        self.bounds = []  # (samples before a step's end, the step's scale)

    def add(self, slot, seconds, ok):
        self.samples.append((slot, seconds, ok))

    def step(self, samples=None):
        """End a metered step after the first ``samples`` samples (all so
        far by default); nothing without a meter or new samples."""
        samples = len(self.samples) if samples is None else samples
        if self.meter is not None and samples > (self.bounds[-1][0] if self.bounds else 0):
            self.bounds.append((samples, self.meter.step()))

    def scales(self):
        """Each sample's host scale: 1.0 without a meter."""
        if self.meter is None:
            return [1.0] * len(self.samples)
        scales = []
        for end, scale in self.bounds:
            scales += [scale] * (end - len(scales))
        return scales


class ClosedForm:
    """One client, closed loop: parse + compile + fixpoint of a program
    the process has not seen before (``op``), then a window read of the
    closed form it computed (``read``)."""

    name = "closed_form"
    rate = 45.0  # programs per second at which --seconds sizes the run
    round_ops = 40
    tails = {"op": 0.8, "read": 0.8}  # nearest-rank tail per op type

    def __init__(self, seed, count, salt, workdir):
        self.ops = programs.closed_form_ops(seed, count, salt)

    def setup(self):
        pass

    def run(self, spans=None, meter=None):
        result = Pass(meter)
        started = clock()
        for index, (_family, program_text, edb_text, window) in enumerate(self.ops):
            if index % SEGMENT_OPS == 0:
                result.step()
            if spans is not None:
                spans.bind(index)
            t0 = clock()
            try:
                model = DeductiveEngine(
                    core.parse_program(program_text), gdb.parse_database(edb_text)
                ).run()
            except ReproError:
                t1 = clock()
                result.add("op", t1 - t0, False)
                result.outputs.append((index, None))
                continue
            t1 = clock()
            if spans is not None:
                spans.bind((index, "read"))
            rows = _window_read(model, window)
            t2 = clock()
            result.add("op", t1 - t0, True)
            result.add("read", t2 - t1, True)
            if spans is not None:
                spans.root(index, "bench", t0, t1)
                spans.root((index, "read"), "bench", t1, t2)
            result.outputs.append((index, rows))
        result.step()
        result.wall = clock() - started
        if spans is not None:
            spans.bind(None)
        return result

    def check(self, result, part=0, parts=1):
        """Every closed form equals the paper-literal reference
        evaluator's over the op's read window, which is longer than the
        least common period of every relation the op's program derives:
        for these periodic programs, equal rows there mean equal
        relations."""
        failures = []
        for index, rows in result.outputs[part::parts]:
            if rows is None:
                continue
            _family, program_text, edb_text, window = self.ops[index]
            reference = DeductiveEngine(
                core.parse_program(program_text),
                gdb.parse_database(edb_text),
                evaluation="reference",
            ).run()
            if rows != _window_read(reference, window):
                failures.append("op %d: closed form differs from the reference evaluator" % index)
        return failures

    def close(self):
        pass


def _window_read(model, window):
    """Every predicate's ground rows within ``window``."""
    return {name: model.extension(name, *window) for name in model.predicates()}


class QueryMix:
    """``QueryService(workers=2)`` with two jobs kept outstanding by one
    generator thread.  Goal-directed jobs (point and window goals over
    the multi-chain program) are the ``op`` type; FO queries with a join
    and negation over the EDB alone are the ``read`` type."""

    name = "query_mix"
    rate = 50.0
    round_ops = 100
    tails = {"op": 0.8, "read": 0.8}
    outstanding = 2

    def __init__(self, seed, count, salt, workdir):
        self.program_text, self.edb_text = programs.query_sources(seed)
        self.ops = programs.query_ops(seed, count, salt)
        self.specs = [self._spec("q%d" % index, op) for index, op in enumerate(self.ops)]
        self.warmup = [
            self._spec("w%d" % index, op)
            for index, op in enumerate(programs.query_warmup_ops())
        ]
        self.workdir = workdir
        self.service = None

    def _spec(self, job_id, op):
        kind, formula, window = op
        goal_directed = kind != "fo"
        return JobSpec(
            job_id=job_id,
            kind="query",
            program=self.program_text if goal_directed else "",
            edb=self.edb_text,
            query=formula,
            window=window,
            goal_directed=goal_directed,
        )

    def setup(self):
        self.service = QueryService(
            workers=2, work_dir=os.path.join(self.workdir, "service"), clock=clock
        )
        self._loop(self.warmup)

    def _loop(self, specs, result=None):
        """Closed loop: keep ``outstanding`` jobs submitted; wait for the
        oldest, then top up.  With a ``result``, the loop drains every
        ``SEGMENT_OPS`` jobs and ends a metered step, so no job runs
        while the host is probed.  Returns ``[(index, submitted,
        result)]``."""
        done = []
        step = SEGMENT_OPS if result is not None else len(specs)
        for first in range(0, len(specs), step):
            inflight = collections.deque()
            position, end = first, min(first + step, len(specs))
            while position < end or inflight:
                while position < end and len(inflight) < self.outstanding:
                    inflight.append((position, clock(), self.service.submit(specs[position])))
                    position += 1
                index, submitted, handle = inflight.popleft()
                done.append((index, submitted, handle.result()))
            if result is not None:
                result.step(len(done))
        return done

    def run(self, spans=None, meter=None):
        result = Pass(meter)
        started = clock()
        done = self._loop(self.specs, result)
        result.wall = clock() - started
        for index, submitted, job in done:
            slot = "read" if self.ops[index][0] == "fo" else "op"
            ok = job.state == "ok" and job.outcome == "ok"
            # The service clock is this clock: elapsed_seconds runs from
            # admission in submit() to the terminal result.
            result.add(slot, job.elapsed_seconds, ok)
            if spans is not None:
                spans.root(job.job_id, "service.pool", submitted, submitted + job.elapsed_seconds)
            result.outputs.append((index, job))
        return result

    def check(self, result, part=0, parts=1):
        """Goal-directed answers equal the full fixpoint's within the
        goal's window; FO answers equal a brute-force evaluation of the
        formula over the EDB's ground rows in the window."""
        failures = []
        full = DeductiveEngine(
            core.parse_program(self.program_text), gdb.parse_database(self.edb_text)
        ).run()
        edb = gdb.parse_database(self.edb_text)
        for index, job in result.outputs[part::parts]:
            kind, formula, (low, high) = self.ops[index]
            if job.state != "ok":
                continue
            got = {tuple(row) for row in job.stats["window"]["tuples"]}
            if kind == "fo":
                expected = _fo_oracle(edb, formula, job.model, low, high)
            else:
                expected = _atom_oracle(full, formula, job.model, low, high)
            if got != expected:
                failures.append("job %d (%s %s): answers differ from the oracle" % (index, kind, formula))
        return failures

    def close(self):
        if self.service is not None:
            self.service.close()
            self.service = None


def _atom_oracle(model, formula, answers, low, high):
    """Rows of a single-atom formula ``pred(t; args)`` from a full
    model's window, in the answer's column order."""
    predicate, inside = formula.rstrip(")").split("(", 1)
    temporal, data = (part.strip() for part in inside.split(";"))
    args = [arg.strip() for arg in data.split(",")]
    rows = set()
    for flat in model.extension(predicate, low, high):
        values = dict(zip(args, flat[1:]))
        values[temporal] = flat[0]
        if any(arg.startswith('"') and values[arg] != arg.strip('"') for arg in args):
            continue
        rows.add(tuple(values[var] for var in answers.temporal_vars + answers.data_vars))
    return rows


def _fo_oracle(edb, formula, answers, low, high):
    """Brute force over ground rows for the FO template of
    :func:`programs._goal_pools`: ``A(t; X) and B(u; Y) and u > t and
    u < t + gap and not C(u; Y)``, in the answer's column order."""
    first, second, third = (
        edb.relation(name).extension(low, high) for name in re.findall(r"(seed\d+)\(", formula)
    )
    rows = set()
    for t, x in first:
        for u, y in second:
            if t < u < t + programs.FO_GAP and (u, y) not in third:
                values = {"t": t, "u": u, "X": x, "Y": y}
                rows.add(tuple(values[var] for var in answers.temporal_vars + answers.data_vars))
    return rows


class TxnFresh:
    """One client, closed loop, on a durable store: write transactions
    (commit, a checkpoint every ``CHECKPOINT_EVERY`` commits, then
    ``MaterializedModel.refresh`` until the commit is visible) are the
    ``op`` type; as-of reads (snapshot at a past tx plus a goal-directed
    query) are the ``read`` type."""

    name = "txn_fresh"
    rate = 70.0
    round_ops = 100
    # Writes are 70% inserts, then retractions: p85 is the middle of the
    # retraction mode, not the edge between the two.
    tails = {"op": 0.85, "read": 0.8}
    sample_every = 4 * programs.AUDIT_EVERY  # tx of the maintained models kept for the gate

    def __init__(self, seed, count, salt, workdir):
        initial, warmup, self.ops = programs.txn_ops(seed, count, salt)
        self.root = os.path.join(workdir, "store")
        self.initial = [self._tuple(row) for _name, row in initial]
        self.warmup = [self._prepare(op) for op in warmup]
        self.prepared = [self._prepare(op) for op in self.ops]
        self.store = None
        self.maintained = None
        self.commits = 0

    @staticmethod
    def _tuple(row):
        return parse_generalized_tuple(row, 2, 1)

    def _prepare(self, op):
        if op[0] == "asof":
            return op
        kind, picked = op
        return kind, [
            {"op": kind, "relation": "course", "tuple": self._tuple(row)} for _name, row in picked
        ]

    def setup(self):
        shutil.rmtree(self.root, ignore_errors=True)
        self.store = EdbStore(self.root)
        self.store.apply(
            [{"op": "declare", "relation": "course", "temporal_arity": 2, "data_arity": 1}]
        )
        self.store.apply([{"op": "assert", "relation": "course", "tuple": gt} for gt in self.initial])
        self.maintained = MaterializedModel(
            programs.TXN_PROGRAM, rederive_budget=programs.REDERIVE_BUDGET
        )
        self.maintained.refresh(self.store)
        self._pass(self.warmup, None, None)

    def _write(self, ops):
        self.store.apply(ops)
        self.commits += 1
        if self.commits % programs.CHECKPOINT_EVERY == 0:
            self.store.checkpoint()
        return self.maintained.refresh(self.store)

    def _read(self, tx, window, name):
        snapshot = self.store.snapshot(tx)
        engine = DeductiveEngine(core.parse_program(programs.TXN_PROGRAM), snapshot)
        goal = QueryGoal.windowed("problems", window[0], window[1], {0: name})
        model, _info = engine.run_goal_directed(goal)
        return _rows_of(model, window, name)

    def _pass(self, prepared, result, spans):
        for index, op in enumerate(prepared):
            if result is not None and index % SEGMENT_OPS == 0:
                result.step()
            if spans is not None:
                spans.bind(index)
            slot = "read" if op[0] == "asof" else "op"
            t0 = clock()
            try:
                output = self._read(*op[1:]) if slot == "read" else self._write(op[1])
                ok = True
            except ReproError:
                output, ok = None, False
            t1 = clock()
            if result is None:
                continue
            result.add(slot, t1 - t0, ok)
            if spans is not None:
                spans.root(index, "bench", t0, t1)
            if slot == "read":
                result.outputs.append(("asof", index, op[1], op[2:], output))
            elif ok and self.store.head_tx % self.sample_every == 0:
                result.outputs.append(("model", index, self.store.head_tx, None, output))
        if spans is not None:
            spans.bind(None)

    def run(self, spans=None, meter=None):
        result = Pass(meter)
        started = clock()
        self._pass(self.prepared, result, spans)
        result.step()
        result.wall = clock() - started
        final = self.maintained
        result.outputs.append(("model", len(self.prepared), final.tx, None, final.model))
        return result

    def check(self, result, part=0, parts=1):
        """Sampled maintained models (and the last) are ``equivalent()``
        to a from-scratch fixpoint of the same snapshot; as-of answers
        equal that snapshot's full fixpoint within the read window.  One
        fixpoint per audited tx checks every output at it; ``part`` takes
        every ``parts``-th tx, the txs with a model (the costly check)
        dealt out first."""
        failures = []
        program = core.parse_program(programs.TXN_PROGRAM)
        outputs = [output for output in result.outputs if output[4] is not None]
        models = {tx for kind, _index, tx, _read, _output in outputs if kind == "model"}
        txs = sorted({output[2] for output in outputs}, key=lambda tx: (tx not in models, tx))
        mine = set(txs[part::parts])
        scratch = {}
        for kind, index, tx, read, output in outputs:
            if tx not in mine:
                continue
            if tx not in scratch:
                scratch[tx] = DeductiveEngine(program, self.store.snapshot(tx)).run()
            scratch_model = scratch[tx]
            if kind == "model":
                if not output.equivalent(scratch_model):
                    failures.append("op %d: maintained model at tx %d diverged" % (index, tx))
            elif output != _rows_of(scratch_model, *read):
                failures.append("op %d: as-of answers at tx %d differ" % (index, tx))
        return failures

    def close(self):
        """Seal the WAL and remove the store's files; the in-memory
        store stays readable for the gate."""
        if self.store is not None:
            self.store.close()
        shutil.rmtree(self.root, ignore_errors=True)


def _rows_of(model, window, name):
    """The ``problems`` rows of course ``name`` within ``window``."""
    return {row for row in model.extension("problems", *window) if row[2] == name}


WORKLOADS = {cls.name: cls for cls in (ClosedForm, QueryMix, TxnFresh)}
