"""Chaos tests for the supervised shard pool.

The invariant under attack: no matter which shard workers die when —
SIGKILLed mid-round, wedged past the recv deadline, unplugged at
dispatch — a parallel run's model, per-round stats, and checkpoint
payloads stay *identical* to the sequential run.  A healed pool leaves
no mark on the stats (only ``shard.worker`` trace events); an
unhealable pool degrades the rest of the run to sequential in-process
evaluation, recorded in ``stats.shard_degraded`` and announced as
``shard.degraded``, and still completes exactly.  Every exit — healed,
degraded, budget trip, give-up, checkpoint fault, plain close — must
leave a clean process table.
"""

import multiprocessing
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DeductiveEngine, parse_program
from repro.gdb import parse_database
from repro.plan.shard import ShardPool
from repro.runtime.budget import EvaluationBudget
from repro.runtime.faults import FaultPlan
from repro.service import JobSpec, QueryService
from repro.util import hooks
from repro.util.errors import (
    BudgetExceededError,
    EvaluationAbortedError,
    GiveUpError,
)

from tests.test_parallel import (
    EXAMPLE_41_EDB,
    EXAMPLE_41_PROGRAM,
    _checkpoint_payload,
    _shm_leftovers,
)

PROGRAM = parse_program(EXAMPLE_41_PROGRAM)
EDB = parse_database(EXAMPLE_41_EDB)


def _shard_children():
    """Live shard worker processes (the leak detector)."""
    # Reap any workers that already exited so is-alive is accurate.
    return [
        process
        for process in multiprocessing.active_children()
        if process.name.startswith("repro-shard-") and process.is_alive()
    ]


def _assert_no_leak():
    # close() joins with timeouts, so anything still alive here leaked.
    deadline = time.monotonic() + 5.0
    while _shard_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _shard_children() == []
    # Satellite: every exit path must also unlink every shared-memory
    # segment the stratum broadcast and round replies created.
    assert _shm_leftovers() == []


def _engine(**kwargs):
    kwargs.setdefault("strategy", "semi-naive")
    kwargs.setdefault("parallelism", 2)
    kwargs.setdefault("shard_recv_deadline", 15.0)
    return DeductiveEngine(PROGRAM, EDB, **kwargs)


def _run(plan=None, checkpoint_path=None, **kwargs):
    engine = _engine(**kwargs)
    run_kwargs = {}
    if checkpoint_path is not None:
        run_kwargs = {"checkpoint_path": checkpoint_path, "checkpoint_every": 1}
    if plan is None:
        return engine.run(**run_kwargs)
    with plan.installed():
        return engine.run(**run_kwargs)


@pytest.fixture(scope="module")
def sequential(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("seq") / "seq.ckpt.json")
    model = DeductiveEngine(PROGRAM, EDB, strategy="semi-naive").run(
        checkpoint_path=path, checkpoint_every=1
    )
    return model, path


def _assert_identical(model, sequential_pair):
    baseline, _ = sequential_pair
    assert model.equivalent(baseline)
    assert str(model) == str(baseline)
    assert model.stats.rounds == baseline.stats.rounds
    assert model.stats.new_tuples_per_round == baseline.stats.new_tuples_per_round
    assert (
        model.stats.derived_tuples_per_round
        == baseline.stats.derived_tuples_per_round
    )


class TestHealedFaults:
    """Worker losses the pool absorbs: stats and checkpoints must be
    byte-identical to sequential, with no trace of the supervision."""

    def test_sigkill_mid_round(self, sequential, tmp_path):
        path = str(tmp_path / "crash.ckpt.json")
        events = []
        sink = hooks.subscribe(
            lambda kind, fields: events.append((kind, dict(fields)))
            if kind.startswith("shard.")
            else None
        )
        try:
            model = _run(
                plan=FaultPlan.inject("shard_worker_crash", at=3),
                checkpoint_path=path,
            )
        finally:
            hooks.unsubscribe(sink)
        _assert_identical(model, sequential)
        assert model.stats.shard_degraded is None
        assert "shard_degraded" not in model.stats.to_dict()
        assert _checkpoint_payload(path) == _checkpoint_payload(sequential[1])
        phases = [f["phase"] for k, f in events if k == "shard.worker"]
        assert "lost" in phases and "retry" in phases
        lost = next(f for k, f in events if k == "shard.worker" and f["phase"] == "lost")
        # SIGKILL delivery races the dispatch send: the death is seen
        # either at send time or at receive time, both as a crash.
        assert lost["reason"] == "crash"
        assert lost["exitcode"] is None or lost["exitcode"] < 0
        _assert_no_leak()

    def test_hang_past_recv_deadline(self, sequential, tmp_path):
        path = str(tmp_path / "hang.ckpt.json")
        events = []
        sink = hooks.subscribe(
            lambda kind, fields: events.append(dict(fields))
            if kind == "shard.worker"
            else None
        )
        try:
            model = _run(
                plan=FaultPlan.inject("shard_worker_hang", at=2),
                checkpoint_path=path,
                shard_recv_deadline=0.75,
            )
        finally:
            hooks.unsubscribe(sink)
        _assert_identical(model, sequential)
        assert model.stats.shard_degraded is None
        assert _checkpoint_payload(path) == _checkpoint_payload(sequential[1])
        assert any(f.get("reason") == "hang" for f in events)
        _assert_no_leak()

    def test_dispatch_pipe_fault(self, sequential, tmp_path):
        path = str(tmp_path / "dispatch.ckpt.json")
        model = _run(
            plan=FaultPlan.inject("shard_dispatch", at=2),
            checkpoint_path=path,
        )
        _assert_identical(model, sequential)
        assert model.stats.shard_degraded is None
        assert _checkpoint_payload(path) == _checkpoint_payload(sequential[1])
        _assert_no_leak()

    def test_sigkill_heals_under_spawn(self, sequential, monkeypatch):
        """A spawn-mode pool (private memory, private resource
        trackers) must heal a mid-round kill exactly like fork — and
        the dying worker's tracker must not unlink segments the
        survivors still need."""
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn unavailable here")
        monkeypatch.setenv("REPRO_PARALLEL_START_METHOD", "spawn")
        model = _run(plan=FaultPlan.inject("shard_worker_crash", at=3))
        _assert_identical(model, sequential)
        assert model.stats.shard_degraded is None
        _assert_no_leak()

    @settings(max_examples=6, deadline=None)
    @given(hit=st.integers(min_value=1, max_value=12))
    def test_random_kill_schedule_never_changes_model(self, sequential, hit):
        """Property: killing whichever worker makes the ``hit``-th round
        dispatch (any round, either worker, including hits the run never
        reaches) does not change the model or the per-round history."""
        model = _run(plan=FaultPlan.inject("shard_worker_crash", at=hit))
        _assert_identical(model, sequential)
        assert model.stats.shard_degraded is None
        _assert_no_leak()


class TestDegradation:
    """Unhealable losses: the run downshifts, completes exactly, and
    says so."""

    def test_full_pool_loss_degrades_to_sequential(self, sequential):
        events = []
        sink = hooks.subscribe(
            lambda kind, fields: events.append((kind, dict(fields)))
            if kind.startswith("shard.")
            else None
        )
        try:
            model = _run(
                plan=FaultPlan.inject("shard_worker_crash", at=1, repeat=True)
            )
        finally:
            hooks.unsubscribe(sink)
        _assert_identical(model, sequential)
        degraded = model.stats.shard_degraded
        assert degraded is not None
        assert degraded["restarts_used"] == 2
        assert model.stats.to_dict()["shard_degraded"] == degraded
        downshifts = [f for k, f in events if k == "shard.degraded"]
        assert len(downshifts) == 1
        assert downshifts[0]["reason"] == degraded["reason"]
        _assert_no_leak()

    def test_degraded_checkpoint_resumes(self, sequential, tmp_path):
        """A degraded run's checkpoint differs from sequential only by
        the shard_degraded stats key — and still resumes exactly."""
        path = str(tmp_path / "degraded.ckpt.json")
        model = _run(
            plan=FaultPlan.inject("shard_worker_crash", at=1, repeat=True),
            checkpoint_path=path,
        )
        assert model.stats.shard_degraded is not None
        payload = _checkpoint_payload(path)
        baseline = _checkpoint_payload(sequential[1])
        assert payload["stats"].pop("shard_degraded") is not None
        assert payload == baseline
        resumed = DeductiveEngine(PROGRAM, EDB, strategy="semi-naive").run(
            resume_from=path
        )
        assert str(resumed) == str(sequential[0])
        _assert_no_leak()

    def test_no_fallback_raises(self):
        engine = _engine(shard_fallback=False)
        plan = FaultPlan.inject("shard_worker_crash", at=1, repeat=True)
        with plan.installed():
            with pytest.raises(EvaluationAbortedError) as excinfo:
                engine.run()
        assert excinfo.value.partial_model is not None
        _assert_no_leak()

    def test_zero_restarts_still_heals_on_survivors(self, sequential):
        """With the respawn budget at 0, a single crash must be healed
        purely by re-dealing to the survivor."""
        model = _run(
            plan=FaultPlan.inject("shard_worker_crash", at=3),
            shard_max_restarts=0,
        )
        _assert_identical(model, sequential)
        assert model.stats.shard_degraded is None
        _assert_no_leak()


class TestLeakFreeExits:
    """Satellite: every engine exit from a parallel run closes the pool."""

    def test_budget_trip_closes_pool(self):
        engine = _engine()
        with pytest.raises(BudgetExceededError):
            engine.run(budget=EvaluationBudget(max_rounds=2))
        _assert_no_leak()

    def test_give_up_closes_pool(self):
        engine = _engine(max_rounds=3, on_give_up="raise")
        with pytest.raises(GiveUpError):
            engine.run()
        _assert_no_leak()

    def test_checkpoint_fault_closes_pool(self, tmp_path):
        engine = _engine()
        plan = FaultPlan.inject("checkpoint_write", at=1)
        with plan.installed():
            with pytest.raises(EvaluationAbortedError):
                engine.run(
                    checkpoint_path=str(tmp_path / "ck.json"),
                    checkpoint_every=1,
                )
        _assert_no_leak()

    def test_pool_is_context_manager(self):
        with ShardPool(str(PROGRAM), str(EDB), "compiled", 2) as pool:
            pool.ensure_started()
            assert pool.started()
            assert len(_shard_children()) == 2
        assert not pool.started()
        _assert_no_leak()

    def test_close_escalates_past_hung_worker(self):
        """close() must come back promptly even when a worker ignores
        the cooperative stop (wedged in the chaos hang loop)."""
        pool = ShardPool(str(PROGRAM), str(EDB), "compiled", 2)
        pool.ensure_started()
        pool._workers[0].connection.send({"op": "hang"})
        time.sleep(0.2)  # let the worker enter the hang loop
        started = time.monotonic()
        pool.close()
        assert time.monotonic() - started < 10.0
        _assert_no_leak()

    def test_close_is_idempotent(self):
        pool = ShardPool(str(PROGRAM), str(EDB), "compiled", 2)
        pool.ensure_started()
        pool.close()
        pool.close()
        _assert_no_leak()


class TestServiceIntegration:
    """A parallelism job that loses its pool completes in one attempt
    with the downshift on the degradation ladder."""

    def test_shard_degradation_annotated_not_retried(self, tmp_path):
        spec = JobSpec(
            "chaos",
            "run",
            program=EXAMPLE_41_PROGRAM,
            edb=EXAMPLE_41_EDB,
            parallelism=2,
        )
        plan = FaultPlan.inject("shard_worker_crash", at=1, repeat=True)
        with plan.installed():
            with QueryService(
                workers=1,
                max_parallelism=2,
                default_deadline=120.0,
                work_dir=str(tmp_path),
            ) as svc:
                results = svc.run_batch([spec])
                stats = svc.stats()
        (result,) = results
        assert result.state == "ok"
        assert result.attempts == 1
        assert "shard-sequential" in result.degradation
        assert result.stats["shard_degraded"] is not None
        assert stats["jobs"]["degraded_shard"] == 1
        _assert_no_leak()

    def test_healed_job_carries_no_annotation(self, tmp_path):
        spec = JobSpec(
            "healed",
            "run",
            program=EXAMPLE_41_PROGRAM,
            edb=EXAMPLE_41_EDB,
            parallelism=2,
        )
        plan = FaultPlan.inject("shard_worker_crash", at=3)
        with plan.installed():
            with QueryService(
                workers=1,
                max_parallelism=2,
                default_deadline=120.0,
                work_dir=str(tmp_path),
            ) as svc:
                results = svc.run_batch([spec])
                stats = svc.stats()
        (result,) = results
        assert result.state == "ok"
        assert result.degradation == []
        assert stats["jobs"]["degraded_shard"] == 0
        _assert_no_leak()


def test_shard_recv_deadline_validation():
    with pytest.raises(ValueError):
        ShardPool(str(PROGRAM), str(EDB), "compiled", 2, recv_deadline=0)
    with pytest.raises(ValueError):
        ShardPool(str(PROGRAM), str(EDB), "compiled", 2, max_restarts=-1)


def test_trace_schema_knows_shard_kinds(tmp_path):
    """tools/check_trace.py accepts the supervision events a faulted
    run writes (the CI chaos job relies on this)."""
    import importlib.util
    import json as _json

    spec = importlib.util.spec_from_file_location(
        "check_trace",
        os.path.join(os.path.dirname(__file__), "..", "tools", "check_trace.py"),
    )
    check_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_trace)
    path = str(tmp_path / "trace.jsonl")
    events = [
        {
            "seq": 1,
            "ts": 0.1,
            "kind": "shard.worker",
            "phase": "lost",
            "worker": "repro-shard-0",
            "reason": "crash",
            "exitcode": -9,
            "round": 1,
        },
        {
            "seq": 2,
            "ts": 0.2,
            "kind": "shard.worker",
            "phase": "respawn",
            "worker": "repro-shard-2",
            "restarts_used": 1,
            "round": 1,
        },
        {
            "seq": 3,
            "ts": 0.3,
            "kind": "shard.worker",
            "phase": "retry",
            "worker": "repro-shard-2",
            "tasks": 1,
            "round": 1,
        },
        {
            "seq": 4,
            "ts": 0.4,
            "kind": "shard.degraded",
            "reason": "lost",
            "restarts_used": 2,
            "pending_tasks": 2,
        },
    ]
    with open(path, "w") as handle:
        for event in events:
            handle.write(_json.dumps(event) + "\n")
    assert check_trace.check(path, require_kinds=["shard.worker", "shard.degraded"]) == []
    assert check_trace.check(path, require_kinds=["engine.run"]) != []
