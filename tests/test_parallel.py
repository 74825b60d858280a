"""Parallel sharded rounds and the cross-round coverage cache.

The contract under test is exact reproduction: ``parallelism > 1``
shards the firings of each T_GP round across worker processes, and
the merged result — model, per-round stats, checkpoint payloads — is
*identical* to the sequential run, not merely equivalent.  The
Hypothesis property drives that over random stratified programs; the
unit tests pin the coverage-cache semantics (hits on re-tests,
invalidation on insert, events on the bus) and the service-level
parallelism cap.
"""

import json
import multiprocessing
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DeductiveEngine, parse_program
from repro.core import engine as engine_module
from repro.core.safety import CoverageChecker, covered_paper
from repro.gdb import parse_database
from repro.obs.trace import ProfileCollector
from repro.plan import shard
from repro.service.executor import JobExecutor
from repro.service.jobs import JobSpec
from repro.util import hooks

from tests.e14 import workloads
from tests.test_plan_property import edb, program_text

EXAMPLE_41_EDB = """
relation course[2; 1] {
  (168n+8, 168n+10; "database") where T2 = T1 + 2;
}
"""

EXAMPLE_41_PROGRAM = """
problems(t1 + 2, t2 + 2; "database") <- course(t1, t2; "database").
problems(t1 + 48, t2 + 48; X) <- problems(t1, t2; X).
"""


def _run(text, strategy, parallelism, checkpoint_path=None, **kwargs):
    engine = DeductiveEngine(
        parse_program(text),
        edb(),
        strategy=strategy,
        parallelism=parallelism,
        max_rounds=40,
        patience=4,
        on_give_up="partial",
        **kwargs
    )
    model = engine.run(
        checkpoint_path=checkpoint_path,
        checkpoint_every=1 if checkpoint_path else None,
    )
    return engine, model


def _checkpoint_payload(path):
    """The checkpoint JSON with wall-clock fields normalized (they are
    the only run-to-run nondeterminism in the format).  ``None`` when
    the run never accepted a tuple and so never snapshotted."""
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        payload = json.load(handle)
    for key in (
        "elapsed_seconds",
        "prior_elapsed_seconds",
        "segment_elapsed_seconds",
    ):
        payload["stats"][key] = 0.0
    # The sha256 digest covers the raw payload — wall clock included —
    # so it inherits the nondeterminism normalized away just above.
    payload.pop("digest", None)
    return payload


@settings(max_examples=12, deadline=None)
@given(program_text(), st.sampled_from(["naive", "semi-naive"]))
def test_parallel_reproduces_sequential(tmp_path_factory, text, strategy):
    base = tmp_path_factory.mktemp("parallel-prop")
    seq_path = os.path.join(str(base), "seq.ckpt.json")
    par_path = os.path.join(str(base), "par.ckpt.json")
    seq_engine, sequential = _run(text, strategy, 1, checkpoint_path=seq_path)
    par_engine, parallel = _run(text, strategy, 2, checkpoint_path=par_path)
    assert par_engine.fingerprint() == seq_engine.fingerprint()
    assert parallel.predicates() == sequential.predicates()
    for name in sequential.predicates():
        assert parallel.relation(name).equivalent(sequential.relation(name))
    # Stronger than equivalence: the merged derivations are replayed in
    # sequential order, so the canonical texts and the whole per-round
    # history match exactly — including give-up/partial outcomes.
    assert str(parallel) == str(sequential)
    assert parallel.stats.to_dict().keys() == sequential.stats.to_dict().keys()
    assert (
        parallel.stats.new_tuples_per_round
        == sequential.stats.new_tuples_per_round
    )
    assert (
        parallel.stats.derived_tuples_per_round
        == sequential.stats.derived_tuples_per_round
    )
    assert parallel.stats.gave_up == sequential.stats.gave_up
    assert _checkpoint_payload(par_path) == _checkpoint_payload(seq_path)


def test_parallel_example41_trace_shape():
    """The paper's Example 4.1 still closes in 8 rounds when sharded."""
    engine = DeductiveEngine(
        parse_program(EXAMPLE_41_PROGRAM),
        parse_database(EXAMPLE_41_EDB),
        strategy="naive",
        parallelism=2,
    )
    model = engine.run()
    assert model.stats.rounds == 8
    assert model.stats.constraint_safe


def test_parallelism_validation():
    program = parse_program("p(t; X) <- a(t; X).")
    with pytest.raises(ValueError):
        DeductiveEngine(program, edb(), parallelism=0)
    engine = DeductiveEngine(program, edb(), parallelism=None)
    assert engine.parallelism == 1


# -- persistent workers: start methods, wire ledger, auto governor ---------


def _shm_leftovers():
    """Leaked ``repro_shard_*`` shared-memory segments (Linux-visible
    under /dev/shm; elsewhere the parent-side registry assertion in the
    pool tests stands in)."""
    if not os.path.isdir("/dev/shm"):
        return []
    return sorted(
        name
        for name in os.listdir("/dev/shm")
        if name.startswith(shard.SHM_PREFIX)
    )


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_start_methods_reproduce_sequential(monkeypatch, start_method):
    """Satellite: the bootstrap handshake works under both start
    methods, and spawn (no inherited memory at all) still reproduces
    the sequential run exactly and leaks no segments."""
    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip("start method %r unavailable here" % start_method)
    monkeypatch.setenv("REPRO_PARALLEL_START_METHOD", start_method)
    program, database = EXAMPLE_41_PROGRAM, EXAMPLE_41_EDB
    sequential = DeductiveEngine(
        parse_program(program), parse_database(database), strategy="naive"
    ).run()
    engine = DeductiveEngine(
        parse_program(program),
        parse_database(database),
        strategy="naive",
        parallelism=2,
    )
    model = engine.run()
    assert str(model) == str(sequential)
    assert model.stats.new_tuples_per_round == sequential.stats.new_tuples_per_round
    assert model.stats.shard_degraded is None
    assert _shm_leftovers() == []


#: Pipe bytes the retired inline protocol (every payload pickled onto
#: the pipes) moved on E14 multi-chain-6 at parallelism 2 — 450
#: dispatches over 26 rounds, identical across runs.  The shared-memory
#: plane must keep the pipes to control frames: at most a third of that.
INLINE_PIPE_BYTES = 196_348


def test_shm_transport_keeps_bulk_bytes_off_the_pipes():
    """The wire ledger is deterministic: the same run always moves the
    same bytes, so the shm plane's pipe saving is a fixed bar, not a
    timing."""
    program, database = workloads().multi_chain_workload()
    sequential = DeductiveEngine(program, database, strategy="semi-naive").run()
    engine = DeductiveEngine(
        program, database, strategy="semi-naive", parallelism=2
    )
    model = engine.run()
    assert str(model) == str(sequential)
    assert model.stats.new_tuples_per_round == sequential.stats.new_tuples_per_round
    wire = engine.evaluator.shard_wire_stats
    assert wire["dispatches"] == 450
    assert wire["shm_bytes"] > 0 and wire["segments"] > 0
    # Control frames are all that remain on the pipes.
    assert 3 * wire["pipe_bytes"] <= INLINE_PIPE_BYTES
    assert _shm_leftovers() == []


def test_shard_dispatch_events_carry_wire_accounting():
    events = []
    sink = hooks.subscribe(
        lambda kind, fields: events.append(dict(fields))
        if kind == "shard.dispatch"
        else None
    )
    try:
        DeductiveEngine(
            parse_program(EXAMPLE_41_PROGRAM),
            parse_database(EXAMPLE_41_EDB),
            strategy="semi-naive",
            parallelism=2,
        ).run()
    finally:
        hooks.unsubscribe(sink)
    strata = [e for e in events if e["phase"] == "stratum"]
    rounds = [e for e in events if e["phase"] == "round"]
    assert strata and rounds
    for event in events:
        assert event["workers"] == 2
        assert isinstance(event["pipe_bytes"], int)
        assert isinstance(event["shm_bytes"], int)
    assert all("stratum" in e and "segments" in e for e in strata)
    assert all(
        "round" in e and "tasks" in e and "segments" in e for e in rounds
    )
    # The stratum broadcast is the big shm write; rounds ship compact
    # descriptors plus result/accept segments.
    assert sum(e["shm_bytes"] for e in events) > 0


def test_parallel_profile_counts_worker_operators():
    """Satellite: worker-side plan.operator totals reach the parent's
    ProfileCollector, so a parallel profile reports the same invocation
    and cardinality totals as the sequential one."""

    def profile(parallelism):
        collector = ProfileCollector()
        hooks.subscribe(collector)
        try:
            DeductiveEngine(
                parse_program(EXAMPLE_41_PROGRAM),
                parse_database(EXAMPLE_41_EDB),
                strategy="semi-naive",
                parallelism=parallelism,
            ).run()
        finally:
            hooks.SINKS = ()
        return {
            key: (
                entry["invocations"],
                entry["input_tuples"],
                entry["output_tuples"],
            )
            for key, entry in collector.operators.items()
        }

    assert profile(2) == profile(1)


def test_worker_stats_flush_marks_aggregated_events():
    operators = []
    sink = hooks.subscribe(
        lambda kind, fields: operators.append(dict(fields))
        if kind == "plan.operator"
        else None
    )
    try:
        DeductiveEngine(
            parse_program(EXAMPLE_41_PROGRAM),
            parse_database(EXAMPLE_41_EDB),
            strategy="semi-naive",
            parallelism=2,
        ).run()
    finally:
        hooks.unsubscribe(sink)
    aggregated = [e for e in operators if e.get("aggregated")]
    assert aggregated, "worker stats never flushed"
    assert all(e["count"] >= 1 for e in aggregated)
    assert all(e["worker"].startswith("repro-shard-") for e in aggregated)


# -- the --parallel auto governor -------------------------------------------


def test_parallel_auto_validation_and_mode():
    program = parse_program("p(t; X) <- a(t; X).")
    engine = DeductiveEngine(program, edb(), parallelism="auto")
    assert engine.evaluator.parallelism_mode == "auto"
    assert engine.evaluator.parallelism == 1
    with pytest.raises(ValueError):
        DeductiveEngine(program, edb(), parallelism="sometimes")


def test_parallel_auto_single_cpu_stays_sequential(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    sequential = DeductiveEngine(
        parse_program(EXAMPLE_41_PROGRAM),
        parse_database(EXAMPLE_41_EDB),
        strategy="semi-naive",
    ).run()
    model = DeductiveEngine(
        parse_program(EXAMPLE_41_PROGRAM),
        parse_database(EXAMPLE_41_EDB),
        strategy="semi-naive",
        parallelism="auto",
    ).run()
    assert str(model) == str(sequential)
    decision = model.stats.to_dict()["parallel_auto"]
    assert decision == {"decision": "sequential", "reason": "single-cpu"}


def test_parallel_auto_upshift_reproduces_sequential(monkeypatch):
    """Force the governor's hand (zero modeled dispatch overhead, two
    CPUs): the run must upshift mid-stratum and still match sequential
    bit for bit."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(engine_module, "AUTO_DISPATCH_OVERHEAD_S", 0.0)
    sequential = DeductiveEngine(
        parse_program(EXAMPLE_41_PROGRAM),
        parse_database(EXAMPLE_41_EDB),
        strategy="semi-naive",
    ).run()
    engine = DeductiveEngine(
        parse_program(EXAMPLE_41_PROGRAM),
        parse_database(EXAMPLE_41_EDB),
        strategy="semi-naive",
        parallelism="auto",
    )
    model = engine.run()
    assert str(model) == str(sequential)
    assert model.stats.new_tuples_per_round == sequential.stats.new_tuples_per_round
    decision = model.stats.to_dict()["parallel_auto"]
    assert decision["decision"] == "parallel"
    assert decision["workers"] == 2
    assert engine.evaluator.parallelism == 2
    assert _shm_leftovers() == []


def test_parallel_auto_below_threshold_records_decision():
    """With the real overhead model on a fast tiny program, auto may
    legitimately never upshift — but it must always *say* what it
    decided."""
    model = DeductiveEngine(
        parse_program(EXAMPLE_41_PROGRAM),
        parse_database(EXAMPLE_41_EDB),
        strategy="semi-naive",
        parallelism="auto",
    ).run()
    decision = model.stats.to_dict()["parallel_auto"]
    assert decision["decision"] in ("sequential", "parallel")
    if decision["decision"] == "sequential":
        assert decision["reason"] in ("single-cpu", "below-threshold")
    assert _shm_leftovers() == []


def test_cli_parallel_argument_accepts_auto():
    from repro.cli import _parallel_arg

    assert _parallel_arg("auto") == "auto"
    assert _parallel_arg("3") == 3
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        _parallel_arg("many")


# -- coverage cache ---------------------------------------------------------


def _single_tuple(text):
    return parse_database(text).relation("r")


def test_coverage_cache_hits_on_retest():
    relation = _single_tuple("relation r[1; 0] { (2n) where T1 >= 0; }")
    candidate = _single_tuple(
        "relation r[1; 0] { (2n+4) where T1 >= 0; }"
    ).tuples[0]
    checker = CoverageChecker("paper")
    assert checker.covered(candidate, relation)
    assert (checker.hits, checker.misses) == (0, 1)
    assert checker.covered(candidate, relation)
    assert (checker.hits, checker.misses) == (1, 1)


def test_coverage_cache_invalidated_by_insert():
    """A negative verdict must not survive an insert that touches its
    signature — the inserted tuple may be exactly what covers it."""
    relation = _single_tuple("relation r[1; 0] { (4n) where T1 >= 0; }")
    candidate = _single_tuple(
        "relation r[1; 0] { (4n+2) where T1 >= 0; }"
    ).tuples[0]
    checker = CoverageChecker("paper")
    assert not checker.covered(candidate, relation)
    grown = relation.with_tuples([candidate])
    assert grown.coverage_generation == relation.coverage_generation + 1
    assert checker.covered(candidate, grown)
    # The re-test on the grown relation recomputed (miss), then caches.
    assert checker.misses == 2
    assert checker.covered(candidate, grown)
    assert checker.hits == 1


def test_coverage_cache_positive_verdicts_survive_other_inserts():
    """True verdicts are monotone (coverage only grows), so an insert
    at a *different* signature keeps them warm."""
    relation = _single_tuple(
        'relation r[1; 1] { (2n; "x") where T1 >= 0; }'
    )
    covered = _single_tuple(
        'relation r[1; 1] { (2n+4; "x") where T1 >= 0; }'
    ).tuples[0]
    other = _single_tuple(
        'relation r[1; 1] { (3n; "y") where T1 >= 0; }'
    ).tuples[0]
    checker = CoverageChecker("paper")
    assert checker.covered(covered, relation)
    grown = relation.with_tuples([other])
    assert checker.covered(covered, grown)
    assert (checker.hits, checker.misses) == (1, 1)


def test_coverage_cache_events_and_model_identity(monkeypatch):
    """Example 4.1 naive: every verdict the cache answers equals the
    uncached paper test (so the model cannot change), the cache answers
    some re-tests, and the sweep emits ``coverage.cache`` events whose
    per-round deltas add up to the coverage decisions asked."""
    asked = []
    memoized = CoverageChecker.covered

    def checked(self, gt, relation, snapshot=None):
        verdict = memoized(self, gt, relation, snapshot)
        assert verdict == covered_paper(gt, relation)
        asked.append(verdict)
        return verdict

    monkeypatch.setattr(CoverageChecker, "covered", checked)
    events = []
    sink = hooks.subscribe(
        lambda kind, fields: events.append(dict(fields))
        if kind == "coverage.cache"
        else None
    )
    try:
        model = DeductiveEngine(
            parse_program(EXAMPLE_41_PROGRAM),
            parse_database(EXAMPLE_41_EDB),
            strategy="naive",
        ).run()
    finally:
        hooks.unsubscribe(sink)
    assert model.stats.rounds == 8
    assert len(events) == model.stats.rounds
    hits = sum(event["hits"] for event in events)
    misses = sum(event["misses"] for event in events)
    assert hits > 0
    assert hits + misses == len(asked)


def test_free_signature_is_memoized():
    relation = _single_tuple("relation r[1; 0] { (2n) where T1 >= 0; }")
    gt = relation.tuples[0]
    assert gt._free_signature is None
    first = gt.free_signature()
    assert gt._free_signature is first
    assert gt.free_signature() is first


# -- service-level parallelism cap ------------------------------------------


def test_job_spec_parallelism_roundtrip_and_validation():
    spec = JobSpec.from_json_dict(
        {"id": "j", "kind": "run", "program": "x", "parallelism": 3}
    )
    assert spec.parallelism == 3
    auto = JobSpec.from_json_dict(
        {"id": "a", "kind": "run", "program": "x", "parallelism": "auto"}
    )
    assert auto.parallelism == "auto"
    with pytest.raises(ValueError):
        JobSpec(job_id="j", kind="run", parallelism=0)
    with pytest.raises(ValueError):
        JobSpec(job_id="j", kind="run", parallelism="never")


def test_executor_caps_job_parallelism():
    executor = JobExecutor(max_parallelism=2)
    capped = JobSpec(job_id="j", kind="run", parallelism=8)
    modest = JobSpec(job_id="k", kind="run", parallelism=1)
    default = JobSpec(job_id="l", kind="run")
    assert executor.effective_parallelism(capped) == 2
    assert executor.effective_parallelism(modest) == 1
    assert executor.effective_parallelism(default) == 1
    uncapped = JobExecutor()
    assert uncapped.effective_parallelism(capped) == 8
    # "auto" passes through — the engine's governor decides, bounded
    # by the same cap (the executor hands it auto_parallelism_cap).
    auto = JobSpec(job_id="m", kind="run", parallelism="auto")
    assert executor.effective_parallelism(auto) == "auto"
    assert uncapped.effective_parallelism(auto) == "auto"
