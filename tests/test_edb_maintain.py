"""Incremental model maintenance: after every delta batch the
maintained model must be ``equivalent()`` to a from-scratch fixpoint
over the same snapshot — whether the refresh took the warm insert
path, DRed overdelete/rederive, or degraded to a recompute.
"""

import pytest

from repro.core import DeductiveEngine, parse_program
from repro.edb import MAINTAINERS, EdbStore, MaintainerCache, MaterializedModel
from repro.edb import maintain
from repro.gdb import GeneralizedTuple
from repro.gdb.parser import parse_generalized_tuple
from repro.runtime.faults import FaultPlan, InjectedFaultError
from repro.util import hooks

PROGRAM = """
problems(t1 + 2, t2 + 2; X) <- course(t1, t2; X).
problems(t1 + 48, t2 + 48; X) <- problems(t1, t2; X).
"""

NEGATION = """
quiet(t) <- slot(t), not busy(t).
"""

COURSE = '(168n+8, 168n+10; "database") where T2 = T1 + 2'
LOGIC = '(168n+20, 168n+22; "logic") where T2 = T1 + 2'
ALGEBRA = '(168n+60, 168n+62; "algebra") where T2 = T1 + 2'
#: COURSE's class a shift of 48 later: its problems chain is COURSE's
#: from the second link on, so each of those tuples has two derivations.
DATABASE_LATER = '(168n+56, 168n+58; "database") where T2 = T1 + 2'
#: LOGIC's class a shift of 48 later.
LOGIC_LATER = '(168n+68, 168n+70; "logic") where T2 = T1 + 2'


def gt(text, ta=2, da=1):
    return parse_generalized_tuple(text, ta, da)


def declare_course():
    return {
        "op": "declare",
        "relation": "course",
        "temporal_arity": 2,
        "data_arity": 1,
    }


def assert_course(text):
    return {"op": "assert", "relation": "course", "tuple": gt(text)}


def retract_course(text):
    return {"op": "retract", "relation": "course", "tuple": gt(text)}


def stream_course(index):
    """The ``index``-th course of a stream of distinct courses."""
    offset = 7 * (index % 23)
    return '(168n+%d, 168n+%d; "c%d") where T2 = T1 + 2' % (offset, offset + 2, index)


def scratch_model(store, tx=None, program=PROGRAM):
    engine = DeductiveEngine(parse_program(program), store.snapshot(tx))
    return engine.run()


@pytest.fixture
def store(tmp_path):
    handle = EdbStore(str(tmp_path / "store"))
    handle.apply([declare_course(), assert_course(COURSE)])
    yield handle
    handle.close()


class TestInsertMaintenance:
    def test_first_refresh_materializes(self, store):
        maintained = MaterializedModel(PROGRAM)
        model = maintained.refresh(store)
        assert model.equivalent(scratch_model(store))
        assert maintained.last_report.recomputed is True
        assert maintained.last_report.reason is None
        # A first materialization is not a degradation.
        assert model.stats.maintain_degraded is None

    def test_insert_delta_is_incremental_and_equivalent(self, store):
        maintained = MaterializedModel(PROGRAM)
        maintained.refresh(store)
        scratch_rounds = maintained.last_report.rounds
        store.apply([assert_course(LOGIC)])
        model = maintained.refresh(store)
        assert maintained.last_report.recomputed is False
        assert maintained.last_report.inserted == 1
        assert maintained.last_report.rounds <= scratch_rounds
        assert model.equivalent(scratch_model(store))
        assert model.stats.maintain_degraded is None

    def test_covered_insert_converges_in_one_round(self, store):
        # A course inside an already-derived residue class: all of its
        # problems derivations are covered, so the warm fixpoint closes
        # after a single round instead of re-walking the mod-168 cycle.
        maintained = MaterializedModel(PROGRAM)
        maintained.refresh(store)
        scratch_rounds = maintained.last_report.rounds
        store.apply(
            [assert_course('(168n+32, 168n+34; "database") where T2 = T1 + 2')]
        )
        model = maintained.refresh(store)
        assert maintained.last_report.recomputed is False
        assert maintained.last_report.rounds < scratch_rounds
        assert model.equivalent(scratch_model(store))

    def test_refresh_at_head_is_noop(self, store):
        maintained = MaterializedModel(PROGRAM)
        first = maintained.refresh(store)
        assert maintained.refresh(store) is first

    def test_cancelled_delta_keeps_model(self, store):
        maintained = MaterializedModel(PROGRAM)
        first = maintained.refresh(store)
        store.apply([assert_course(LOGIC)])
        store.apply([retract_course(LOGIC)])
        model = maintained.refresh(store)
        assert model is first
        assert maintained.last_report.rounds == 0
        assert maintained.tx == store.head_tx


class TestMaintainAgainstRecompute:
    def test_insert_refreshes_derive_less_than_scratch_runs(self, tmp_path):
        # A stream of single-course commits: every refreshed model
        # equals a from-scratch run of its snapshot, and the inserts'
        # warm refreshes together derive fewer tuples than those runs.
        # Work counts, not wall clock: the timed claim is perfbench's
        # txn_fresh workload.
        store = EdbStore(str(tmp_path / "store"))
        try:
            store.apply([declare_course(), assert_course(stream_course(0))])
            maintained = MaterializedModel(PROGRAM)
            maintained.refresh(store)
            refresh_work = scratch_work = 0
            for index in range(1, 9):
                store.apply([assert_course(stream_course(index))])
                model = maintained.refresh(store)
                assert maintained.last_report.recomputed is False
                scratch = scratch_model(store)
                assert model.equivalent(scratch)
                refresh_work += sum(model.stats.derived_tuples_per_round)
                scratch_work += sum(scratch.stats.derived_tuples_per_round)
            for index in (1, 2):
                store.apply([retract_course(stream_course(index))])
                assert maintained.refresh(store).equivalent(scratch_model(store))
        finally:
            store.close()
        assert refresh_work < scratch_work, (refresh_work, scratch_work)


class TestCarriedStore:
    """A refresh grows the previous model's relations in place of
    rebuilding them: structure, not timing (perfbench's txn_fresh
    carries the wall-clock claim)."""

    def test_insert_refresh_extends_the_models_column_store(self, store, monkeypatch):
        maintained = MaterializedModel(PROGRAM)
        before = maintained.refresh(store).relation("problems")
        old_rows = list(before.tuples)
        store.apply([assert_course(LOGIC)])
        scanned = []
        is_empty = GeneralizedTuple.is_empty

        def counting_is_empty(gt):
            scanned.append(gt)
            return is_empty(gt)

        monkeypatch.setattr(GeneralizedTuple, "is_empty", counting_is_empty)
        after = maintained.refresh(store).relation("problems")
        monkeypatch.undo()
        assert maintained.last_report.recomputed is False
        assert len(after) > len(old_rows)
        # The same store object, the old rows a prefix of its rows.
        assert after._store is before._store
        assert after._store.rows[: len(old_rows)] == old_rows
        assert list(after.tuples[: len(old_rows)]) == old_rows
        # The sweep checked new tuples for emptiness, no old row again.
        assert scanned
        assert not [gt for gt in scanned if any(gt is row for row in old_rows)]

    def test_alternating_inserts_and_retractions_stay_equivalent(self, store):
        maintained = MaterializedModel(PROGRAM)
        maintained.refresh(store)
        live = [COURSE]
        for step in range(20):
            if step % 2 == 0:
                live.append(stream_course(step))
                store.apply([assert_course(live[-1])])
            else:
                store.apply([retract_course(live.pop(0))])
            model = maintained.refresh(store)
            assert maintained.last_report.recomputed is False
            assert model.equivalent(scratch_model(store)), step


class TestRetractionMaintenance:
    def test_dred_equivalent_to_scratch(self, store):
        store.apply([assert_course(LOGIC)])
        maintained = MaterializedModel(PROGRAM)
        maintained.refresh(store)
        store.apply([retract_course(LOGIC)])
        model = maintained.refresh(store)
        assert maintained.last_report.recomputed is False
        assert maintained.last_report.retracted == 1
        assert maintained.last_report.overdeleted > 0
        assert model.equivalent(scratch_model(store))

    def test_retract_everything(self, store):
        maintained = MaterializedModel(PROGRAM)
        maintained.refresh(store)
        store.apply([retract_course(COURSE)])
        model = maintained.refresh(store)
        assert model.equivalent(scratch_model(store))
        low, high = 0, 400
        assert list(model.extension("problems", low, high)) == []

    def test_mixed_insert_and_retract(self, store):
        store.apply([assert_course(LOGIC)])
        maintained = MaterializedModel(PROGRAM)
        maintained.refresh(store)
        store.apply([retract_course(LOGIC), assert_course(ALGEBRA)])
        model = maintained.refresh(store)
        assert model.equivalent(scratch_model(store))

    def test_overdeleted_tuple_with_second_derivation_is_rederived(self, store):
        # Retracting DATABASE_LATER overdeletes the whole database
        # chain; COURSE still derives its first link, which the
        # rederive step accepts back and the fixpoint re-grows from.
        store.apply([assert_course(DATABASE_LATER)])
        maintained = MaterializedModel(PROGRAM)
        maintained.refresh(store)
        store.apply([retract_course(DATABASE_LATER)])
        events = []
        with hooks.subscribed(lambda kind, fields: events.append((kind, fields))):
            model = maintained.refresh(store)
        report = maintained.last_report
        assert report.recomputed is False
        assert report.overdeleted == 7
        assert report.rederived == 1
        assert report.rounds > 0
        assert model.equivalent(scratch_model(store))
        (delta,) = [fields for kind, fields in events if kind == "maintain.delta"]
        assert delta["rederived"] == 1

    def test_insert_re_supports_an_overdeleted_tuple(self, store):
        # One batch retracts LOGIC and asserts LOGIC_LATER, whose
        # problems chain is LOGIC's from the second link on.
        store.apply([assert_course(LOGIC)])
        maintained = MaterializedModel(PROGRAM)
        maintained.refresh(store)
        store.apply([retract_course(LOGIC), assert_course(LOGIC_LATER)])
        model = maintained.refresh(store)
        report = maintained.last_report
        assert report.recomputed is False
        assert report.overdeleted == 7
        assert report.rederived == 1
        assert model.equivalent(scratch_model(store))

    def test_one_course_retraction_costs_no_round(self, tmp_path):
        # The perfbench txn_fresh shape: 24 courses, each deriving 7
        # problems tuples nothing else derives, under its DRed budget
        # of 16.  Retracting one overdeletes its 7 tuples, rederives
        # none, and leaves nothing for the fixpoint to do.
        store = EdbStore(str(tmp_path / "store"))
        try:
            store.apply(
                [declare_course()]
                + [assert_course(stream_course(index)) for index in range(24)]
            )
            maintained = MaterializedModel(PROGRAM, rederive_budget=16)
            maintained.refresh(store)
            store.apply([retract_course(stream_course(5))])
            model = maintained.refresh(store)
            report = maintained.last_report
            assert report.recomputed is False
            assert (report.overdeleted, report.rederived, report.rounds) == (7, 0, 0)
            assert model.equivalent(scratch_model(store))
        finally:
            store.close()

    def test_rederive_budget_degrades_to_recompute(self, store):
        maintained = MaterializedModel(PROGRAM, rederive_budget=0)
        maintained.refresh(store)
        store.apply([retract_course(COURSE)])
        model = maintained.refresh(store)
        assert maintained.last_report.recomputed is True
        assert maintained.last_report.reason == "rederive-budget"
        assert model.stats.maintain_degraded["reason"] == "rederive-budget"
        assert model.equivalent(scratch_model(store))

    def test_rederive_budget_fallback_takes_one_snapshot(self, store, monkeypatch):
        """The recompute reuses the engine the delta path built over
        the target snapshot instead of taking a second one."""
        maintained = MaterializedModel(PROGRAM, rederive_budget=0)
        maintained.refresh(store)
        store.apply([retract_course(COURSE)])
        taken = []
        snapshot = EdbStore.snapshot

        def counting(handle, *args, **kwargs):
            taken.append(args)
            return snapshot(handle, *args, **kwargs)

        monkeypatch.setattr(EdbStore, "snapshot", counting)
        model = maintained.refresh(store)
        assert maintained.last_report.reason == "rederive-budget"
        assert len(taken) == 1
        monkeypatch.undo()
        assert model.equivalent(scratch_model(store))


class TestDegradation:
    def test_schema_change_recomputes(self, store):
        maintained = MaterializedModel(PROGRAM)
        maintained.refresh(store)
        store.apply(
            [
                {
                    "op": "declare",
                    "relation": "extra",
                    "temporal_arity": 1,
                    "data_arity": 0,
                },
                assert_course(LOGIC),
            ]
        )
        model = maintained.refresh(store)
        assert maintained.last_report.reason == "schema-change"
        assert model.stats.maintain_degraded["reason"] == "schema-change"
        assert model.equivalent(scratch_model(store))

    def test_negation_recomputes(self, tmp_path):
        store = EdbStore(str(tmp_path / "store"))
        store.apply(
            [
                {"op": "declare", "relation": "slot", "temporal_arity": 1, "data_arity": 0},
                {"op": "declare", "relation": "busy", "temporal_arity": 1, "data_arity": 0},
                {"op": "assert", "relation": "slot", "tuple": gt("(24n)", 1, 0)},
            ]
        )
        maintained = MaterializedModel(NEGATION)
        maintained.refresh(store)
        store.apply([{"op": "assert", "relation": "busy", "tuple": gt("(24n+12)", 1, 0)}])
        model = maintained.refresh(store)
        assert maintained.last_report.reason == "not-maintainable"
        assert model.equivalent(scratch_model(store, program=NEGATION))
        store.close()

    def test_negation_retraction_recomputes(self, tmp_path):
        # Overdeletion cannot fire a negated clause without its
        # complement: a retraction under negation recomputes up front.
        store = EdbStore(str(tmp_path / "store"))
        store.apply(
            [
                {"op": "declare", "relation": "slot", "temporal_arity": 1, "data_arity": 0},
                {"op": "declare", "relation": "busy", "temporal_arity": 1, "data_arity": 0},
                {"op": "assert", "relation": "slot", "tuple": gt("(24n)", 1, 0)},
                {"op": "assert", "relation": "slot", "tuple": gt("(24n+12)", 1, 0)},
                {"op": "assert", "relation": "busy", "tuple": gt("(24n+12)", 1, 0)},
            ]
        )
        maintained = MaterializedModel(NEGATION)
        maintained.refresh(store)
        store.apply([{"op": "retract", "relation": "slot", "tuple": gt("(24n)", 1, 0)}])
        model = maintained.refresh(store)
        assert maintained.last_report.reason == "not-maintainable"
        assert model.equivalent(scratch_model(store, program=NEGATION))
        store.close()

    def test_asof_before_model_recomputes(self, store):
        store.apply([assert_course(LOGIC)])
        maintained = MaterializedModel(PROGRAM)
        maintained.refresh(store)
        model = maintained.refresh(store, tx=1)
        assert maintained.last_report.reason == "as-of-before-model"
        assert model.equivalent(scratch_model(store, tx=1))
        # The materialization now tracks tx=1 and can roll forward.
        model = maintained.refresh(store)
        assert model.equivalent(scratch_model(store))


class TestFaultSite:
    def test_maintain_delta_fault_leaves_model_intact(self, store):
        maintained = MaterializedModel(PROGRAM)
        before = maintained.refresh(store)
        store.apply([assert_course(LOGIC)])
        plan = FaultPlan.inject("maintain_delta", at=1)
        with plan.installed():
            with pytest.raises(InjectedFaultError):
                maintained.refresh(store)
        # The fault fired before the model was touched: the previous
        # materialization (and its tx) survive, and a retry catches up.
        assert maintained.model is before
        assert maintained.tx == 1
        model = maintained.refresh(store)
        assert model.equivalent(scratch_model(store))


class TestEvents:
    def test_maintain_delta_event(self, store):
        maintained = MaterializedModel(PROGRAM)
        events = []
        with hooks.subscribed(lambda kind, fields: events.append((kind, fields))):
            maintained.refresh(store)
            store.apply([assert_course(LOGIC)])
            maintained.refresh(store)
        deltas = [fields for kind, fields in events if kind == "maintain.delta"]
        assert len(deltas) == 2
        assert deltas[0]["recomputed"] is True
        assert deltas[1]["recomputed"] is False
        assert deltas[1]["inserted"] == 1
        assert deltas[1]["rederived"] == 0
        assert deltas[1]["tx"] == 2


class TestMaintainerCache:
    def test_shared_per_store_and_program(self, tmp_path):
        cache = MaintainerCache()
        a = cache.get("/x", PROGRAM)
        assert cache.get("/x", PROGRAM) is a
        assert cache.get("/y", PROGRAM) is not a
        assert cache.get("/x", NEGATION) is not a
        assert len(cache) == 3

    def test_oldest_entry_evicted_past_cap(self, monkeypatch):
        monkeypatch.setattr(maintain, "MAINTAINER_CAP", 2)
        cache = MaintainerCache()
        oldest = cache.get("/x", PROGRAM)
        newer = cache.get("/y", PROGRAM)
        assert cache.get("/y", PROGRAM) is newer
        cache.get("/z", PROGRAM)
        assert len(cache) == 2
        assert cache.get("/y", PROGRAM) is newer
        assert cache.get("/x", PROGRAM) is not oldest

    def test_invalidate_by_root(self):
        cache = MaintainerCache()
        cache.get("/x", PROGRAM)
        cache.get("/y", PROGRAM)
        cache.invalidate("/x")
        assert len(cache) == 1
        cache.invalidate()
        assert len(cache) == 0

    def test_commits_need_no_invalidation(self, store):
        cache = MaintainerCache()
        maintained = cache.get(store.root, PROGRAM)
        maintained.refresh(store)
        store.apply([assert_course(LOGIC)])
        # The same cached entry simply catches up by transaction id.
        model = cache.get(store.root, PROGRAM).refresh(store)
        assert model.equivalent(scratch_model(store))

    def test_module_level_cache_exists(self):
        assert isinstance(MAINTAINERS, MaintainerCache)
