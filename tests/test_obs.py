"""The observability layer: the typed event bus in ``util.hooks``, the
metrics registry (counters, gauges, fixed-bucket histograms with an
injectable clock), the JSONL trace recorder, and the profile collector
that ties plan-operator events back to the engine's per-round stats."""

import json
import threading

import pytest

from repro.core import DeductiveEngine, parse_program
from repro.gdb import parse_database
from repro.obs import DEFAULT_BUCKETS, MetricsRegistry, ProfileCollector, TraceRecorder
from repro.util import hooks

EDB = """
relation course[2; 1] {
  (168n+8, 168n+10; "database") where T2 = T1 + 2;
}
"""

PROGRAM = """
problems(t1 + 2, t2 + 2; X) <- course(t1, t2; X).
problems(t1 + 48, t2 + 48; X) <- problems(t1, t2; X).
"""


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestEventBus:
    def test_no_sinks_by_default(self):
        assert hooks.SINKS == ()
        assert not hooks.active()
        hooks.emit("engine.round", {"round": 1})  # silently dropped

    def test_subscribed_installs_and_removes(self):
        events = []
        with hooks.subscribed(lambda kind, fields: events.append((kind, fields))):
            assert hooks.active()
            hooks.emit("engine.round", {"round": 1})
        assert not hooks.active()
        hooks.emit("engine.round", {"round": 2})
        assert events == [("engine.round", {"round": 1})]

    def test_subscriber_exceptions_are_swallowed(self):
        good = []

        def bad(kind, fields):
            raise RuntimeError("sink crashed")

        with hooks.subscribed(bad, lambda kind, fields: good.append(kind)):
            hooks.emit("plan.operator", {})
        assert good == ["plan.operator"]

    def test_unsubscribe_is_idempotent(self):
        sink = lambda kind, fields: None  # noqa: E731
        hooks.subscribe(sink)
        hooks.unsubscribe(sink)
        hooks.unsubscribe(sink)
        assert hooks.SINKS == ()


class TestMetrics:
    def test_counter_monotone(self):
        reg = MetricsRegistry()
        counter = reg.counter("jobs_total", "Jobs.")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("depth", "Depth.")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7

    def test_registration_idempotent_and_conflicts_typed(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "X.")
        assert reg.counter("x_total") is a
        with pytest.raises(ValueError):
            reg.gauge("x_total")

    def test_histogram_bucketing_boundaries(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", "Latency.", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.1, 0.5, 1.0, 5.0, 50.0):
            hist.observe(value)
        # Cumulative le-buckets: bounds are inclusive upper edges.
        assert hist.bucket_counts() == [
            (0.1, 2),
            (1.0, 4),
            (10.0, 5),
            (float("inf"), 6),
        ]
        assert hist.count == 6
        assert hist.sum == pytest.approx(56.65)

    def test_histogram_timer_uses_injected_clock(self):
        clock = FakeClock()
        reg = MetricsRegistry(clock=clock)
        hist = reg.histogram("work", "Work.", buckets=(1.0, 10.0))
        with hist.time():
            clock.advance(3.5)
        assert hist.count == 1
        assert hist.sum == pytest.approx(3.5)
        assert hist.bucket_counts() == [(1.0, 0), (10.0, 1), (float("inf"), 1)]

    def test_labelled_series_are_independent(self):
        reg = MetricsRegistry()
        family = reg.counter("out_total", "Outcomes.", labelnames=("outcome",))
        family.labels(outcome="ok").inc(2)
        family.labels(outcome="failed").inc()
        assert family.labels(outcome="ok").value == 2
        assert family.labels(outcome="failed").value == 1

    def test_render_is_prometheus_text(self):
        clock = FakeClock()
        reg = MetricsRegistry(clock=clock)
        reg.counter("jobs_total", "Jobs.", labelnames=("state",)).labels(
            state="ok"
        ).inc(3)
        hist = reg.histogram("lat_seconds", "Latency.", buckets=(0.5,))
        hist.observe(0.25)
        text = reg.render()
        assert '# TYPE jobs_total counter' in text
        assert 'jobs_total{state="ok"} 3' in text
        assert '# TYPE lat_seconds histogram' in text
        assert 'lat_seconds_bucket{le="0.5"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert 'lat_seconds_count 1' in text

    def test_to_dict_is_json_safe(self):
        reg = MetricsRegistry()
        reg.histogram("h", "H.").observe(0.002)
        reg.gauge("g", "G.").set(1.5)
        payload = json.loads(json.dumps(reg.to_dict()))
        assert payload["h"]["kind"] == "histogram"
        assert payload["g"]["series"][0]["value"] == 1.5

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_registry_is_thread_safe(self):
        reg = MetricsRegistry()
        counter = reg.counter("n_total", "N.")

        def spin():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 4000


class TestTraceRecorder:
    def test_jsonl_stream_and_memory(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path=str(path)) as recorder:
            with hooks.subscribed(recorder):
                hooks.emit("engine.round", {"phase": "begin", "round": 1})
                hooks.emit("plan.operator", {"op": "join", "out": 3})
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [event["kind"] for event in lines] == [
            "engine.round",
            "plan.operator",
        ]
        assert [event["seq"] for event in lines] == [1, 2]
        assert all("ts" in event for event in lines)
        assert recorder.of_kind("plan.operator")[0]["out"] == 3

    def test_keep_false_does_not_accumulate(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path=str(path), keep=False) as recorder:
            recorder("engine.round", {"round": 1})
            assert recorder.events == []
        assert path.read_text().count("\n") == 1


class TestEngineTrace:
    """The acceptance cross-checks: Example 4.1's eight derivation
    steps (Section 4.3) are identifiable in the trace, and per-operator
    cardinalities sum to the engine's ``derived_tuples_per_round``."""

    def _run_traced(self, strategy):
        recorder = TraceRecorder()
        collector = ProfileCollector()
        engine = DeductiveEngine(
            parse_program(PROGRAM), parse_database(EDB), strategy=strategy
        )
        with hooks.subscribed(recorder, collector):
            model = engine.run()
        return recorder, collector, model

    def test_eight_derivation_steps_identifiable(self):
        recorder, _, model = self._run_traced("naive")
        assert model.stats.rounds == 8
        ends = [
            event
            for event in recorder.of_kind("engine.round")
            if event["phase"] == "end"
        ]
        assert [event["round"] for event in ends] == list(range(1, 9))
        assert [event["derived"] for event in ends] == model.stats.derived_tuples_per_round
        run_events = recorder.of_kind("engine.run")
        assert run_events[0]["phase"] == "begin"
        assert run_events[-1]["phase"] == "end"
        assert run_events[-1]["outcome"] == "ok"

    @pytest.mark.parametrize("strategy", ["naive", "semi-naive"])
    def test_operator_cardinalities_sum_to_stats(self, strategy):
        _, collector, model = self._run_traced(strategy)
        per_round = collector.derived_per_round()
        expected = {
            round_no: count
            for round_no, count in enumerate(
                model.stats.derived_tuples_per_round, start=1
            )
        }
        assert set(per_round) <= set(expected)
        for round_no, count in expected.items():
            assert per_round.get(round_no, 0) == count

    def test_operator_rows_have_cardinalities(self):
        _, collector, _ = self._run_traced("semi-naive")
        rows = collector.table()
        assert rows
        for row in rows:
            assert row["op"] in {
                "join", "anti-join", "complement-join", "carrier", "projection"
            }
            assert row["invocations"] >= 1
            assert row["output_tuples"] >= 0
            assert row["seconds"] >= 0.0
        assert any(row["variant"].startswith("delta@") for row in rows)

    def test_budget_and_checkpoint_events(self, tmp_path):
        recorder = TraceRecorder()
        engine = DeductiveEngine(
            parse_program(PROGRAM), parse_database(EDB), strategy="naive"
        )
        from repro.runtime.budget import EvaluationBudget

        with hooks.subscribed(recorder):
            engine.run(
                budget=EvaluationBudget(max_rounds=100),
                checkpoint_every=2,
                checkpoint_path=str(tmp_path / "ck.json"),
            )
        charges = recorder.of_kind("budget.charge")
        assert {event["dimension"] for event in charges} >= {
            "rounds",
            "derived",
            "accepted",
        }
        rounds_charged = [e for e in charges if e["dimension"] == "rounds"]
        assert len(rounds_charged) == 8
        writes = recorder.of_kind("checkpoint.write")
        assert writes
        assert all(event["bytes"] > 0 for event in writes)
        assert all(event["duration_s"] >= 0.0 for event in writes)


class TestFrontEndTraces:
    """Every ``--trace``-capable front end speaks the event vocabulary:
    the FO, Datalog1S and Templog evaluators emit ``engine.run`` spans
    (and, for the fixpoint evaluators, per-slice round spans), not just
    ``DeductiveEngine``."""

    def test_fo_evaluate_query_emits_run_span(self):
        from repro.fo import evaluate_query

        db = parse_database(EDB)
        recorder = TraceRecorder()
        with hooks.subscribed(recorder):
            answers = evaluate_query(db, "exists t2 (course(t1, t2; C))")
        assert answers.rows(0, 200)
        runs = recorder.of_kind("engine.run")
        assert [event["phase"] for event in runs] == ["begin", "end"]
        assert runs[0]["strategy"] == "fo"
        assert runs[-1]["outcome"] == "ok"
        assert runs[-1]["duration_s"] >= 0.0

    def test_fo_conjunction_runs_a_compiled_clause_plan(self, tmp_path):
        """An FO conjunction evaluates as one compiled clause, so its
        trace carries the plan layer's operator and batch events, and
        the whole file passes the trace schema check."""
        import importlib.util
        import os

        from repro.fo import evaluate_query

        spec = importlib.util.spec_from_file_location(
            "check_trace",
            os.path.join(os.path.dirname(__file__), "..", "tools", "check_trace.py"),
        )
        check_trace = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check_trace)
        path = tmp_path / "trace.jsonl"
        db = parse_database(EDB)
        with TraceRecorder(path=str(path)) as recorder:
            with hooks.subscribed(recorder):
                answers = evaluate_query(
                    db, "course(t1, t2; C) and t1 >= 0 and t1 < 100"
                )
        assert answers.rows(0, 200) == [{"t1": 8, "t2": 10, "C": "database"}]
        operators = recorder.of_kind("plan.operator")
        assert [event["op"] for event in operators] == ["join", "projection"]
        assert operators[0]["predicate"] == "course"
        batches = recorder.of_kind("kernel.batch")
        assert len(batches) == len(operators)
        assert {event["clause"] for event in batches} == {operators[0]["clause"]}
        assert check_trace.check(
            str(path),
            require_kinds=["engine.run", "plan.operator", "kernel.batch"],
        ) == []

    def test_datalog1s_forward_model_emits_round_per_slice(self):
        from repro.datalog1s import minimal_model, parse_datalog1s

        program = parse_datalog1s(
            "train(5; liege).\ntrain(t + 40; liege) <- train(t; liege).\n"
        )
        recorder = TraceRecorder()
        with hooks.subscribed(recorder):
            model = minimal_model(program)
        assert 45 in model.set_of("train", ("liege",))
        runs = recorder.of_kind("engine.run")
        assert runs[0]["phase"] == "begin"
        assert runs[0]["strategy"] == "datalog1s"
        assert runs[-1]["outcome"] == "ok"
        strata = recorder.of_kind("engine.stratum")
        assert [event["phase"] for event in strata] == ["begin", "end"]
        rounds = recorder.of_kind("engine.round")
        assert rounds, "frontier automaton emitted no round spans"
        # One end span per computed time slice, rounds numbered from 1,
        # each carrying the slice's atom count as derived == accepted.
        assert [event["round"] for event in rounds] == list(
            range(1, len(rounds) + 1)
        )
        assert all(event["phase"] == "end" for event in rounds)
        assert all(event["time_point"] == event["round"] - 1 for event in rounds)
        assert any(event["derived"] > 0 for event in rounds)

    def test_templog_traces_through_the_reduction(self):
        from repro.templog import parse_templog, templog_minimal_model

        program = parse_templog("next^5 go.\nalways (next^40 go <- go).\n")
        recorder = TraceRecorder()
        with hooks.subscribed(recorder):
            templog_minimal_model(program)
        assert recorder.of_kind("engine.run")
        assert recorder.of_kind("engine.round")

    def test_no_events_without_sinks(self):
        from repro.datalog1s import minimal_model, parse_datalog1s

        recorder = TraceRecorder()  # NOT subscribed
        program = parse_datalog1s("train(5; liege).")
        minimal_model(program)
        assert recorder.events == []
