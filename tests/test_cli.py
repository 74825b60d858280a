"""Tests for the command-line interface."""

import io
import json
import os

import pytest

from repro.cli import main
from repro.core import DeductiveEngine, parse_program
from repro.gdb import parse_database
from repro.util.errors import GiveUpError

EDB = """
relation course[2; 1] {
  (168n+8, 168n+10; "database") where T2 = T1 + 2;
}
relation seed[1; 0] { (n) where T1 = 0; }
relation zero[2; 0] { (n, n) where T1 = 0 & T2 = 0; }
"""

PROGRAM = """
problems(t1 + 2, t2 + 2; X) <- course(t1, t2; X).
problems(t1 + 48, t2 + 48; X) <- problems(t1, t2; X).
"""

# E7's unary arithmetic: t2 = 2 * t1 has no lrp closed form, so every
# evaluator gives up on it.
DIVERGING = """
double(t1, t2) <- zero(t1, t2).
double(t1 + 1, t2 + 2) <- double(t1, t2).
"""

D1S = """
train(5; liege).
train(t + 40; liege) <- train(t; liege).
"""

TEMPLOG = """
next^5 go.
always (next^40 go <- go).
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (
        ("edb.gdb", EDB),
        ("program.dtl", PROGRAM),
        ("diverge.dtl", DIVERGING),
        ("trains.d1s", D1S),
        ("monitor.tlg", TEMPLOG),
    ):
        path = tmp_path / name
        path.write_text(text)
        paths[name] = str(path)
    return paths


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestRun:
    def test_closed_form(self, files):
        code, output = run_cli(
            ["run", files["program.dtl"], "--edb", files["edb.gdb"]]
        )
        assert code == 0
        assert "constraint safe: True" in output
        assert "168n+10" in output

    def test_window(self, files):
        code, output = run_cli(
            [
                "run",
                files["program.dtl"],
                "--edb",
                files["edb.gdb"],
                "--window",
                "0",
                "60",
            ]
        )
        assert code == 0
        assert "(10, 12, 'database')" in output

    def test_predicate_filter(self, files):
        code, output = run_cli(
            [
                "run",
                files["program.dtl"],
                "--edb",
                files["edb.gdb"],
                "--predicate",
                "problems",
            ]
        )
        assert code == 0
        assert output.count("problems [") == 1

    def test_give_up_exit_code(self, files):
        code, _ = run_cli(
            [
                "run",
                files["diverge.dtl"],
                "--edb",
                files["edb.gdb"],
                "--patience",
                "3",
            ]
        )
        assert code == 3

    def test_give_up_partial(self, files):
        code, output = run_cli(
            [
                "run",
                files["diverge.dtl"],
                "--edb",
                files["edb.gdb"],
                "--patience",
                "3",
                "--partial",
            ]
        )
        assert code == 3
        assert "gave up" in output

    def test_unknown_flag_is_a_one_line_usage_error(self, files, capsys):
        code, output = run_cli(
            ["run", files["program.dtl"], "--edb", files["edb.gdb"],
             "--processes", "2"]
        )
        assert code == 2
        assert output == ""
        assert capsys.readouterr().err == (
            "error: unrecognized arguments: --processes 2\n"
        )


class TestStatsAndVerify:
    def test_stats_flag(self, files):
        code, output = run_cli(
            [
                "run",
                files["program.dtl"],
                "--edb",
                files["edb.gdb"],
                "--stats",
            ]
        )
        assert code == 0
        assert "free signatures" in output

    def test_verify_flag(self, files):
        code, output = run_cli(
            [
                "run",
                files["program.dtl"],
                "--edb",
                files["edb.gdb"],
                "--verify",
                "--window",
                "0",
                "300",
            ]
        )
        assert code == 0
        assert "model verified" in output

    def test_verify_accepts_a_model_with_negation(self, tmp_path):
        edb = tmp_path / "a.gdb"
        edb.write_text(
            'relation a[1; 1] { (6n; "x") where T1 >= 0; '
            '(4n+1; "y") where T1 >= 0; }'
        )
        program = tmp_path / "negation.dtl"
        program.write_text(
            "q(t; X) <- a(t; X).\np(t; X) <- a(t; X), not q(t; X).\n"
        )
        code, output = run_cli(
            ["run", str(program), "--edb", str(edb), "--verify",
             "--window", "0", "60"]
        )
        assert code == 0
        assert "model verified" in output


class TestOtherCommands:
    def test_query(self, files):
        code, output = run_cli(
            [
                "query",
                files["edb.gdb"],
                'exists t2 (course(t1, t2; "database"))',
            ]
        )
        assert code == 0
        assert "168n+8" in output

    def test_query_truth_value(self, files):
        code, output = run_cli(
            [
                "query",
                files["edb.gdb"],
                'exists t1, t2 (course(t1, t2; "database"))',
            ]
        )
        assert code == 0
        assert "truth value: True" in output

    def test_query_disjunction_widens_data_columns(self, files):
        # The right disjunct lacks X: it ranges over the active domain.
        code, output = run_cli(
            [
                "query",
                files["edb.gdb"],
                "exists t2 (course(t1, t2; X)) or seed(t1)",
                "--window",
                "0",
                "10",
            ]
        )
        assert code == 0
        assert "(n; \"database\") where T1 = 0" in output
        assert "(0, 'database')" in output
        assert "(8, 'database')" in output

    def test_datalog1s(self, files):
        code, output = run_cli(["datalog1s", files["trains.d1s"]])
        assert code == 0
        assert "40n+5" in output

    def test_templog(self, files):
        code, output = run_cli(["templog", files["monitor.tlg"]])
        assert code == 0
        assert "40n+5" in output

    def test_explain(self, files):
        code, output = run_cli(
            ["explain", files["program.dtl"], "--edb", files["edb.gdb"]]
        )
        assert code == 0
        # One block per clause, every variant rendered, fingerprint last.
        assert output.count("clause:") == 2
        assert "plan naive:" in output
        assert "plan semi-naive, delta @ body position 0:" in output
        assert "scan course" in output
        # Each variant reports the join fast path the kernel will take
        # (hash / fused-closure / product).
        assert "fast path: course product" in output
        assert "plan fingerprint:" in output

    def test_explain_json(self, files):
        code, output = run_cli(
            ["explain", files["program.dtl"], "--edb", files["edb.gdb"], "--json"]
        )
        assert code == 0
        report = json.loads(output)
        assert report["command"] == "explain"
        assert len(report["plan_fingerprint"]) == 64
        assert "scan" in report["plans"]

    @pytest.mark.parametrize("as_json", [False, True])
    @pytest.mark.parametrize(
        "program, gives_up", [("program.dtl", False), ("diverge.dtl", True)]
    )
    def test_explain_profile(self, files, program, gives_up, as_json):
        """``explain --profile`` profiles one run of the program; a run
        that gives up is profiled on its partial model, exit code 0."""
        argv = ["explain", files[program], "--edb", files["edb.gdb"], "--profile"]
        code, output = run_cli(argv + (["--json"] if as_json else []))
        assert code == 0
        with open(files[program]) as handle:
            engine = DeductiveEngine(parse_program(handle.read()), parse_database(EDB))
        try:
            stats = engine.run().stats
        except GiveUpError as error:
            stats = error.stats
        assert stats.gave_up is gives_up
        if as_json:
            profile = json.loads(output)["profile"]
            assert profile["operators"]
            per_round = [
                profile["derived_per_round"].get(str(number), 0)
                for number in range(1, profile["stats"]["rounds"] + 1)
            ]
            assert per_round == profile["stats"]["derived_tuples_per_round"]
            assert per_round == stats.derived_tuples_per_round
            assert profile["stats"]["gave_up"] is gives_up
        else:
            lines = output.splitlines()
            header = next(i for i, line in enumerate(lines) if line.startswith("op "))
            assert lines[header + 1:]
            summary = lines[header - 1]
            assert summary.startswith("%% profile: %d rounds, " % stats.rounds)
            assert summary.endswith("derived per round: %s" % stats.derived_tuples_per_round)

    def test_parse_error_exit_code(self, files, tmp_path):
        bad = tmp_path / "bad.dtl"
        bad.write_text("p(t <-")
        code, _ = run_cli(["run", str(bad), "--edb", files["edb.gdb"]])
        assert code == 2

    def test_missing_file(self, files, capsys):
        code, _ = run_cli(["run", "/no/such/file", "--edb", files["edb.gdb"]])
        assert code == 2
        captured = capsys.readouterr()
        assert "cannot read /no/such/file" in captured.err
        assert len(captured.err.strip().splitlines()) == 1


class TestRuntimeFlags:
    def test_json_report(self, files):
        code, output = run_cli(
            [
                "run",
                files["program.dtl"],
                "--edb",
                files["edb.gdb"],
                "--json",
                "--window",
                "0",
                "60",
            ]
        )
        assert code == 0
        report = json.loads(output)
        assert report["outcome"] == "ok"
        assert report["exit_code"] == 0
        assert report["stats"]["constraint_safe"] is True
        assert report["stats"]["rounds"] > 0
        summary = report["model"]["predicates"]["problems"]
        assert summary["generalized_tuples"] >= 1
        assert summary["window"]["tuples"]

    def test_budget_exit_code_and_partial_json(self, files):
        code, output = run_cli(
            [
                "run",
                files["program.dtl"],
                "--edb",
                files["edb.gdb"],
                "--deadline",
                "0",
                "--json",
            ]
        )
        assert code == 4
        report = json.loads(output)
        assert report["outcome"] == "budget-exceeded"
        assert report["error"]["type"] == "BudgetExceededError"
        assert report["error"]["limit"] == "deadline_seconds"
        assert "problems" in report["model"]["predicates"]

    def test_max_rounds_budget(self, files):
        code, _ = run_cli(
            [
                "run",
                files["diverge.dtl"],
                "--edb",
                files["edb.gdb"],
                "--max-rounds",
                "2",
            ]
        )
        assert code == 4

    def test_checkpoint_and_resume(self, files, tmp_path):
        checkpoint = str(tmp_path / "run.ckpt.json")
        code, full = run_cli(
            [
                "run",
                files["program.dtl"],
                "--edb",
                files["edb.gdb"],
                "--checkpoint",
                checkpoint,
                "--checkpoint-every",
                "1",
            ]
        )
        assert code == 0
        assert os.path.exists(checkpoint)
        code, resumed = run_cli(
            [
                "run",
                files["program.dtl"],
                "--edb",
                files["edb.gdb"],
                "--resume-from",
                checkpoint,
            ]
        )
        assert code == 0
        assert resumed.splitlines()[1:] == full.splitlines()[1:]

    def test_datalog1s_budget(self, files):
        code, _ = run_cli(
            ["datalog1s", files["trains.d1s"], "--max-rounds", "1"]
        )
        assert code == 4

    def test_templog_json(self, files):
        code, output = run_cli(["templog", files["monitor.tlg"], "--json"])
        assert code == 0
        report = json.loads(output)
        assert report["outcome"] == "ok"
        assert "40n+5" in report["model"]


class TestDeadlineFlag:
    def test_run_deadline_seconds_alias(self, files):
        code, _ = run_cli(
            [
                "run",
                files["program.dtl"],
                "--edb",
                files["edb.gdb"],
                "--deadline-seconds",
                "0",
            ]
        )
        assert code == 4

    def test_query_deadline_exit_code_and_json(self, files):
        code, output = run_cli(
            [
                "query",
                files["edb.gdb"],
                "exists t2 (course(t1, t2; C))",
                "--deadline-seconds",
                "0",
                "--json",
            ]
        )
        assert code == 4
        report = json.loads(output)
        assert report["command"] == "query"
        assert report["outcome"] == "budget-exceeded"
        assert report["error"]["type"] == "BudgetExceededError"
        assert report["error"]["limit"] == "deadline_seconds"

    def test_datalog1s_deadline(self, files):
        code, _ = run_cli(
            ["datalog1s", files["trains.d1s"], "--deadline-seconds", "0"]
        )
        assert code == 4

    def test_templog_deadline(self, files):
        code, _ = run_cli(
            ["templog", files["monitor.tlg"], "--deadline-seconds", "0"]
        )
        assert code == 4


class TestBatchCommand:
    def jobs_file(self, tmp_path, files, count=3):
        jobs = [
            {
                "id": "job-%d" % i,
                "kind": "run",
                "program_file": files["program.dtl"],
                "edb_file": files["edb.gdb"],
            }
            for i in range(count)
        ]
        jobs.append(
            {
                "id": "query-job",
                "kind": "query",
                "edb_file": files["edb.gdb"],
                "query": "exists t2 (course(t1, t2; C))",
            }
        )
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(jobs))
        return str(path)

    def test_batch_json_report(self, files, tmp_path):
        code, output = run_cli(
            ["batch", self.jobs_file(tmp_path, files), "--workers", "2", "--json"]
        )
        assert code == 0
        report = json.loads(output)
        assert report["command"] == "batch"
        assert report["exit_code"] == 0
        assert len(report["jobs"]) == 4
        for job in report["jobs"]:
            assert job["state"] == "ok"
            assert job["attempts"] == 1
            assert job["backend"] in ("compiled", "fo")
            assert job["degradation"] == []
        assert report["service"]["jobs"]["ok"] == 4
        assert report["health"]["status"] == "ok"

    def test_batch_human_output(self, files, tmp_path):
        code, output = run_cli(
            ["batch", self.jobs_file(tmp_path, files, count=1), "--workers", "1"]
        )
        assert code == 0
        assert "job-0: ok" in output
        assert "2 jobs: 2 ok" in output

    def test_batch_under_fault_plan_retries_and_reports(self, files, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps(
                {"specs": [{"site": "clause", "at": 4, "error": "transient"}]}
            )
        )
        jobs = tmp_path / "one.json"
        jobs.write_text(
            json.dumps(
                [
                    {
                        "id": "flaky",
                        "kind": "run",
                        "program_file": files["program.dtl"],
                        "edb_file": files["edb.gdb"],
                    }
                ]
            )
        )
        code, output = run_cli(
            [
                "batch",
                str(jobs),
                "--workers",
                "1",
                "--fault-plan",
                str(plan),
                "--json",
            ]
        )
        assert code == 0
        job = json.loads(output)["jobs"][0]
        assert job["state"] == "ok"
        assert job["attempts"] == 2
        assert job["resumed"] is True

    def test_batch_exit_code_partial(self, files, tmp_path):
        jobs = tmp_path / "late.json"
        jobs.write_text(
            json.dumps(
                [
                    {
                        "id": "late",
                        "kind": "run",
                        "program_file": files["program.dtl"],
                        "edb_file": files["edb.gdb"],
                        "deadline_seconds": 0,
                    }
                ]
            )
        )
        code, output = run_cli(["batch", str(jobs), "--workers", "1", "--json"])
        assert code == 3
        job = json.loads(output)["jobs"][0]
        assert job["state"] == "partial"
        assert job["outcome"] == "budget-exceeded"


class TestServeCommand:
    def test_serve_input_smoke(self, files, tmp_path):
        lines = [
            '{"op": "health"}',
            json.dumps(
                {
                    "kind": "run",
                    "program_file": files["program.dtl"],
                    "edb_file": files["edb.gdb"],
                }
            ),
            json.dumps(
                {
                    "id": "q1",
                    "kind": "query",
                    "edb_file": files["edb.gdb"],
                    "query": "exists t2 (course(t1, t2; C))",
                }
            ),
            "not json at all",
        ]
        stream = tmp_path / "input.jsonl"
        stream.write_text("\n".join(lines) + "\n")
        code, output = run_cli(
            ["serve", "--input", str(stream), "--workers", "1"]
        )
        assert code == 1  # the malformed line is a rejected job
        reports = [json.loads(line) for line in output.splitlines()]
        health = reports[0]
        assert health["status"] == "ok"
        by_id = {r["job_id"]: r for r in reports[1:] if "job_id" in r}
        assert by_id["job-2"]["state"] == "ok"
        assert by_id["q1"]["state"] == "ok"
        assert by_id["job-4"]["state"] == "rejected"

    def test_serve_trace_passes_the_trace_schema(self, files, tmp_path):
        """A ``service.job`` submit event carries the job's kind as
        ``job_kind``, so it can never overwrite the record's event kind
        and the whole serve trace validates."""
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "check_trace",
            os.path.join(os.path.dirname(__file__), "..", "tools", "check_trace.py"),
        )
        check_trace = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check_trace)
        lines = [
            json.dumps(
                {
                    "id": "r1",
                    "kind": "run",
                    "program_file": files["program.dtl"],
                    "edb_file": files["edb.gdb"],
                }
            ),
            json.dumps(
                {
                    "id": "q1",
                    "kind": "query",
                    "edb_file": files["edb.gdb"],
                    "query": "exists t2 (course(t1, t2; C))",
                }
            ),
        ]
        stream = tmp_path / "input.jsonl"
        stream.write_text("\n".join(lines) + "\n")
        trace = str(tmp_path / "serve.jsonl")
        code, _ = run_cli(
            ["serve", "--input", str(stream), "--workers", "1", "--trace", trace]
        )
        assert code == 0
        assert check_trace.check(trace, require_kinds=["service.job"]) == []
        with open(trace) as handle:
            records = [json.loads(line) for line in handle]
        submitted = {
            record["job_id"]: record["job_kind"]
            for record in records
            if record["kind"] == "service.job" and record["phase"] == "submit"
        }
        assert submitted == {"r1": "run", "q1": "query"}


@pytest.fixture
def txn_files(tmp_path):
    """Ops files for the durable-store commands."""
    declare = [
        {
            "op": "declare",
            "relation": "course",
            "temporal_arity": 2,
            "data_arity": 1,
        },
        {
            "op": "assert",
            "relation": "course",
            "tuple": '(168n+8, 168n+10; "database") where T2 = T1 + 2',
        },
    ]
    more = [
        {
            "op": "assert",
            "relation": "course",
            "tuple": '(168n+20, 168n+22; "logic") where T2 = T1 + 2',
        },
    ]
    retract = [
        {
            "op": "retract",
            "relation": "course",
            "tuple": '(168n+20, 168n+22; "logic") where T2 = T1 + 2',
        },
    ]
    paths = {"store": str(tmp_path / "store")}
    for name, payload in (
        ("seed.json", declare),
        ("more.json", more),
        ("retract.json", retract),
        ("multi.json", {"txns": [declare, more]}),
    ):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        paths[name] = str(path)
    program = tmp_path / "problems.dtl"
    program.write_text(PROGRAM)
    paths["program"] = str(program)
    return paths


class TestTxn:
    def test_apply_and_log(self, txn_files):
        code, output = run_cli(
            ["txn", "apply", txn_files["store"], txn_files["seed.json"]]
        )
        assert code == 0
        assert "tx 1: +1" in output
        code, output = run_cli(["txn", "log", txn_files["store"]])
        assert code == 0
        assert "head tx: 1" in output

    def test_apply_multiple_txns_json(self, txn_files):
        code, output = run_cli(
            [
                "txn",
                "apply",
                txn_files["store"],
                txn_files["multi.json"],
                "--json",
            ]
        )
        assert code == 0
        report = json.loads(output)
        assert report["head_tx"] == 2
        assert [r["tx"] for r in report["receipts"]] == [1, 2]

    def test_apply_with_maintain_window(self, txn_files):
        run_cli(["txn", "apply", txn_files["store"], txn_files["seed.json"]])
        code, output = run_cli(
            [
                "txn",
                "apply",
                txn_files["store"],
                txn_files["more.json"],
                "--maintain",
                txn_files["program"],
                "--window",
                "0",
                "60",
            ]
        )
        assert code == 0
        assert "% maintained to tx 2" in output
        assert "problems" in output

    def test_apply_maintain_json_matches_asof(self, txn_files):
        run_cli(["txn", "apply", txn_files["store"], txn_files["seed.json"]])
        code, maintained = run_cli(
            [
                "txn",
                "apply",
                txn_files["store"],
                txn_files["more.json"],
                "--maintain",
                txn_files["program"],
                "--window",
                "0",
                "120",
                "--json",
            ]
        )
        assert code == 0
        code, scratch = run_cli(
            [
                "asof",
                txn_files["store"],
                "--program",
                txn_files["program"],
                "--window",
                "0",
                "120",
                "--json",
            ]
        )
        assert code == 0
        maintained_model = json.loads(maintained)["model"]["predicates"]
        scratch_model = json.loads(scratch)["model"]["predicates"]
        assert maintained_model["problems"]["window"] == scratch_model[
            "problems"
        ]["window"]

    def test_checkpoint(self, txn_files):
        run_cli(["txn", "apply", txn_files["store"], txn_files["multi.json"]])
        code, output = run_cli(
            ["txn", "checkpoint", txn_files["store"], "--json"]
        )
        assert code == 0
        report = json.loads(output)
        assert report["head_tx"] == 2
        assert os.path.exists(report["path"])

    def test_invalid_ops_file(self, txn_files, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        code, _ = run_cli(["txn", "apply", txn_files["store"], str(bad)])
        assert code == 2

    def test_rejected_transaction_is_an_error(self, txn_files):
        run_cli(["txn", "apply", txn_files["store"], txn_files["seed.json"]])
        # Retract of a tuple that is not live: typed error, exit 1.
        code, _ = run_cli(
            ["txn", "apply", txn_files["store"], txn_files["retract.json"]]
        )
        assert code == 1


class TestAsof:
    def seed(self, txn_files):
        run_cli(["txn", "apply", txn_files["store"], txn_files["seed.json"]])
        run_cli(["txn", "apply", txn_files["store"], txn_files["more.json"]])
        run_cli(["txn", "apply", txn_files["store"], txn_files["retract.json"]])

    def test_edb_snapshots_differ_by_tx(self, txn_files):
        self.seed(txn_files)
        _, at1 = run_cli(["asof", txn_files["store"], "--tx", "1"])
        _, at2 = run_cli(["asof", txn_files["store"], "--tx", "2"])
        _, head = run_cli(["asof", txn_files["store"]])
        assert "logic" not in at1
        assert "logic" in at2
        # The retraction hides the tuple at head but not at tx 2.
        assert "logic" not in head
        assert "head 3" in head

    def test_program_over_snapshot(self, txn_files):
        self.seed(txn_files)
        code, output = run_cli(
            [
                "asof",
                txn_files["store"],
                "--tx",
                "2",
                "--program",
                txn_files["program"],
                "--window",
                "0",
                "60",
                "--json",
            ]
        )
        assert code == 0
        report = json.loads(output)
        assert report["tx"] == 2
        assert report["outcome"] == "ok"
        assert report["model"]["predicates"]["problems"]["window"]["tuples"]

    def test_tx_beyond_head_is_usage_error(self, txn_files):
        self.seed(txn_files)
        code, _ = run_cli(["asof", txn_files["store"], "--tx", "99"])
        assert code == 2


class TestTxnCrashRecovery:
    def test_sigkill_fault_mid_append_loses_only_uncommitted(
        self, txn_files, tmp_path
    ):
        import subprocess
        import sys

        run_cli(["txn", "apply", txn_files["store"], txn_files["seed.json"]])
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps([{"site": "wal_append", "at": 1, "error": "sigkill"}])
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))",
                "txn",
                "apply",
                txn_files["store"],
                txn_files["more.json"],
                "--fault-plan",
                str(plan),
            ],
            env=env,
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode == -9  # SIGKILL mid-commit
        # Recovery: the store reopens cleanly with only tx 1 committed,
        # and the killed transaction can simply be re-applied.
        code, output = run_cli(["txn", "log", txn_files["store"], "--json"])
        assert code == 0
        assert json.loads(output)["head_tx"] == 1
        code, _ = run_cli(
            ["txn", "apply", txn_files["store"], txn_files["more.json"]]
        )
        assert code == 0


def _serve_process(files):
    """A ``repro serve --workers 1`` subprocess with piped stdio, one
    ``run`` job (id ``j1``) already written to its stdin, which stays
    open."""
    import subprocess
    import sys

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    proc = subprocess.Popen(
        [
            sys.executable,
            "-c",
            "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))",
            "serve",
            "--workers",
            "1",
        ],
        env=env,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    job = json.dumps(
        {
            "id": "j1",
            "kind": "run",
            "program_file": files["program.dtl"],
            "edb_file": files["edb.gdb"],
        }
    )
    proc.stdin.write(job + "\n")
    proc.stdin.flush()
    return proc


class TestServeShutdown:
    def test_result_line_arrives_while_stdin_stays_open(self, files):
        """A client that sends one job and waits gets its answer: the
        result line is written when the job finishes, not when the next
        input line arrives."""
        import queue
        import subprocess
        import threading

        proc = _serve_process(files)
        lines = queue.Queue()
        reader = threading.Thread(
            target=lambda: lines.put(proc.stdout.readline()), daemon=True
        )
        reader.start()
        try:
            line = lines.get(timeout=30)
        except queue.Empty:
            proc.kill()
            proc.communicate()
            pytest.fail("no result line within 30s while stdin stayed open")
        result = json.loads(line)
        assert result["job_id"] == "j1"
        assert result["state"] == "ok"
        proc.stdin.close()
        try:
            assert proc.wait(timeout=30) == 0
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
        finally:
            proc.stdout.close()
            proc.stderr.close()

    def test_sigterm_drains_and_exits_zero(self, files, tmp_path):
        import signal
        import subprocess
        import time

        proc = _serve_process(files)
        # Give the job time to be submitted, then interrupt the loop.
        time.sleep(1.0)
        proc.send_signal(signal.SIGTERM)
        try:
            stdout, stderr = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
        assert proc.returncode == 0
        assert "shutting down" in stderr
        # The submitted job was drained: its result line was written.
        lines = [json.loads(line) for line in stdout.splitlines() if line]
        assert any(r.get("job_id") == "j1" and r["state"] == "ok" for r in lines)


class TestOneFrontDoor:
    """Every evaluating command reports give-up, budget and abort
    through the executor's outcome, with the exit code taken from it."""

    @pytest.mark.parametrize("as_json", [False, True])
    def test_query_program_give_up_exits_3(self, files, capsys, as_json):
        argv = ["query", files["edb.gdb"], "double(t1, t2)", "--program",
                files["diverge.dtl"]]
        code, output = run_cli(argv + (["--json"] if as_json else []))
        assert code == 3
        if as_json:
            report = json.loads(output)
            assert (report["outcome"], report["exit_code"]) == ("gave-up", 3)
            assert report["error"]["type"] == "GiveUpError"
            assert "T1 = 5" in report["relation"]
        else:
            assert "T1 = 5" in output
            assert capsys.readouterr().err.startswith("gave-up: ")

    @pytest.mark.parametrize("as_json", [False, True])
    def test_goal_directed_give_up_reports_its_rewrite(self, files, as_json):
        argv = ["query", files["edb.gdb"], "double(t1, t2)", "--program",
                files["diverge.dtl"], "--goal-directed"]
        code, output = run_cli(argv + (["--json"] if as_json else []))
        assert code == 3
        if as_json:
            report = json.loads(output)
            assert report["outcome"] == "gave-up"
            assert report["magic"]["goal"] == "double"
            assert report["magic"]["degraded"] is False
        else:
            assert "% goal-directed: double (dropped 0 clauses" in output

    def test_txn_maintain_budget_reports_receipts_and_partial_model(self, txn_files):
        code, output = run_cli(
            ["txn", "apply", txn_files["store"], txn_files["multi.json"],
             "--maintain", txn_files["program"], "--max-rounds", "1", "--json"]
        )
        assert code == 4
        report = json.loads(output)
        assert (report["outcome"], report["exit_code"]) == ("budget-exceeded", 4)
        assert [receipt["tx"] for receipt in report["receipts"]] == [1]
        assert report["error"]["limit"] == "max_rounds"
        assert report["model"]["predicates"]["problems"]["generalized_tuples"] >= 1
        # The transaction committed even though the refresh stopped.
        code, log = run_cli(["txn", "log", txn_files["store"]])
        assert "head tx: 1" in log

    def test_asof_abort_is_a_json_report(self, txn_files):
        from repro.runtime.faults import FaultPlan

        run_cli(["txn", "apply", txn_files["store"], txn_files["seed.json"]])
        with FaultPlan.inject("clause", at=3).installed():
            code, output = run_cli(
                ["asof", txn_files["store"], "--program", txn_files["program"], "--json"]
            )
        assert code == 1
        report = json.loads(output)
        assert (report["outcome"], report["exit_code"]) == ("aborted", 1)
        assert report["error"]["cause"]["type"] == "InjectedFaultError"
        assert report["model"] is not None


MALFORMED_JOBS = [
    {"kind": "run", "window": 5},
    {"kind": "run", "window": [1]},
    {"kind": "run", "patience": "x"},
    {"kind": "run", "deadline_second": 5},
    [1, 2],
]


class TestMalformedJobs:
    @pytest.mark.parametrize("job", MALFORMED_JOBS)
    def test_batch_is_a_usage_error(self, tmp_path, capsys, job):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps([job]))
        code, _ = run_cli(["batch", str(path), "--workers", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: job 1: ")
        assert "Traceback" not in err

    def test_serve_rejects_each_and_keeps_serving(self, files, tmp_path):
        good = {
            "id": "good", "kind": "run",
            "program_file": files["program.dtl"], "edb_file": files["edb.gdb"],
        }
        stream = tmp_path / "input.jsonl"
        stream.write_text(
            "\n".join(json.dumps(job) for job in MALFORMED_JOBS + [good]) + "\n"
        )
        code, output = run_cli(["serve", "--input", str(stream), "--workers", "1"])
        assert code == 1
        reports = [json.loads(line) for line in output.splitlines()]
        assert [r["state"] for r in reports] == ["rejected"] * 5 + ["ok"]
        assert all(r["error"]["type"] == "ValueError" for r in reports[:5])
