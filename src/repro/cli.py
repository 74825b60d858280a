"""Command-line interface: ``python -m repro <command> …``.

Four subcommands mirror the library's four front ends, plus
introspection and service commands:

``run``
    Evaluate a deductive program (Section 4 language) bottom-up over a
    generalized database and print the closed-form IDB.

``explain``
    Print the compiled clause plans (join order, pushed-down
    selections and constraints, carriers, fused projection) the
    engine would execute, together with the plan fingerprint stamped
    into checkpoints.

``query``
    Evaluate a first-order query (the [KSW90] language) against a
    generalized database.

``datalog1s``
    Compute the eventually periodic minimal model of a
    Chomicki–Imieliński program.

``templog``
    Reduce a Templog program to TL1, translate it to Datalog1S, and
    print its minimal model.

``batch``
    Run a file of jobs (JSON array or JSONL) on the resilient query
    service (:mod:`repro.service`) — supervised worker pool, bounded
    admission queue, deadlines, retry+resume, circuit breaker,
    degradation ladder — and report one terminal result per job.

``serve``
    The same service as a line-oriented loop: read one JSON job per
    input line, emit one JSON result line per job as soon as it
    finishes (in submission order); a ``health`` line
    answers with the service health snapshot and a ``metrics`` line
    with a Prometheus-style text exposition of the service metrics.
    ``SIGTERM``/``SIGINT`` trigger a graceful shutdown: the loop stops
    reading, drains every pending job (each still gets its result
    line), flushes, and exits 0.

``txn``
    Transactions against a durable, bi-temporal EDB store
    (:mod:`repro.edb`): ``txn apply STORE OPS.json`` commits batches of
    assert/retract/declare operations through the write-ahead log
    (``--maintain PROGRAM`` keeps a materialized model incrementally
    up to date after each commit; ``--checkpoint`` snapshots and
    prunes the log afterwards), ``txn log`` lists committed
    transactions, ``txn checkpoint`` compacts the store.

``asof``
    Time travel: ``asof STORE --tx N`` prints the EDB exactly as it
    stood after transaction ``N`` (visibility ``tx <= N`` and not yet
    retracted), and ``--program FILE`` runs a full fixpoint over that
    snapshot — the from-scratch twin of ``txn apply --maintain``.

Observability: ``run``/``query``/``datalog1s``/``templog`` accept
``--trace FILE`` (JSONL span trace of the evaluation), ``explain``
accepts ``--profile`` (per-operator time and cardinalities from a
real run), and ``batch --json`` reports the service metrics registry.

The evaluating commands and ``explain --profile`` run through the
service's attempt code (:meth:`repro.service.executor.JobExecutor.execute`);
the evaluating commands take their exit code from its outcome.  Exit
codes are stable for machine consumers:

====  =====================================================
0     success (complete model / answers; every batch job ok)
1     evaluation aborted by a fault (the partial model is still
      reported), other library or internal error / any batch
      job failed
2     usage error: bad arguments, unreadable file, parse error
3     gave up / partial model (paper's Section-4.3 policy);
      for ``batch``: some jobs partial, none failed
4     resource budget exceeded (e.g. ``--deadline-seconds``);
      the partial model is still reported under ``--json``
====  =====================================================

``--json`` dumps a machine-readable run report instead of the human
output; budget (``--deadline-seconds``/``--deadline``,
``--max-rounds``, ``--max-tuples``, ``--max-derived``) and checkpoint
(``--checkpoint``, ``--checkpoint-every``, ``--resume-from``) flags
govern the evaluation runtime (see :mod:`repro.runtime`).

Examples::

    python -m repro run program.dtl --edb schedule.gdb --window 0 200
    python -m repro run program.dtl --edb schedule.gdb --deadline-seconds 5 --json
    python -m repro run program.dtl --edb s.gdb --checkpoint ck.json \\
        --checkpoint-every 10
    python -m repro query schedule.gdb 'exists u (train(t, u; "Liege", C))'
    python -m repro datalog1s trains.d1s
    python -m repro templog monitor.tlg
    python -m repro batch jobs.json --workers 4 --json
    python -m repro serve --input jobs.jsonl
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from repro.core import parse_program
from repro.gdb import parse_database
from repro.plan import memo
from repro.runtime.budget import EvaluationBudget
from repro.runtime.report import error_summary, model_summary
from repro.service.executor import BACKEND_COMPILED, JobExecutor
from repro.service.jobs import JobSpec
from repro.util.errors import ParseError, ReproError
from repro.util.sorting import typed_sort_key

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_PARTIAL = 3
EXIT_BUDGET = 4

#: The exit code of each way an evaluation ends.
EXIT_CODES = {
    "ok": EXIT_OK,
    "gave-up": EXIT_PARTIAL,
    "budget-exceeded": EXIT_BUDGET,
    "aborted": EXIT_ERROR,
}


class _UsageError(Exception):
    """A user-input problem reported as one line with exit code 2."""


def _read(path):
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as error:
        reason = error.strerror or str(error)
        raise _UsageError("cannot read %s: %s" % (path, reason)) from error


def _add_json(parser):
    parser.add_argument(
        "--json",
        action="store_true",
        help="print a machine-readable run report instead of human output",
    )


def _add_evaluation(parser, handler, limits=3, window=True):
    """The flags every evaluating command shares: ``--json``,
    ``--window`` (when ``window``), ``--trace``, the wall-clock deadline
    and the first ``limits`` of the round, accepted-tuple and
    derived-work budgets; and the command's handler."""
    _add_json(parser)
    if window:
        parser.add_argument(
            "--window",
            nargs=2,
            type=int,
            metavar=("LOW", "HIGH"),
            help="also enumerate ground answers within [LOW, HIGH)",
        )
    _add_trace(parser)
    parser.add_argument(
        "--deadline-seconds",
        "--deadline",
        dest="deadline",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget for the evaluation (exit code 4 when "
        "exceeded; any partial model is still reported under --json)",
    )
    for flag, help_text in (
        ("--max-rounds", "budget on fixpoint rounds"),
        ("--max-tuples", "budget on tuples accepted into the model"),
        ("--max-derived", "budget on total derived-tuple work"),
    )[:limits]:
        parser.add_argument(flag, type=int, metavar="N", help=help_text)
    parser.set_defaults(handler=handler)


def _add_fault_plan(parser):
    parser.add_argument(
        "--fault-plan",
        metavar="PATH",
        help="JSON fault plan installed for the whole command (deterministic "
        "chaos testing; see repro.runtime.faults)",
    )


def _budget_from_args(args):
    try:
        budget = EvaluationBudget(
            deadline_seconds=args.deadline,
            max_rounds=getattr(args, "max_rounds", None),
            max_tuples=getattr(args, "max_tuples", None),
            max_derived=getattr(args, "max_derived", None),
        )
    except ValueError as error:
        raise _UsageError(str(error)) from error
    return budget if budget.limited() else None


def _add_trace(parser):
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write a JSONL span trace of the evaluation (engine rounds, "
        "plan operators, checkpoint writes, budget charges) to FILE",
    )


def _emit_json(report, out):
    json.dump(report, out, indent=2, sort_keys=False)
    print(file=out)


def _emit_report(out, command, outcome="ok", **fields):
    """Print the ``--json`` report of ``command``: its outcome and exit
    code, then ``fields``.  Returns the exit code."""
    code = EXIT_CODES[outcome]
    _emit_json(dict(command=command, outcome=outcome, exit_code=code, **fields), out)
    return code


def _emit_json_line(report, out):
    """One-object-per-line JSON for the ``serve`` streaming protocol."""
    json.dump(report, out, indent=None, sort_keys=False)
    print(file=out)
    out.flush()


@contextlib.contextmanager
def _instrumented(args):
    """The command's ``--fault-plan`` installed and its ``--trace`` (a
    JSONL span trace) recorded around the block; each is a no-op when
    its flag is absent."""
    plan = _load_fault_plan(args.fault_plan) if getattr(args, "fault_plan", None) else None
    with plan.installed() if plan is not None else contextlib.nullcontext():
        if not getattr(args, "trace", None):
            yield
            return
        from repro.obs import TraceRecorder
        from repro.util import hooks

        recorder = TraceRecorder(path=args.trace, keep=False)
        try:
            with hooks.subscribed(recorder):
                yield
        finally:
            recorder.close()


def _execute(args, spec, **kwargs):
    """Evaluate ``spec`` through the executor's attempt path under the
    command's budget flags, fault plan and trace."""
    budget = _budget_from_args(args)
    with _instrumented(args):
        return JobExecutor().execute(spec, BACKEND_COMPILED, budget, **kwargs)


def _print_error(result):
    if result.error is not None:
        print("%s: %s" % (result.outcome, result.error), file=sys.stderr)


def _print_rows(rows, out):
    for row in sorted(rows, key=typed_sort_key):
        print("  %s" % (tuple(row),), file=out)


def _print_model(model, window, out, predicates=None, stats=False):
    """Each predicate's coalesced relation, then (``--stats``) its
    relation statistics and its ground tuples within ``window``."""
    for name in model.predicates() if predicates is None else predicates:
        print("%s %s" % (name, model.relation(name).coalesce()), file=out)
        if stats:
            from repro.gdb.analysis import analyze

            print("%% stats: %s" % analyze(model.relation(name)), file=out)
        if window:
            _print_rows(model.extension(name, *window), out)


def _report_model(args, command, result, out, header=(), predicates=None, **extra):
    """Report an evaluation whose answer is a deductive model: the
    ``--json`` run report plus ``extra`` keys, or else the reason it
    stopped on stderr, then (with a model) the ``header`` lines and the
    model.  Returns the exit code."""
    window = tuple(args.window) if args.window else None
    if args.json:
        return _emit_report(
            out,
            command,
            result.outcome,
            error=error_summary(result.error),
            stats=result.stats,
            model=model_summary(result.model, window=window),
            **extra,
        )
    _print_error(result)
    if result.model is not None:
        for line in header:
            print(line, file=out)
        _print_model(result.model, window, out, predicates, getattr(args, "stats", False))
    return EXIT_CODES[result.outcome]


def _cmd_run(args, out):
    if args.checkpoint_every is not None:
        if args.checkpoint_every < 1:
            raise _UsageError("--checkpoint-every must be a positive round count")
        if args.checkpoint is None:
            raise _UsageError("--checkpoint-every requires --checkpoint PATH")
    spec = JobSpec(
        "run",
        "run",
        program=_read(args.program),
        edb=_read(args.edb),
        patience=args.patience,
        strategy=args.strategy,
    )
    result = _execute(
        args,
        spec,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume_from=args.resume_from,
    )
    if args.partial and result.outcome == "gave-up":
        result.error = None  # the partial model is the asked-for answer
    header = ()
    if result.model is not None:
        stats = result.model.stats
        header = [
            "%% %d strata, %d rounds, constraint safe: %s%s"
            % (
                stats.strata,
                stats.rounds,
                stats.constraint_safe,
                " (gave up)" if stats.gave_up else "",
            )
        ]
    predicates = [args.predicate] if args.predicate else None
    code = _report_model(args, "run", result, out, header, predicates)
    if args.verify and not args.json and result.outcome == "ok":
        from repro.core.verify import verify_model

        report = verify_model(
            memo.parsed("program", spec.program, parse_program),
            memo.parsed("edb", spec.edb, parse_database),
            result.model,
            window=tuple(args.window) if args.window else (0, 200),
        )
        print("%% %s" % report, file=out)
        if not report.ok():
            return EXIT_ERROR
    return code


def _profile_payload(collector, model):
    return {
        "operators": collector.table(),
        "derived_per_round": {
            str(round_no): count
            for round_no, count in sorted(collector.derived_per_round().items())
        },
        "stats": model.stats.to_dict(),
    }


def _print_profile(collector, model, out):
    stats = model.stats
    print(
        "%% profile: %d rounds, %.3fs, derived per round: %s"
        % (
            stats.rounds,
            stats.elapsed_seconds,
            [collector.derived_per_round().get(r, 0) for r in range(1, stats.rounds + 1)],
        ),
        file=out,
    )
    header = "%-10s %-9s %4s %5s %8s %8s %9s  %s" % (
        "op",
        "variant",
        "step",
        "calls",
        "in",
        "out",
        "seconds",
        "clause",
    )
    print(header, file=out)
    for row in collector.table():
        clause = row["clause"] or "?"
        if len(clause) > 48:
            clause = clause[:45] + "..."
        print(
            "%-10s %-9s %4d %5d %8d %8d %9.6f  %s"
            % (
                row["op"] + ("(%s)" % row["predicate"] if row["predicate"] else ""),
                row["variant"],
                row["step"],
                row["invocations"],
                row["input_tuples"],
                row["output_tuples"],
                row["seconds"],
                clause,
            ),
            file=out,
        )


def _cmd_explain(args, out):
    from repro.core.evaluation import ProgramEvaluator
    from repro.plan.explain import format_program_plans, plan_fingerprint

    program, edb = _read(args.program), _read(args.edb)
    spec = JobSpec("explain", "run", program=program, edb=edb, strategy=args.strategy)
    evaluator = ProgramEvaluator(
        memo.parsed("program", program, parse_program), memo.parsed("edb", edb, parse_database)
    )
    rendering = format_program_plans(evaluator.plans)
    fingerprint = plan_fingerprint(evaluator.plans)
    profile = None
    if args.profile:
        # One run through the front door; one that gives up is
        # profiled on its partial model.
        from repro.obs import ProfileCollector
        from repro.util import hooks

        collector = ProfileCollector()
        with hooks.subscribed(collector):
            result = JobExecutor().execute(spec, BACKEND_COMPILED)
        if result.outcome not in ("ok", "gave-up"):
            raise result.error
        profile = (collector, result.model)
    if args.json:
        report = {"plan_fingerprint": fingerprint, "plans": rendering}
        if profile is not None:
            report["profile"] = _profile_payload(*profile)
        return _emit_report(out, "explain", **report)
    print(rendering, file=out)
    print("%% plan fingerprint: %s" % fingerprint, file=out)
    if profile is not None:
        _print_profile(*profile, out)
    return EXIT_OK


def _cmd_query(args, out):
    edb = _read(args.database)
    if args.goal_directed and not args.program:
        raise _UsageError("--goal-directed requires --program")
    spec = JobSpec(
        "query",
        "query",
        program=_read(args.program) if args.program else "",
        edb=edb,
        query=args.formula,
        window=tuple(args.window) if args.window else None,
        goal_directed=args.goal_directed,
    )
    result = _execute(args, spec)
    code = EXIT_CODES[result.outcome]
    if result.outcome not in ("ok", "gave-up"):
        # The evaluation stopped before the query could be answered.
        if args.json:
            error = error_summary(result.error)
            return _emit_report(out, "query", result.outcome, error=error, stats=None, model=None)
        _print_error(result)
        return code
    answers = result.model
    header = ", ".join(answers.temporal_vars + answers.data_vars) or "(closed)"
    closed = not answers.temporal_vars and not answers.data_vars
    magic = result.magic
    if args.json:
        report = {}
        if result.error is not None:
            report["error"] = error_summary(result.error)
        report["answers_over"] = header
        report["relation"] = str(answers.relation)
        if magic is not None:
            report["magic"] = magic
        if closed:
            report["truth_value"] = answers.is_true()
        if result.window is not None:
            report["window"] = result.window
        return _emit_report(out, "query", result.outcome, **report)
    _print_error(result)
    print("%% answers over: %s" % header, file=out)
    if magic is not None and magic.get("degraded"):
        print(
            "%% goal-directed: degraded to full fixpoint (%s)" % magic["reason"],
            file=out,
        )
    elif magic is not None:
        print(
            "%% goal-directed: %s (dropped %d clauses, %d magic facts)"
            % (magic["goal"], magic["dropped_clauses"], magic["magic_facts"]),
            file=out,
        )
    print(str(answers.relation), file=out)
    if closed:
        print("%% truth value: %s" % answers.is_true(), file=out)
    if result.window is not None:
        _print_rows(result.window["tuples"], out)
    return code


def _cmd_periodic(args, out):
    """The ``datalog1s`` and ``templog`` commands."""
    command = args.command
    result = _execute(args, JobSpec(command, command, program=_read(args.program)))
    if args.json:
        return _emit_report(
            out,
            command,
            result.outcome,
            error=None if result.error is None else str(result.error),
            model=None if result.model is None else str(result.model),
        )
    _print_error(result)
    if result.model is not None:
        print(str(result.model), file=out)
    return EXIT_CODES[result.outcome]


# -- service commands -----------------------------------------------------


def _load_job_specs(text, base_dir="."):
    """Parse a jobs file: a JSON array of job objects, or JSONL.

    ``program`` / ``edb`` / ``query`` may be given inline, or via
    ``program_file`` / ``edb_file`` / ``query_file`` paths resolved
    relative to the jobs file.
    """
    text = text.strip()
    if not text:
        raise _UsageError("jobs file is empty")
    if text.startswith("["):
        try:
            payloads = json.loads(text)
        except ValueError as error:
            raise _UsageError("jobs file is not valid JSON: %s" % error) from error
    else:
        payloads = []
        for number, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payloads.append(json.loads(line))
            except ValueError as error:
                raise _UsageError(
                    "jobs line %d is not valid JSON: %s" % (number, error)
                ) from error
    specs = []
    for index, payload in enumerate(payloads, start=1):
        try:
            specs.append(_job_spec(payload, base_dir, index))
        except ValueError as error:
            raise _UsageError("job %d: %s" % (index, error)) from error
    return specs


def _job_spec(payload, base_dir, number):
    """The spec of job ``number``, a JSON job object whose
    ``program_file`` / ``edb_file`` / ``query_file`` paths (relative to
    ``base_dir``) are read in as ``program`` / ``edb`` / ``query``."""
    if not isinstance(payload, dict):
        raise ValueError("job must be a JSON object")
    payload = dict(payload)
    for key in ("program", "edb", "query"):
        path = payload.pop("%s_file" % key, None)
        if path is not None and not isinstance(path, str):
            raise ValueError("%s_file must be a path string" % key)
        if path is not None and key not in payload:
            payload[key] = _read(os.path.join(base_dir, path))
    return JobSpec.from_json_dict(payload, default_id="job-%d" % number)


def _load_fault_plan(path):
    from repro.runtime.faults import FaultPlan

    try:
        payload = json.loads(_read(path))
    except ValueError as error:
        raise _UsageError(
            "fault plan %s is not valid JSON: %s" % (path, error)
        ) from error
    try:
        return FaultPlan.from_json_dict(payload)
    except ValueError as error:
        raise _UsageError("fault plan %s: %s" % (path, error)) from error


def _build_service(args):
    from repro.service import CircuitBreaker, QueryService, RetryPolicy

    return QueryService(
        workers=args.workers,
        queue_limit=args.queue_limit,
        retry=RetryPolicy(max_attempts=args.max_attempts, seed=args.retry_seed),
        breaker=CircuitBreaker(
            failure_threshold=args.breaker_threshold,
            cooldown_seconds=args.breaker_cooldown,
        ),
        default_deadline=args.deadline,
        work_dir=args.work_dir,
    )


def _states_exit_code(states):
    """The exit code of a batch of jobs, from their terminal states."""
    if states & {"failed", "rejected"}:
        return EXIT_ERROR
    if "partial" in states:
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_batch(args, out):
    specs = _load_job_specs(
        _read(args.jobs), base_dir=os.path.dirname(os.path.abspath(args.jobs))
    )
    with _instrumented(args), _build_service(args) as service:
        results = service.run_batch(specs, timeout=args.batch_timeout)
        stats = service.stats()
        health = service.health()
        metrics = service.metrics.to_dict()
    code = _states_exit_code({result.state for result in results})
    if args.json:
        _emit_json(
            {
                "command": "batch",
                "outcome": "ok" if code == EXIT_OK else "degraded",
                "exit_code": code,
                "jobs": [result.to_json_dict() for result in results],
                "service": stats,
                "health": health,
                "metrics": metrics,
            },
            out,
        )
        return code
    for result in results:
        line = "%s: %s (%s; attempts=%d, backend=%s" % (
            result.job_id,
            result.state,
            result.outcome,
            result.attempts,
            result.backend,
        )
        if result.degradation:
            line += ", degraded=%s" % "+".join(result.degradation)
        if result.resumed:
            line += ", resumed"
        print(line + ")", file=out)
    jobs = stats["jobs"]
    print(
        "%% %d jobs: %d ok, %d partial, %d failed, %d rejected; "
        "%d retries, %d worker restarts; health: %s"
        % (
            len(results),
            jobs["ok"],
            jobs["partial"],
            jobs["failed"],
            jobs["rejected"],
            jobs["retries"],
            stats["workers"]["restarts"],
            health["status"],
        ),
        file=out,
    )
    return code


def _emit_metrics(service, out):
    """The ``metrics`` op of the serve protocol: raw Prometheus-style
    text exposition (not a JSON line — scrapers consume it verbatim)."""
    out.write(service.metrics_text())
    out.flush()


class _GracefulShutdown(Exception):
    """Raised by the ``serve`` signal handlers to unwind the read loop
    so the service drains and closes instead of dying mid-write."""


def _cmd_serve(args, out):
    import queue
    import signal
    import threading

    if args.input is not None:
        stream = open(args.input)
        base_dir = os.path.dirname(os.path.abspath(args.input))
    else:
        stream = sys.stdin
        base_dir = "."
    from repro.util.errors import ServiceError

    # The reader loop submits jobs; a writer thread prints each result
    # line as soon as its job finishes, in submission order, so a
    # client waiting on an answer gets it without sending more input.
    # ``lock`` guards ``out`` (health and metrics lines too), ``states``
    # and the count of submitted jobs whose line is not yet written.
    lock = threading.Lock()
    submitted = queue.Queue()  # JobHandles in submission order; None ends
    states = set()
    pending = [0]
    write_failed = []
    stopped = {"signal": None}

    def write_results():
        try:
            for handle in iter(submitted.get, None):
                result = handle.result()
                with lock:
                    states.add(result.state)
                    _emit_json_line(result.to_json_dict(), out)
                    pending[0] -= 1
        except OSError as error:
            write_failed.append(error)

    def emit(payload):
        with lock:
            _emit_json_line(payload, out)

    def finish_writing():
        submitted.put(None)
        writer.join()
        if write_failed:
            raise write_failed[0]

    def _on_signal(signum, frame):
        stopped["signal"] = signum
        raise _GracefulShutdown()

    previous_handlers = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous_handlers[signum] = signal.signal(signum, _on_signal)
        except (ValueError, OSError):
            # Not the main thread (tests drive main() directly): the
            # loop still works, just without signal-triggered shutdown.
            pass

    with _instrumented(args):
        with _build_service(args) as service:
            writer = threading.Thread(
                target=write_results, name="repro-serve-writer", daemon=True
            )
            writer.start()
            try:
                for number, line in enumerate(stream, start=1):
                    if write_failed:
                        raise write_failed[0]
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        payload = line if line in ("health", "metrics") else json.loads(line)
                        op = payload.get("op") if isinstance(payload, dict) else payload
                        if op == "health":
                            emit(service.health())
                            continue
                        if op == "metrics":
                            with lock:
                                _emit_metrics(service, out)
                            continue
                        handle = service.submit(_job_spec(payload, base_dir, number))
                        with lock:
                            pending[0] += 1
                        submitted.put(handle)
                    except (ValueError, ServiceError, _UsageError) as error:
                        with lock:
                            states.add("rejected")
                            _emit_json_line(
                                {
                                    "job_id": "job-%d" % number,
                                    "state": "rejected",
                                    "outcome": "error",
                                    "error": {
                                        "type": type(error).__name__,
                                        "message": str(error),
                                    },
                                },
                                out,
                            )
                finish_writing()
            except _GracefulShutdown:
                # Drain: every already-submitted job finishes and its
                # result line is written before the service closes
                # (flushing metrics) and the trace recorder closes.
                with lock:
                    drained = pending[0]
                try:
                    finish_writing()
                except _GracefulShutdown:
                    pass  # second signal: stop waiting, close now
                print(
                    "%% received signal %s, drained %d pending job(s), "
                    "shutting down" % (stopped["signal"], drained),
                    file=sys.stderr,
                )
            finally:
                submitted.put(None)
                for signum, handler in previous_handlers.items():
                    try:
                        signal.signal(signum, handler)
                    except (ValueError, OSError):
                        pass
                if stream is not sys.stdin:
                    stream.close()
    if stopped["signal"] is not None:
        return EXIT_OK
    return _states_exit_code(states)


def _open_store(args):
    from repro.edb import EdbStore

    kwargs = {}
    if getattr(args, "segment_bytes", None):
        if args.segment_bytes < 64:
            raise _UsageError("--segment-bytes must be at least 64")
        kwargs["segment_bytes"] = args.segment_bytes
    return EdbStore.open(args.store, **kwargs)


def _load_txn_batches(path):
    """The ``txn apply`` ops file: one transaction (a JSON list of op
    objects, or ``{"ops": [...]}``) or several (``{"txns": [[...],
    ...]}`` or a JSON list of lists)."""
    try:
        payload = json.loads(_read(path))
    except ValueError as error:
        raise _UsageError("ops file %s is not valid JSON: %s" % (path, error)) from error
    if isinstance(payload, dict):
        if "txns" in payload:
            batches = payload["txns"]
        else:
            batches = [payload.get("ops", [])]
    elif isinstance(payload, list) and payload and all(
        isinstance(entry, list) for entry in payload
    ):
        batches = payload
    else:
        batches = [payload]
    if not isinstance(batches, list) or not all(
        isinstance(batch, list) for batch in batches
    ):
        raise _UsageError("ops file %s: expected op lists" % path)
    return batches


def _cmd_txn_apply(args, out):
    from repro.edb import MaterializedModel, ops_from_json

    batches = _load_txn_batches(args.ops)
    spec = maintainer = result = None
    if args.maintain:
        maintainer = MaterializedModel(_read(args.maintain))
        spec = JobSpec(
            "txn-apply", "maintain", program=maintainer.program_text, store=args.store
        )
    budget = _budget_from_args(args)
    receipts, reports = [], []
    with _instrumented(args):
        store = _open_store(args)
        try:
            for batch in batches:
                receipt = store.apply(ops_from_json(store, batch))
                receipts.append(receipt.to_json_dict())
                if spec is None:
                    continue
                result = JobExecutor().execute(
                    spec, BACKEND_COMPILED, budget, store=store, maintainer=maintainer
                )
                if result.outcome != "ok":
                    break
                reports.append(maintainer.last_report.to_json_dict())
            else:
                if args.txn_checkpoint:
                    store.checkpoint()
        finally:
            store.close()
    outcome = "ok" if result is None else result.outcome
    model = None if result is None else result.model
    window = tuple(args.window) if args.window else None
    if args.json:
        report = {"head_tx": store.head_tx, "receipts": receipts, "maintain": reports or None}
        if outcome != "ok":
            report["error"] = error_summary(result.error)
        if model is not None:
            report["stats"] = result.stats
            report["model"] = model_summary(model, window=window)
        return _emit_report(out, "txn-apply", outcome, **report)
    if result is not None:
        _print_error(result)
    for receipt in receipts:
        print(
            "tx %d: +%d -%d (declared %d, noops %d, %d WAL bytes)"
            % (
                receipt["tx"],
                receipt["asserted"],
                receipt["retracted"],
                receipt["declared"],
                receipt["noops"],
                receipt["wal_bytes"],
            ),
            file=out,
        )
    if reports:
        last = reports[-1]
        print(
            "%% maintained to tx %d: %s, %d round(s)"
            % (
                last["tx"],
                "recomputed (%s)" % (last["reason"] or "initial")
                if last["recomputed"] else
                "incremental (+%d -%d, overdeleted %d)"
                % (last["inserted"], last["retracted"], last["overdeleted"]),
                last["rounds"],
            ),
            file=out,
        )
    if model is not None:
        _print_model(model, window, out)
    return EXIT_CODES[outcome]


def _cmd_txn_log(args, out):
    store = _open_store(args)
    store.close()
    txns = store.transactions()
    if args.json:
        return _emit_report(out, "txn-log", head_tx=store.head_tx, txns=txns)
    for entry in txns:
        print(
            "tx %d: +%d -%d (declared %d)"
            % (entry["tx"], entry["asserted"], entry["retracted"], entry["declared"]),
            file=out,
        )
    print("%% head tx: %d" % store.head_tx, file=out)
    return EXIT_OK


def _cmd_txn_checkpoint(args, out):
    store = _open_store(args)
    try:
        path = store.checkpoint()
    finally:
        store.close()
    if args.json:
        return _emit_report(out, "txn-checkpoint", head_tx=store.head_tx, path=path)
    print("checkpoint at tx %d -> %s" % (store.head_tx, path), file=out)
    return EXIT_OK


def _cmd_asof(args, out):
    store = _open_store(args)
    store.close()
    tx = store.head_tx if args.tx is None else args.tx
    if args.tx is not None and args.tx > store.head_tx:
        raise _UsageError(
            "--tx %d is beyond the store head (%d)" % (args.tx, store.head_tx)
        )
    snapshot = store.snapshot(tx)
    window = tuple(args.window) if args.window else None
    if args.goal_directed and not args.program:
        raise _UsageError("--goal-directed requires --program")
    if not args.program:
        if args.json:
            return _emit_report(out, "asof", tx=tx, head_tx=store.head_tx, edb=str(snapshot))
        print("%% EDB as of tx %d (head %d)" % (tx, store.head_tx), file=out)
        print(str(snapshot), file=out)
        return EXIT_OK
    if args.goal_directed and not args.predicate:
        raise _UsageError("--goal-directed requires --predicate")
    goal = None
    if args.goal_directed:
        from repro.plan.magic import QueryGoal

        if window:
            goal = QueryGoal.windowed(args.predicate, window[0], window[1])
        else:
            goal = QueryGoal.whole(args.predicate)
    spec = JobSpec("asof", "run", program=_read(args.program))
    result = _execute(args, spec, edb=snapshot, goal=goal)
    header = ["%% model as of tx %d (head %d)" % (tx, store.head_tx)]
    predicates, extra = None, {"tx": tx}
    if result.magic is not None:
        extra["magic"] = result.magic
        if not result.magic.get("degraded"):
            # A goal-directed model is only promised within the demanded
            # region of the goal predicate; print just that.
            header.append("%% goal-directed: %s" % result.magic["goal"])
            predicates = [n for n in result.model.predicates() if n == args.predicate]
    return _report_model(args, "asof", result, out, header, predicates, **extra)


def build_parser():
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Temporal constraint databases with linear repeating "
        "points (Baudinet, Niézette & Wolper, PODS 1991).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="evaluate a deductive program")
    run.add_argument("program", help="deductive program file")
    run.add_argument("--edb", required=True, help="generalized database file")
    run.add_argument("--predicate", help="print only this IDB predicate")
    run.add_argument(
        "--strategy", choices=("naive", "semi-naive"), default="semi-naive"
    )
    run.add_argument("--patience", type=int, default=10)
    _add_fault_plan(run)
    run.add_argument(
        "--partial",
        action="store_true",
        help="on give-up, report the partial model as the answer: drop the "
        "give-up reason from stderr and from the --json error (the partial "
        "model is printed either way; the exit code still reports 3)",
    )
    run.add_argument(
        "--stats",
        action="store_true",
        help="print relation statistics for each predicate",
    )
    run.add_argument(
        "--verify",
        action="store_true",
        help="independently verify the model (stability + ground window)",
    )
    run.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="checkpoint file to write (with --checkpoint-every)",
    )
    run.add_argument(
        "--checkpoint-every",
        type=int,
        metavar="N",
        help="write a resumable checkpoint every N rounds",
    )
    run.add_argument(
        "--resume-from",
        metavar="PATH",
        help="resume evaluation from a checkpoint file",
    )
    _add_evaluation(run, _cmd_run)

    explain = commands.add_parser(
        "explain",
        help="print the compiled clause plans of a deductive program",
    )
    explain.add_argument("program", help="deductive program file")
    explain.add_argument("--edb", required=True, help="generalized database file")
    explain.add_argument(
        "--profile",
        action="store_true",
        help="execute the program once and report per-operator time and "
        "input/output cardinalities alongside the plans",
    )
    explain.add_argument(
        "--strategy",
        choices=("naive", "semi-naive"),
        default="semi-naive",
        help="evaluation strategy for the --profile run",
    )
    _add_json(explain)
    explain.set_defaults(handler=_cmd_explain)

    query = commands.add_parser("query", help="evaluate an FO query")
    query.add_argument("database", help="generalized database file")
    query.add_argument("formula", help="first-order query text")
    query.add_argument(
        "--program",
        metavar="FILE",
        help="evaluate this deductive program first; the query then "
        "ranges over its model (IDB + EDB)",
    )
    query.add_argument(
        "--goal-directed",
        action="store_true",
        help="with --program: evaluate only the demand cone of the "
        "query via the magic-set rewrite; answers are guaranteed "
        "within the demanded window (falls back to the full fixpoint "
        "when the rewrite cannot apply)",
    )
    _add_evaluation(query, _cmd_query, limits=0)

    d1s = commands.add_parser(
        "datalog1s", help="closed-form Datalog1S minimal model"
    )
    d1s.add_argument("program", help="Datalog1S program file")
    _add_evaluation(d1s, _cmd_periodic, limits=1, window=False)

    tlg = commands.add_parser("templog", help="Templog minimal model")
    tlg.add_argument("program", help="Templog program file")
    _add_evaluation(tlg, _cmd_periodic, limits=1, window=False)

    batch = commands.add_parser(
        "batch",
        help="run a file of jobs on the resilient query service",
    )
    batch.add_argument("jobs", help="jobs file (JSON array or JSONL)")
    batch.add_argument(
        "--batch-timeout",
        type=float,
        metavar="SECONDS",
        help="bound on the total wait for the whole batch",
    )
    _add_service(batch)
    _add_json(batch)
    batch.set_defaults(handler=_cmd_batch)

    serve = commands.add_parser(
        "serve",
        help="serve JSON jobs line by line (stdin by default)",
    )
    serve.add_argument(
        "--input",
        metavar="PATH",
        help="read job lines from this file instead of stdin",
    )
    _add_service(serve)
    _add_trace(serve)
    serve.set_defaults(handler=_cmd_serve)

    txn = commands.add_parser(
        "txn",
        help="transactions against a durable EDB store (WAL-backed)",
    )
    txn_commands = txn.add_subparsers(dest="txn_command", required=True)

    txn_apply = txn_commands.add_parser(
        "apply",
        help="commit one or more transactions of declare/assert/retract ops",
    )
    txn_apply.add_argument("store", help="store directory (created if absent)")
    txn_apply.add_argument(
        "ops",
        help="JSON ops file: one op list, {'ops': [...]}, {'txns': [[...], "
        "...]}, or a list of op lists (one transaction each)",
    )
    txn_apply.add_argument(
        "--maintain",
        metavar="PROGRAM",
        help="incrementally maintain this program's model across the "
        "applied transactions and print/report the final model",
    )
    txn_apply.add_argument(
        "--checkpoint",
        dest="txn_checkpoint",
        action="store_true",
        help="write a store checkpoint (and prune covered WAL segments) "
        "after the last transaction",
    )
    txn_apply.add_argument(
        "--segment-bytes",
        type=int,
        metavar="N",
        help="WAL segment rotation threshold (testing/tuning)",
    )
    _add_fault_plan(txn_apply)
    _add_evaluation(txn_apply, _cmd_txn_apply)

    txn_log = txn_commands.add_parser(
        "log", help="list the store's committed transactions"
    )
    txn_log.add_argument("store", help="store directory")
    _add_json(txn_log)
    txn_log.set_defaults(handler=_cmd_txn_log)

    txn_ckpt = txn_commands.add_parser(
        "checkpoint",
        help="snapshot the fact history and prune covered WAL segments",
    )
    txn_ckpt.add_argument("store", help="store directory")
    _add_json(txn_ckpt)
    txn_ckpt.set_defaults(handler=_cmd_txn_checkpoint)

    asof = commands.add_parser(
        "asof",
        help="query a durable EDB store as of a transaction "
        "(tx <= N and not retracted by N)",
    )
    asof.add_argument("store", help="store directory")
    asof.add_argument(
        "--tx",
        type=int,
        metavar="N",
        help="the transaction to view as of (default: the store head)",
    )
    asof.add_argument(
        "--program",
        metavar="FILE",
        help="evaluate this deductive program over the as-of snapshot "
        "(default: print the snapshot EDB itself)",
    )
    asof.add_argument(
        "--predicate",
        metavar="NAME",
        help="with --goal-directed: the goal predicate to demand",
    )
    asof.add_argument(
        "--goal-directed",
        action="store_true",
        help="with --program and --predicate: evaluate only the goal's "
        "demand cone via the magic-set rewrite, pushing --window into "
        "the demand as a constraint zone",
    )
    _add_evaluation(asof, _cmd_asof)

    return parser


def _add_service(parser):
    parser.add_argument(
        "--workers", type=int, default=4, metavar="N", help="worker pool size"
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        metavar="N",
        help="admission queue bound (submissions beyond it are shed)",
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        metavar="N",
        help="attempts per job for transient failures",
    )
    parser.add_argument(
        "--retry-seed",
        type=int,
        default=0,
        metavar="SEED",
        help="seed of the deterministic backoff jitter",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        metavar="N",
        help="consecutive terminal failures that open a program's circuit",
    )
    parser.add_argument(
        "--breaker-cooldown",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="cooldown before a half-open probe is admitted",
    )
    parser.add_argument(
        "--deadline-seconds",
        "--deadline",
        dest="deadline",
        type=float,
        metavar="SECONDS",
        help="default per-job wall-clock deadline (jobs may override)",
    )
    parser.add_argument(
        "--work-dir",
        metavar="PATH",
        help="directory for per-job checkpoints (temporary by default)",
    )
    _add_fault_plan(parser)


def main(argv=None, out=None):
    """Entry point; returns a process exit code."""
    out = out or sys.stdout
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        print(
            "error: unrecognized arguments: %s" % " ".join(unknown),
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        return args.handler(args, out)
    except (_UsageError, ParseError, OSError) as error:
        print("error: %s" % error, file=sys.stderr)
        return EXIT_USAGE
    except ReproError as error:
        print("error: %s" % error, file=sys.stderr)
        return EXIT_ERROR
