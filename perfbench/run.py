#!/usr/bin/env python3
"""The repository's benchmark: one command, three closed-loop workloads.

Run from the repository root::

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 10 --trace 0

``--trace 0`` sets up three times, runs equal-work rounds with tracing
off for about ``--seconds`` in all and reports the end-to-end metrics
over all of them, every time scaled to a reference host speed
(``hostspeed.py``); ``--trace 1`` runs one round untraced and one
traced and reports the per-layer metrics (see
``perfbench/NOTES.md``).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every op's
output passed the correctness gate and the cache steady-state holds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

from hostspeed import Meter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Samples an op list must leave beyond each tail percentile (each
#: workload fixes its own nearest-rank tail per op type).
MIN_BEYOND_TAIL = 10

#: Set-ups measured per untraced run; setup_s is their median.
SETUPS = 3

#: Least number of equal-work rounds in an untraced run.  Each round
#: has its own draw and its own state (a fresh store on txn_fresh) and
#: holds the workload's ``round_ops`` ops; ``--seconds`` sets how many
#: rounds there are.  The untimed work (two set-ups, each round's gate)
#: runs between rounds, so the timed rounds sample the shared host's
#: speed over the whole run.
MIN_ROUNDS = 3

#: Processes the correctness gate is split across.
GATE_WORKERS = 2


def _import_program():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE, os.path.join(ROOT, "tools")]
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print("perfbench: cannot import the program from %s/src: %s" % (ROOT, error), file=sys.stderr)
        sys.exit(2)


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def kernel_fill():
    from repro.gdb import kernel

    stats = kernel.cache_stats()
    return {name: stats[name] / stats["cap"] for name in ("join", "select", "extend", "project")}


class Bench:
    def __init__(self, args):
        from workloads import WORKLOADS

        self.args = args
        self.cls = WORKLOADS[args.workload]
        self.count = self.cls.round_ops
        self.rounds = max(MIN_ROUNDS, round(args.seconds * self.cls.rate / self.count))

    def workdir(self):
        """This process's directory for stores and service files."""
        return os.path.join(ROOT, ".perfbench", "%s-%d" % (self.args.workload, os.getpid()))

    def make(self, salt):
        """Inputs and state for one round: ``salt`` draws another op list
        of the same shapes, so every round does the same work."""
        return self.cls(self.args.seed, self.count, salt, os.path.join(self.workdir(), str(salt)))

    def setup(self):
        """Build every round's inputs and state after the warm-up;
        returns them and the set-up's seconds on the reference host."""
        from workloads import warm_kernel_caches

        meter = Meter()
        warm_kernel_caches(meter)
        rounds = [self.make(salt) for salt in range(self.rounds)]
        for workload in rounds:
            workload.setup()
            meter.step()
        return rounds, meter.scaled

    def timed_setup(self):
        """One set-up and its seconds, its state closed again (run in a
        forked child)."""
        rounds, seconds = self.setup()
        for workload in rounds:
            workload.close()
        shutil.rmtree(self.workdir(), ignore_errors=True)
        return seconds


def fork_child(fn, held=False):
    """Run ``fn()`` in a forked child that sends its JSON result back
    through a pipe; returns the handle :func:`join_child` takes.  A
    ``held`` child starts from the process state at the fork but waits
    to run until :func:`join_child` releases it."""
    sys.stdout.flush()
    read_end, write_end = os.pipe()
    hold_read, hold_write = os.pipe() if held else (None, None)
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        code = 1
        try:
            if held:
                os.close(hold_write)
                if not os.read(hold_read, 1):
                    return  # the parent went away before releasing it
            with os.fdopen(write_end, "w") as handle:
                json.dump(fn(), handle)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_end)
    if held:
        os.close(hold_read)
    return pid, read_end, hold_write


def join_child(child):
    """Release a held :func:`fork_child` child and wait for it; its
    result, or None when it failed."""
    pid, read_end, hold_write = child
    if hold_write is not None:
        os.write(hold_write, b"1")
        os.close(hold_write)
    with os.fdopen(read_end) as handle:
        reported = handle.read()
    _, status = os.waitpid(pid, 0)
    return json.loads(reported) if status == 0 and reported else None


def abandon_child(child):
    """Stop a held :func:`fork_child` child without releasing it, and
    wait for it to end."""
    pid, read_end, hold_write = child
    os.close(hold_write)
    os.close(read_end)
    os.waitpid(pid, 0)


def gate(rounds, results):
    """Run every round's correctness check, split across ``GATE_WORKERS``
    forked processes (the checks only read what the timed rounds left in
    memory); returns the failures."""

    def check(part):
        failures = []
        for workload, result in zip(rounds, results):
            failures += workload.check(result, part, GATE_WORKERS)
        return failures

    children = [fork_child(lambda part=part: check(part)) for part in range(GATE_WORKERS)]
    failures = []
    for child in children:
        reported = join_child(child)
        failures += ["a gate process failed"] if reported is None else reported
    return failures


def steady_state_problems(before, after):
    """No kernel template cache may cross its cap inside a timed pass,
    and the join cache must sit at the same fill at both ends."""
    problems = []
    if before["join"] != after["join"]:
        problems.append(
            "gdb.kernel.join_cache_fill moved during timing: %.6f -> %.6f"
            % (before["join"], after["join"])
        )
    for name in before:
        if before[name] < 1.0 <= after[name]:
            problems.append("kernel %s cache filled during timing" % name)
    return problems


UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "read_p50_ms": "ms",
    "read_tail_ms": "ms",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}


def end_to_end(results, setup_s, ok_share, tails):
    """The end-to-end figures over the samples of ``results``, each
    time scaled to the reference host by its metered step."""
    samples = [sample for result in results for sample in result.samples]
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(samples) / sum(result.meter.scaled for result in results),
    }
    for slot, tail in tails.items():
        times = [
            seconds * 1000.0 * scale
            for result in results
            for (kind, seconds, _ok), scale in zip(result.samples, result.scales())
            if kind == slot
        ]
        if len(times) * (1 - tail) < MIN_BEYOND_TAIL - 1e-9:
            raise RuntimeError("only %d %s samples: too few for the tail" % (len(times), slot))
        values["%s_p50_ms" % slot] = percentile(times, 0.5)
        values["%s_tail_ms" % slot] = percentile(times, tail)
    values["ok_share"] = ok_share
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {name: (values[name], UNITS[name]) for name in UNITS}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("closed_form", "query_mix", "txn_fresh"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    bench = Bench(args)
    try:
        if args.trace:
            report = traced_run(bench)
        else:
            report = untraced_run(bench)
    finally:
        shutil.rmtree(bench.workdir(), ignore_errors=True)
    for line in report["problems"]:
        print("FAIL: %s" % line, file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not report["problems"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in report["metrics"].items()
                },
            }
        )
    )
    return 0 if not report["problems"] else 1


def untraced_run(bench):
    started = time.perf_counter()
    # The extra set-ups fork from this cold state now and run between
    # the timed rounds; setup_s is the median of the three.
    held = [fork_child(bench.timed_setup, held=True) for _ in range(SETUPS - 1)]
    rounds, setup_times, results, problems = [], [], [], []
    try:
        rounds, seconds = bench.setup()
        setup_times.append(seconds)
        # The held set-ups run after the rounds that split the run in thirds.
        release = {len(rounds) * (k + 1) // SETUPS - 1: k for k in range(len(held))}
        before = kernel_fill()
        for index, workload in enumerate(rounds):
            results.append(workload.run(meter=Meter()))
            workload.close()
            problems += gate([workload], [results[-1]])
            # Done with: keep the samples, free the state and outputs.
            rounds[index] = None
            results[-1].outputs = []
            if index in release:
                setup_times.append(join_child(held[release[index]]))
        after = kernel_fill()
    finally:
        for workload in rounds:
            if workload is not None:
                workload.close()
        for k in range(max(0, len(setup_times) - 1), len(held)):
            abandon_child(held[k])
    if None in setup_times:
        raise RuntimeError("a set-up child failed")
    samples = [sample for result in results for sample in result.samples]
    failed = sum(1 for _kind, _seconds, ok in samples if not ok)
    metrics = end_to_end(
        results, statistics.median(setup_times), (len(samples) - failed) / len(samples), bench.cls.tails
    )
    raw = {
        slot: percentile([seconds * 1000.0 for kind, seconds, _ok in samples if kind == slot], 0.5)
        for slot in bench.cls.tails
    }
    scales = [scale for result in results for _end, scale in result.bounds]
    print(
        "perfbench: %.1fs in all; %d rounds, %.1fs timed; host scale min %.2f median %.2f max %.2f;"
        " unscaled p50 ms %s"
        % (
            time.perf_counter() - started,
            len(results),
            sum(result.meter.raw for result in results),
            min(scales),
            statistics.median(scales),
            max(scales),
            json.dumps(raw),
        ),
        file=sys.stderr,
    )
    return {
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
        "problems": steady_state_problems(before, after) + problems,
    }


def traced_run(bench):
    """Round 0 untraced, then round 1 traced; per-layer metrics of round 1."""
    import check_trace
    from repro.util import hooks

    import layers
    from tracing import HookCounts, Spans, instrument
    from workloads import warm_kernel_caches

    warm_kernel_caches()
    plain, traced = bench.make(0), bench.make(1)
    spans = Spans()
    counts = HookCounts(spans)
    recorder = layers.Recorder()
    try:
        plain.setup()
        traced.setup()
        before = kernel_fill()
        plain_result = plain.run()
        with instrument(spans), hooks.subscribed(counts, recorder):
            traced_result = traced.run(spans)
        after = kernel_fill()
    finally:
        plain.close()
        traced.close()
    problems = steady_state_problems(before, after)
    problems += gate([plain, traced], [plain_result, traced_result])
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    name = "%s-%d" % (bench.args.workload, bench.args.seed)
    events_path = os.path.join(out_dir, "trace-%s.jsonl" % name)
    recorder.write(events_path)
    spans.write(os.path.join(out_dir, "spans-%s.jsonl" % name))
    problems += check_trace.check(
        events_path, require_kinds=layers.REQUIRED_KINDS[bench.args.workload]
    )
    metrics, coverage_problems = layers.layer_metrics(
        traced_result, plain_result, spans, counts, after
    )
    samples = plain_result.samples + traced_result.samples
    return {
        "attempted": len(samples),
        "failed": sum(1 for _kind, _seconds, ok in samples if not ok),
        "metrics": metrics,
        "problems": problems + coverage_problems,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
