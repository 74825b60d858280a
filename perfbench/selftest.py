#!/usr/bin/env python3
"""Self-tests of the benchmark itself, run from the repository root::

    python3 perfbench/selftest.py

1. Determinism of inputs: the same seed yields the same op lists, and
   another seed yields different ones.
2. Determinism of work: two traced runs of each workload with the same
   seed repeat every work count exactly, so timing noise is never
   mistaken for changed work.
3. Steady state and coverage: each traced run must exit 0, which
   ``run.py`` allows only when every output passed the correctness
   gate, ``gdb.kernel.join_cache_fill`` is the same at the start and end
   of timing (and sits at the cap), no other kernel cache crossed its
   cap, the hook events pass ``tools/check_trace.py``, and the layer
   spans cover at least 95% of every traced op's wall.

Exit code 0 when all hold.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Work counts that must repeat exactly between two same-seed runs.
WORK_COUNTS = (
    "core.engine.rounds",
    "core.engine.derived_tuples",
    "core.engine.accepted_tuples",
    "plan.operators.rows_out",
    "plan.magic.derived_tuples",
    "edb.wal.bytes_per_txn",
    "edb.maintain.recompute_share",
    "edb.maintain.rounds",
)


def check_inputs():
    sys.path[:0] = [HERE]
    import programs

    failures = []
    generators = {
        "closed_form": lambda seed: programs.closed_form_ops(seed, 40),
        "query_mix": lambda seed: (programs.query_sources(seed), programs.query_ops(seed, 60)),
        "txn_fresh": lambda seed: programs.txn_ops(seed, 60),
    }
    for name, generate in generators.items():
        if generate(7) != generate(7):
            failures.append("%s: seed 7 gave two different op lists" % name)
        if generate(7) == generate(8):
            failures.append("%s: seeds 7 and 8 gave the same op list" % name)
    return failures


def traced(workload, seed):
    """A traced run: one untraced and one traced round of fixed size
    (``--seconds`` does not size it)."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", "1",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        return None, "exit %d: %s" % (done.returncode, done.stderr.strip()[-2000:])
    return json.loads(done.stdout.strip().splitlines()[-1])["metrics"], None


def check_work():
    failures = []
    for workload in ("closed_form", "query_mix", "txn_fresh"):
        first, error = traced(workload, 11)
        if error:
            failures.append("%s: traced run failed: %s" % (workload, error))
            continue
        second, error = traced(workload, 11)
        if error:
            failures.append("%s: traced run failed: %s" % (workload, error))
            continue
        if first["gdb.kernel.join_cache_fill"]["value"] != 1.0:
            failures.append("%s: timing did not start past the join-cache cap" % workload)
        for name in WORK_COUNTS:
            a, b = first[name]["value"], second[name]["value"]
            if a != b:
                failures.append("%s: %s differs between same-seed runs: %r vs %r" % (workload, name, a, b))
        print("%s: work counts repeat (%s)" % (
            workload,
            ", ".join("%s=%s" % (name, first[name]["value"]) for name in WORK_COUNTS),
        ))
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    failures = check_inputs() + check_work()
    for failure in failures:
        print("FAIL: %s" % failure, file=sys.stderr)
    if not failures:
        print("selftest ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
