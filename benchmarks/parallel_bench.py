"""Parallel-fixpoint benchmark: sharded rounds.

Times the E14-shaped multi-chain shift-cycle workload sequentially and
at ``--parallel {2, 4}``, cross-checking that every parallel model is
``Model.equivalent()`` to the sequential one and that the engine
fingerprints are identical, then prices the recovery from one killed
worker.  Results go to ``BENCH_parallel.json``::

    python benchmarks/parallel_bench.py              # full sizes
    python benchmarks/parallel_bench.py --quick      # CI smoke sizes
    python benchmarks/parallel_bench.py --check      # exit 1 on any
                                                     # equivalence or
                                                     # wall regression

Sharded rounds split one round's clause-variant firings across
persistent worker processes; bulk payloads (the stratum broadcast,
round results, accepted-delta references) travel through shared-memory
segments while the pipes carry control frames only; the deterministic
pipe-byte bar for that protocol lives in ``tests/test_parallel.py``.

Wall-clock gates are core-count aware: ``--check`` asserts >= 1.5x
speedup at ``--parallel 4`` with at least 4 usable cores, > 1x at
``--parallel 2`` with at least 2, and on a single core — where
parallelism can only measure dispatch overhead, never speedup — that
``--parallel 2`` stays under the recorded overhead ceiling.  Under
``--quick`` the wall gates are skipped: at smoke sizes the one-time
pool bootstrap dominates, so the ratios say nothing about sharding
(equivalence and fingerprint gates still run).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.core import DeductiveEngine
from repro.runtime.faults import FaultPlan
from repro.util import hooks

import srcstate
from workloads import multi_chain_workload

REPS = 3
PARALLELISMS = (2, 4)
SPEEDUP_TARGET = 1.5
#: Single-core ceiling: parallel 2 may cost at most this much of the
#: sequential wall time (dispatch overhead, not speedup, is measurable
#: there).  Block task assignment plus worker-side gc isolation brought
#: the measured overhead from ~1.8x to ~1.4x; the ceiling ratchets at
#: 1.6 to stay noise-safe.  The aspirational bar is 1.15x — the rest of
#: the gap is per-replica join/canonicalization work that the kernel
#: vectorization item on the roadmap attacks, and ``--parallel auto``
#: already sidesteps it entirely by staying sequential on one core.
OVERHEAD_CEILING = 1.6
#: Recorded alongside the measured overhead in the payload.
OVERHEAD_TARGET = 1.15

#: The faulted-recovery scenario: SIGKILL one shard worker at the
#: FAULT_AT-th dispatch (worker 2 of round 2 at parallelism 2) and
#: measure what healing costs against the clean parallel run.
FAULT_SITE = "shard_worker_crash"
FAULT_AT = 4
FAULT_PARALLELISM = 2


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _best_runs(factories):
    """Best-of-REPS wall times for several engine factories at once.

    Reps are *interleaved* across the factories (rep 1 of every mode,
    then rep 2, ...) so a noisy neighbour on a shared host skews every
    mode's samples the same way instead of landing entirely on one
    mode — the wall-time ratios between modes are what the gates
    assert on.  Returns ``{key: (best_ms, model, fingerprint)}``.
    """
    best = {key: (float("inf"), None, None) for key, _ in factories}
    for _ in range(REPS):
        for key, make_engine in factories:
            engine = make_engine()
            start = time.perf_counter()
            model = engine.run()
            wall = (time.perf_counter() - start) * 1000
            if wall < best[key][0]:
                best[key] = (wall, model, engine.fingerprint())
            elif best[key][1] is None:
                best[key] = (best[key][0], model, engine.fingerprint())
    return best


def _entry(wall_ms, model, fingerprint):
    return {
        "wall_ms": round(wall_ms, 3),
        "rounds": model.stats.rounds,
        "accepted_tuples": model.stats.total_new_tuples(),
        "derived_tuples": sum(model.stats.derived_tuples_per_round),
        "fingerprint": fingerprint,
    }


def _assert_equivalent(name, sequential, parallel):
    for predicate in sequential.predicates():
        assert sequential.relation(predicate).equivalent(
            parallel.relation(predicate)
        ), "%s: parallel model disagrees on %r" % (name, predicate)
    assert sequential.stats.rounds == parallel.stats.rounds, (
        "%s: round counts diverge" % name
    )
    assert (
        sequential.stats.new_tuples_per_round
        == parallel.stats.new_tuples_per_round
    ), "%s: per-round accepted counts diverge" % name


def _scaling(name, program, edb, strategy="semi-naive"):
    """Sequential vs every parallelism level, with equivalence and
    fingerprint cross-checks.  Returns the sequential model (for
    further cross-checks) alongside the results table."""
    factories = [
        ("sequential", lambda: DeductiveEngine(program, edb, strategy=strategy))
    ]
    for parallelism in PARALLELISMS:
        factories.append(
            (
                "parallel_%d" % parallelism,
                lambda parallelism=parallelism: DeductiveEngine(
                    program, edb, strategy=strategy, parallelism=parallelism
                ),
            )
        )
    best = _best_runs(factories)
    results = {}
    wall_ms, sequential, fingerprint = best["sequential"]
    results["sequential"] = _entry(wall_ms, sequential, fingerprint)
    for parallelism in PARALLELISMS:
        key = "parallel_%d" % parallelism
        wall_ms, model, fingerprint = best[key]
        entry = _entry(wall_ms, model, fingerprint)
        _assert_equivalent("%s@%d" % (name, parallelism), sequential, model)
        assert entry["fingerprint"] == results["sequential"]["fingerprint"], (
            "%s: parallelism=%d changed the engine fingerprint"
            % (name, parallelism)
        )
        entry["speedup"] = round(
            results["sequential"]["wall_ms"] / entry["wall_ms"], 2
        )
        results[key] = entry
    return sequential, results


def _faulted_recovery(name, program, edb, sequential, scaling):
    """SIGKILL one shard worker mid-run and price the recovery.

    The pool must heal (respawn + in-round retry) rather than degrade,
    and the healed model must stay equivalent to the sequential one.
    The recorded overhead is the faulted wall time over the clean
    ``parallel_2`` wall time from the scaling table — the cost of one
    lost worker amortized across the whole run.
    """
    lost = []

    def sink(kind, fields):
        if kind == "shard.worker" and fields.get("phase") == "lost":
            lost.append(fields.get("reason"))

    best = float("inf")
    model = None
    for _ in range(REPS):
        del lost[:]
        engine = DeductiveEngine(
            program, edb, strategy="semi-naive", parallelism=FAULT_PARALLELISM
        )
        plan = FaultPlan.inject(FAULT_SITE, at=FAULT_AT)
        with plan.installed(), hooks.subscribed(sink):
            start = time.perf_counter()
            model = engine.run()
        best = min(best, (time.perf_counter() - start) * 1000)
    assert model.stats.shard_degraded is None, (
        "%s: a single worker kill must heal, not degrade" % name
    )
    assert lost, "%s: the fault plan never cost a worker" % name
    _assert_equivalent(name, sequential, model)
    clean_ms = scaling["parallel_%d" % FAULT_PARALLELISM]["wall_ms"]
    return {
        "parallelism": FAULT_PARALLELISM,
        "fault_site": FAULT_SITE,
        "fault_at": FAULT_AT,
        "wall_ms": round(best, 3),
        "clean_wall_ms": clean_ms,
        "recovery_overhead": round(best / clean_ms, 2),
        "workers_lost": len(lost),
        "healed": True,
    }


def run(quick=False):
    """The full benchmark payload (a JSON-safe dict)."""
    if quick:
        chains, period, data_per_chain = 3, 12, 2
    else:
        chains, period, data_per_chain = 6, 48, 4
    payload = {
        "quick": quick,
        "cpus": _usable_cpus(),
        "parallelisms": list(PARALLELISMS),
        "single_core_overhead_ceiling": OVERHEAD_CEILING,
        "single_core_overhead_target": OVERHEAD_TARGET,
    }
    program, edb = multi_chain_workload(
        chains=chains, period=period, shift=2, data_per_chain=data_per_chain
    )
    sequential, scaling = _scaling("e14-multi-chain", program, edb)
    payload["e14_multi_chain"] = dict(
        {"chains": chains, "classes": period // 2}, **scaling
    )
    payload["faulted_recovery"] = _faulted_recovery(
        "e14-faulted", program, edb, sequential, scaling
    )
    return payload


def write(payload, path="BENCH_parallel.json"):
    srcstate.stamp(payload)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def report():
    """Regenerate ``BENCH_parallel.json`` and print the summary table
    (hooked into ``benchmarks/report.py``)."""
    payload = run()
    write(payload)
    _print_summary(payload)


def _print_summary(payload):
    scaling = payload["e14_multi_chain"]
    print(
        "Parallel fixpoint — %d chains x %d classes, %d usable cpu(s), "
        "best of %d" % (
            scaling["chains"], scaling["classes"], payload["cpus"], REPS
        )
    )
    print("%16s %12s %8s %8s" % ("mode", "wall_ms", "speedup", "rounds"))
    sequential = scaling["sequential"]
    print(
        "%16s %12.2f %8s %8d"
        % ("sequential", sequential["wall_ms"], "-", sequential["rounds"])
    )
    for parallelism in payload["parallelisms"]:
        entry = scaling["parallel_%d" % parallelism]
        print(
            "%16s %12.2f %7.2fx %8d"
            % (
                "parallel %d" % parallelism,
                entry["wall_ms"],
                entry["speedup"],
                entry["rounds"],
            )
        )
    faulted = payload.get("faulted_recovery")
    if faulted is not None:
        print(
            "Faulted recovery — %s at dispatch %d, parallel %d: "
            "%.2f ms vs %.2f ms clean (%.2fx), %d worker(s) lost, healed"
            % (
                faulted["fault_site"],
                faulted["fault_at"],
                faulted["parallelism"],
                faulted["wall_ms"],
                faulted["clean_wall_ms"],
                faulted["recovery_overhead"],
                faulted["workers_lost"],
            )
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke sizes")
    parser.add_argument("--out", default="BENCH_parallel.json")
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail on equivalence regressions, and on missing "
        "speedup when the host has enough cores",
    )
    args = parser.parse_args(argv)
    payload = run(quick=args.quick)
    write(payload, args.out)
    _print_summary(payload)
    if args.check:
        # run() already asserted equivalence and fingerprints; what
        # remains is the core-count-gated wall-clock bars, meaningless
        # at --quick sizes, where the one-time pool bootstrap dominates.
        if args.quick:
            print(
                "check ok (quick): equivalence and fingerprint gates "
                "hold; wall bars need full sizes"
            )
            return 0
        failures = []
        cpus = payload["cpus"]
        scaling = payload["e14_multi_chain"]
        if cpus >= 4:
            best = scaling["parallel_4"]["speedup"]
            if best < SPEEDUP_TARGET:
                failures.append(
                    "parallel 4 speedup %.2fx below %.1fx on %d cpus"
                    % (best, SPEEDUP_TARGET, cpus)
                )
        if cpus >= 2:
            speedup = scaling["parallel_2"]["speedup"]
            if speedup <= 1.0:
                failures.append(
                    "parallel 2 speedup %.2fx is no win on %d cpus"
                    % (speedup, cpus)
                )
        else:
            overhead = (
                scaling["parallel_2"]["wall_ms"]
                / scaling["sequential"]["wall_ms"]
            )
            if overhead > OVERHEAD_CEILING:
                failures.append(
                    "parallel 2 costs %.2fx sequential on one cpu "
                    "(ceiling %.2fx)" % (overhead, OVERHEAD_CEILING)
                )
        for failure in failures:
            print("FAIL: %s" % failure, file=sys.stderr)
        if failures:
            return 1
        print("check ok: wall-clock bars for %d usable cpu(s) hold" % cpus)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
