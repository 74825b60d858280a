"""Regenerate every experiment table in one go.

Runs the ``report()`` of each experiment module E1–E14 in order,
printing the rows recorded in EXPERIMENTS.md, plus the benchmark
modules (``plan``, ``service``, ``edb``), which also write their
``BENCH_*.json`` artifacts.  After the selected reports it writes the
consolidated headline summary to ``BENCH_SUMMARY.md`` at the repo
root, built from whichever ``BENCH_*.json`` artifacts exist::

    python benchmarks/report.py            # all experiments + benches
    python benchmarks/report.py e4 e13     # a selection
    python benchmarks/report.py edb        # just BENCH_edb.json
"""

from __future__ import annotations

import importlib
import json
import os
import sys

import srcstate

EXPERIMENTS = [
    ("e1", "test_e1_example41_trace"),
    ("e2", "test_e2_safety_bound"),
    ("e3", "test_e3_data_expressiveness"),
    ("e4", "test_e4_query_expressiveness"),
    ("e5", "test_e5_algebra_ptime"),
    ("e6", "test_e6_closed_form_vs_ground"),
    ("e7", "test_e7_giveup_policy"),
    ("e8", "test_e8_ablations"),
    ("e9", "test_e9_ci_period_bounds"),
    ("e10", "test_e10_fo_negation"),
    ("e11", "test_e11_stratified_negation"),
    ("e12", "test_e12_projection_ablation"),
    ("e13", "test_e13_ltl_fo_equivalence"),
    ("e14", "test_e14_engine_scaling"),
    ("plan", "plan_bench"),
    ("service", "service_bench"),
    ("edb", "edb_bench"),
]

#: The benchmark artifacts the consolidated summary reads.
ARTIFACTS = (
    "BENCH_plan.json",
    "BENCH_service.json",
    "BENCH_edb.json",
)


def _load(path):
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def _plan_lines(payload):
    e14 = payload["e14_shift_cycle"]
    return [
        "- Compiled plans vs reference on E14 (%d classes, semi-naive): "
        "**%.2fx** (%.2f ms vs %.2f ms)."
        % (
            e14["classes"],
            e14["semi-naive"]["speedup"],
            e14["semi-naive"]["compiled"]["wall_ms"],
            e14["semi-naive"]["reference"]["wall_ms"],
        )
    ]


def _service_lines(payload):
    healthy = payload["healthy"]["workers-4"]
    lines = [
        "- Batch of %d Example 4.1 jobs at 4 workers: **%.1f jobs/s** "
        "(%.0f ms)."
        % (healthy["jobs"], healthy["jobs_per_second"], healthy["wall_ms"])
    ]
    overhead = payload.get("fault_overhead")
    if overhead is not None:
        lines.append(
            "- Stress fault plan overhead at 4 workers: **%.2fx** wall time."
            % overhead
        )
    return lines


def _edb_lines(payload):
    inserts = payload["insert_stream"]
    recovery = payload["recovery"]
    return [
        "- Incremental maintenance over %d insert txns: **%.2fx** vs "
        "from-scratch recompute (%.1f ms vs %.1f ms, %d recompute "
        "fallbacks)."
        % (
            inserts["txns"],
            inserts["speedup"],
            inserts["maintain"]["total_ms"],
            inserts["recompute"]["total_ms"],
            inserts["recomputes"],
        ),
        "- Recovery at tx %d: cold WAL replay %.2f ms, from checkpoint "
        "**%.2f ms**."
        % (
            recovery["head_tx"],
            recovery["wal_replay_ms"],
            recovery["from_checkpoint_ms"],
        ),
    ]


_SECTIONS = (
    ("BENCH_plan.json", "Plan layer", _plan_lines),
    ("BENCH_service.json", "Query service", _service_lines),
    ("BENCH_edb.json", "Durable EDB & incremental maintenance", _edb_lines),
)


def write_summary(path="BENCH_SUMMARY.md"):
    """Write the consolidated headline summary from the ``BENCH_*.json``
    artifacts that exist next to ``path`` (missing ones are skipped)."""
    base = os.path.dirname(os.path.abspath(path))
    chunks = [
        "# Benchmark summary",
        "",
        "Headline numbers from the `BENCH_*.json` artifacts; regenerate "
        "with `python benchmarks/report.py plan service edb`.",
        "",
    ]
    found = False
    for artifact, title, render in _SECTIONS:
        payload = _load(os.path.join(base, artifact))
        if payload is None:
            continue
        found = True
        chunks.append("## %s (`%s`)" % (title, artifact))
        chunks.append("")
        chunks.extend(render(payload))
        chunks.append("")
    if not found:
        return None
    with open(path, "w") as handle:
        handle.write("\n".join(chunks))
    return path


def stale_artifacts(base=None):
    """The ``BENCH_*.json`` artifacts whose recorded ``src_digest``
    does not match the current tracked ``src/`` tree — their numbers
    were measured against different code than what is checked out.
    Artifacts written before digests existed (no ``src_digest`` key)
    are stale by definition."""
    if base is None:
        base = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    current = srcstate.src_digest(base)
    if current is None:
        return []
    stale = []
    for artifact in ARTIFACTS:
        payload = _load(os.path.join(base, artifact))
        if payload is None:
            continue
        if payload.get("src_digest") != current:
            stale.append(artifact)
    return stale


def flag_stale_artifacts(base=None, out=sys.stderr):
    """Print one warning per stale bench artifact; returns the list."""
    stale = stale_artifacts(base)
    for artifact in stale:
        print(
            "WARNING: %s was measured against a different src/ tree "
            "(src_digest mismatch) — regenerate it "
            "(python benchmarks/report.py %s)"
            % (artifact, artifact.replace("BENCH_", "").replace(".json", "")),
            file=out,
        )
    return stale


def main(argv=None):
    """Run the selected (default: all) experiment reports, then refresh
    the consolidated summary.

    ``--check`` turns stale-artifact warnings into a hard failure
    (exit 1) — the CI benchmark-smoke job runs ``report.py --check``
    after regenerating its artifacts so a bench number can never
    silently predate the code it claims to measure.  With ``--check``
    and no selections, nothing is re-run: it is a pure staleness gate.
    """
    argv = list(argv or [])
    check = "--check" in argv
    if check:
        argv = [name for name in argv if name != "--check"]
    stale = flag_stale_artifacts()
    if check and stale and not argv:
        print(
            "FAIL: %d stale benchmark artifact(s): %s"
            % (len(stale), ", ".join(stale)),
            file=sys.stderr,
        )
        return 1
    wanted = {name.lower() for name in argv} or None
    if check and wanted is None and not stale:
        print("check ok: no stale benchmark artifacts")
        return 0
    for key, module_name in EXPERIMENTS:
        if wanted is not None and key not in wanted:
            continue
        module = importlib.import_module(module_name)
        module.report()
        print()
    written = write_summary()
    if written is not None:
        print("consolidated summary -> %s" % written)
    if check:
        stale = stale_artifacts()
        ran = [key for key, _ in EXPERIMENTS if wanted is None or key in wanted]
        stale = [
            artifact
            for artifact in stale
            if artifact.replace("BENCH_", "").replace(".json", "") in ran
        ]
        if stale:
            print(
                "FAIL: artifacts still stale after regeneration: %s"
                % ", ".join(stale),
                file=sys.stderr,
            )
            return 1
        print("check ok: regenerated artifacts are fresh")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
