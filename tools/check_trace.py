#!/usr/bin/env python
"""Validate a ``--trace`` JSONL file against the event-bus schema.

Stdlib-only (runs in CI without installing anything)::

    python tools/check_trace.py trace.jsonl --require-rounds 8 \\
        --require-kinds engine.run engine.round plan.operator

Checks, per line: valid JSON object; ``seq`` strictly increasing from
1; numeric ``ts``; a known ``kind``; and the kind-specific required
fields of ``repro.util.hooks``'s event vocabulary.  Exit code 0 on a
valid trace, 1 with one diagnostic per violation otherwise.
"""

from __future__ import annotations

import argparse
import json
import numbers
import sys

#: kind -> fields every event of that kind must carry (beyond seq/ts).
REQUIRED_FIELDS = {
    "engine.run": ("phase",),
    "engine.stratum": ("phase", "stratum"),
    "engine.round": ("phase", "round", "stratum"),
    "plan.operator": ("op", "out", "duration_s"),
    "kernel.batch": ("clause", "variant", "step", "size", "hits", "fast_path"),
    "checkpoint.write": ("path", "bytes", "duration_s"),
    "budget.charge": ("dimension", "amount", "total"),
    "coverage.cache": ("round", "stratum", "hits", "misses"),
    "service.job": ("phase", "job_id"),
    "edb.txn": ("root", "tx", "asserted", "retracted", "wal_bytes"),
    "edb.recover": ("root", "checkpoint_tx", "replayed_txns", "truncated_bytes", "head_tx"),
    "maintain.delta": ("tx", "inserted", "retracted", "rederived", "rounds", "recomputed"),
    "magic.rewrite": (
        "goal",
        "reachable",
        "restricted",
        "demand_rules",
        "dropped_clauses",
    ),
    "magic.seed": ("predicate", "magic", "zone", "data"),
}

#: extra fields required on specific phases.
PHASE_FIELDS = {
    ("engine.run", "begin"): ("strategy", "safety", "strata"),
    ("engine.run", "end"): ("outcome",),
    ("engine.round", "end"): ("derived", "accepted", "duration_s"),
    ("service.job", "outcome"): ("state", "outcome", "attempts"),
}

OPERATORS = {"join", "anti-join", "complement-join", "carrier", "projection"}

#: legal fast_path values on kernel.batch events.
FAST_PATHS = {"hash", "fused-closure", "product", "carrier", "projection"}


def check(path, require_rounds=None, require_kinds=()):
    """Validate one trace file; returns a list of violation strings."""
    problems = []
    seen_kinds = set()
    round_ends = 0
    last_seq = 0
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError as error:
        return ["cannot read %s: %s" % (path, error)]
    if not lines:
        problems.append("trace is empty")
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except ValueError as error:
            problems.append("line %d: not valid JSON: %s" % (number, error))
            continue
        if not isinstance(event, dict):
            problems.append("line %d: not a JSON object" % number)
            continue
        seq = event.get("seq")
        if not isinstance(seq, int) or seq <= last_seq:
            problems.append(
                "line %d: seq %r not strictly increasing after %d"
                % (number, seq, last_seq)
            )
        else:
            last_seq = seq
        if not isinstance(event.get("ts"), numbers.Real):
            problems.append("line %d: missing numeric ts" % number)
        kind = event.get("kind")
        if kind not in REQUIRED_FIELDS:
            problems.append("line %d: unknown kind %r" % (number, kind))
            continue
        seen_kinds.add(kind)
        for field in REQUIRED_FIELDS[kind]:
            if field not in event:
                problems.append(
                    "line %d: %s missing field %r" % (number, kind, field)
                )
        for field in PHASE_FIELDS.get((kind, event.get("phase")), ()):
            if field not in event:
                problems.append(
                    "line %d: %s/%s missing field %r"
                    % (number, kind, event.get("phase"), field)
                )
        if kind == "plan.operator" and event.get("op") not in OPERATORS:
            problems.append(
                "line %d: unknown operator %r" % (number, event.get("op"))
            )
        if kind == "kernel.batch" and event.get("fast_path") not in FAST_PATHS:
            problems.append(
                "line %d: unknown fast_path %r" % (number, event.get("fast_path"))
            )
        if kind == "engine.round" and event.get("phase") == "end":
            round_ends += 1
    for kind in require_kinds:
        if kind not in seen_kinds:
            problems.append("required kind %r never appeared" % kind)
    if require_rounds is not None and round_ends != require_rounds:
        problems.append(
            "expected %d engine.round end spans, found %d"
            % (require_rounds, round_ends)
        )
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("trace", help="JSONL trace file written by --trace")
    parser.add_argument(
        "--require-rounds",
        type=int,
        metavar="N",
        help="assert exactly N completed engine rounds",
    )
    parser.add_argument(
        "--require-kinds",
        nargs="*",
        default=(),
        metavar="KIND",
        help="event kinds that must appear at least once",
    )
    args = parser.parse_args(argv)
    problems = check(
        args.trace,
        require_rounds=args.require_rounds,
        require_kinds=args.require_kinds,
    )
    for problem in problems:
        print("FAIL: %s" % problem, file=sys.stderr)
    if problems:
        return 1
    print("trace ok: %s" % args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
