"""Golden matrix of the CLI's evaluating commands.

Runs ``run``, ``query``, ``asof``, ``txn apply``, ``datalog1s`` and
``templog`` (plus the CI smoke commands) in human and ``--json`` mode
over the ok, gave-up, budget-exceeded and fault-abort outcomes, and
``explain --profile --json`` on a program that closes and one that gives
up, each in a fresh process, and records stdout, stderr and the exit
code of every case with elapsed times and the scratch directory masked
(a profile's operator rows, listed hottest first, are sorted by clause,
variant and step, their ``seconds`` masked).  Recording the
matrix on two versions of the source tree and comparing the files shows
every byte the change moved::

    python tests/cli_golden.py record --src OLD/src > old.json
    python tests/cli_golden.py record --src src > new.json
    python tests/cli_golden.py compare old.json new.json

``compare`` prints each case whose output differs and exits 1 if any
does.  Commands without a ``--fault-plan`` flag (``query``, ``asof``)
get their fault plan installed in-process around ``main()``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile

EDB = """
relation course[2; 1] {
  (168n+8, 168n+10; "database") where T2 = T1 + 2;
}
relation seed[1; 0] { (n) where T1 = 0; }
"""

PROGRAM = """
problems(t1 + 2, t2 + 2; X) <- course(t1, t2; X).
problems(t1 + 48, t2 + 48; X) <- problems(t1, t2; X).
"""

DIVERGING = """
p(t) <- seed(t).
p(t + 5) <- p(t).
"""

D1S = """
train(5; liege).
train(t + 40; liege) <- train(t; liege).
"""

TEMPLOG = """
next^5 go.
always (next^40 go <- go).
"""

OPS = [
    {"op": "declare", "relation": "course", "temporal_arity": 2, "data_arity": 1},
    {"op": "declare", "relation": "seed", "temporal_arity": 1, "data_arity": 0},
    {
        "op": "assert",
        "relation": "course",
        "tuple": '(168n+8, 168n+10; "database") where T2 = T1 + 2',
    },
    {"op": "assert", "relation": "seed", "tuple": "(n) where T1 = 0"},
]

MORE = [
    {
        "op": "assert",
        "relation": "course",
        "tuple": '(168n+20, 168n+22; "logic") where T2 = T1 + 2',
    },
]

#: A permanent injected fault on the third clause evaluation: the
#: engine aborts with its partial model.
ABORT = {"specs": [{"site": "clause", "at": 3, "error": "injected"}]}

FILES = {
    "edb.gdb": EDB,
    "program.dtl": PROGRAM,
    "diverge.dtl": DIVERGING,
    "trains.d1s": D1S,
    "monitor.tlg": TEMPLOG,
    "ops.json": json.dumps(OPS),
    "multi.json": json.dumps({"txns": [OPS, MORE]}),
    "abort.json": json.dumps(ABORT),
    "corrupt.ck.json": "{not json",
}

RUN = ["run", "program.dtl", "--edb", "edb.gdb"]
DIVERGE = ["run", "diverge.dtl", "--edb", "edb.gdb", "--patience", "3"]
PROBLEMS = "problems(t1, t2; X)"
QUERY_PROGRAM = ["query", "edb.gdb", PROBLEMS, "--program", "program.dtl"]
QUERY_DIVERGE = ["query", "edb.gdb", "p(t)", "--program", "diverge.dtl"]
ASOF = ["asof", "store", "--program", "program.dtl"]
ASOF_DIVERGE = ["asof", "store", "--program", "diverge.dtl"]


def _both(name, argv, plan=None):
    """The case in human and in ``--json`` mode."""
    return [(name, argv, plan), (name + " --json", argv + ["--json"], plan)]


def cases():
    """``(name, argv, in-process fault plan or None)``, in run order
    (later cases read the stores earlier ones write)."""
    matrix = []
    # run
    matrix += _both("run ok", RUN + ["--window", "0", "60"])
    matrix += _both("run ok predicate", RUN + ["--predicate", "problems", "--stats"])
    matrix.append(("run verify", RUN + ["--verify"], None))
    matrix += _both("run gave-up", DIVERGE)
    matrix += _both("run gave-up partial", DIVERGE + ["--partial", "--window", "0", "20"])
    matrix += _both("run budget rounds", RUN + ["--max-rounds", "1", "--window", "0", "60"])
    matrix += _both("run budget deadline", RUN + ["--deadline", "0"])
    matrix += _both("run budget tuples", RUN + ["--max-tuples", "1"])
    matrix += _both("run budget derived", RUN + ["--max-derived", "1"])
    matrix += _both("run abort", RUN + ["--fault-plan", "abort.json"])
    matrix.append(
        (
            "run checkpoint",
            RUN + ["--checkpoint", "ck.json", "--checkpoint-every", "1"],
            None,
        )
    )
    matrix += _both("run resume", RUN + ["--resume-from", "ck.json"])
    matrix.append(("run resume corrupt", RUN + ["--resume-from", "corrupt.ck.json"], None))
    matrix.append(("run checkpoint-every 0", RUN + ["--checkpoint", "x.json", "--checkpoint-every", "0"], None))
    matrix.append(("run checkpoint-every no path", RUN + ["--checkpoint-every", "1"], None))
    matrix.append(("run unknown flag", RUN + ["--parallel", "2"], None))
    matrix.append(("run missing edb", ["run", "program.dtl", "--edb", "absent.gdb"], None))
    # query
    matrix += _both(
        "query fo", ["query", "edb.gdb", "exists t2 (course(t1, t2; C))", "--window", "0", "200"]
    )
    matrix += _both("query fo closed", ["query", "edb.gdb", "exists t1, t2 (course(t1, t2; C))"])
    matrix += _both("query fo budget", ["query", "edb.gdb", "course(t1, t2; C)", "--deadline", "0"])
    matrix += _both("query program", QUERY_PROGRAM + ["--window", "0", "120"])
    matrix += _both("query program gave-up", QUERY_DIVERGE)
    matrix += _both("query program budget", QUERY_PROGRAM + ["--deadline", "0"])
    matrix += _both("query program abort", QUERY_PROGRAM, ABORT)
    matrix += _both("query goal", QUERY_PROGRAM + ["--goal-directed", "--window", "0", "120"])
    matrix += _both(
        "query goal degraded",
        ["query", "edb.gdb", "not problems(t1, t2; X) and course(t1, t2; X)",
         "--program", "program.dtl", "--goal-directed", "--window", "0", "120"],
    )
    matrix += _both("query goal gave-up", QUERY_DIVERGE + ["--goal-directed", "--window", "0", "20"])
    matrix += _both("query goal budget", QUERY_PROGRAM + ["--goal-directed", "--deadline", "0"])
    matrix.append(("query goal no program", ["query", "edb.gdb", PROBLEMS, "--goal-directed"], None))
    # datalog1s / templog
    for command, path in (("datalog1s", "trains.d1s"), ("templog", "monitor.tlg")):
        matrix += _both(command + " ok", [command, path])
        matrix += _both(command + " budget", [command, path, "--max-rounds", "1"])
        matrix += _both(command + " deadline", [command, path, "--deadline", "0"])
    # txn apply (each case its own store) and asof over "store"
    matrix += [
        ("txn apply", ["txn", "apply", "plain", "ops.json"], None),
        ("txn apply --json", ["txn", "apply", "plain-json", "multi.json", "--json"], None),
    ]
    maintain = ["--maintain", "program.dtl", "--window", "0", "60"]
    matrix += [
        ("txn maintain", ["txn", "apply", "m1", "multi.json"] + maintain, None),
        ("txn maintain --json", ["txn", "apply", "m2", "multi.json", "--json"] + maintain, None),
        ("txn maintain gave-up", ["txn", "apply", "g1", "ops.json", "--maintain", "diverge.dtl"], None),
        ("txn maintain gave-up --json", ["txn", "apply", "g2", "ops.json", "--json", "--maintain", "diverge.dtl"], None),
        ("txn maintain budget", ["txn", "apply", "b1", "ops.json", "--max-rounds", "1"] + maintain, None),
        ("txn maintain budget --json", ["txn", "apply", "b2", "ops.json", "--json", "--max-rounds", "1"] + maintain, None),
        ("txn maintain abort", ["txn", "apply", "a1", "ops.json", "--fault-plan", "abort.json"] + maintain, None),
        ("txn maintain abort --json", ["txn", "apply", "a2", "ops.json", "--json", "--fault-plan", "abort.json"] + maintain, None),
        ("txn setup store", ["txn", "apply", "store", "multi.json"], None),
    ]
    matrix += _both("asof edb", ["asof", "store", "--tx", "1"])
    matrix += _both("asof program", ASOF + ["--window", "0", "60"])
    matrix += _both("asof program tx", ASOF + ["--tx", "1"])
    matrix += _both("asof gave-up", ASOF_DIVERGE)
    matrix += _both("asof budget", ASOF + ["--max-rounds", "1"])
    matrix += _both("asof abort", ASOF, ABORT)
    matrix += _both(
        "asof goal", ASOF + ["--goal-directed", "--predicate", "problems", "--window", "0", "120"]
    )
    matrix += _both("asof goal whole", ASOF + ["--goal-directed", "--predicate", "problems"])
    matrix += _both("asof goal budget", ASOF + ["--goal-directed", "--predicate", "problems", "--max-rounds", "1"])
    matrix.append(("asof goal no predicate", ASOF + ["--goal-directed"], None))
    matrix.append(("asof tx beyond head", ["asof", "store", "--tx", "9"], None))
    # the CI smoke commands
    matrix.append(("ci run json", RUN + ["--json", "--window", "0", "60"], None))
    matrix.append(("ci run deadline", RUN + ["--deadline", "0"], None))
    matrix.append(("ci explain", ["explain", "program.dtl", "--edb", "edb.gdb"], None))
    matrix.append(("ci query diverge", ["query", "edb.gdb", "p(t)", "--program", "diverge.dtl"], None))
    # explain --profile
    for name, path in (("explain profile", "program.dtl"), ("explain profile gave-up", "diverge.dtl")):
        matrix.append((name + " --json", ["explain", path, "--edb", "edb.gdb", "--profile", "--json"], None))
    return matrix


_ELAPSED = re.compile(r'("[a-z_]*(?:seconds|_s)": )-?[0-9.e+-]+')
_ELAPSED_TEXT = re.compile(r"\([0-9.]+s elapsed\)")


def _sorted_profile(text):
    """An ``explain --profile --json`` report with its operator rows in
    a fixed order; other output unchanged."""
    try:
        report = json.loads(text)
        rows = report["profile"]["operators"]
    except (ValueError, KeyError, TypeError):
        return text
    rows.sort(key=lambda row: (row["clause"] or "", row["variant"] or "", row["step"] or 0))
    return json.dumps(report, indent=2) + "\n"


def _mask(text, work):
    text = _sorted_profile(text.replace(work, "<WORK>"))
    text = _ELAPSED.sub(r"\1<T>", text)
    return _ELAPSED_TEXT.sub("(<T>s elapsed)", text)


def record(src):
    results = {}
    with tempfile.TemporaryDirectory(prefix="repro-golden-") as work:
        for name, text in FILES.items():
            with open(os.path.join(work, name), "w") as handle:
                handle.write(text)
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        for name, argv, plan in cases():
            command = [sys.executable, os.path.abspath(__file__), "drive", json.dumps(plan)]
            done = subprocess.run(
                command + argv, cwd=work, env=env, capture_output=True, text=True, timeout=120
            )
            results[name] = {
                "argv": argv,
                "code": done.returncode,
                "stdout": _mask(done.stdout, work),
                "stderr": _mask(done.stderr, work),
            }
    return results


def drive(plan_json, argv):
    """Run ``main(argv)`` in this process, under the fault plan if any."""
    import contextlib

    from repro.cli import main
    from repro.runtime.faults import FaultPlan

    plan = json.loads(plan_json)
    context = (
        FaultPlan.from_json_dict(plan).installed() if plan else contextlib.nullcontext()
    )
    with context:
        return main(argv)


def compare(old, new):
    differing = 0
    for name in sorted(set(old) | set(new)):
        if old.get(name) != new.get(name):
            differing += 1
            print("== %s" % name)
            for key in ("code", "stdout", "stderr"):
                before = (old.get(name) or {}).get(key)
                after = (new.get(name) or {}).get(key)
                if before != after:
                    print("-- %s before:\n%s\n-- %s after:\n%s" % (key, before, key, after))
    print("%d of %d cases differ" % (differing, len(set(old) | set(new))))
    return 1 if differing else 0


def main(argv):
    if argv[:1] == ["drive"]:
        return drive(argv[1], argv[2:])
    if argv[:1] == ["record"] and argv[1:2] == ["--src"]:
        json.dump(record(argv[2]), sys.stdout, indent=1, sort_keys=True)
        print()
        return 0
    if argv[:1] == ["compare"] and len(argv) == 3:
        with open(argv[1]) as a, open(argv[2]) as b:
            return compare(json.load(a), json.load(b))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
