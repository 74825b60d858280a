#!/usr/bin/env python
"""Maintenance soak: one maintained model over many commits.

One process, one :class:`~repro.edb.MaterializedModel` over the
Example 4.1 program, and 200 seeded commits, each asserting or
retracting one to three courses.  Every refresh grows the relations of
the model before it, so this keeps carried column stores alive over
far more refreshes than the unit tests do.  Every 25th refresh must
be ``equivalent()`` to a from-scratch run of the store's snapshot.
Stdlib-only::

    PYTHONPATH=src python tools/maintenance_soak.py

Exit code 0 when every checked refresh agrees, 1 at the first that
does not.
"""

from __future__ import annotations

import random
import sys
import tempfile

from repro.core import DeductiveEngine, parse_program
from repro.edb import EdbStore, MaterializedModel
from repro.gdb.parser import parse_generalized_tuple

PROGRAM = """
problems(t1 + 2, t2 + 2; X) <- course(t1, t2; X).
problems(t1 + 48, t2 + 48; X) <- problems(t1, t2; X).
"""
COMMITS = 200
CHECK_EVERY = 25
SEED = 29
#: Few subjects, so courses share data values and their problems
#: chains meet (overdeletions then have survivors to rederive from).
SUBJECTS = ("database", "logic", "algebra", "networks", "compilers")


def course(rng):
    offset = rng.randrange(168)
    return parse_generalized_tuple(
        '(168n+%d, 168n+%d; "%s") where T2 = T1 + 2'
        % (offset, offset + 2, rng.choice(SUBJECTS)),
        2,
        1,
    )


def main():
    rng = random.Random(SEED)
    program = parse_program(PROGRAM)
    counts = {"warm": 0, "recomputed": 0, "checked": 0}
    with tempfile.TemporaryDirectory() as root:
        store = EdbStore(root + "/store")
        first = course(rng)
        store.apply(
            [
                {"op": "declare", "relation": "course", "temporal_arity": 2, "data_arity": 1},
                {"op": "assert", "relation": "course", "tuple": first},
            ]
        )
        live = [first]
        maintained = MaterializedModel(PROGRAM)
        maintained.refresh(store)
        for commit in range(1, COMMITS + 1):
            size = rng.randint(1, 3)
            if len(live) > size and rng.random() < 0.4:
                picked = rng.sample(live, size)
                for gt in picked:
                    live.remove(gt)
                kind = "retract"
            else:
                picked = []
                while len(picked) < size:
                    gt = course(rng)
                    if gt not in live and gt not in picked:
                        picked.append(gt)
                live.extend(picked)
                kind = "assert"
            store.apply(
                [{"op": kind, "relation": "course", "tuple": gt} for gt in picked]
            )
            model = maintained.refresh(store)
            counts["recomputed" if maintained.last_report.recomputed else "warm"] += 1
            if commit % CHECK_EVERY:
                continue
            counts["checked"] += 1
            scratch = DeductiveEngine(program, store.snapshot()).run()
            if not model.equivalent(scratch):
                print(
                    "refresh %d (tx %d, %s of %d courses) diverged from a "
                    "from-scratch run" % (commit, store.head_tx, kind, size),
                    file=sys.stderr,
                )
                return 1
        store.close()
    print(
        "%d commits: %d warm refreshes, %d recomputes; %d checked "
        "equivalent to from-scratch runs; %d courses live"
        % (COMMITS, counts["warm"], counts["recomputed"], counts["checked"], len(live))
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
