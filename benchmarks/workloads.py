"""Shared workload generators for the experiment suite (E1–E14).

Each experiment in EXPERIMENTS.md draws its inputs from here so that
the benchmark numbers and the recorded tables come from the same
generators.  Randomness is seeded for reproducibility.
"""

from __future__ import annotations

import random

from repro.core import parse_program
from repro.gdb import parse_database
from repro.lrp import EventuallyPeriodicSet

EXAMPLE_41_EDB = """
relation course[2; 1] {
  (168n+8, 168n+10; "database") where T2 = T1 + 2;
}
"""

EXAMPLE_41_PROGRAM = """
problems(t1 + 2, t2 + 2; "database") <- course(t1, t2; "database").
problems(t1 + 48, t2 + 48; X) <- problems(t1, t2; X).
"""


def example_41():
    """The paper's Example 4.1 as (program, edb)."""
    return parse_program(EXAMPLE_41_PROGRAM), parse_database(EXAMPLE_41_EDB)


def shift_cycle_workload(period, shift, offset=0):
    """A one-predicate recursive program over a periodic seed:
    ``p(t) <- seed(t); p(t + shift) <- p(t)`` with ``seed = period·n +
    offset``.  The closed form has ``period / gcd(period, shift)``
    residue classes; Theorem 4.2's bound is the seed period."""
    edb = parse_database(
        "relation seed[1; 0] { (%dn+%d); }" % (period, offset)
    )
    program = parse_program(
        "p(t) <- seed(t). p(t + %d) <- p(t)." % shift
    )
    return program, edb


def multi_chain_workload(chains=6, period=48, shift=2, data_per_chain=4):
    """E14's 48-class shift cycle, widened: ``chains`` independent
    recursive predicates over one period-``period`` seed each, with
    ``data_per_chain`` data constants riding along.

    A single shift cycle fires one clause variant per semi-naive round;
    this variant fires ``chains`` independent ones (one per chain's
    recursive clause), each deriving ``data_per_chain`` tuples, and a
    per-chain self-join doubles the work once a chain's classes start
    accumulating.  The closed form per chain still has
    ``period / gcd(period, shift)`` residue classes (Theorem 4.2's
    bound is the seed period), so rounds and totals match E14's shape.
    """
    edb_parts = []
    program_parts = []
    for chain in range(chains):
        rows = "".join(
            ' (%dn+%d; "c%d");' % (period, (chain * 5 + item) % period, item)
            for item in range(data_per_chain)
        )
        edb_parts.append("relation seed%d[1; 1] {%s }" % (chain, rows))
        program_parts.append("p%d(t; X) <- seed%d(t; X)." % (chain, chain))
        program_parts.append(
            "p%d(t + %d; X) <- p%d(t; X)." % (chain, shift, chain)
        )
        program_parts.append(
            "meet%d(t; X, Y) <- p%d(t; X), p%d(t; Y)." % (chain, chain, chain)
        )
    return (
        parse_program("\n".join(program_parts)),
        parse_database("\n".join(edb_parts)),
    )


def point_seed_workload(shift):
    """The non-closing workload of Section 4.4: a single time point
    propagated by ``+shift`` — periods stay 1, constraint safety is
    never reached, the engine must give up."""
    edb = parse_database("relation seed[1; 0] { (n) where T1 = 0; }")
    program = parse_program("p(t) <- seed(t). p(t + %d) <- p(t)." % shift)
    return program, edb


def unary_arithmetic_workload():
    """Two temporal arguments computing t2 = t1 + t1 by unary
    recursion — definable (Section 4.4 data expressiveness) but not
    periodic, so never constraint safe."""
    edb = parse_database("relation zero[2; 0] { (n, n) where T1 = 0 & T2 = 0; }")
    program = parse_program(
        """
        double(t1, t2) <- zero(t1, t2).
        double(t1 + 1, t2 + 2) <- double(t1, t2).
        """
    )
    return program, edb


def schedule_database(num_tuples, period=60, seed=0):
    """A timetable-style relation with ``num_tuples`` generalized
    tuples (temporal arity 2, data arity 0) for algebra scaling."""
    rng = random.Random(seed)
    rows = []
    for _ in range(num_tuples):
        offset = rng.randrange(period)
        ride = rng.randrange(5, 55)
        rows.append(
            "(%dn+%d, %dn+%d) where T1 >= 0 & T2 = T1 + %d;"
            % (period, offset, period, (offset + ride) % period, ride)
        )
    text = "relation r[2; 0] {\n%s\n}" % "\n".join(rows)
    return parse_database(text).relation("r")


def random_eps(rng):
    """A random eventually periodic set."""
    threshold = rng.randrange(0, 10)
    period = rng.randrange(1, 10)
    residues = {
        r for r in range(period) if rng.random() < 0.4
    }
    prefix = {t for t in range(threshold) if rng.random() < 0.4}
    return EventuallyPeriodicSet(
        threshold=threshold, period=period, residues=residues, prefix=prefix
    )


def random_datalog1s_text(rng, chains=2):
    """A random forward Datalog1S program: several seeded chains plus
    a conjunction predicate."""
    lines = []
    for index in range(chains):
        start = rng.randrange(0, 8)
        step = rng.randrange(1, 8)
        lines.append("p%d(%d)." % (index, start))
        lines.append("p%d(t + %d) <- p%d(t)." % (index, step, index))
    body = ", ".join("p%d(t)" % i for i in range(chains))
    lines.append("meet(t) <- %s." % body)
    return "\n".join(lines), [
        int(line.split("+ ")[1].split(")")[0])
        for line in lines
        if "+ " in line
    ]
