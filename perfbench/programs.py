"""Seeded input generators for the three workloads.

Everything here is a pure function of ``(seed, salt)``: the same
arguments give the same texts and op lists, byte for byte.  The
program under test only ever sees the generated texts and tuples.

Op lists are *stratified*: each workload cycles through a fixed
multiset of op shapes (the cost classes), and the seed only shuffles
the order and draws the offsets, shifts and constant names inside each
shape.  Two seeds therefore issue the same mix of cost classes, so a
percentile never lands on a different mode from one seed to the next.
"""

from __future__ import annotations

import math
import random

# -- closed_form: program families ------------------------------------------

#: (family, parameters, read window) cost classes of one closed_form
#: op.  A run costs roughly 5-30 ms on a 2-vCPU VM once the kernel join
#: cache is full.  The read lists every predicate's rows in [0, window);
#: each window is sized so a read costs about 6 ms, and each is at least
#: five periods long.
CLOSED_FORM_SHAPES = (
    ("multi_chain", (2, 24, 2, 2), 480),
    ("multi_chain", (2, 16, 2, 3), 240),
    ("multi_chain", (3, 18, 3, 2), 450),
    ("multi_chain", (3, 12, 2, 3), 156),
    ("shift_cycle", (6, 36, 4), 2160),
    ("shift_cycle", (8, 30, 6), 2400),
    ("two_temporal", (8, 168, 48), 1344),
    ("two_temporal", (6, 120, 24), 1200),
    ("negation", (3, 36, 3, 2), 1440),
    ("negation", (2, 48, 4, 3), 1728),
)


def _offsets(rng, period, shift, width, base=None):
    """``width`` distinct offsets in one coset of ``gcd(period,
    shift)`` (``base``, else a drawn one): every data item's shift
    orbit is the same set of residue classes, so an op's cost depends
    on its shape, not on the draw."""
    step = math.gcd(period, shift)
    if base is None:
        base = rng.randrange(step)
    return [base + step * k for k in rng.sample(range(period // step), width)]


def _multi_chain(rng, tag, chains, period, shift, width):
    """``chains`` independent shift cycles over a periodic seed, each
    with a self-join (E14's multi-chain family)."""
    edb, program = [], []
    for chain in range(chains):
        rows = "".join(
            ' (%dn+%d; "%s_%d_%d");' % (period, offset, tag, chain, item)
            for item, offset in enumerate(_offsets(rng, period, shift, width))
        )
        edb.append("relation s%d[1; 1] {%s }" % (chain, rows))
        program.append("p%d(t; X) <- s%d(t; X)." % (chain, chain))
        program.append("p%d(t + %d; X) <- p%d(t; X)." % (chain, shift, chain))
        program.append("m%d(t; X, Y) <- p%d(t; X), p%d(t; Y)." % (chain, chain, chain))
    return "\n".join(program), "\n".join(edb)


def _shift_cycle(rng, tag, cycles, period, shift):
    """``cycles`` one-predicate shift cycles (E14's 48-class shape)."""
    edb, program = [], []
    for cycle in range(cycles):
        edb.append(
            'relation s%d[1; 1] { (%dn+%d; "%s_%d"); }'
            % (cycle, period, rng.randrange(period), tag, cycle)
        )
        program.append("c%d(t; X) <- s%d(t; X)." % (cycle, cycle))
        program.append("c%d(t + %d; X) <- c%d(t; X)." % (cycle, shift, cycle))
    return "\n".join(program), "\n".join(edb)


def _two_temporal(rng, tag, courses, period, step):
    """Example 4.1 widened: ``courses`` two-temporal-argument relations
    each feeding a recursive ``problems`` predicate."""
    edb, program = [], []
    for course in range(courses):
        offset = rng.randrange(period)
        gap = 2 + rng.randrange(4)
        edb.append(
            'relation course%d[2; 1] { (%dn+%d, %dn+%d; "%s_%d") where T2 = T1 + %d; }'
            % (course, period, offset, period, (offset + gap) % period, tag, course, gap)
        )
        program.append(
            "problems%d(t1 + 2, t2 + 2; X) <- course%d(t1, t2; X)." % (course, course)
        )
        program.append(
            "problems%d(t1 + %d, t2 + %d; X) <- problems%d(t1, t2; X)."
            % (course, step, step, course)
        )
    return "\n".join(program), "\n".join(edb)


def _negation(rng, tag, chains, period, shift, width):
    """Two strata per chain: a shift cycle ``b`` over ``h``, then the
    ``s`` tuples it does not cover (stratified negation), then a shifted
    copy of those.  ``h`` item 0 shares ``s``'s coset, so ``b`` covers
    ``s`` item 0 and no other: the same share is negated in every op."""
    edb, program = [], []
    step = math.gcd(period, shift)
    for chain in range(chains):
        base = rng.randrange(step)
        covered = _offsets(rng, period, shift, 1, base)
        others = _offsets(rng, period, shift, width - 1, (base + 1) % step)
        for name, offsets in (("s", _offsets(rng, period, shift, width, base)), ("h", covered + others)):
            rows = "".join(
                ' (%dn+%d; "%s_%d");' % (period, offset, tag, item)
                for item, offset in enumerate(offsets)
            )
            edb.append("relation %s%d[1; 1] {%s }" % (name, chain, rows))
        program.append("b%d(t; X) <- h%d(t; X)." % (chain, chain))
        program.append("b%d(t + %d; X) <- b%d(t; X)." % (chain, shift, chain))
        program.append("f%d(t; X) <- s%d(t; X), not b%d(t; X)." % (chain, chain, chain))
        program.append("g%d(t + 1; X) <- f%d(t; X)." % (chain, chain))
    return "\n".join(program), "\n".join(edb)


_FAMILIES = {
    "multi_chain": _multi_chain,
    "shift_cycle": _shift_cycle,
    "two_temporal": _two_temporal,
    "negation": _negation,
}


def closed_form_ops(seed, count, salt=0):
    """``count`` closed_form ops: ``(family, program_text, edb_text,
    read_window)``.
    Constant names carry the op index, so every text is new to the
    process."""
    rng = random.Random("closed_form/%d/%d" % (seed, salt))
    ops = []
    while len(ops) < count:
        block = list(CLOSED_FORM_SHAPES)
        rng.shuffle(block)
        for family, params, window in block:
            tag = "k%d_%d" % (salt, len(ops))
            program, edb = _FAMILIES[family](rng, tag, *params)
            ops.append((family, program, edb, (0, window)))
    return ops[:count]


#: Shape of the warm-up: every ``(a, b)`` row pair of a join rule and
#: every row of a projection rule adds one kernel template, so the
#: caches get ``JOIN_ROWS**2 * JOIN_RULES`` and ``FILLER_ROWS *
#: FILLER_RULES`` = 1<<17 templates each, their cap.
JOIN_ROWS = 128
JOIN_RULES = 8
FILLER_ROWS = 4096
FILLER_RULES = 32

#: Projection rules per warm-up program.
FILLER_RULES_PER_PROGRAM = 4


def warmup_programs():
    """``(edb_text, [program_text, ...])``: the fixed, seed-independent
    draw that carries the process-level kernel caches to their steady
    state, past the 1<<17 cap of the join and projection template
    caches.  Templates are keyed by per-engine tokens no later engine
    reuses, and every workload compiles new engines per op, so a timed
    pass that started below a cap would cross it: E14's multi-chain-6
    run alone adds 16,560 join templates.  The EDB's rows' temporal
    parts all differ; each program is a short step of the warm-up."""

    def rows(name, count, data):
        body = "".join(' (%dn+%d; %s);' % (count, offset, data % (offset % 7)) for offset in range(count))
        return "relation %s {%s }" % (name, body)

    edb = [
        rows("a[1; 1]", JOIN_ROWS, '"a%d"'),
        rows("b[1; 1]", JOIN_ROWS, '"b%d"'),
        rows("filler[1; 2]", FILLER_ROWS, '"f%d", "g"'),
    ]
    programs = ["j%d(t; X, Y) <- a(t; X), b(t + %d; Y)." % (rule, rule) for rule in range(JOIN_RULES)]
    for first in range(0, FILLER_RULES, FILLER_RULES_PER_PROGRAM):
        programs.append(
            "\n".join(
                "q%d(t; X) <- filler(t; X, Y)." % rule
                for rule in range(first, first + FILLER_RULES_PER_PROGRAM)
            )
        )
    return "\n".join(edb), programs


# -- query_mix ---------------------------------------------------------------

QUERY_CHAINS = 8
QUERY_PERIOD = 24

#: Kinds of one block of ten query_mix jobs: 50% point goals, 30% window
#: goals, 20% FO queries with a join and negation over the EDB.  Each kind has its
#: own goal pool, so every block issues the same mix of cost classes.
QUERY_BLOCK = ("point",) * 5 + ("window",) * 2 + ("window_bound",) + ("fo",) * 2


#: FO jobs pair events of two seed relations less than this far apart
#: and keep the pairs whose second event is absent from a third.
FO_GAP = 4


def query_sources(seed):
    """The one program and EDB text every query_mix job resends.  Every
    seed offset is even, so each chain's ``p`` holds all of its items
    at every even instant and none at odd ones."""
    rng = random.Random("query_mix/sources/%d" % seed)
    edb, program = [], []
    for chain in range(QUERY_CHAINS):
        rows = "".join(
            ' (%dn+%d; "c%d");' % (QUERY_PERIOD, offset, item)
            for item, offset in enumerate(_offsets(rng, QUERY_PERIOD, 2, 4, base=0))
        )
        edb.append("relation seed%d[1; 1] {%s }" % (chain, rows))
        program.append("p%d(t; X) <- seed%d(t; X)." % (chain, chain))
        program.append("p%d(t + 2; X) <- p%d(t; X)." % (chain, chain))
        program.append(
            "meet%d(t; X, Y) <- p%d(t; X), p%d(t; Y)." % (chain, chain, chain)
        )
    return "\n".join(program), "\n".join(edb)


def _zipf_pick(rng, pool):
    """Skewed choice: rank r is drawn with weight 1/(r+1), so the head
    of the pool repeats exactly across jobs."""
    weights = [1.0 / (rank + 1) for rank in range(len(pool))]
    return rng.choices(pool, weights=weights)[0]


def _goal_pools(rng):
    """40 ``(formula, window)`` goals per job kind."""
    pools = {kind: [] for kind in QUERY_BLOCK}
    for _ in range(40):
        chain = rng.randrange(QUERY_CHAINS)
        instant = 2 * rng.randrange(QUERY_PERIOD)  # even: every point goal has answers
        pools["point"].append(("meet%d(t; X, Y)" % chain, (instant, instant + 1)))
        chain = rng.randrange(QUERY_CHAINS)
        low = rng.randrange(QUERY_PERIOD)
        pools["window"].append(("p%d(t; X)" % chain, (low, low + QUERY_PERIOD)))
        chain = rng.randrange(QUERY_CHAINS)
        formula = 'p%d(t; "c%d")' % (chain, rng.randrange(4))
        pools["window_bound"].append((formula, (low, low + 2 * QUERY_PERIOD)))
        first, second, third = rng.sample(range(QUERY_CHAINS), 3)
        formula = "seed%d(t; X) and seed%d(u; Y) and u > t and u < t + %d and not seed%d(u; Y)"
        pools["fo"].append(
            (formula % (first, second, FO_GAP, third), (low, low + 2 * QUERY_PERIOD))
        )
    return pools


def query_ops(seed, count, salt=0):
    """``count`` query_mix jobs: ``(kind, formula, window)``.  ``point``
    and ``window*`` jobs are goal-directed over the program; ``fo`` jobs
    query the EDB alone."""
    rng = random.Random("query_mix/ops/%d/%d" % (seed, salt))
    pools = _goal_pools(random.Random("query_mix/pools/%d" % seed))
    ops = []
    while len(ops) < count:
        block = list(QUERY_BLOCK)
        rng.shuffle(block)
        for kind in block:
            formula, window = _zipf_pick(rng, pools[kind])
            ops.append((kind, formula, window))
    return ops[:count]


def query_warmup_ops():
    """A fixed draw of jobs separate from the timed ones."""
    return query_ops(seed=-1, count=10)


# -- txn_fresh ---------------------------------------------------------------

TXN_PROGRAM = """
problems(t1 + 2, t2 + 2; X) <- course(t1, t2; X).
problems(t1 + 48, t2 + 48; X) <- problems(t1, t2; X).
"""

TXN_PERIOD = 168

#: One block of ten write transactions, as (kind, courses): seven
#: assert 14 new courses and three retract 6 live ones, so 70% of the
#: write ops are asserts.  Every fourth op is an as-of read.
TXN_BLOCK = (
    ("assert", 1), ("assert", 2), ("assert", 3), ("assert", 1),
    ("assert", 2), ("assert", 3), ("assert", 2),
    ("retract", 1), ("retract", 2), ("retract", 3),
)

#: Commits between store checkpoints.
CHECKPOINT_EVERY = 32

#: Overdeleted tuples past which a retraction falls back to a
#: from-scratch recompute.  Each course derives 7 ``problems`` tuples,
#: so retracting three courses at once (21) takes the recompute
#: fallback while one or two (7, 14) take the DRed path.
REDERIVE_BUDGET = 16

#: Courses asserted before timing starts.
TXN_INITIAL = 24

READ_SPAN = 48

#: As-of reads audit the store at transactions that are multiples of
#: this; the gate's from-scratch fixpoint of one such snapshot checks
#: every read at it and the maintained model sampled there.
AUDIT_EVERY = 8


def course_text(rng, name):
    """One course row: a weekly class of ``gap`` hours."""
    offset = rng.randrange(TXN_PERIOD)
    gap = 2 + rng.randrange(3)
    return '(%dn+%d, %dn+%d; "%s") where T2 = T1 + %d' % (
        TXN_PERIOD,
        offset,
        TXN_PERIOD,
        (offset + gap) % TXN_PERIOD,
        name,
        gap,
    )


def _txn_stream(rng, prefix, count, head, live):
    """``count`` ops over the live course list ``live`` (mutated), the
    store head being ``head`` before the first; returns ``(ops, head)``.
    An as-of read names a course that was live at its ``tx``, so every
    read returns rows, and its ``tx`` is a multiple of ``AUDIT_EVERY``
    (the latest such one when the history holds none yet)."""
    made = [0]

    def fresh():
        name = "%s%d" % (prefix, made[0])
        made[0] += 1
        return name, course_text(rng, name)

    ops = []
    writes = []
    history = {head: [name for name, _row in live]}  # tx -> live names
    while len(ops) < count:
        if not writes:
            writes = list(TXN_BLOCK)
            rng.shuffle(writes)
        if len(ops) % 4 == 3:
            audits = [tx for tx in history if history[tx] and tx % AUDIT_EVERY == 0]
            tx = rng.choice(audits or [max(tx for tx in history if history[tx])])
            low = rng.randrange(TXN_PERIOD)
            ops.append(("asof", tx, (low, low + READ_SPAN), rng.choice(history[tx])))
            continue
        kind, size = writes.pop()
        if kind == "retract" and len(live) > size + 4:
            picked = [live.pop(rng.randrange(len(live))) for _ in range(size)]
        else:
            kind = "assert"
            picked = [fresh() for _ in range(size)]
            live.extend(picked)
        ops.append((kind, picked))
        head += 1
        history[head] = [name for name, _row in live]
    return ops, head


def txn_ops(seed, count, salt=0):
    """``(initial, warmup, ops)`` for one store.

    ``initial`` is the course rows the store starts with (declared in
    tx 1, asserted together in tx 2).  ``warmup`` is a fixed,
    seed-independent draw over its own courses; ``ops`` are the
    ``count`` timed ops.  A write op is ``("assert"|"retract", [(name,
    row), ...])`` and commits exactly one transaction; a read op is
    ``("asof", tx, (low, high), name)``: the ``problems`` rows of one
    course (live or not at ``tx``) within the window.  Transaction ids are known here
    because no generated write is a no-op."""
    rng = random.Random("txn_fresh/%d/%d" % (seed, salt))
    initial = [
        ("c%d" % index, course_text(rng, "c%d" % index))
        for index in range(TXN_INITIAL)
    ]
    warmup, head = _txn_stream(random.Random("txn_fresh/warmup"), "w", 16, 2, [])
    live = list(initial)
    ops, _ = _txn_stream(rng, "n", count, head, live)
    return initial, warmup, ops
