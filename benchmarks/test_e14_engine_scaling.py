"""E14 — scaling of the bottom-up engine with the closed-form size.

Theorem 4.2 bounds the number of free extensions via the EDB periods;
the actual work of the engine scales with the number of residue
classes the closed form ends up holding.  This experiment sweeps that
number (seed period P with a coprime shift gives P classes) and the
number of EDB tuples, for both strategies — quantifying the cost of
the closed-form construction the paper advocates doing "once and for
all".

The classes sweep measures the paper's one-step T_GP, which the
reference backend runs: ``P + 1`` rounds to ``P`` tuples.  The
compiled engine closes the shift chain at acceptance (DESIGN §6): its
row is 2 rounds and one tuple, ``n``.
"""

import pytest

from repro.core import DeductiveEngine, parse_program
from repro.gdb import parse_database

from workloads import shift_cycle_workload

CLASS_COUNTS = (6, 12, 24, 48)


@pytest.mark.parametrize("classes", CLASS_COUNTS)
def test_e14_classes_sweep(benchmark, classes):
    # period = classes, shift coprime → exactly `classes` residue classes.
    program, edb = shift_cycle_workload(classes, 1)
    model = benchmark(
        lambda: DeductiveEngine(program, edb, evaluation="reference").run()
    )
    assert model.stats.constraint_safe
    assert len(model.relation("p").normalize()) == classes
    compiled = DeductiveEngine(program, edb).run()
    assert compiled.stats.rounds == 2
    assert len(compiled.relation("p")) == 1
    assert compiled.relation("p").equivalent(model.relation("p"))


@pytest.mark.parametrize("strategy", ("naive", "semi-naive"))
def test_e14_strategy_scaling(benchmark, strategy):
    program, edb = shift_cycle_workload(24, 1)
    model = benchmark(
        lambda: DeductiveEngine(program, edb, strategy=strategy).run()
    )
    assert model.stats.constraint_safe


@pytest.mark.parametrize("tuples", (2, 4, 8))
def test_e14_edb_size_sweep(benchmark, tuples):
    rows = "\n".join(
        "(24n+%d) where T1 >= 0;" % (3 * k) for k in range(tuples)
    )
    edb = parse_database("relation seed[1; 0] {\n%s\n}" % rows)
    program = parse_program("p(t) <- seed(t). p(t + 6) <- p(t).")
    model = benchmark(lambda: DeductiveEngine(program, edb).run())
    assert model.stats.constraint_safe


def report():
    import time

    print("E14 — engine scaling with closed-form size")
    print(
        "%10s %10s %12s %12s %16s %14s"
        % ("classes", "rounds", "naive (ms)", "semi (ms)",
           "compiled rounds", "compiled size")
    )
    for classes in CLASS_COUNTS:
        program, edb = shift_cycle_workload(classes, 1)
        start = time.perf_counter()
        naive = DeductiveEngine(
            program, edb, strategy="naive", evaluation="reference"
        ).run()
        naive_ms = (time.perf_counter() - start) * 1000
        start = time.perf_counter()
        semi = DeductiveEngine(program, edb, evaluation="reference").run()
        semi_ms = (time.perf_counter() - start) * 1000
        assert naive.relation("p").equivalent(semi.relation("p"))
        compiled = DeductiveEngine(program, edb).run()
        assert compiled.relation("p").equivalent(semi.relation("p"))
        print(
            "%10d %10d %12.1f %12.1f %16d %14d"
            % (classes, semi.stats.rounds, naive_ms, semi_ms,
               compiled.stats.rounds, len(compiled.relation("p")))
        )


if __name__ == "__main__":
    report()
