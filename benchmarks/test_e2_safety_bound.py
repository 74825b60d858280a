"""E2 — Theorem 4.2: free-extension safety is always reached, within
the product-of-periods bound.

For the one-chain workload ``p(t) <- seed(t); p(t+k) <- p(t)`` over a
seed of period P, the closed form has ``P / gcd(P, k)`` residue
classes; free signatures stabilize after exactly that many productive
rounds — always at most the paper's bound (the product of the EDB
periods, here P).  The sweep asserts the bound on a grid and the
benchmark times a representative evaluation.

The rounds measured are the paper's naive T_GP, which the reference
backend runs.  The compiled engine closes this shift chain at
acceptance (DESIGN §6): its row beside each measurement is 2 rounds
and one ``gcd(P, k)``-period tuple, the same extension.
"""

import math

import pytest

from repro.core import DeductiveEngine

from workloads import shift_cycle_workload

GRID = [
    (period, shift)
    for period in (6, 12, 24, 48, 168)
    for shift in (2, 5, 18, 48)
]


def measure(period, shift, evaluation="reference"):
    program, edb = shift_cycle_workload(period, shift)
    model = DeductiveEngine(
        program, edb, strategy="naive", evaluation=evaluation
    ).run(check_free_extension_safety=True)
    return model


def test_e2_bound_holds_across_grid(benchmark):
    def sweep():
        rows = []
        for (period, shift) in GRID:
            model = measure(period, shift)
            compiled = measure(period, shift, "compiled")
            classes = period // math.gcd(period, shift)
            rows.append(
                (period, shift, model.stats.signature_stable_round, classes,
                 model, compiled)
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for (period, shift, stable_round, classes, model, compiled) in rows:
        # Theorem 4.2's bound: at most the product of EDB periods.
        assert stable_round <= period
        # Our sharper prediction for this workload family.
        assert stable_round == classes
        # The compiled row: the chain closes at acceptance.
        assert compiled.stats.rounds == 2
        assert len(compiled.relation("p")) == 1
        assert compiled.relation("p").equivalent(model.relation("p"))


def test_e2_free_extension_safety_verified(benchmark):
    model = benchmark.pedantic(
        lambda: measure(168, 48), rounds=1, iterations=1
    )
    assert model.stats.free_extension_safe_checked is True
    assert model.stats.constraint_safe
    # Theorem 4.2's test describes the one-step chain, which the
    # compiled engine skips: it records None.
    compiled = measure(168, 48, "compiled")
    assert compiled.stats.free_extension_safe_checked is None
    assert compiled.stats.constraint_safe


@pytest.mark.parametrize("period,shift", [(24, 5), (168, 48)])
def test_e2_single_configurations(benchmark, period, shift):
    model = benchmark(lambda: measure(period, shift))
    assert model.stats.constraint_safe


def report():
    print("E2 — iterations to free-extension safety vs Theorem 4.2 bound")
    print(
        "%8s %6s %18s %14s %8s %16s %14s"
        % ("period", "shift", "stable at round", "classes", "bound",
           "compiled rounds", "compiled size")
    )
    for (period, shift) in GRID:
        model = measure(period, shift)
        compiled = measure(period, shift, "compiled")
        classes = period // math.gcd(period, shift)
        print(
            "%8d %6d %18d %14d %8d %16d %14d"
            % (period, shift, model.stats.signature_stable_round, classes, period,
               compiled.stats.rounds, len(compiled.relation("p")))
        )


if __name__ == "__main__":
    report()
