"""E7 — Section 4.4: give-up policy on non-closing programs.

Two workload families never become constraint safe:

* the *point seed* (``p(0)``, ``p(t+5) <- p(t)``) — all lrps stay at
  period 1, so each round adds a new pinned point forever;
* *unary arithmetic* (``double(t1+1, t2+2) <- double(t1, t2)``) — the
  language can define non-periodic relations (data expressiveness "at
  least primitive recursive"), for which no lrp closed form exists.

Theorem 4.2 still holds — free signatures stabilize immediately — and
the engine must take the paper's advice: give up after a bounded
number of extra rounds, raising ``GiveUpError`` with a sound partial
model, never diverging.  The benchmark times the give-up path.

The point-seed rows measure the paper's one-step T_GP, which the
reference backend runs.  The compiled engine closes that one-column
shift chain at acceptance (DESIGN §6): its row is 2 rounds and the one
tuple ``(5n) where T1 >= 0``.  Unary arithmetic shifts two columns and
gives up under both.
"""

import pytest

from repro.core import DeductiveEngine
from repro.util.errors import GiveUpError

from workloads import point_seed_workload, unary_arithmetic_workload


def run_with_patience(workload, patience, evaluation="reference"):
    """The partial model a run with ``patience`` gives up with."""
    program, edb = workload
    try:
        DeductiveEngine(
            program, edb, patience=patience, evaluation=evaluation
        ).run()
    except GiveUpError as error:
        return error.partial_model
    raise AssertionError("expected GiveUpError")


def test_e7_point_seed_gives_up(benchmark):
    model = benchmark(lambda: run_with_patience(point_seed_workload(5), 8))
    assert model.stats.gave_up
    assert not model.stats.constraint_safe
    # Theorem 4.2: the free-signature set stabilized long before.
    assert model.stats.signature_stable_round <= 2
    # The partial model is sound.
    for t in (0, 5, 10):
        assert model.relation("p").contains_point((t,))


def test_e7_point_seed_closes_on_compiled():
    program, edb = point_seed_workload(5)
    model = DeductiveEngine(program, edb, patience=8).run()
    assert model.stats.constraint_safe
    assert model.stats.rounds == 2
    assert len(model.relation("p")) == 1
    assert model.extension("p", -10, 30) == {(t,) for t in range(0, 30, 5)}


def test_e7_unary_arithmetic_gives_up(benchmark):
    model = benchmark.pedantic(
        lambda: run_with_patience(unary_arithmetic_workload(), 8, "compiled"),
        rounds=1,
        iterations=1,
    )
    assert model.stats.gave_up
    # The derived pairs satisfy t2 = 2 * t1 — a non-periodic relation.
    pairs = sorted(model.relation("double").extension(0, 20))
    assert pairs and all(t2 == 2 * t1 for (t1, t2) in pairs)


def test_e7_patience_budget_respected(benchmark):
    def run():
        rounds = []
        for patience in (3, 6, 12):
            model = run_with_patience(point_seed_workload(5), patience)
            rounds.append((patience, model.stats.rounds))
        return rounds

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for patience, total_rounds in rows:
        stable = 1  # signatures stable after round 1 for the point seed
        assert total_rounds <= stable + patience + 1


def test_e7_raises_with_partial_model(benchmark):
    program, edb = point_seed_workload(5)

    def run():
        try:
            DeductiveEngine(
                program, edb, patience=4, evaluation="reference"
            ).run()
        except GiveUpError as error:
            return error
        raise AssertionError("expected GiveUpError")

    error = benchmark(run)
    assert error.partial_model is not None


def report():
    print("E7 — give-up policy (Section 4.4)")
    for name, workload in (
        ("point seed p(t+5)<-p(t)", point_seed_workload(5)),
        ("unary arithmetic double", unary_arithmetic_workload()),
    ):
        for evaluation in ("reference", "compiled"):
            program, edb = workload
            try:
                model = DeductiveEngine(
                    program, edb, patience=8, evaluation=evaluation
                ).run()
            except GiveUpError as error:
                model = error.partial_model
            print(
                "  %-28s %-9s gave_up=%s rounds=%d signatures stable at %d "
                "tuples=%d"
                % (
                    name,
                    evaluation,
                    model.stats.gave_up,
                    model.stats.rounds,
                    model.stats.signature_stable_round,
                    model.stats.total_new_tuples(),
                )
            )


if __name__ == "__main__":
    report()
