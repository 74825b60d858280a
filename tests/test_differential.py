"""The differential matrix: every evaluation mode against two oracles.

Each case comes from the one generator, :func:`tests.differential.cases`,
and :class:`tests.differential.Oracle` holds both oracles.
Its first oracle is the paper-literal reference run (the
product-then-select plans of :mod:`repro.plan.reference`, naive
rounds); where the program is range restricted, the ground T_P
evaluator (:mod:`repro.core.grounding`) on the window interior is the
second.  The modes:

* **round** — one naive compiled round equals the reference round, on
  the initial environment and on a grown one;
* **fixpoint** — compiled naive and semi-naive models are
  ``equivalent()`` to the reference, and the reference agrees with
  ground.  These checks keep the names they had before the matrix:
  ``tests/test_plan_property.py`` (compiled against reference, one
  test per strategy) and ``tests/test_engine_vs_ground_property.py``
  (reference against ground for each shape, and a negation stratum
  against its semantics worked out by hand);
* **goal-directed** — the magic-set model has the full run's extension
  inside the goal window and derives nothing the full run lacks;
* **resumed** — resuming from any round's checkpoint prints the same
  model and the same stats as the uninterrupted run;
* **maintained** — after every transaction batch the refreshed model
  is ``equivalent()`` to a from-scratch run of the snapshot, with the
  DRed budget at 0 (recompute fallback) or 64; one fixed case,
  ``REDERIVE_CASE``, takes the DRed path with a non-empty rederive;
* **give-up** — where the reference gives up (§4.4), a mode either
  raises :class:`GiveUpError` or returns a model that agrees with
  ground.  This rule holds in every mode above; the give-up test draws
  cases prone to it.  The compiled fixpoints must not give up where
  the reference closes, and they close where it gives up when a
  one-column shift chain closes at acceptance (:mod:`repro.core.shift`);
  goal-directed and maintained runs have rounds of their own (demand
  predicates, warm starts), so their patience may run out where the
  reference's did not, and that typed give-up is accepted.

Any other error escapes the mode and fails the case.
"""

import shutil
from unittest import mock

from hypothesis import example, given, settings

import repro.core.engine as engine_module
from repro.core import DeductiveEngine
from repro.core.evaluation import ProgramEvaluator
from repro.edb import EdbStore, MaterializedModel
from repro.gdb.relation import GeneralizedRelation
from repro.plan.magic import goal_directed_model
from repro.util.errors import GiveUpError

from tests.differential import (
    LIMITS,
    Case,
    Oracle,
    assert_fixpoint_agrees,
    cases,
    run,
    settle,
)

#: Stats fields a resume legitimately changes.
VOLATILE_STATS = (
    "elapsed_seconds",
    "prior_elapsed_seconds",
    "segment_elapsed_seconds",
    "resumed_from_round",
    "checkpoints_written",
)


def assert_goal_directed_agrees(oracle, goal):
    """The magic-set run for ``goal`` against the oracles, inside the
    goal window; returns its outcome."""
    directed = settle(
        lambda: goal_directed_model(
            DeductiveEngine(oracle.program, oracle.edb, **LIMITS),
            goal,
        )[0]
    )
    oracle.assert_agrees(directed, "goal-directed", goal, own_rounds=True)
    return directed


# -- the modes -------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(case=cases())
def test_round_compiled_matches_reference(case):
    program, edb = case.program(), case.edb()
    compiled = ProgramEvaluator(program, edb, evaluation="compiled")
    reference = ProgramEvaluator(program, edb, evaluation="reference")
    env = compiled.initial_environment()
    # The second round starts from the grown environment, so joins
    # read non-empty intensional inputs.
    for _ in range(2):
        # Each mode reads the complements it joins: the reference every
        # negated predicate's, a plan only its complement joins'.
        derived = compiled.naive_round(
            env, complements=compiled.complements_for(compiled.evaluators, env)
        )
        expected = reference.naive_round(
            env, complements=reference.complements_for(reference.evaluators, env)
        )
        assert set(derived) == set(expected)
        for name, tuples in derived.items():
            schema = compiled.schemas[name]
            assert GeneralizedRelation(*schema, tuples=tuples).equivalent(
                GeneralizedRelation(*schema, tuples=expected[name])
            ), name
            env[name] = env[name].with_tuples(tuples)


#: E14's multi-chain shape under a goal that binds a data column: two
#: period-48 chains under shift 2 and their meet, guarded by demand
#: predicates whose key is the bound column.
MULTI_CHAIN_GOAL_CASE = Case(
    relations=(
        ("a", 1, 1, ('(48n+5; "x") where T1 >= 0', '(48n+8; "y") where T1 >= 0')),
        ("b", 1, 1, ('(48n+7; "x") where T1 >= 0',)),
    ),
    program_text=(
        "p0(t; X) <- a(t; X).\np0(t + 2; X) <- p0(t; X).\n"
        "p1(t; X) <- b(t; X).\np1(t + 2; X) <- p1(t; X).\n"
        "m(t; X) <- p0(t; X), p1(t; X)."
    ),
    goal=("m", 10, 30, ((0, "x"),)),
    batches=(),
    strategy="semi-naive",
    resume_at=0,
    rederive_budget=0,
    window=(-24, 96),
    interior=(0, 60),
)

#: The monadic example the one-step chain gives up on: p0 over the
#: points 0 and 1 under shift 3, and p1 = {t : t, t + 5 in p0}, which
#: is (3n+1) where T1 >= 1 (Datalog1S's minimal model says the same).
MONADIC_CASE = Case(
    relations=(
        ("a", 1, 0, ("(n) where T1 = 0", "(n) where T1 = 1")),
        ("b", 1, 0, ("(2n) where T1 >= 0",)),
    ),
    program_text="p0(t) <- a(t).\np0(t + 3) <- p0(t).\np1(t) <- p0(t), p0(t + 5).",
    goal=("p1", 0, 20, ()),
    batches=(),
    strategy="naive",
    resume_at=0,
    rederive_budget=0,
    window=(-24, 96),
    interior=(0, 60),
)


@settings(max_examples=30, deadline=None)
@given(case=cases())
@example(case=MULTI_CHAIN_GOAL_CASE)
def test_goal_directed_matches_within_window(case):
    program, edb = case.program(), case.edb()
    oracle = Oracle(case, program, edb)
    directed = assert_goal_directed_agrees(oracle, case.query_goal())
    full = settle(lambda: run(program, edb))
    if not isinstance(directed, GiveUpError) and not isinstance(full, GiveUpError):
        # Goal direction derives nothing the full fixpoint lacks.  (Its
        # generalized-tuple count may still be higher: a demand zone
        # can split one tuple of the full model into several.)
        for predicate in directed.predicates():
            if predicate in full:
                assert full.relation(predicate).contains(
                    directed.relation(predicate)
                ), predicate


@settings(max_examples=30, deadline=None)
@given(case=cases())
def test_resume_from_any_round_replays_the_run(case, tmp_path_factory):
    program, edb = case.program(), case.edb()
    workdir = tmp_path_factory.mktemp("resume")
    copies = []
    write = engine_module.write_checkpoint

    def copying_write(target, checkpoint):
        write(target, checkpoint)
        copy = workdir / ("round%d.ckpt.json" % len(copies))
        shutil.copyfile(target, copy)
        copies.append(str(copy))

    def outcome(**options):
        """The run's model, or the partial model of a run that gives up."""
        engine = DeductiveEngine(program, edb, strategy=case.strategy, **LIMITS)
        try:
            return engine.run(**options)
        except GiveUpError as error:
            return error.partial_model

    with mock.patch.object(engine_module, "write_checkpoint", copying_write):
        clean = outcome(
            checkpoint_every=1, checkpoint_path=str(workdir / "run.ckpt.json")
        )
    if not copies:
        return
    resumed = outcome(resume_from=copies[case.resume_at % len(copies)])
    assert str(resumed) == str(clean)
    stats = [model.stats.to_dict() for model in (resumed, clean)]
    for payload in stats:
        for volatile in VOLATILE_STATS:
            payload.pop(volatile)
    assert stats[0] == stats[1]


#: A retraction on the DRed path whose rederive step is not empty:
#: retracting ``(4n) where T1 >= 4`` overdeletes both ``p0`` tuples
#: (and the ``p1`` tuples they derive), and ``a``'s other tuple
#: rederives the first.
REDERIVE_CASE = Case(
    relations=(("a", 1, 0, ("(2n) where T1 >= 0", "(4n) where T1 >= 4")),),
    program_text="p0(t) <- a(t).\np1(t + 1) <- p0(t).",
    goal=("p1", 0, 10, ()),
    batches=((("retract", "a", "(4n) where T1 >= 4"),),),
    strategy="semi-naive",
    resume_at=0,
    rederive_budget=64,
    window=(-24, 96),
    interior=(0, 60),
)


@settings(max_examples=15, deadline=None)
@given(case=cases())
@example(case=REDERIVE_CASE)
def test_maintained_model_matches_scratch_after_every_batch(case, tmp_path_factory):
    program = case.program()
    store = EdbStore(str(tmp_path_factory.mktemp("store")))
    try:
        store.apply(case.initial_ops())
        maintained = MaterializedModel(
            case.program_text, rederive_budget=case.rederive_budget
        )
        for ops in [[]] + case.batch_ops():
            if ops:
                store.apply(ops)
            oracle = Oracle(case, program, store.snapshot())
            oracle.assert_agrees(
                settle(lambda: maintained.refresh(store)),
                "maintained at tx %d" % store.head_tx,
                own_rounds=True,
            )
    finally:
        store.close()


@settings(max_examples=15, deadline=None)
@given(case=cases(give_up=True))
@example(case=MONADIC_CASE)
def test_give_up_is_typed_or_agrees_with_ground(case):
    oracle = Oracle(case, case.program(), case.edb())
    for strategy in ("naive", "semi-naive"):
        assert_fixpoint_agrees(oracle, strategy)
    assert_goal_directed_agrees(oracle, case.query_goal())
