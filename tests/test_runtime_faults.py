"""Fault injection: deterministic faults at named runtime sites must
surface as typed :class:`ReproError`\\ s carrying a usable partial
model, and resuming from a pre-fault checkpoint must converge to the
same model as an uninterrupted run."""

import pytest

from repro.core import DeductiveEngine, parse_program
from repro.gdb import parse_database
from repro.runtime.budget import EvaluationBudget
from repro.runtime.faults import (
    SITES,
    FaultPlan,
    FaultSpec,
    InjectedFaultError,
    TransientFaultError,
)
from repro.util import hooks
from repro.util.errors import (
    BudgetExceededError,
    EvaluationAbortedError,
    PartialResultError,
    ReproError,
    WorkerDiedError,
)

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


def make_engine(**kwargs):
    return DeductiveEngine(
        parse_program(PROGRAM), parse_database(EDB), **kwargs
    )


def canon(relation):
    return sorted(gt.canonical_key() for gt in relation.tuples)


class TestFaultPlanMechanics:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(site="nonsense")
        with pytest.raises(ValueError):
            FaultSpec(site="clause", at=0)

    def test_hook_installed_and_cleared(self):
        plan = FaultPlan.inject("round", at=10_000)
        assert hooks.FAULT_HOOK is None
        with plan.installed():
            assert hooks.FAULT_HOOK is plan
        assert hooks.FAULT_HOOK is None

    def test_hook_cleared_after_fault(self):
        plan = FaultPlan.inject("round", at=1)
        with pytest.raises(EvaluationAbortedError):
            with plan.installed():
                make_engine().run()
        assert hooks.FAULT_HOOK is None

    def test_nesting_rejected(self):
        plan = FaultPlan.inject("round", at=10_000)
        with plan.installed():
            with pytest.raises(RuntimeError):
                with FaultPlan.inject("clause").installed():
                    pass

    def test_hit_counting(self):
        plan = FaultPlan.inject("round", at=3)
        with pytest.raises(EvaluationAbortedError):
            with plan.installed():
                make_engine().run()
        assert plan.hits["round"] == 3

    def test_service_sites_registered(self):
        for site in ("submit", "worker_start", "result_return"):
            assert site in SITES
            FaultSpec(site=site)  # accepted by validation

    def test_transient_error_is_injected_fault_subclass(self):
        assert issubclass(TransientFaultError, InjectedFaultError)
        error = TransientFaultError("clause", 7)
        assert error.site == "clause"
        assert error.hit == 7

    def test_every_fires_periodically(self):
        spec = FaultSpec(site="clause", at=3, every=4)
        assert [hit for hit in range(1, 16) if spec.triggers_on(hit)] == [3, 7, 11, 15]

    def test_every_requires_positive_period(self):
        with pytest.raises(ValueError):
            FaultSpec(site="clause", every=0)

    def test_periodic_injection_in_engine(self):
        # every=2 from hit 1: the first clause evaluation already faults.
        plan = FaultPlan.inject("clause", at=1, every=2)
        with pytest.raises(EvaluationAbortedError):
            with plan.installed():
                make_engine().run()
        assert plan.hits["clause"] == 1

    def test_from_json_dict(self):
        plan = FaultPlan.from_json_dict(
            {
                "specs": [
                    {"site": "worker_start", "at": 3, "error": "worker-died"},
                    {"site": "clause", "at": 20, "every": 61, "error": "transient"},
                    {"site": "round", "at": 1, "delay_seconds": 0.01},
                ]
            }
        )
        assert len(plan.specs) == 3
        assert plan.specs[0].error is WorkerDiedError
        assert plan.specs[1].error is TransientFaultError
        assert plan.specs[1].every == 61
        assert plan.specs[2].delay_seconds == 0.01

    def test_from_json_dict_rejects_unknown_error_name(self):
        with pytest.raises(ValueError):
            FaultPlan.from_json_dict(
                [{"site": "clause", "error": "nonsense"}]
            )


#: Sites a bare engine run hits (the service-layer sites — submit,
#: worker_start, result_return — are exercised in tests/test_service.py).
ENGINE_SITES = ("clause", "dbm_canonicalize", "coverage", "round")


class TestInjectedFaults:
    @pytest.mark.parametrize("site", ENGINE_SITES)
    @pytest.mark.parametrize("at", [1, 3])
    def test_every_site_yields_typed_error_with_partial_model(self, site, at):
        engine = make_engine()
        plan = FaultPlan.inject(site, at=at)
        with pytest.raises(EvaluationAbortedError) as info:
            with plan.installed():
                engine.run()
        error = info.value
        assert isinstance(error, ReproError)
        assert isinstance(error, PartialResultError)
        assert isinstance(error.__cause__, InjectedFaultError)
        assert error.__cause__.site == site
        assert error.partial_model is not None
        # the partial model is usable: window query + stats
        error.partial_model.extension("problems", 0, 300)
        assert error.stats is not None
        assert error.stats.rounds >= 1

    def test_checkpoint_write_fault(self, tmp_path):
        engine = make_engine()
        plan = FaultPlan.inject("checkpoint_write", at=2)
        path = str(tmp_path / "ck.json")
        with pytest.raises(EvaluationAbortedError) as info:
            with plan.installed():
                engine.run(checkpoint_every=1, checkpoint_path=path)
        assert isinstance(info.value.__cause__, InjectedFaultError)
        # the first checkpoint survived the crash of the second write
        assert (tmp_path / "ck.json").exists()

    def test_custom_error_class(self):
        plan = FaultPlan.inject("clause", at=2, error=MemoryError)
        with pytest.raises(EvaluationAbortedError) as info:
            with plan.installed():
                make_engine().run()
        assert isinstance(info.value.__cause__, MemoryError)

    def test_delay_plus_deadline(self):
        plan = FaultPlan.delay("round", at=1, seconds=0.05)
        with pytest.raises(BudgetExceededError) as info:
            with plan.installed():
                make_engine().run(
                    budget=EvaluationBudget(deadline_seconds=0.01)
                )
        assert info.value.limit == "deadline_seconds"
        assert info.value.partial_model is not None


class TestFoQuerySites:
    """An FO query compiles and fires one clause per conjunction, lone
    atom or comparison, and disjunct."""

    @pytest.mark.parametrize(
        "query, clauses",
        [
            ("course(t1, t2; C) and t1 >= 0 and seed(u)", 1),
            ("seed(t)", 1),
            ("seed(t) or t > 3", 2),
            # the negated atom, the quantified conjunction, the outer one
            ("not seed(t) and exists u (seed(u) and u < t)", 3),
        ],
    )
    def test_compile_and_clause_hits(self, query, clauses):
        from repro.fo import evaluate_query

        plan = FaultPlan.inject("round", at=10_000)
        with plan.installed():
            evaluate_query(parse_database(EDB), query)
        assert (plan.hits["compile"], plan.hits["clause"]) == (clauses, clauses)

    @pytest.mark.parametrize("site", ["compile", "clause"])
    def test_fault_surfaces_typed(self, site):
        from repro.fo import evaluate_query

        with pytest.raises(InjectedFaultError) as info:
            with FaultPlan.inject(site).installed():
                evaluate_query(parse_database(EDB), "seed(t) and t < 5")
        assert isinstance(info.value, ReproError)
        assert info.value.site == site


class TestResumeAfterCrash:
    def test_resume_from_pre_fault_checkpoint_converges(self, tmp_path):
        """The ISSUE acceptance test: crash mid-fixpoint, resume from
        the last checkpoint, and reach the same model as a run that was
        never interrupted."""
        clean = make_engine().run()

        path = str(tmp_path / "crash.ckpt.json")
        plan = FaultPlan.inject("round", at=5)
        with pytest.raises(EvaluationAbortedError) as info:
            with plan.installed():
                make_engine().run(checkpoint_every=1, checkpoint_path=path)
        crashed = info.value.partial_model
        assert crashed.stats.rounds == 5
        assert len(canon(crashed.relation("problems"))) < len(
            canon(clean.relation("problems"))
        )

        resumed = make_engine().run(resume_from=path)
        assert canon(resumed.relation("problems")) == canon(
            clean.relation("problems")
        )
        assert resumed.stats.rounds == clean.stats.rounds
        assert (
            resumed.stats.new_tuples_per_round
            == clean.stats.new_tuples_per_round
        )
        assert resumed.stats.constraint_safe

    def test_repeated_fault_still_recoverable(self, tmp_path):
        """Even a fault that fires on every later round leaves behind a
        checkpoint trail that a fault-free resume completes."""
        path = str(tmp_path / "flaky.ckpt.json")
        plan = FaultPlan.inject("clause", at=9, repeat=True)
        with pytest.raises(EvaluationAbortedError):
            with plan.installed():
                make_engine().run(checkpoint_every=1, checkpoint_path=path)
        resumed = make_engine().run(resume_from=path)
        clean = make_engine().run()
        assert canon(resumed.relation("problems")) == canon(
            clean.relation("problems")
        )
