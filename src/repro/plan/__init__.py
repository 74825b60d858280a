"""The shared query-plan layer.

Every front-end evaluates through this package:

* :mod:`repro.plan.compiler` / :mod:`repro.plan.operators` — compiled
  clause plans for the deductive engine's T_GP rounds (naive and
  semi-naive) and for the FO evaluator's conjunctions, each compiled
  to one clause;
* :mod:`repro.plan.ground` — slice-driven ground-clause matching for
  the Datalog1S frontier evaluator;
* :mod:`repro.plan.goal` — conjunction ordering for Templog goals;
* :mod:`repro.plan.explain` — plan rendering (``repro explain``) and
  the plan fingerprint recorded in checkpoints;
* :mod:`repro.plan.memo` — the content-keyed caches that compile each
  program (and rewrite each goal) once per process;
* :mod:`repro.plan.reference` — the paper-literal product-then-select
  evaluator, kept as the correctness oracle.
"""

from repro.plan.compiler import ClausePlan, compile_variant
from repro.plan.explain import format_plan, format_program_plans, plan_fingerprint
from repro.plan.reference import ReferenceClauseEvaluator

__all__ = [
    "ClausePlan",
    "compile_variant",
    "format_plan",
    "format_program_plans",
    "plan_fingerprint",
    "ReferenceClauseEvaluator",
]
