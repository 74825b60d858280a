"""Independent verification of computed models.

A closed form produced by the engine can be *checked* without trusting
the engine, using the two halves of the fixpoint characterization:

* **Stability** (the Theorem 4.3 direction): applying one more T_GP
  round to the model must derive only tuples whose extension the model
  already contains — the model is a pre-fixpoint.  This is extension
  containment (:func:`~repro.core.safety.covered_semantic`), not the
  paper's same-free-extension test: a model whose shift chains were
  closed at acceptance (:mod:`repro.core.shift`) holds ``(5n) where
  T1 >= 0`` where one more round re-derives ``(n) where T1 = 0``, a
  tuple it contains under another free extension.
* **Support** (minimality direction, checked on a window): every
  ground atom of the model inside a window must also be derived by the
  ground tuple-at-a-time oracle on a sufficiently larger window, and
  vice versa on the interior.  The oracle evaluates stratified
  negation itself (:mod:`repro.core.grounding`), so programs with
  ``not`` are checked against ground semantics too.

Together these make a strong certificate for a reproduction: the
closed form is a fixpoint and agrees with the reference semantics
wherever brute force can reach.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.evaluation import ProgramEvaluator
from repro.core.grounding import GroundEvaluator
from repro.core.safety import covered_semantic
from repro.util.errors import EvaluationError


@dataclass
class VerificationReport:
    """Outcome of :func:`verify_model`."""

    stable: bool = True
    window_sound: bool = True
    window_complete: bool = True
    uncovered_tuples: list = field(default_factory=list)
    unsupported_atoms: list = field(default_factory=list)
    missing_atoms: list = field(default_factory=list)

    def ok(self):
        """True when every check passed."""
        return self.stable and self.window_sound and self.window_complete

    def __str__(self):
        if self.ok():
            return "model verified: stable fixpoint, window-exact"
        problems = []
        if not self.stable:
            problems.append(
                "%d derived tuples not covered" % len(self.uncovered_tuples)
            )
        if not self.window_sound:
            problems.append(
                "%d atoms lack ground support" % len(self.unsupported_atoms)
            )
        if not self.window_complete:
            problems.append(
                "%d ground atoms missing from the model"
                % len(self.missing_atoms)
            )
        return "model verification FAILED: " + "; ".join(problems)


def verify_model(program, edb, model, window=(0, 200), margin=None):
    """Check a model independently of how it was computed.

    ``window`` is the interior on which ground agreement is required;
    the oracle runs on the window widened by ``margin`` on both sides
    (default: the window length) so truncation cannot cause false
    alarms.  Returns a :class:`VerificationReport`.
    """
    low, high = window
    if margin is None:
        margin = high - low
    report = VerificationReport()

    # -- stability: one more T_GP round derives nothing new ------------
    evaluator = ProgramEvaluator(program, edb)
    env = evaluator.initial_environment()
    for name in model.predicates():
        env[name] = model.relation(name)
    for evaluators in evaluator.stratum_evaluators:
        complements = evaluator.complements_for(evaluators, env)
        derived = evaluator.naive_round(
            env, evaluators=evaluators, complements=complements
        )
        for predicate, tuples in derived.items():
            for gt in tuples:
                if not covered_semantic(gt, env[predicate]):
                    report.stable = False
                    report.uncovered_tuples.append((predicate, gt))

    # -- window agreement with the ground oracle -----------------------
    try:
        oracle = GroundEvaluator(program, edb, low - margin, high + margin)
    except EvaluationError:
        # Programs outside the ground evaluator's fragment (a temporal
        # variable no positive body atom binds) only get the stability
        # check.
        return report
    oracle.run()
    for predicate in model.predicates():
        closed = {
            flat
            for flat in model.extension(predicate, low - margin, high + margin)
            if low <= flat[0] < high
        }
        ground = {
            flat
            for flat in oracle.extension(predicate)
            if low <= flat[0] < high
        }
        for flat in sorted(closed - ground, key=repr):
            report.window_sound = False
            report.unsupported_atoms.append((predicate, flat))
        for flat in sorted(ground - closed, key=repr):
            report.window_complete = False
            report.missing_atoms.append((predicate, flat))
    return report
