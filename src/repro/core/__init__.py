"""The paper's deductive language over generalized databases (Section 4).

This is the primary contribution of Baudinet, Niézette & Wolper: a
Horn-clause language in which every predicate may carry **any number**
of temporal arguments interpreted over ℤ (plus uninterpreted data
arguments), with the interpreted order ``<``, equality, the constant 0
and the ``+1``/``-1`` functions on temporal terms — "Datalog over
integer order with successor and predecessor".

Modules
-------
* :mod:`repro.core.ast` — terms, atoms, clauses, programs.
* :mod:`repro.core.parser` — concrete syntax
  (``problems(t1+2, t2+2; "database") <- course(t1, t2; "database").``).
* :mod:`repro.core.transform` — the *generalized program*
  transformation of Section 4.3: constant elimination and head/body
  normalization so that every predicate atom carries distinct fresh
  temporal variables linked by constraint atoms.
* :mod:`repro.core.evaluation` — the T_GP mapping: bottom-up,
  generalized-tuple-at-a-time evaluation on the relational algebra,
  naive and semi-naive.
* :mod:`repro.core.safety` — free-extension safety (Theorem 4.2) and
  constraint safety (Theorem 4.3), the paper's termination criteria.
* :mod:`repro.core.shift` — one-column shift recursion closed at
  acceptance: the Theorem 4.2 arithmetic instead of one round per step.
* :mod:`repro.core.engine` — the user-facing
  :class:`~repro.core.engine.DeductiveEngine` with the give-up policy
  the paper recommends when constraint safety is never reached.
* :mod:`repro.core.grounding` — the ground tuple-at-a-time T_P
  evaluation over bounded windows, used as an oracle and as the
  baseline the paper argues against.
"""

from repro.core.ast import (
    Clause,
    ConstraintAtom,
    DataTerm,
    NegatedAtom,
    PredicateAtom,
    Program,
    TemporalTerm,
)
from repro.core.parser import parse_clause, parse_program
from repro.core.engine import DeductiveEngine, EvaluationStats, Model
from repro.core.grounding import GroundEvaluator
from repro.core.stratify import stratify

__all__ = [
    "TemporalTerm",
    "DataTerm",
    "PredicateAtom",
    "NegatedAtom",
    "ConstraintAtom",
    "Clause",
    "Program",
    "parse_clause",
    "parse_program",
    "DeductiveEngine",
    "EvaluationStats",
    "Model",
    "GroundEvaluator",
    "stratify",
]
