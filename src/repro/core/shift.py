"""Shift closure at acceptance: one-column shift recursion in one round.

A predicate whose *only* recursive clause is a pure shift over its one
temporal column,

    p(t + s; X̄) <- p(t; X̄).        (s > 0)

walks each accepted tuple ``τ = (an + o) where lo <= T1 <= hi`` along
``τ + s, τ + 2s, …`` one T_GP round per step, ``a / gcd(a, s)`` rounds
before the lrps repeat.  Theorem 4.2 says where that chain ends, so the
acceptance sweep (:meth:`repro.core.safety.CoverageChecker.sweep`)
computes the end directly: it replaces an uncovered ``τ`` by its exact
closure ``⋃_{k >= 0} (τ + ks)``, clipped to the demand zone ``G`` when
the clause carries the goal-directed rewrite's guard ``_m__p``.  With
``g = gcd(a, s)``:

* ``lo = -inf``: one tuple, ``(g·n + o) ∩ G``;
* otherwise the *residue form*: each of the first ``s / g`` points
  ``x`` of ``τ`` (those not past ``hi``) gives
  ``(s·n + x) where T1 >= x`` ∩ ``G`` — every later point is a
  multiple of ``s`` past one of them;
* when ``τ`` has no upper bound the ``a / g`` *copies*
  ``(τ + ks) ∩ G`` are exact too (``τ + (a/g)·s ⊆ τ``); the smaller
  form wins.

A closure never holds more than ``a / g`` tuples, the number of
signatures the one-step chain visits; one that would (a bounded ``τ``
under a long shift) is not taken, and ``τ`` is accepted as it is.

Every guarded clause of ``p`` carries the same guard, so ``τ ⊆ G``; the
demand zone of one key is an interval, so a chain that leaves it never
comes back, and clipping the union equals clipping each step.  Closure
tuples are closed under the shift, so the next round's firing of the
shift clause on them is covered and the chain costs one round.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Optional

from repro.constraints.dbm import INF, Dbm
from repro.constraints.system import ConstraintSystem
from repro.core.ast import TemporalTerm
from repro.core.stratify import reachable_predicates
from repro.gdb.tuple import GeneralizedTuple
from repro.lrp.point import Lrp
from repro.plan.compiler import DEMAND_PREFIX


class ShiftRecursion(NamedTuple):
    """How one accelerated predicate closes: its ``shift``, and the
    demand ``guard`` predicate (None when unguarded) whose data
    arguments are the head's data columns ``guard_columns``."""

    shift: int
    guard: Optional[str] = None
    guard_columns: tuple = ()

    def close(self, gt, env):
        """``gt``'s closure under the shift within its demand zone, or
        None when it is not taken (the zone is not one interval, or
        the closure would exceed ``a / gcd(a, s)`` tuples)."""
        low, high = -INF, INF
        if self.guard is not None:
            key = tuple(gt.data[column] for column in self.guard_columns)
            zones = [d for d in env[self.guard].tuples if d.data == key]
            if len(zones) != 1 or zones[0].lrps[0].period != 1:
                return None
            low, high = zones[0].constraints.column_interval(0)
        return shift_closure(gt, self.shift, low, high)

    def describe(self, predicate):
        """One line for ``repro explain`` and the plan fingerprint."""
        line = "accelerated %s: accepted tuples closed under t + %d" % (
            predicate,
            self.shift,
        )
        if self.guard is not None:
            line += " within %s" % self.guard
        return line


def _interval(lrp, data, low, high):
    zone = Dbm.unconstrained(1)
    if low != -INF:
        zone.add_bound(0, 1, -low)
    if high != INF:
        zone.add_bound(1, 0, high)
    return GeneralizedTuple((lrp,), data, ConstraintSystem(1, zone))


def shift_closure(gt, shift, low=-INF, high=INF):
    """The tuples whose union is ``⋃_{k >= 0} (gt + k·shift)`` within
    ``[low, high]``, a zone that contains ``gt``; None when that takes
    more than ``a / gcd(a, shift)`` tuples (see the module docstring).

    >>> point = GeneralizedTuple((Lrp(1, 0),), (), ConstraintSystem.parse("T1 = 0", 1))
    >>> [str(t) for t in shift_closure(point, 5)]
    ['(5n) where 0 <= T1']
    """
    lrp = gt.lrps[0]
    period, offset = lrp.period, lrp.offset
    step = gcd(period, shift)
    lo, hi = gt.constraints.column_interval(0)
    if lo == -INF:
        return [_interval(Lrp(step, offset), gt.data, low, high)]
    first = lo + (offset - lo) % period
    count = shift // step
    if hi != INF:
        count = min(count, (hi - first) // period + 1)
    if count <= 0:
        return []
    copies = period // step
    if hi == INF and copies < count:
        return [
            _interval(lrp.shift(k * shift), gt.data, first + k * shift, high)
            for k in range(copies)
        ]
    if count > copies:
        return None
    return [
        _interval(Lrp(shift, first + i * period), gt.data, first + i * period, high)
        for i in range(count)
    ]


def _shift_of(clause):
    """The :class:`ShiftRecursion` of a normalized clause that is a pure
    one-column shift of its head predicate (optionally guarded by the
    demand predicate ``_m__p`` on its head), else None."""
    predicate = clause.head_predicate
    if clause.negated_atoms or len(clause.constraints) != 1 or len(clause.head_vars) != 1:
        return None
    recursive = [atom for atom in clause.body_atoms if atom.predicate == predicate]
    others = [atom for atom in clause.body_atoms if atom.predicate != predicate]
    if len(recursive) != 1 or len(others) > 1:
        return None
    head, body = clause.head_vars[0], recursive[0]
    data = clause.head_data
    if (
        body.data_args != data
        or not all(term.is_variable() for term in data)
        or len(set(data)) != len(data)
    ):
        return None
    tail = body.temporal_args[0].var
    link = clause.constraints[0]
    if link.op != "=" or {link.left.var, link.right.var} != {head, tail} or head == tail:
        return None
    if link.left.var == head:
        shift = link.right.offset - link.left.offset
    else:
        shift = link.left.offset - link.right.offset
    if shift <= 0:
        return None
    if not others:
        return ShiftRecursion(shift)
    guard = others[0]
    if guard.predicate != DEMAND_PREFIX + predicate or guard.temporal_args != (
        TemporalTerm(head),
    ):
        return None
    if any(term not in data for term in guard.data_args):
        return None
    columns = tuple(data.index(term) for term in guard.data_args)
    return ShiftRecursion(shift, guard.predicate, columns)


def _guarded_by(clause, recursion):
    """Does ``clause`` carry ``recursion``'s guard on its head?"""
    wanted = (
        (TemporalTerm(clause.head_vars[0]),),
        tuple(clause.head_data[column] for column in recursion.guard_columns),
    )
    return any(
        atom.predicate == recursion.guard
        and (atom.temporal_args, atom.data_args) == wanted
        for atom in clause.body_atoms
    )


def shift_recursions(program, normalized):
    """``{predicate: ShiftRecursion}`` for every intensional predicate
    whose only recursive clause (one reading a predicate that depends
    on it) is a pure one-column shift; a guarded shift also needs its
    guard extensional and on every clause of the predicate."""
    idb = program.intensional_predicates()
    clauses_of = {}
    for clause in normalized:
        clauses_of.setdefault(clause.head_predicate, []).append(clause)
    found = {}
    for predicate, clauses in sorted(clauses_of.items()):
        shifts = [(clause, _shift_of(clause)) for clause in clauses]
        shifts = [(clause, recursion) for clause, recursion in shifts if recursion]
        if len(shifts) != 1:
            continue
        shift_clause, recursion = shifts[0]
        reads = {
            atom.predicate
            for clause in clauses
            if clause is not shift_clause
            for atom in clause.body_atoms + clause.negated_atoms
            if atom.predicate in idb
        }
        if predicate in reachable_predicates(program, sorted(reads)):
            continue
        if recursion.guard is not None and (
            recursion.guard in idb
            or not all(_guarded_by(clause, recursion) for clause in clauses)
        ):
            continue
        found[predicate] = recursion
    return found
