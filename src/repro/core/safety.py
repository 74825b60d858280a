"""The paper's termination criteria (Section 4.3).

*Free-extension safety* (Theorem 4.2): applying T_GP to the freed
interpretation generates no tuple with a new free extension.  The
theorem guarantees this state is always reached, because the periods
of all lrps arising in the computation are bounded (joins only take
lcms of EDB periods).

*Constraint safety* (Theorem 4.3): every tuple T_GP derives is implied
— constraint-wise — by the disjunction of the constraints of existing
tuples **with the same free extension**.  When an interpretation is
both free-extension safe and constraint safe, the naive
generalized-tuple-at-a-time evaluation has reached its least fixpoint
and can stop.

This module implements both tests exactly (the implication test is
zone containment in a union of zones, decided by zone subtraction),
plus the strictly stronger *semantic* coverage test used as an
ablation: a new tuple is covered if its extension is contained in the
union of all same-data tuples, regardless of free-extension matching.
"""

from __future__ import annotations

from repro.util.hooks import fault_point


def free_signatures(relation):
    """The set of free-extension signatures of a relation's tuples."""
    return {gt.free_signature() for gt in relation.tuples}


def covered_paper(gt, relation, snapshot=None):
    """The paper's constraint-safety coverage test for one tuple:
    is ``constraints(gt)`` implied by the disjunction of the
    constraints of the tuples of ``relation`` with the same free
    extension?  ``snapshot`` is accepted for signature parity with
    :func:`covered_semantic` (the signature index already makes the
    lookup per-sweep cheap)."""
    fault_point("coverage")
    return _covered_paper_uncached(gt, relation)


def _covered_paper_uncached(gt, relation):
    candidates = relation.tuples_with_signature_id(gt.kernel_ids()[1])
    same_signature = [existing.constraints for existing in candidates]
    if not same_signature:
        return False
    return gt.constraints.implied_by_union(same_signature)


def covered_semantic(gt, relation, snapshot=None):
    """Exact extension coverage: ``gt ⊆ relation`` (same data tuples
    may have different lrps).  Strictly stronger than
    :func:`covered_paper`; used as an ablation (experiment E8).

    ``snapshot`` is the relation's tuple sequence, taken once per
    coverage sweep by the callers — relations are immutable, so
    ``relation.tuples`` itself is the snapshot and no per-derived-tuple
    copy is ever needed."""
    fault_point("coverage")
    return _covered_semantic_uncached(gt, relation, snapshot)


def _covered_semantic_uncached(gt, relation, snapshot):
    remaining = gt.subtract(relation.tuples if snapshot is None else snapshot)
    return all(piece.is_empty() for piece in remaining)


_COVERAGE_MODES = {
    "paper": covered_paper,
    "semantic": covered_semantic,
}


def coverage_test(mode):
    """Look up a coverage predicate by name ('paper' or 'semantic')."""
    try:
        return _COVERAGE_MODES[mode]
    except KeyError:
        raise ValueError(
            "unknown safety mode %r (expected 'paper' or 'semantic')" % mode
        ) from None


class CoverageChecker:
    """The engine's per-run coverage test, with the cross-round cache.

    In ``"paper"`` mode the checker memoizes each verdict on the
    relation's :meth:`~repro.gdb.relation.GeneralizedRelation.
    coverage_cache`, keyed by the derived tuple's interned ``row_key``
    — the ``(sid, cid)`` pair identifies exactly the same equivalence
    class as (free signature, constraint canonical key): equal sids
    force equal arity, equal cids equal zones.  Because the engine's
    relations grow monotonically (``with_tuples`` carries the cache
    forward, dropping only the stale negatives of touched signatures),
    a tuple re-derived in a later round — the common case on the road
    to the fixpoint — answers from the memo without touching
    ``implied_by_union`` at all.

    ``hits``/``misses`` count memo outcomes (``"semantic"`` mode never
    memoizes, so every test is a miss); the engine emits them per
    round as ``coverage.cache`` events on the observability bus.  The
    ``coverage`` fault-injection site fires once per test, hit or miss.

    ``shifts`` maps each accelerated predicate to its
    :class:`~repro.core.shift.ShiftRecursion`: :meth:`sweep` replaces
    an uncovered tuple of such a predicate by its closure under the
    shift.
    """

    def __init__(self, mode="paper", shifts=None):
        coverage_test(mode)  # validate the mode name eagerly
        self.mode = mode
        self.shifts = shifts or {}
        self.hits = 0
        self.misses = 0

    def covered(self, gt, relation, snapshot=None):
        """Is ``gt`` covered by ``relation`` under this checker's mode?"""
        fault_point("coverage")
        if self.mode != "paper":
            self.misses += 1
            return _covered_semantic_uncached(gt, relation, snapshot)
        signature, key = gt.row_key()
        cache = relation.coverage_cache()
        verdicts = cache.get(signature)
        if verdicts is not None:
            cached = verdicts.get(key)
            if cached is not None:
                self.hits += 1
                return cached
        self.misses += 1
        result = _covered_paper_uncached(gt, relation)
        if verdicts is None:
            verdicts = cache[signature] = {}
        verdicts[key] = result
        return result

    def sweep(self, derived, env):
        """One acceptance sweep over a round's derived tuples: dedup
        within the round (by interned ``row_key``), test coverage once
        per distinct tuple against the predicate's current relation,
        and return the fresh (uncovered) tuples per predicate in
        derivation order.  An uncovered tuple of an accelerated
        predicate is replaced by its shift closure, whose tuples are
        deduped and tested the same way."""
        fresh = {}
        seen_keys = set()
        for predicate, tuples in derived.items():
            relation = env[predicate]
            snapshot = relation.tuples  # one snapshot per sweep
            recursion = self.shifts.get(predicate)
            for gt in tuples:
                key = (predicate, gt.row_key())
                if key in seen_keys:
                    continue
                seen_keys.add(key)
                if self.covered(gt, relation, snapshot):
                    continue
                closure = None if recursion is None else recursion.close(gt, env)
                if closure is None:
                    fresh.setdefault(predicate, []).append(gt)
                    continue
                for member in closure:
                    member_key = (predicate, member.row_key())
                    if member_key != key:
                        if member_key in seen_keys:
                            continue
                        seen_keys.add(member_key)
                        if self.covered(member, relation, snapshot):
                            continue
                    fresh.setdefault(predicate, []).append(member)
        return fresh


def is_free_extension_safe(evaluator, env):
    """The paper-literal free-extension safety test (Theorem 4.2):
    apply one T_GP round to the *freed* environment and check that no
    new free signature appears.

    ``evaluator`` is a :class:`~repro.core.evaluation.ProgramEvaluator`;
    the check is read-only.
    """
    freed = {
        name: _freed_relation(relation) for name, relation in env.items()
    }
    complements = evaluator.complements_for(evaluator.evaluators, freed)
    derived = evaluator.naive_round(freed, complements=complements)
    for predicate, tuples in derived.items():
        existing = free_signatures(env[predicate])
        for gt in tuples:
            if gt.free_signature() not in existing:
                return False
    return True


def _freed_relation(relation):
    from repro.gdb.relation import GeneralizedRelation

    freed = [gt.free_extension() for gt in relation.tuples]
    return GeneralizedRelation(
        relation.temporal_arity, relation.data_arity, freed
    )
