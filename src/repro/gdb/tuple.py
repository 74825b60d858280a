"""Ground generalized tuples (paper Section 2.1).

A ground generalized tuple of temporal arity ``m`` and data arity
``l`` is ``(a_1 n_1 + b_1, …, a_m n_m + b_m, d_1, …, d_l)`` together
with a finite set of gap-order constraints over the temporal columns.
It finitely represents the — usually infinite — set of ground tuples

    {(t_1, …, t_m, d_1, …, d_l) : t_i ∈ a_i n + b_i,
                                  constraints(t_1, …, t_m)}.

Exactness with congruences
--------------------------
The constraint part alone is a zone (handled exactly by the DBM
machinery), but the lrps add congruence conditions that interact with
*bounded* difference constraints: ``T1 ≡ 0 (mod 4), T2 ≡ 2 (mod 4),
T1 <= T2 <= T1 + 1`` is empty although its zone is not.  The
**aligned disjunct form** resolves this exactly: align all columns to
the common period ``L = lcm(a_i)`` and fix a residue vector mod ``L``;
substituting ``T_i = L·m_i + r_i`` turns every gap-order bound into a
pure difference bound on the multipliers ``m_i``, i.e. a plain zone.
Every tuple is a finite disjoint union of such
:class:`AlignedTuple` disjuncts, on which membership, emptiness,
projection, difference and containment are all exact.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.constraints.dbm import Dbm, INF
from repro.constraints.system import ConstraintSystem
from repro.lrp.congruence import lcm_all
from repro.lrp.point import Lrp


def _floor_div(a, b):
    """Floor division that tolerates an infinite numerator."""
    if a == INF:
        return INF
    return a // b


# -- process-level id interning ---------------------------------------------
#
# The columnar kernel keys its template caches and dedup maps by small
# ids instead of whole structural keys: ``lvid`` names an lrp vector,
# ``sid`` a free signature ``(lrps, data)``, and ``cid`` (assigned by
# the constraint table in repro.constraints.dbm) a canonical zone.
# Ids are dense ints in interning order — process-local, never
# serialized.  Past the cap the structural key itself is used as the
# id: it is hashable and equality-correct, just slower to compare.

_ID_CAP = 1 << 20
_ID_LOCK = threading.Lock()
_LRP_IDS = {}       # lrp vector -> lvid
_SIG_IDS = {}       # (lrps, data) -> sid


def _intern(table, key):
    """The dense id of ``key`` in ``table``, assigned on first sight;
    past the cap the key itself."""
    ident = table.get(key)
    if ident is not None:
        return ident
    with _ID_LOCK:
        ident = table.get(key)
        if ident is not None:
            return ident
        if len(table) >= _ID_CAP:
            return key
        ident = table[key] = len(table)
        return ident


def signature_id(signature):
    """The interned id of a free signature (interning it if new)."""
    return _intern(_SIG_IDS, signature)


@dataclass(frozen=True)
class AlignedTuple:
    """A generalized tuple whose columns share one period ``L`` and
    have a *single* residue each: ``T_i = L·m_i + residues[i]`` with
    the multiplier vector ``m`` ranging over ``zone``.

    This is the exact computational normal form; see the module
    docstring.  ``zone`` is a :class:`Dbm` over ``len(residues)``
    multiplier variables and is treated as immutable.
    """

    period: int
    residues: tuple
    data: tuple
    zone: Dbm

    def temporal_arity(self):
        """Number of temporal columns."""
        return len(self.residues)

    def is_empty(self):
        """True when the disjunct denotes no ground tuple."""
        return not self.zone.is_satisfiable()

    def contains_times(self, times):
        """True when the ground time vector belongs to this disjunct."""
        multipliers = []
        for t, r in zip(times, self.residues):
            if (t - r) % self.period != 0:
                return False
            multipliers.append((t - r) // self.period)
        return self.zone.satisfied_by(multipliers)

    def to_generalized(self):
        """Convert back to a :class:`GeneralizedTuple`.

        A multiplier bound ``m_i - m_j <= b`` translates exactly to
        ``T_i - T_j <= L·b + r_i - r_j`` because the difference
        ``T_i - T_j`` is confined to the lattice ``L·ℤ + (r_i - r_j)``.
        """
        arity = len(self.residues)
        lrps = tuple(Lrp(self.period, r) for r in self.residues)
        zone = Dbm.unconstrained(arity)
        for (i, j, c) in self.zone.generating_bounds():
            ri = 0 if i == 0 else self.residues[i - 1]
            rj = 0 if j == 0 else self.residues[j - 1]
            zone.add_bound(i, j, self.period * c + ri - rj)
        return GeneralizedTuple(lrps, self.data, ConstraintSystem(arity, zone))

    def sample(self):
        """One ground tuple ``(times, data)`` of the disjunct, or None."""
        multipliers = self.zone.sample()
        if multipliers is None:
            return None
        times = tuple(
            self.period * m + r for m, r in zip(multipliers, self.residues)
        )
        return times, self.data


class GeneralizedTuple:
    """A ground generalized tuple: lrps, data constants, constraints.

    Instances are immutable and hashable.  The *free extension*
    (Section 4.3) is the tuple with its constraints dropped; its
    signature — the lrp vector plus the data vector — is what the
    free-extension safety test of Theorem 4.2 tracks.

    >>> from repro.lrp import Lrp
    >>> from repro.constraints import ConstraintSystem
    >>> train = GeneralizedTuple(
    ...     (Lrp(40, 5), Lrp(40, 25)),
    ...     ("Liege", "Brussels"),
    ...     ConstraintSystem.parse("T1 >= 0 & T2 = T1 + 60", 2),
    ... )
    >>> train.contains_point((5, 65), ("Liege", "Brussels"))
    True
    """

    __slots__ = (
        "lrps",
        "data",
        "constraints",
        "_hash",
        "_free_signature",
        "_kernel_ids",
        "_empty",
    )

    def __init__(self, lrps, data=(), constraints=None):
        self.lrps = tuple(lrps)
        self.data = tuple(data)
        if constraints is None:
            constraints = ConstraintSystem.top(len(self.lrps))
        if constraints.arity != len(self.lrps):
            raise ValueError(
                "constraint arity %d does not match temporal arity %d"
                % (constraints.arity, len(self.lrps))
            )
        self.constraints = constraints
        self._hash = None
        self._free_signature = None
        self._kernel_ids = None
        self._empty = None

    # -- basic structure ---------------------------------------------------

    @property
    def temporal_arity(self):
        """Number of temporal columns."""
        return len(self.lrps)

    @property
    def data_arity(self):
        """Number of data columns."""
        return len(self.data)

    def free_extension(self):
        """The tuple freed from its constraints (Section 4.3)."""
        return GeneralizedTuple(self.lrps, self.data)

    def free_signature(self):
        """Hashable signature of the free extension: (lrps, data).

        Both the coverage tests and the relation signature index look
        this up for every derived tuple, so the pair (and therefore the
        hash of its shared element tuples) is built once and memoized —
        the tuple is immutable, the signature can never change.
        """
        signature = self._free_signature
        if signature is None:
            signature = self._free_signature = (self.lrps, self.data)
        return signature

    def kernel_ids(self):
        """The tuple's interned id triple ``(lvid, sid, cid)``.

        ``lvid`` names the lrp vector, ``sid`` the free signature, and
        ``cid`` the canonical constraint zone (see the module-level
        interning tables and
        :data:`repro.constraints.dbm.CONSTRAINT_TABLE`).  The columnar
        kernel keys its template caches and dedup maps by these; the
        triple is memoized on the instance.
        """
        ids = self._kernel_ids
        if ids is None:
            lvid = _intern(_LRP_IDS, self.lrps)
            sid = signature_id(self.free_signature())
            ids = self._kernel_ids = (lvid, sid, self.constraints.constraint_id())
        return ids

    def row_key(self):
        """Integer dedup key ``(sid, cid)``, bijective with
        :meth:`canonical_key`: equal signature ids force equal arity,
        under which equal constraint ids decide zone equality."""
        ids = self.kernel_ids()
        return (ids[1], ids[2])

    def contains_point(self, times, data=()):
        """True when the ground tuple ``(times, data)`` belongs to the
        represented set."""
        if len(times) != self.temporal_arity or tuple(data) != self.data:
            return False
        if any(t not in lrp for t, lrp in zip(times, self.lrps)):
            return False
        return self.constraints.satisfied_by(tuple(times))

    # -- congruence-aware exactness ------------------------------------------

    def aligned(self, period=None):
        """The aligned disjunct form: a list of :class:`AlignedTuple`
        with common ``period`` (default: the lcm of the column periods)
        whose disjoint union equals this tuple.  Only non-empty
        disjuncts are returned.

        The residue search is a backtracking enumeration pruned by the
        pairwise difference intervals of the (closed) zone, so joins of
        equality-linked columns do not explode.
        """
        arity = self.temporal_arity
        if period is None:
            period = lcm_all(lrp.period for lrp in self.lrps)
        else:
            if any(period % lrp.period for lrp in self.lrps):
                raise ValueError("alignment period must be a common multiple")
        zone = self.constraints.zone()
        if not zone.is_satisfiable():
            return []
        if arity == 0:
            return [AlignedTuple(period, (), self.data, Dbm.unconstrained(0))]
        candidate_residues = [lrp.residues_modulo(period) for lrp in self.lrps]
        intervals = {}
        for i in range(arity):
            for j in range(i):
                intervals[(i, j)] = zone.difference_interval(i + 1, j + 1)
        result = []
        chosen = [0] * arity

        def compatible(i, r):
            for j in range(i):
                lo, hi = intervals[(i, j)]
                if lo == -INF or hi == INF:
                    continue
                if hi - lo + 1 >= period:
                    continue
                want = (r - chosen[j]) % period
                # Is there d in [lo, hi] with d ≡ want (mod period)?
                first = lo + (want - lo) % period
                if first > hi:
                    return False
            return True

        def multiplier_zone():
            mz = Dbm.unconstrained(arity)
            for (i, j, c) in zone.finite_bounds():
                ri = 0 if i == 0 else chosen[i - 1]
                rj = 0 if j == 0 else chosen[j - 1]
                mz.add_bound(i, j, _floor_div(c - ri + rj, period))
            return mz

        def recurse(i):
            if i == arity:
                mz = multiplier_zone()
                if mz.is_satisfiable():
                    result.append(
                        AlignedTuple(period, tuple(chosen), self.data, mz)
                    )
                return
            for r in candidate_residues[i]:
                if compatible(i, r):
                    chosen[i] = r
                    recurse(i + 1)

        recurse(0)
        return result

    def is_empty(self):
        """Exact emptiness, taking congruences into account.

        The verdict is memoized (the tuple is immutable) and tuples
        with at most one temporal column take an exact closed form: a
        one-variable zone is an interval, so the tuple is empty iff the
        interval is finite and contains no point of the column's
        residue class.
        """
        empty = self._empty
        if empty is None:
            empty = self._empty = self._is_empty_uncached()
        return empty

    def _is_empty_uncached(self):
        if not self.constraints.is_satisfiable():
            return True
        if self.temporal_arity <= 1:
            if self.temporal_arity == 0:
                return False
            lo, hi = self.constraints.column_interval(0)
            if lo == -INF or hi == INF:
                return False
            lrp = self.lrps[0]
            return lo + ((lrp.offset - lo) % lrp.period) > hi
        return not self.aligned()

    def sample(self):
        """One ground tuple ``(times, data)``, or None when empty."""
        for disjunct in self.aligned():
            found = disjunct.sample()
            if found is not None:
                return found
        return None

    # -- refinement -----------------------------------------------------------

    def conjoined(self, atoms):
        """Conjoin extra constraint atoms; returns the refined tuple or
        None when the zone alone becomes unsatisfiable.

        Equalities pinned by the (closed) zone are propagated into the
        lrps via CRT, so e.g. selecting ``T2 = T1 + 60`` on columns of
        periods 40 and 40 refines both columns to period 40 lrps that
        actually meet; incompatible congruences yield None.
        """
        refined = self.constraints.conjoin_atoms(atoms)
        if not refined.is_satisfiable():
            return None
        return GeneralizedTuple(self.lrps, self.data, refined).propagate_equalities()

    def propagate_equalities(self):
        """Refine lrps through every equality the zone pins down.

        Returns the refined tuple, or None when some pinned pair has
        incompatible congruences (the tuple is empty).
        """
        lrps = list(self.lrps)
        arity = self.temporal_arity
        changed = True
        while changed:
            changed = False
            for i in range(arity):
                for j in range(i):
                    lo, hi = self.constraints.difference_interval(i, j)
                    if lo != hi or lo == -INF:
                        continue
                    # T_i = T_j + lo: both columns see each other's class.
                    meet = lrps[i].intersect(lrps[j].shift(lo))
                    if meet is None:
                        return None
                    if meet != lrps[i]:
                        lrps[i] = meet
                        changed = True
                    other = meet.shift(-lo)
                    if other != lrps[j]:
                        lrps[j] = other
                        changed = True
            # Columns pinned to a constant value must contain it.
            for i in range(arity):
                lo, hi = self.constraints.column_interval(i)
                if lo == hi and lo != -INF:
                    if lo not in lrps[i]:
                        return None
        lrps = tuple(lrps)
        if lrps == self.lrps:
            # Nothing was refined: keep the original instance (and its
            # memoized hash / signature / kernel ids).
            return self
        return GeneralizedTuple(lrps, self.data, self.constraints)

    # -- transformations -------------------------------------------------------

    def shift_column(self, column, delta):
        """Advance temporal column ``column`` (0-based) by ``delta``.

        Exact and cheap: the lrp offset moves and the zone is sheared.
        """
        lrps = list(self.lrps)
        lrps[column] = lrps[column].shift(delta)
        if self.constraints.is_trivial():
            # Shearing an unconstrained zone leaves it unconstrained:
            # only the lrp offset moves, the system is shared as-is.
            return GeneralizedTuple(tuple(lrps), self.data, self.constraints)
        return GeneralizedTuple(
            tuple(lrps), self.data, self.constraints.shift_column(column, delta)
        )

    def permuted(self, order):
        """Reorder temporal columns: new column ``k`` is old ``order[k]``."""
        if list(order) == list(range(self.temporal_arity)):
            return self
        mapping = {old: new for new, old in enumerate(order)}
        lrps = tuple(self.lrps[old] for old in order)
        constraints = self.constraints.remapped(mapping, len(order))
        return GeneralizedTuple(lrps, self.data, constraints)

    def with_data(self, data):
        """The same temporal content with different data columns."""
        return GeneralizedTuple(self.lrps, tuple(data), self.constraints)

    def product(self, other):
        """Concatenate two tuples (temporal and data columns)."""
        return GeneralizedTuple(
            self.lrps + other.lrps,
            self.data + other.data,
            self.constraints.joined(other.constraints),
        )

    def joined(self, other, atoms=()):
        """Product with extra constraint atoms (indexed in the combined
        column space) conjoined in one pass; returns the refined tuple
        or None when the combined zone is unsatisfiable.  This is the
        fused join step of the compiled clause plans: one zone closure
        instead of the three a product-then-select sequence costs."""
        constraints = self.constraints.joined(other.constraints, atoms)
        if not constraints.is_satisfiable():
            return None
        return GeneralizedTuple(
            self.lrps + other.lrps, self.data + other.data, constraints
        ).propagate_equalities()

    def extended(self, count, atoms=()):
        """Append ``count`` unconstrained carrier columns and conjoin
        extra atoms; returns the refined tuple or None when empty-by-zone."""
        constraints = self.constraints.joined(ConstraintSystem.top(count), atoms)
        if not constraints.is_satisfiable():
            return None
        lrps = self.lrps + tuple(Lrp.constant_carrier() for _ in range(count))
        return GeneralizedTuple(lrps, self.data, constraints).propagate_equalities()

    def project(self, keep_temporal, keep_data, force_aligned=False):
        """Project onto the given 0-based column lists (order matters).

        Returns a list of :class:`GeneralizedTuple` whose union is the
        exact projection.  Fast exact paths avoid alignment when every
        dropped column is congruence-free (period 1), unconstrained, or
        equality-linked to a kept column; otherwise the projection is
        computed on aligned disjuncts (still exact, possibly finer
        periods).  ``force_aligned`` disables the fast paths — used by
        the E12 ablation to measure what they are worth.
        """
        data = tuple(self.data[k] for k in keep_data)
        drop = [k for k in range(self.temporal_arity) if k not in keep_temporal]
        if not force_aligned and self.constraints.is_trivial():
            # Unconstrained zone: every column is independent, so the
            # projection is plain column selection (dropped columns
            # quantify away freely) under a fresh trivial zone.
            lrps = tuple(self.lrps[k] for k in keep_temporal)
            constraints = (
                self.constraints
                if len(keep_temporal) == self.temporal_arity
                else ConstraintSystem.top(len(keep_temporal))
            )
            return [GeneralizedTuple(lrps, data, constraints)]
        base = self.propagate_equalities()
        if base is None:
            return []
        if not base.constraints.is_satisfiable():
            return []

        if not force_aligned:
            simple = base._try_simple_projection(drop, keep_temporal)
            if simple is not None:
                return [simple.with_data(data)]

        # General case: aligned projection.
        results = []
        for disjunct in base.aligned():
            zone = disjunct.zone
            residues = list(disjunct.residues)
            # Project multipliers out from the highest index down so
            # positions stay valid.
            for k in sorted(drop, reverse=True):
                zone = zone.project_out(k + 1)
                residues.pop(k)
            # Reorder according to keep_temporal.
            order = sorted(range(len(keep_temporal)))
            remaining_cols = [c for c in range(self.temporal_arity) if c not in drop]
            position = {col: idx for idx, col in enumerate(remaining_cols)}
            perm_order = [position[col] for col in keep_temporal]
            new_residues = tuple(residues[p] for p in perm_order)
            if perm_order != order:
                mapping = {p + 1: n + 1 for n, p in enumerate(perm_order)}
                zone = zone.renamed(mapping)
            projected = AlignedTuple(disjunct.period, new_residues, data, zone)
            if not projected.is_empty():
                results.append(projected.to_generalized())
        return results

    def _try_simple_projection(self, drop, keep_temporal):
        """Drop columns without alignment when congruence-safe.

        Preconditions: equalities already propagated, zone satisfiable.
        Returns the projected tuple, or None when alignment is needed.
        """
        tuple_now = self
        remaining = list(range(self.temporal_arity))
        for column in sorted(drop, reverse=True):
            lrp = tuple_now.lrps[column]
            idx = remaining.index(column)
            safe = lrp.period == 1
            if not safe:
                # Equality-linked to a surviving column?  Propagation
                # already folded the congruence into the partner, so
                # plain zone projection is exact.
                for other_idx, other_col in enumerate(remaining):
                    if other_col == column or other_col in drop:
                        continue
                    lo, hi = tuple_now.constraints.difference_interval(idx, other_idx)
                    if lo == hi and lo != -INF:
                        safe = True
                        break
            if not safe:
                # Unconstrained column (no finite bound touches it)?
                zone = tuple_now.constraints.zone()
                touched = any(
                    (i == idx + 1 or j == idx + 1) and c != INF
                    for (i, j, c) in zone.finite_bounds()
                )
                safe = not touched
            if not safe:
                return None
            lrps = tuple(
                l for pos, l in enumerate(tuple_now.lrps) if pos != idx
            )
            constraints = tuple_now.constraints.project_out(idx)
            tuple_now = GeneralizedTuple(lrps, tuple_now.data, constraints)
            remaining.pop(idx)
        # Reorder the survivors to match keep_temporal.
        position = {col: idx for idx, col in enumerate(remaining)}
        order = [position[col] for col in keep_temporal]
        return tuple_now.permuted(order)

    # -- comparison -------------------------------------------------------------

    def intersect(self, other):
        """The meet of two tuples of one schema: per-column lrp
        intersection (CRT) plus constraint conjunction, or None when
        the data differ, an lrp pair is disjoint or the conjunction is
        unsatisfiable — each a proof that no ground tuple is shared."""
        if self.data != other.data:
            return None
        lrps = []
        for mine, theirs in zip(self.lrps, other.lrps):
            meet = mine.intersect(theirs)
            if meet is None:
                return None
            lrps.append(meet)
        constraints = self.constraints.conjoin(other.constraints)
        if not constraints.is_satisfiable():
            return None
        return GeneralizedTuple(
            tuple(lrps), self.data, constraints
        ).propagate_equalities()

    def covered_on_lattice(self, systems):
        """Do the zones ``systems``, taken over this tuple's own lrps
        and data, cover every point of this tuple?

        Only the points of the tuple's lrp lattice count.  The
        integer test (zone containment in the union) is the fast
        path; when it fails, the zones are subtracted from this
        tuple's and each remaining piece must hold no lattice point
        (:meth:`is_empty`).  With no zones this is :meth:`is_empty`,
        so an empty tuple is always covered.
        """
        if not systems:
            return self.is_empty()
        if self.constraints.implied_by_union(systems):
            return True
        remaining = [self.constraints]
        for system in systems:
            remaining = [piece for own in remaining for piece in own.minus(system)]
        return all(
            GeneralizedTuple(self.lrps, self.data, piece).is_empty()
            for piece in remaining
        )

    def subtract(self, others, period=1):
        """The exact difference ``self \\ (union of others)`` as a list
        of GeneralizedTuples.  ``others`` must have the same arities;
        tuples with different data are ignored (they remove nothing).
        The pieces run on one common period: the lcm of ``period`` and
        every column period of ``self`` and of the relevant ``others``.
        """
        relevant = [o for o in others if o.data == self.data]
        if not relevant and period == 1:
            return [] if self.is_empty() else [self]
        period = lcm_all(
            [period]
            + [lrp.period for lrp in self.lrps]
            + [lrp.period for o in relevant for lrp in o.lrps]
        )
        theirs = {}
        for other in relevant:
            for disjunct in other.aligned(period):
                theirs.setdefault(disjunct.residues, []).append(disjunct.zone)
        results = []
        for disjunct in self.aligned(period):
            remaining = [disjunct.zone]
            for zone in theirs.get(disjunct.residues, []):
                next_remaining = []
                for piece in remaining:
                    next_remaining.extend(piece.difference(zone))
                remaining = next_remaining
                if not remaining:
                    break
            for piece in remaining:
                aligned = AlignedTuple(period, disjunct.residues, self.data, piece)
                results.append(aligned.to_generalized())
        return results

    # -- serialization ------------------------------------------------------------

    def to_json_dict(self):
        """A JSON-safe dict round-tripping through :meth:`from_json_dict`.

        Data constants must be JSON scalars (the surface languages only
        produce strings and integers).  The constraint system is stored
        canonically, so the round trip preserves :meth:`canonical_key`
        bit-exactly.
        """
        payload = {
            "lrps": [[lrp.period, lrp.offset] for lrp in self.lrps],
            "data": list(self.data),
        }
        if not self.constraints.is_trivial():
            payload["constraints"] = self.constraints.to_json_dict()
        return payload

    @classmethod
    def from_json_dict(cls, payload):
        """Rebuild a tuple serialized by :meth:`to_json_dict`."""
        lrps = tuple(Lrp(period, offset) for period, offset in payload["lrps"])
        constraints = None
        if "constraints" in payload:
            constraints = ConstraintSystem.from_json_dict(payload["constraints"])
        return cls(lrps, tuple(payload["data"]), constraints)

    # -- identity -----------------------------------------------------------------

    def canonical_key(self):
        """Hashable canonical form (syntactic: lrps + data + closed zone)."""
        return (self.lrps, self.data, self.constraints.canonical_key())

    def __eq__(self, other):
        if not isinstance(other, GeneralizedTuple):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.canonical_key())
        return self._hash

    def __str__(self):
        temporal = ", ".join(str(lrp) for lrp in self.lrps)
        if self.data:
            data = ", ".join(
                '"%s"' % d if isinstance(d, str) else str(d) for d in self.data
            )
            body = "(%s; %s)" % (temporal, data)
        else:
            body = "(%s)" % temporal
        if self.constraints.is_trivial():
            return body
        return "%s where %s" % (body, self.constraints)

    def __repr__(self):
        return "GeneralizedTuple%s" % str(self)
