"""Conjunctions of gap-order atoms over the temporal columns of a tuple.

:class:`ConstraintSystem` is the immutable, user-facing wrapper around
a :class:`~repro.constraints.dbm.Dbm` zone: it knows the tuple's
temporal arity, speaks the paper's atom syntax (``T2 = T1 + 60``), and
exposes exactly the operations the generalized-database algebra needs.
"""

from __future__ import annotations

from repro.constraints.atoms import Comparison, TemporalTerm, parse_constraint_text
from repro.constraints.dbm import CONSTRAINT_TABLE, INF, Dbm, intern_dbm


class ConstraintSystem:
    """An immutable zone over the temporal columns ``T1 … Tm``.

    Construct with :meth:`top` (no constraints), :meth:`from_atoms`, or
    :meth:`parse`; combine with :meth:`conjoin`; query with
    :meth:`is_satisfiable`, :meth:`satisfied_by`, :meth:`implies`.

    >>> cs = ConstraintSystem.parse("T1 >= 0, T2 = T1 + 60", 2)
    >>> cs.satisfied_by((5, 65))
    True
    >>> cs.satisfied_by((5, 64))
    False
    """

    __slots__ = ("arity", "_zone")

    def __init__(self, arity, zone=None):
        self.arity = arity
        if zone is None:
            zone = Dbm.unconstrained(arity)
        # Canonical zones are interned process-wide: one shared, closed,
        # never-mutated instance per canonical key (every in-place zone
        # operation below works on a copy).
        self._zone = intern_dbm(zone)

    # -- constructors ---------------------------------------------------

    @classmethod
    def top(cls, arity):
        """The trivial constraint ``true`` over ``arity`` columns."""
        return cls(arity)

    @classmethod
    def bottom(cls, arity):
        """The unsatisfiable constraint ``false``."""
        zone = Dbm.unconstrained(arity)
        zone.add_bound(0, 0, -1)
        return cls(arity, zone)

    @classmethod
    def from_atoms(cls, arity, atoms):
        """Build from an iterable of :class:`Comparison` atoms."""
        zone = Dbm.unconstrained(arity)
        for atom in atoms:
            for (i, j, c) in atom.to_bounds():
                zone.add_bound(i, j, c)
        return cls(arity, zone)

    @classmethod
    def parse(cls, text, arity, names=None):
        """Parse a conjunction such as ``"T1 >= 0 & T2 = T1 + 60"``.

        The spellings ``"true"`` and ``"false"`` (which ``str`` emits
        for trivial and unsatisfiable systems) are also accepted.
        """
        stripped = text.strip()
        if stripped in ("", "true"):
            return cls.top(arity)
        if stripped == "false":
            return cls.bottom(arity)
        return cls.from_atoms(arity, parse_constraint_text(text, arity, names))

    @classmethod
    def equal_to_constant(cls, arity, column, value):
        """The constraint ``T<column+1> = value``."""
        atom = Comparison("=", TemporalTerm(column), TemporalTerm(None, value))
        return cls.from_atoms(arity, [atom])

    # -- structure --------------------------------------------------------

    def zone(self):
        """A defensive copy of the underlying DBM."""
        return self._zone.copy()

    def is_satisfiable(self):
        """True when some integer assignment satisfies the conjunction."""
        return self._zone.is_satisfiable()

    def is_trivial(self):
        """True when the constraint is equivalent to ``true``."""
        return self._zone.is_trivial()

    def satisfied_by(self, values):
        """True when the concrete time vector satisfies the constraints."""
        return self._zone.satisfied_by(values)

    def difference_interval(self, i, j):
        """Feasible interval of ``T(i+1) - T(j+1)`` (0-based columns)."""
        return self._zone.difference_interval(i + 1, j + 1)

    def column_interval(self, i):
        """Feasible interval ``[lo, hi]`` of column ``i`` (0-based)."""
        return self._zone.difference_interval(i + 1, 0)

    # -- algebra -----------------------------------------------------------

    def conjoin(self, other):
        """The conjunction of two systems over the same columns."""
        if other.arity != self.arity:
            raise ValueError("arity mismatch: %d vs %d" % (self.arity, other.arity))
        zone = self._zone.copy()
        zone.conjoin(other._zone)
        return ConstraintSystem(self.arity, zone)

    def conjoin_atoms(self, atoms):
        """Conjoin extra :class:`Comparison` atoms."""
        zone = self._zone.copy()
        for atom in atoms:
            for (i, j, c) in atom.to_bounds():
                zone.add_bound(i, j, c)
        return ConstraintSystem(self.arity, zone)

    def joined(self, other, atoms=()):
        """The fused join constraint: this system over columns
        ``0 … m-1``, ``other`` over columns ``m … m+k-1``, and extra
        ``atoms`` (already indexed in the combined space) conjoined in
        one pass with a single closure — the hot operation of the
        compiled clause plans."""
        arity = self.arity + other.arity
        if not self.is_satisfiable() or not other.is_satisfiable():
            return ConstraintSystem.bottom(arity)
        zone = Dbm.unconstrained(arity)
        for (i, j, c) in self._zone.finite_bounds():
            zone.add_bound(i, j, c)
        shift = self.arity
        for (i, j, c) in other._zone.finite_bounds():
            zone.add_bound(i if i == 0 else i + shift, j if j == 0 else j + shift, c)
        for atom in atoms:
            for (i, j, c) in atom.to_bounds():
                zone.add_bound(i, j, c)
        return ConstraintSystem(arity, zone)

    def hull(self, other):
        """The smallest zone containing both systems: the entrywise max
        of their closed DBM bounds."""
        if not self.is_satisfiable():
            return other
        if not other.is_satisfiable():
            return self
        zone = Dbm.unconstrained(self.arity)
        for (i, j, c) in self._zone.finite_bounds():
            bound = other._zone.bound(i, j)
            if bound != INF:
                zone.add_bound(i, j, max(c, bound))
        return ConstraintSystem(self.arity, zone)

    def project_out(self, column):
        """Existentially quantify a 0-based column; the result has
        arity one less, remaining columns renumbered in order."""
        return ConstraintSystem(self.arity - 1, self._zone.project_out(column + 1))

    def remapped(self, mapping, new_arity):
        """Move columns into a (possibly larger) space.

        ``mapping`` sends each old 0-based column to a new 0-based
        column; new columns not in the image are unconstrained.
        """
        placement = {old + 1: new + 1 for old, new in mapping.items()}
        return ConstraintSystem(new_arity, self._zone.embedded(new_arity, placement))

    def shift_column(self, column, delta):
        """The constraint after column ``column`` advances by ``delta``."""
        return ConstraintSystem(self.arity, self._zone.shift_variable(column + 1, delta))

    def implies(self, other):
        """True when this zone is contained in ``other``'s."""
        if other.arity != self.arity:
            raise ValueError("arity mismatch")
        return other._zone.contains(self._zone)

    def implied_by_union(self, others):
        """True when this zone is covered by the union of the others.

        This is exactly the implication test of the paper's
        *constraint safety* definition (Section 4.3):
        ``constraints(gt) ⇒ constraints(gt_1) ∨ … ∨ constraints(gt_n)``.
        """
        return self._zone.is_subset_of_union([o._zone for o in others])

    def minus(self, other):
        """``self ∧ ¬other`` as a list of disjoint ConstraintSystems."""
        if other.arity != self.arity:
            raise ValueError("arity mismatch")
        return [
            ConstraintSystem(self.arity, piece)
            for piece in self._zone.difference(other._zone)
        ]

    # -- display ------------------------------------------------------------

    def atoms(self):
        """A generating list of :class:`Comparison` atoms (canonical,
        non-redundant modulo equality cliques), suitable for display."""
        if not self.is_satisfiable():
            false_atom = Comparison("<", TemporalTerm(None, 0), TemporalTerm(None, 0))
            return [false_atom]
        bounds = self._zone.generating_bounds()
        atoms = []
        emitted_eq = set()
        pending = dict()
        for (i, j, c) in bounds:
            pending[(i, j)] = c
        for (i, j), c in sorted(pending.items()):
            if (j, i) in pending and pending[(j, i)] == -c:
                # Equality: emit once, from the lower index.
                key = (min(i, j), max(i, j))
                if key in emitted_eq:
                    continue
                emitted_eq.add(key)
                lo, hi = key
                gap = pending[(hi, lo)]
                left = TemporalTerm(None, 0) if hi == 0 else TemporalTerm(hi - 1)
                right = (
                    TemporalTerm(None, gap)
                    if lo == 0
                    else TemporalTerm(lo - 1, gap)
                )
                atoms.append(Comparison("=", left, right))
            else:
                left = TemporalTerm(None, 0) if i == 0 else TemporalTerm(i - 1)
                right = TemporalTerm(None, c) if j == 0 else TemporalTerm(j - 1, c)
                atoms.append(Comparison("<=", left, right))
        return atoms

    # -- serialization -------------------------------------------------------

    def to_json_dict(self):
        """A JSON-safe dict round-tripping through :meth:`from_json_dict`.

        A generating set of bounds is stored (including the canonical
        contradictory bound for unsatisfiable zones); re-closing it
        reproduces the identical canonical matrix, so the round trip is
        bit-exact on :meth:`canonical_key`.
        """
        return {
            "arity": self.arity,
            "bounds": [list(b) for b in self._zone.generating_bounds()],
        }

    @classmethod
    def from_json_dict(cls, payload):
        """Rebuild a system serialized by :meth:`to_json_dict`."""
        zone = Dbm.unconstrained(payload["arity"])
        for i, j, c in payload["bounds"]:
            zone.add_bound(i, j, c)
        return cls(payload["arity"], zone)

    def canonical_key(self):
        """Hashable canonical form."""
        return (self.arity, self._zone.canonical_key())

    def constraint_id(self):
        """A compact dedup key for this system's zone.

        The interned table id (an ``int``) in the common case; the full
        canonical key once the process table has hit its cap.  Two
        systems of equal arity are equal iff their constraint ids are
        equal, so integer compares replace matrix-key hashing in dedup
        paths.
        """
        return CONSTRAINT_TABLE.zone_id(self._zone)

    def __eq__(self, other):
        if not isinstance(other, ConstraintSystem):
            return NotImplemented
        if self._zone is other._zone:  # interned zones share identity
            return self.arity == other.arity
        return self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def __str__(self):
        atoms = self.atoms()
        if not atoms:
            return "true"
        return " & ".join(str(a) for a in atoms)

    def __repr__(self):
        return "ConstraintSystem(%d, %s)" % (self.arity, str(self))
