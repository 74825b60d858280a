"""Difference-bound matrices over the integers.

A DBM over variables ``x_1 … x_n`` (plus the implicit zero variable
``x_0 = 0``) stores in entry ``(i, j)`` an upper bound on
``x_i - x_j``.  Because the variables range over ℤ, all bounds are
kept non-strict; a strict bound ``x - y < c`` is stored as
``x - y <= c - 1``, losing nothing.

The canonical form is the shortest-path closure (Floyd–Warshall).  On
closed matrices, satisfiability, containment, projection and zone
difference are all exact — the properties the safety criteria of the
paper's Section 4.3 rely on.
"""

from __future__ import annotations

import threading

from repro.util.hooks import fault_point

INF = float("inf")


class Dbm:
    """A zone: conjunction of bounds ``x_i - x_j <= c`` over ℤ.

    Index 0 is the zero variable, indices ``1 … size`` the real
    variables.  Instances are mutable while being built; call
    :meth:`close` (or any query method, which closes on demand) to
    canonicalize.

    >>> z = Dbm.unconstrained(2)
    >>> z.add_bound(1, 2, -1)   # x1 - x2 <= -1, i.e. x1 < x2
    >>> z.add_bound(2, 1, 5)    # x2 - x1 <= 5
    >>> z.is_satisfiable()
    True
    >>> z.bound(2, 1)
    5
    """

    __slots__ = ("size", "_m", "_closed", "_key", "_cid")

    def __init__(self, size, matrix=None, closed=False):
        self.size = size
        n = size + 1
        if matrix is None:
            self._m = [[0 if i == j else INF for j in range(n)] for i in range(n)]
        else:
            self._m = matrix
        self._closed = closed
        self._key = None
        self._cid = None

    # -- construction ----------------------------------------------------

    @classmethod
    def unconstrained(cls, size):
        """The zone ℤ^size (no constraints)."""
        return cls(size)

    def copy(self):
        """An independent copy of this zone.

        The copy is mutable and therefore never carries the original's
        interned constraint id (``_cid``), which names an immutable
        table entry.
        """
        clone = Dbm(self.size, [row[:] for row in self._m], self._closed)
        clone._key = self._key
        return clone

    def add_bound(self, i, j, c):
        """Conjoin ``x_i - x_j <= c`` (index 0 is the constant 0)."""
        if not (0 <= i <= self.size and 0 <= j <= self.size):
            raise IndexError("variable index out of range")
        if c < self._m[i][j]:
            self._m[i][j] = c
            self._closed = False
            self._key = None
            self._cid = None

    def conjoin(self, other):
        """Conjoin another zone over the same variables, in place."""
        if other.size != self.size:
            raise ValueError("cannot conjoin zones of different dimension")
        for i in range(self.size + 1):
            row, other_row = self._m[i], other._m[i]
            for j in range(self.size + 1):
                if other_row[j] < row[j]:
                    row[j] = other_row[j]
                    self._closed = False
                    self._key = None
                    self._cid = None

    # -- canonicalization --------------------------------------------------

    def close(self):
        """Shortest-path closure; returns True iff the zone is non-empty.

        After closure every entry is the tightest bound implied by the
        conjunction, and an unsatisfiable zone is detected by a negative
        diagonal.
        """
        if self._closed:
            return self._m[0][0] == 0
        fault_point("dbm_canonicalize")
        m = self._m
        n = self.size + 1
        for k in range(n):
            mk = m[k]
            for i in range(n):
                mik = m[i][k]
                if mik == INF:
                    continue
                mi = m[i]
                for j in range(n):
                    via = mik + mk[j]
                    if via < mi[j]:
                        mi[j] = via
        satisfiable = all(m[i][i] >= 0 for i in range(n))
        if satisfiable:
            for i in range(n):
                m[i][i] = 0
        else:
            # Mark emptiness canonically.
            m[0][0] = -1
        self._closed = True
        return satisfiable

    def is_satisfiable(self):
        """True iff the zone contains at least one integer point."""
        return self.close()

    def bound(self, i, j):
        """The tightest upper bound on ``x_i - x_j`` (INF if unbounded)."""
        self.close()
        return self._m[i][j]

    def difference_interval(self, i, j):
        """The interval ``[lo, hi]`` of feasible values of ``x_i - x_j``.

        Either end may be ``-INF`` / ``INF``.
        """
        self.close()
        hi = self._m[i][j]
        lo = -self._m[j][i] if self._m[j][i] is not INF and self._m[j][i] != INF else -INF
        return lo, hi

    def is_trivial(self):
        """True when no finite bound constrains any variable (the zone
        is all of ℤ^size).  A plain matrix scan — no closure needed,
        since an all-INF off-diagonal matrix is already closed and any
        finite off-diagonal entry survives closure.  A negative
        diagonal entry is the emptiness marker (``m[0][0] = -1``), so
        the diagonal must be exactly 0 everywhere."""
        m = self._m
        for i in range(self.size + 1):
            row = m[i]
            for j in range(self.size + 1):
                if i == j:
                    if row[j] != 0:
                        return False
                elif row[j] is not INF and row[j] != INF:
                    return False
        return True

    def canonical_key(self):
        """A hashable canonical form (closed matrix as nested tuples).

        Memoized on the instance; any mutation (``add_bound``,
        ``conjoin``) invalidates the memo.
        """
        if self._key is None:
            if not self.close():
                self._key = ("empty", self.size)
            else:
                self._key = tuple(tuple(row) for row in self._m)
        return self._key

    def __eq__(self, other):
        if not isinstance(other, Dbm):
            return NotImplemented
        if self.size != other.size:
            return False
        return self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    # -- zone algebra --------------------------------------------------------

    def contains(self, other):
        """True when ``other ⊆ self`` (both zones over the same variables)."""
        if other.size != self.size:
            raise ValueError("cannot compare zones of different dimension")
        if not other.close():
            return True
        if not self.close():
            return False
        for i in range(self.size + 1):
            for j in range(self.size + 1):
                if self._m[i][j] < other._m[i][j]:
                    return False
        return True

    def finite_bounds(self):
        """All finite bounds ``(i, j, c)`` of the closed matrix, ``i != j``."""
        self.close()
        bounds = []
        for i in range(self.size + 1):
            for j in range(self.size + 1):
                if i != j and self._m[i][j] != INF:
                    bounds.append((i, j, self._m[i][j]))
        return bounds

    def generating_bounds(self):
        """A small set of bounds whose conjunction equals this zone.

        The naive "drop every bound that is the sum of two others"
        reduction is unsound on zero cycles (in an equality clique every
        bound is such a sum, so all would be dropped).  We therefore use
        the standard two-level reduction: variables connected by a zero
        cycle form an equality class kept together by a chain of tight
        bounds, and the sum-of-two-others reduction runs only between
        class representatives.
        """
        self.close()
        m = self._m
        n = self.size + 1
        if m[0][0] != 0:
            # Empty zone: a single contradictory bound generates it.
            return [(0, 0, -1)]

        # Equality classes: i ~ j iff x_i - x_j is pinned to a constant.
        representative = list(range(n))
        for i in range(n):
            for j in range(i):
                if m[i][j] != INF and m[j][i] != INF and m[i][j] + m[j][i] == 0:
                    representative[i] = representative[j]
                    break
        classes = {}
        for i in range(n):
            classes.setdefault(representative[i], []).append(i)

        kept = []
        # Chain each equality class with tight bounds in both directions.
        for members in classes.values():
            for a, b in zip(members, members[1:]):
                kept.append((a, b, m[a][b]))
                kept.append((b, a, m[b][a]))

        reps = sorted(classes)
        for i in reps:
            for j in reps:
                if i == j or m[i][j] == INF:
                    continue
                redundant = False
                for k in reps:
                    if k in (i, j):
                        continue
                    if m[i][k] != INF and m[k][j] != INF and m[i][k] + m[k][j] <= m[i][j]:
                        redundant = True
                        break
                if not redundant:
                    kept.append((i, j, m[i][j]))
        return kept

    def difference(self, other):
        """``self \\ other`` as a list of pairwise-disjoint zones.

        Standard zone splitting: enumerate the generating bounds of
        ``other`` in a fixed order; the k-th output zone satisfies the
        first ``k-1`` of them and violates the k-th.  Only satisfiable
        zones are returned.
        """
        if other.size != self.size:
            raise ValueError("cannot subtract zones of different dimension")
        if not self.close():
            return []
        if not other.close():
            return [self.copy()]
        pieces = []
        accumulated = self.copy()
        for (i, j, c) in other.generating_bounds():
            piece = accumulated.copy()
            # Violate x_i - x_j <= c, i.e. x_j - x_i <= -c - 1.
            piece.add_bound(j, i, -c - 1)
            if piece.close():
                pieces.append(piece)
            accumulated.add_bound(i, j, c)
            if not accumulated.close():
                break
        return pieces

    def is_subset_of_union(self, zones):
        """True when ``self ⊆ z_1 ∪ … ∪ z_k``.

        Implemented by successive zone subtraction; exact.
        """
        remaining = [self.copy()]
        for zone in zones:
            if not remaining:
                return True
            next_remaining = []
            for piece in remaining:
                next_remaining.extend(piece.difference(zone))
            remaining = next_remaining
        return not remaining

    # -- projection and renaming ------------------------------------------

    def project_out(self, k):
        """Existentially quantify variable ``k`` (1-based); exact on a
        closed DBM.  Returns a new zone over ``size - 1`` variables with
        the remaining variables renumbered to stay contiguous.
        """
        if not (1 <= k <= self.size):
            raise IndexError("variable index out of range")
        self.close()
        keep = [idx for idx in range(self.size + 1) if idx != k]
        matrix = [[self._m[i][j] for j in keep] for i in keep]
        return Dbm(self.size - 1, matrix, closed=self._m[0][0] == 0)

    def renamed(self, permutation):
        """Apply a permutation of the real variables.

        ``permutation`` maps old 1-based index → new 1-based index and
        must be a bijection on ``1 … size``.
        """
        n = self.size + 1
        full = {0: 0}
        full.update(permutation)
        matrix = [[INF] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                matrix[full[i]][full[j]] = self._m[i][j]
        return Dbm(self.size, matrix, self._closed)

    def embedded(self, new_size, placement):
        """Embed this zone into a larger variable space.

        ``placement`` maps each old 1-based variable to its 1-based
        position among ``new_size`` variables; unmapped new variables
        are unconstrained.
        """
        result = Dbm.unconstrained(new_size)
        full = {0: 0}
        full.update(placement)
        for i in range(self.size + 1):
            for j in range(self.size + 1):
                if i != j and self._m[i][j] != INF:
                    result.add_bound(full[i], full[j], self._m[i][j])
        return result

    def shift_variable(self, k, c):
        """Substitute ``x_k := x_k + c`` — the zone for the shifted column.

        If a tuple's k-th temporal column is advanced by ``c`` time
        units, a constraint ``x_k - x_j <= b`` on the old value becomes
        ``x_k - x_j <= b + c`` on the new one.
        """
        result = self.copy()
        m = result._m
        for idx in range(self.size + 1):
            if idx == k:
                continue
            if m[k][idx] != INF:
                m[k][idx] = m[k][idx] + c
            if m[idx][k] != INF:
                m[idx][k] = m[idx][k] - c
        result._closed = self._closed
        result._key = None
        return result

    # -- solutions -------------------------------------------------------

    def satisfied_by(self, values):
        """True when the integer vector ``values`` (len == size) lies in
        the zone."""
        if len(values) != self.size:
            raise ValueError("expected %d values" % self.size)
        point = (0,) + tuple(values)
        for i in range(self.size + 1):
            for j in range(self.size + 1):
                if self._m[i][j] != INF and point[i] - point[j] > self._m[i][j]:
                    return False
        return True

    def sample(self):
        """One integer point of the zone, or None when empty.

        Fixes variables one at a time at the tightest lower bound
        induced by the already-fixed ones (falling back to the upper
        bound, then to 0); exact thanks to closure.
        """
        if not self.close():
            return None
        values = {0: 0}
        for i in range(1, self.size + 1):
            lower = None
            upper = None
            for j, vj in values.items():
                if self._m[j][i] != INF:  # x_j - x_i <= m → x_i >= x_j - m
                    candidate = vj - self._m[j][i]
                    lower = candidate if lower is None else max(lower, candidate)
                if self._m[i][j] != INF:  # x_i - x_j <= m → x_i <= x_j + m
                    candidate = vj + self._m[i][j]
                    upper = candidate if upper is None else min(upper, candidate)
            if lower is not None:
                values[i] = lower
            elif upper is not None:
                values[i] = upper
            else:
                values[i] = 0
        return tuple(values[i] for i in range(1, self.size + 1))

    def enumerate_in_box(self, low, high):
        """All integer points of the zone inside ``[low, high)^size``.

        Brute force; intended for tests and small windows only.
        """
        self.close()
        if self._m[0][0] != 0:
            return
        point = [0] * self.size

        def recurse(k):
            if k == self.size:
                yield tuple(point)
                return
            for v in range(low, high):
                point[k] = v
                ok = True
                # Check all constraints among fixed vars (0..k) and zero.
                for i in range(k + 2):
                    for j in range(k + 2):
                        ci = 0 if i == 0 else point[i - 1]
                        cj = 0 if j == 0 else point[j - 1]
                        if self._m[i][j] != INF and ci - cj > self._m[i][j]:
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    yield from recurse(k + 1)

        yield from recurse(0)

    def __repr__(self):
        self.close()
        if self._m[0][0] != 0:
            return "Dbm(size=%d, empty)" % self.size
        parts = []
        for (i, j, c) in self.generating_bounds():
            left = "0" if i == 0 else "x%d" % i
            right = "0" if j == 0 else "x%d" % j
            parts.append("%s - %s <= %s" % (left, right, c))
        return "Dbm(size=%d, %s)" % (self.size, ", ".join(parts) or "true")


# -- process-level interning: the constraint table ---------------------------
#
# Identical zones recur constantly during bottom-up evaluation (every
# derived tuple of the same clause round carries the same handful of
# canonical zones).  The ConstraintTable shares one closed instance per
# canonical key and assigns it a dense integer id (its ``_cid``), so
# canonicalization and key computation happen once per distinct zone,
# equality checks short-circuit on identity, and downstream layers can
# dedup and index tuples by plain integer compares instead of hashing
# whole canonical matrices.  Interned instances must never be mutated;
# every holder treats its zone as immutable (ConstraintSystem copies
# before any in-place operation).


class ConstraintTable:
    """Process-level intern table: one canonical closed DBM per id.

    Ids are dense (``0 … len-1``) in interning order, so they are only
    meaningful within one process — the wire/checkpoint formats keep
    using canonical bounds.  The table is capped; past the cap
    :meth:`intern` returns the caller's own (closed) zone un-interned
    with no id, and :meth:`zone_id` falls back to the canonical key,
    which compares slower but never collides with an integer id.

    Id assignment is lock-guarded (service threads share the process
    table); the hit path stays lock-free because entries are
    append-only and never replaced.
    """

    __slots__ = ("cap", "_ids", "_zones", "_lock")

    def __init__(self, cap=1 << 17):
        self.cap = cap
        self._ids = {}      # canonical key -> id
        self._zones = []    # id -> frozen closed Dbm
        self._lock = threading.Lock()

    def __len__(self):
        return len(self._zones)

    def intern(self, zone):
        """The shared canonical instance for ``zone``'s canonical key.

        The returned DBM is closed and carries its table id in
        ``_cid``.  On a miss a private copy of ``zone`` is stored, so
        later mutation of the caller's instance can never corrupt the
        table.
        """
        key = zone.canonical_key()
        cid = self._ids.get(key)
        if cid is not None:
            return self._zones[cid]
        if len(self._zones) >= self.cap:
            return zone
        with self._lock:
            cid = self._ids.get(key)
            if cid is not None:
                return self._zones[cid]
            if len(self._zones) >= self.cap:
                return zone
            frozen = zone.copy()
            frozen._cid = len(self._zones)
            self._zones.append(frozen)
            self._ids[key] = frozen._cid
            return frozen

    def zone_id(self, zone):
        """A dedup key for ``zone``: its int id, or the canonical key
        when the zone never made it into the capped table."""
        cid = zone._cid
        if cid is not None:
            return cid
        key = zone.canonical_key()
        cid = self._ids.get(key)
        return key if cid is None else cid

    def zone_for(self, cid):
        """The interned zone with table id ``cid``."""
        return self._zones[cid]


CONSTRAINT_TABLE = ConstraintTable()


def intern_dbm(zone):
    """The shared canonical instance for ``zone`` (see ConstraintTable)."""
    return CONSTRAINT_TABLE.intern(zone)
