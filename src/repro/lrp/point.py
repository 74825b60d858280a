"""Linear repeating points (paper Section 2.1).

A linear repeating point (lrp) ``an + b`` denotes the set
``{a*n + b : n ∈ ℤ}``, i.e. the residue class of ``b`` modulo ``a``.
Following the paper we require a **non-zero period** ``a``; an integer
constant ``c`` is represented as the lrp ``n`` (period 1) together with
the constraint ``T = c`` at the generalized-tuple level.

The class is immutable and hashable so lrps can key dictionaries (the
free-extension signatures of Section 4.3 are tuples of lrps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.lrp.congruence import crt


@dataclass(frozen=True, order=True)
class Lrp:
    """The linear repeating point ``period * n + offset``.

    The offset is normalized into ``[0, period)``, so two lrps denote
    the same set of integers iff they are equal as objects.

    >>> Lrp(5, 3)
    Lrp(period=5, offset=3)
    >>> Lrp(5, -2) == Lrp(5, 3)
    True
    >>> 13 in Lrp(5, 3)
    True
    """

    period: int
    offset: int

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("lrp period must be a positive integer, got %r" % (self.period,))
        object.__setattr__(self, "offset", self.offset % self.period)

    # -- set membership and structure --------------------------------

    def __contains__(self, t):
        return (t - self.offset) % self.period == 0

    def is_subset(self, other):
        """True when every point of self belongs to ``other``.

        ``a1*n + b1 ⊆ a2*n + b2`` iff a2 divides a1 and b1 ≡ b2 (mod a2).
        """
        return self.period % other.period == 0 and self.offset % other.period == other.offset

    def intersect(self, other):
        """Intersection of two lrps, again an lrp or None when disjoint.

        The period of the result is ``lcm`` of the periods and the
        offset is found with the Chinese Remainder Theorem.

        >>> Lrp(4, 1).intersect(Lrp(6, 3))
        Lrp(period=12, offset=9)
        >>> Lrp(4, 0).intersect(Lrp(4, 1)) is None
        True
        """
        combined = crt(self.offset, self.period, other.offset, other.period)
        if combined is None:
            return None
        offset, period = combined
        return Lrp(period, offset)

    def intersects(self, other):
        """True when the two lrps share at least one point."""
        return (other.offset - self.offset) % math.gcd(self.period, other.period) == 0

    # -- transformations ----------------------------------------------

    def shift(self, c):
        """The lrp denoting ``{t + c : t ∈ self}``.

        >>> Lrp(5, 3).shift(4)
        Lrp(period=5, offset=2)
        """
        return Lrp(self.period, self.offset + c)

    def scale_period(self, factor):
        """Refine the period by an integer ``factor`` ≥ 1: return the
        list of lrps of period ``factor * period`` whose union is self.

        >>> Lrp(2, 1).scale_period(2)
        [Lrp(period=4, offset=1), Lrp(period=4, offset=3)]
        """
        if factor < 1:
            raise ValueError("factor must be >= 1")
        new_period = self.period * factor
        return [Lrp(new_period, self.offset + k * self.period) for k in range(factor)]

    def residues_modulo(self, modulus):
        """The residues of this lrp modulo a multiple of its period.

        ``modulus`` must be divisible by the period.  Returns the sorted
        list of residues ``r`` in ``[0, modulus)`` such that the class
        ``r (mod modulus)`` is contained in this lrp.

        >>> Lrp(2, 0).residues_modulo(6)
        [0, 2, 4]
        """
        if modulus % self.period != 0:
            raise ValueError(
                "modulus %d is not a multiple of the period %d" % (modulus, self.period)
            )
        return [self.offset + k * self.period for k in range(modulus // self.period)]

    # -- enumeration ---------------------------------------------------

    def enumerate(self, low, high):
        """Yield the points of this lrp in the window ``[low, high)``.

        >>> list(Lrp(5, 3).enumerate(-5, 15))
        [-2, 3, 8, 13]
        """
        first = low + (self.offset - low) % self.period
        return range(first, high, self.period)

    # -- display -------------------------------------------------------

    def __str__(self):
        if self.period == 1:
            return "n" if self.offset == 0 else "n+%d" % self.offset
        if self.offset == 0:
            return "%dn" % self.period
        return "%dn+%d" % (self.period, self.offset)

    @classmethod
    def parse(cls, text):
        """Parse the textual form ``"an+b"``, ``"an"``, ``"n+b"`` or ``"n"``.

        >>> Lrp.parse("168n+8")
        Lrp(period=168, offset=8)
        """
        body = text.replace(" ", "")
        if "n" not in body:
            raise ValueError("an lrp literal must contain 'n': %r" % text)
        head, _, tail = body.partition("n")
        period = int(head) if head else 1
        offset = int(tail) if tail else 0
        return cls(period, offset)

    @classmethod
    def constant_carrier(cls):
        """The lrp ``n`` (period 1) used to carry integer constants.

        The paper eliminates a constant ``c`` in temporal position ``i``
        by writing the lrp ``n`` with the constraint ``T_i = c``.
        """
        return cls(1, 0)
