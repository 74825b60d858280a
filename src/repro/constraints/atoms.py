"""Surface-level constraint atoms (paper Section 2.1).

A constraint atom compares two *temporal sides*, each of which is a
temporal variable plus an integer constant or a bare constant:
``Ti < Tj + c``, ``Ti = c``, ``c < Ti`` and friends.  This module
parses, pretty-prints, and lowers atoms to the ``x_i - x_j <= c``
bounds understood by :class:`repro.constraints.dbm.Dbm`.

Variables are identified by 0-based column index; display uses the
paper's 1-based ``T1, T2, …`` names.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import ParseError
from repro.util.lexing import Lexer, TokenKind


@dataclass(frozen=True)
class TemporalTerm:
    """``var + const`` where ``var`` is a 0-based column index or None
    for a pure integer constant."""

    var: int | None
    const: int = 0

    def shifted(self, delta):
        """The term denoting this value plus ``delta``."""
        return TemporalTerm(self.var, self.const + delta)

    def __str__(self):
        if self.var is None:
            return str(self.const)
        name = "T%d" % (self.var + 1)
        if self.const == 0:
            return name
        if self.const > 0:
            return "%s + %d" % (name, self.const)
        return "%s - %d" % (name, -self.const)


@dataclass(frozen=True)
class Comparison:
    """A constraint atom ``left op right`` with op in <, <=, =, >=, >, !=.

    ``!=`` is not a single zone; callers that need zones must expand it
    (see :meth:`is_convex`).
    """

    op: str
    left: TemporalTerm
    right: TemporalTerm

    def is_convex(self):
        """True when the atom denotes a single zone (everything but !=)."""
        return self.op != "!="

    def negated(self):
        """The complementary constraints, as a list of atoms whose
        disjunction is the negation of this atom.

        Over the integers the negation of every convex atom is a
        disjunction of at most two convex atoms.
        """
        if self.op == "<":
            return [Comparison(">=", self.left, self.right)]
        if self.op == "<=":
            return [Comparison(">", self.left, self.right)]
        if self.op == ">":
            return [Comparison("<=", self.left, self.right)]
        if self.op == ">=":
            return [Comparison("<", self.left, self.right)]
        if self.op == "=":
            return [
                Comparison("<", self.left, self.right),
                Comparison(">", self.left, self.right),
            ]
        # !=
        return [Comparison("=", self.left, self.right)]

    def to_bounds(self):
        """Lower to DBM bounds ``(i, j, c)`` meaning ``x_i - x_j <= c``
        with index 0 reserved for the constant zero and columns shifted
        to 1-based.

        Raises ValueError for ``!=`` (not convex).
        """
        if self.op == "!=":
            raise ValueError("a != atom is not a single zone; expand it first")
        i = 0 if self.left.var is None else self.left.var + 1
        j = 0 if self.right.var is None else self.right.var + 1
        # left.var + left.const  OP  right.var + right.const
        # → x_i - x_j  OP  right.const - left.const
        gap = self.right.const - self.left.const
        if self.op == "<":
            return [(i, j, gap - 1)]
        if self.op == "<=":
            return [(i, j, gap)]
        if self.op == ">":
            return [(j, i, -gap - 1)]
        if self.op == ">=":
            return [(j, i, -gap)]
        # equality
        return [(i, j, gap), (j, i, -gap)]

    def remapped(self, mapping):
        """Rename column indices through ``mapping`` (0-based → 0-based)."""

        def remap(term):
            if term.var is None:
                return term
            return TemporalTerm(mapping[term.var], term.const)

        return Comparison(self.op, remap(self.left), remap(self.right))

    def __str__(self):
        return "%s %s %s" % (self.left, self.op, self.right)


def _parse_term(lexer, var_names):
    """Parse ``Ti [+/- c]``, a bare integer, or ``- integer``."""
    token = lexer.peek()
    if token.kind is TokenKind.MINUS:
        lexer.next()
        number = lexer.expect(TokenKind.NUMBER)
        return TemporalTerm(None, -int(number.value))
    if token.kind is TokenKind.NUMBER:
        lexer.next()
        return TemporalTerm(None, int(token.value))
    if token.kind is TokenKind.IDENT:
        lexer.next()
        name = token.value
        if name not in var_names:
            raise ParseError(
                "unknown temporal variable %r (expected one of %s)"
                % (name, ", ".join(sorted(var_names))),
                token.line,
                token.column,
            )
        var = var_names[name]
        const = 0
        if lexer.peek().kind is TokenKind.PLUS:
            lexer.next()
            const = int(lexer.expect(TokenKind.NUMBER).value)
        elif lexer.peek().kind is TokenKind.MINUS:
            lexer.next()
            const = -int(lexer.expect(TokenKind.NUMBER).value)
        return TemporalTerm(var, const)
    raise ParseError("expected a temporal term, found %s" % token, token.line, token.column)


_OP_TOKENS = {
    TokenKind.LT: "<",
    TokenKind.LE: "<=",
    TokenKind.GT: ">",
    TokenKind.GE: ">=",
    TokenKind.EQ: "=",
    TokenKind.NE: "!=",
}


def parse_comparison(lexer, var_names):
    """Parse one constraint atom, e.g. ``T2 = T1 + 60`` or ``T1 >= 0``.

    ``var_names`` maps variable spellings (e.g. ``"T1"``) to 0-based
    column indices.
    """
    left = _parse_term(lexer, var_names)
    token = lexer.next()
    op = _OP_TOKENS.get(token.kind)
    if op is None:
        raise ParseError(
            "expected a comparison operator, found %s" % token, token.line, token.column
        )
    right = _parse_term(lexer, var_names)
    return Comparison(op, left, right)


def parse_constraint_text(text, arity, names=None):
    """Parse a conjunction of atoms separated by ``and``, ``&`` or ``,``.

    The default variable names are ``T1 … T<arity>``.

    >>> [str(a) for a in parse_constraint_text("T1 >= 0, T2 = T1 + 60", 2)]
    ['T1 >= 0', 'T2 = T1 + 60']
    """
    if names is None:
        names = {"T%d" % (k + 1): k for k in range(arity)}
    lexer = Lexer(text)
    atoms = []
    if lexer.at_end():
        return atoms
    while True:
        atoms.append(parse_comparison(lexer, names))
        if lexer.accept(TokenKind.COMMA) or lexer.accept(TokenKind.AMP):
            continue
        if lexer.peek().kind is TokenKind.IDENT and lexer.peek().value in ("and", "And", "AND"):
            lexer.next()
            continue
        break
    if not lexer.at_end():
        lexer.error("unexpected trailing input in constraint")
    return atoms
