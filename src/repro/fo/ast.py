"""Formulas of the first-order query language, and their parser.

Grammar::

    formula  := quantified
    quantified := ('exists' | 'forall') var (',' var)* '(' formula ')'
                | disjunction
    disjunction := conjunction ('or' conjunction)*
    conjunction := unary ('and' unary)*
    unary    := 'not' unary | '(' formula ')' | atom | comparison

Atoms follow the deductive-language conventions: temporal arguments
first (variables with optional ``± c`` or integer constants), data
arguments after a semicolon (uppercase identifiers are variables).
Comparisons are the gap-order atoms ``t1 < t2 + 5`` etc.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ast import ConstraintAtom, DataTerm, PredicateAtom, TemporalTerm
from repro.util.errors import ParseError
from repro.util.lexing import Lexer, TokenKind


@dataclass(frozen=True)
class FoAtom:
    """A database atom ``p(τ…; d…)``."""

    atom: PredicateAtom

    def __str__(self):
        return str(self.atom)


@dataclass(frozen=True)
class FoComparison:
    """An interpreted comparison between temporal terms."""

    atom: ConstraintAtom

    def __str__(self):
        return str(self.atom)


@dataclass(frozen=True)
class FoAnd:
    parts: tuple

    def __str__(self):
        return "(" + " and ".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class FoOr:
    parts: tuple

    def __str__(self):
        return "(" + " or ".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class FoNot:
    sub: object

    def __str__(self):
        return "not %s" % self.sub


@dataclass(frozen=True)
class FoExists:
    variables: tuple  # names; temporal (lowercase) or data (uppercase)
    sub: object

    def __str__(self):
        return "exists %s (%s)" % (", ".join(self.variables), self.sub)


@dataclass(frozen=True)
class FoForAll:
    variables: tuple

    sub: object = None

    def __str__(self):
        return "forall %s (%s)" % (", ".join(self.variables), self.sub)


def is_data_name(name):
    """Uppercase (or underscore-led) identifiers are data variables."""
    return name[0].isupper() or name[0] == "_"


def free_variables(formula):
    """``(temporal_names, data_names)`` free in the formula, in first
    appearance order."""
    temporal, data = [], []

    def note(name, is_data, bound):
        if name in bound:
            return
        target = data if is_data else temporal
        if name not in target:
            target.append(name)

    def walk(node, bound):
        if isinstance(node, FoAtom):
            for term in node.atom.temporal_args:
                if term.var is not None:
                    note(term.var, False, bound)
            for term in node.atom.data_args:
                if term.is_variable():
                    note(term.name, True, bound)
        elif isinstance(node, FoComparison):
            for term in (node.atom.left, node.atom.right):
                if term.var is not None:
                    note(term.var, False, bound)
        elif isinstance(node, (FoAnd, FoOr)):
            for part in node.parts:
                walk(part, bound)
        elif isinstance(node, FoNot):
            walk(node.sub, bound)
        elif isinstance(node, (FoExists, FoForAll)):
            walk(node.sub, bound | set(node.variables))
        else:  # pragma: no cover - defensive
            raise TypeError("unexpected formula node %r" % (node,))

    walk(formula, set())
    return tuple(temporal), tuple(data)


def data_constants(formula):
    """The data constants the formula's atoms mention."""
    if isinstance(formula, FoAtom):
        return {
            term.value for term in formula.atom.data_args if not term.is_variable()
        }
    if isinstance(formula, (FoAnd, FoOr)):
        return set().union(*(data_constants(part) for part in formula.parts))
    if isinstance(formula, (FoNot, FoExists, FoForAll)):
        return data_constants(formula.sub)
    return set()


# -- parser -------------------------------------------------------------


_COMPARISONS = {
    TokenKind.LT: "<",
    TokenKind.LE: "<=",
    TokenKind.EQ: "=",
    TokenKind.GE: ">=",
    TokenKind.GT: ">",
}


def _parse_temporal_term(lexer):
    token = lexer.peek()
    if token.kind is TokenKind.MINUS:
        lexer.next()
        return TemporalTerm(None, -int(lexer.expect(TokenKind.NUMBER).value))
    if token.kind is TokenKind.NUMBER:
        lexer.next()
        return TemporalTerm(None, int(token.value))
    if token.kind is TokenKind.IDENT:
        lexer.next()
        offset = 0
        if lexer.peek().kind is TokenKind.PLUS:
            lexer.next()
            offset = int(lexer.expect(TokenKind.NUMBER).value)
        elif lexer.peek().kind is TokenKind.MINUS:
            lexer.next()
            offset = -int(lexer.expect(TokenKind.NUMBER).value)
        return TemporalTerm(token.value, offset)
    raise ParseError("expected a temporal term, found %s" % token, token.line, token.column)


def _parse_data_term(lexer):
    token = lexer.next()
    if token.kind is TokenKind.STRING:
        return DataTerm.constant(token.value)
    if token.kind is TokenKind.NUMBER:
        return DataTerm.constant(int(token.value))
    if token.kind is TokenKind.MINUS:
        return DataTerm.constant(-int(lexer.expect(TokenKind.NUMBER).value))
    if token.kind is TokenKind.IDENT:
        if is_data_name(token.value):
            return DataTerm.variable(token.value)
        return DataTerm.constant(token.value)
    raise ParseError("expected a data term, found %s" % token, token.line, token.column)


def _parse_atom_or_comparison(lexer):
    token = lexer.peek()
    if token.kind is TokenKind.IDENT and token.value not in ("not", "and", "or"):
        name = lexer.next()
        if lexer.peek().kind is TokenKind.LPAREN and not is_data_name(name.value):
            lexer.next()
            temporal, data = [], []
            if lexer.peek().kind is not TokenKind.RPAREN:
                while True:
                    temporal.append(_parse_temporal_term(lexer))
                    if lexer.accept(TokenKind.COMMA):
                        continue
                    break
                if lexer.accept(TokenKind.SEMICOLON):
                    while True:
                        data.append(_parse_data_term(lexer))
                        if lexer.accept(TokenKind.COMMA):
                            continue
                        break
            lexer.expect(TokenKind.RPAREN)
            return FoAtom(PredicateAtom(name.value, tuple(temporal), tuple(data)))
        # Otherwise it is a comparison starting with a variable.
        offset = 0
        if lexer.peek().kind is TokenKind.PLUS:
            lexer.next()
            offset = int(lexer.expect(TokenKind.NUMBER).value)
        elif lexer.peek().kind is TokenKind.MINUS:
            lexer.next()
            offset = -int(lexer.expect(TokenKind.NUMBER).value)
        left = TemporalTerm(name.value, offset)
    else:
        left = _parse_temporal_term(lexer)
    op_token = lexer.next()
    op = _COMPARISONS.get(op_token.kind)
    if op is None:
        raise ParseError(
            "expected a comparison operator, found %s" % op_token,
            op_token.line,
            op_token.column,
        )
    right = _parse_temporal_term(lexer)
    return FoComparison(ConstraintAtom(op, left, right))


def _parse_unary(lexer):
    token = lexer.peek()
    if token.kind is TokenKind.IDENT and token.value == "not":
        lexer.next()
        return FoNot(_parse_unary(lexer))
    if token.kind is TokenKind.IDENT and token.value in ("exists", "forall"):
        lexer.next()
        names = [lexer.expect(TokenKind.IDENT).value]
        while lexer.accept(TokenKind.COMMA):
            names.append(lexer.expect(TokenKind.IDENT).value)
        lexer.expect(TokenKind.LPAREN)
        sub = _parse_formula(lexer)
        lexer.expect(TokenKind.RPAREN)
        node = FoExists if token.value == "exists" else FoForAll
        return node(tuple(names), sub)
    if token.kind is TokenKind.LPAREN:
        lexer.next()
        sub = _parse_formula(lexer)
        lexer.expect(TokenKind.RPAREN)
        return sub
    return _parse_atom_or_comparison(lexer)


def _parse_conjunction(lexer):
    parts = [_parse_unary(lexer)]
    while lexer.accept_keyword("and"):
        parts.append(_parse_unary(lexer))
    if len(parts) == 1:
        return parts[0]
    return FoAnd(tuple(parts))


def _parse_formula(lexer):
    parts = [_parse_conjunction(lexer)]
    while lexer.accept_keyword("or"):
        parts.append(_parse_conjunction(lexer))
    if len(parts) == 1:
        return parts[0]
    return FoOr(tuple(parts))


def parse_formula(text):
    """Parse an FO query."""
    lexer = Lexer(text)
    formula = _parse_formula(lexer)
    if not lexer.at_end():
        lexer.error("unexpected trailing input after formula")
    return formula
