"""Expression parser for Leibniz forms.

Grammar (the ⊙ product is spelled ``@`` and binds tighter than ``+``
but looser than ``*``):

    expr := term (("+" | "-") term)*
    term := atom ("@" atom)*
    atom := SCALAR
          | SYMBOL
          | SCALAR "*" atom
          | SYMBOL "*" atom
          | "d" ("^" INT)? "(" expr ")"
          | "(" expr ")"

``d2(f)`` and ``d3(f)`` are sugar for ``d^2(f)`` and ``d^3(f)``.
Scalars are integers or integer ratios like ``3/4``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .algebra import AlgebraSpec
from .leibniz import LeibnizForm, module_mul, odot, symbolic_delta
from .scalars import Scalar


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class LoweringError(ValueError):
    pass


@dataclass(frozen=True)
class Node:
    line: int
    col: int


@dataclass(frozen=True)
class Lit(Node):
    value: Fraction


@dataclass(frozen=True)
class Sym(Node):
    name: str


@dataclass(frozen=True)
class Mul(Node):
    head: Node  # Lit or Sym
    tail: Node


@dataclass(frozen=True)
class Odot(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Delta(Node):
    power: int
    inner: Node


@dataclass(frozen=True)
class Add(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Sub(Node):
    left: Node
    right: Node


FormExpr = Node

# ``**`` is one token so that forms reject it and polynomials read it as ``^``
_TOKEN = re.compile(r"(\d+)|([A-Za-z_]\w*)|(\*\*|[@*+\-^()/])|(\S)")


@dataclass(frozen=True)
class _Tok:
    kind: str  # "int" | "name" | "punct" | "end"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    out: list[_Tok] = []
    lines = text.splitlines() or [""]
    for lineno, line in enumerate(lines, start=1):
        pos = 0
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            m = _TOKEN.match(line, pos)
            col = pos + 1
            if m.group(1):
                out.append(_Tok("int", m.group(1), lineno, col))
            elif m.group(2):
                out.append(_Tok("name", m.group(2), lineno, col))
            elif m.group(3):
                out.append(_Tok("punct", m.group(3), lineno, col))
            else:
                raise ParseError(f"unexpected character {m.group(4)!r}", lineno, col)
            pos = m.end()
    out.append(_Tok("end", "", len(lines), len(lines[-1]) + 1))
    return out


class TokenStream:
    """A cursor over the tokens of a text, shared with ``jets.parse_poly2``."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Tok:
        return self.tokens[self.i]

    def take(self) -> _Tok:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> _Tok:
        tok = self.take()
        if tok.text != text:
            raise ParseError(f"expected {text!r}", tok.line, tok.col)
        return tok


class _Parser(TokenStream):
    def parse_expr(self) -> Node:
        node = self.parse_term()
        while self.peek().text in ("+", "-"):
            op = self.take()
            rhs = self.parse_term()
            node = (Add if op.text == "+" else Sub)(node.line, node.col, node, rhs)
        return node

    def parse_term(self) -> Node:
        node = self.parse_atom()
        while self.peek().text == "@":
            self.take()
            rhs = self.parse_atom()
            node = Odot(node.line, node.col, node, rhs)
        return node

    def parse_atom(self) -> Node:
        tok = self.peek()
        if tok.text == "(":
            self.take()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.kind == "int":
            self.take()
            value = Fraction(int(tok.text))
            if self.peek().text == "/":
                self.take()
                den = self.take()
                if den.kind != "int":
                    raise ParseError("expected denominator", den.line, den.col)
                if int(den.text) == 0:
                    raise ParseError("zero denominator", den.line, den.col)
                value = Fraction(int(tok.text), int(den.text))
            lit = Lit(tok.line, tok.col, value)
            if self.peek().text == "*":
                self.take()
                return Mul(tok.line, tok.col, lit, self.parse_atom())
            return lit
        if tok.kind == "name":
            delta = self._try_delta(tok)
            if delta is not None:
                return delta
            self.take()
            sym = Sym(tok.line, tok.col, tok.text)
            if self.peek().text == "*":
                self.take()
                return Mul(tok.line, tok.col, sym, self.parse_atom())
            return sym
        raise ParseError("expected expression", tok.line, tok.col)

    def _try_delta(self, tok: _Tok) -> Union[Delta, None]:
        """Recognize d(...), d^k(...) and the dk(...) sugar."""
        m = re.fullmatch(r"d(\d*)", tok.text)
        if not m:
            return None
        power = int(m.group(1)) if m.group(1) else None
        save = self.i
        self.take()
        explicit = False
        if power is None and self.peek().text == "^":
            self.take()
            p = self.take()
            if p.kind != "int":
                raise ParseError("expected integer power", p.line, p.col)
            power = int(p.text)
            explicit = True
        if self.peek().text != "(":
            if explicit:
                nxt = self.peek()
                raise ParseError("expected '('", nxt.line, nxt.col)
            # a plain symbol that happens to start with the letter d
            self.i = save
            return None
        if power is not None and power < 1:
            raise ParseError("differential power must be at least 1", tok.line, tok.col)
        self.expect("(")
        inner = self.parse_expr()
        self.expect(")")
        return Delta(tok.line, tok.col, 1 if power is None else power, inner)


def parse(text: str) -> FormExpr:
    parser = _Parser(text)
    node = parser.parse_expr()
    end = parser.take()
    if end.kind != "end":
        raise ParseError(f"unexpected {end.text!r}", end.line, end.col)
    return node


# -- lowering to homogeneous forms ----------------------------------------


def lower(expr: FormExpr, spec: AlgebraSpec) -> dict[int, LeibnizForm]:
    """Lower a tree to its homogeneous parts keyed by order."""
    parts = _lower(expr, spec)
    return {order: form for order, form in sorted(parts.items()) if not form.is_zero()}


def _merge(acc: dict[int, LeibnizForm], form: LeibnizForm, sign: int) -> None:
    form = form if sign > 0 else form.scale(-1)
    if form.order in acc:
        acc[form.order] = acc[form.order] + form
    else:
        acc[form.order] = form


def _lower(expr: FormExpr, spec: AlgebraSpec) -> dict[int, LeibnizForm]:
    if isinstance(expr, Lit):
        return {0: LeibnizForm.from_alg(spec.scalar(Scalar.of(expr.value)))}
    if isinstance(expr, Sym):
        try:
            elem = spec.symbol(expr.name)
        except KeyError:
            raise LoweringError(
                f"line {expr.line}, column {expr.col}: unknown symbol {expr.name!r}"
            ) from None
        return {0: LeibnizForm.from_alg(elem)}
    if isinstance(expr, (Add, Sub)):
        acc: dict[int, LeibnizForm] = {}
        for order, form in _lower(expr.left, spec).items():
            _merge(acc, form, 1)
        for order, form in _lower(expr.right, spec).items():
            _merge(acc, form, 1 if isinstance(expr, Add) else -1)
        return acc
    if isinstance(expr, Mul):
        tail = _lower(expr.tail, spec)
        if isinstance(expr.head, Lit):
            return {o: f.scale(Scalar.of(expr.head.value)) for o, f in tail.items()}
        head = _lower(expr.head, spec).get(0)
        if head is None or head.is_zero():
            return {}
        coeff = head.terms[0].coeff  # the grammar restricts the head to one symbol
        return {o: module_mul(coeff, f) for o, f in tail.items()}
    if isinstance(expr, Odot):
        acc = {}
        for lo, lf in _lower(expr.left, spec).items():
            for ro, rf in _lower(expr.right, spec).items():
                _merge(acc, odot(lf, rf), 1)
        return acc
    if isinstance(expr, Delta):
        acc = {}
        for order, form in _lower(expr.inner, spec).items():
            for _ in range(expr.power):
                form = symbolic_delta(form)
            _merge(acc, form, 1)
        return acc
    raise TypeError(f"unknown node {expr!r}")
