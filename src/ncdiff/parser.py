"""Expression parser for Leibniz forms.

Grammar (``@`` spells the ⊙ product, which binds tighter than ``+``):

    expr := term (("+" | "-") term)*
    term := atom (("@" | "*") atom)*
    atom := SCALAR | SYMBOL | "d" ("^" INT)? "(" expr ")" | "(" expr ")"

``*`` is ⊙ too but may follow only a scalar or a symbol, so ``x*d(x)`` is
``x @ d(x)`` (an order-0 left factor is the module product) while ``(f)*g``
and ``d(f)*g`` are errors.  Sums and chains parse flat, and lowering merges
each order of a node once.  ``d2(f)`` and ``d3(f)`` are sugar for ``d^2(f)``
and ``d^3(f)``; scalars are integers or integer ratios like ``3/4``.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Iterable, Union

from .algebra import AlgebraSpec
from .leibniz import LeibnizForm, LeibnizMonomial, odot, symbolic_delta
from .scalars import MINUS_ONE, Record, Scalar

#: the highest order a form may reach (``expand d^8(f)`` takes under 1 s, and each order
#: costs about 4x more); lowering checks it before it applies any ``d`` or ⊙
MAX_ORDER = 8
#: the deepest nesting of parentheses either grammar reads; each level costs the
#: parser a few interpreter frames, so this keeps it far from the recursion limit
MAX_NESTING = 100


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class LoweringError(ValueError):
    pass


class Node(Record):
    __slots__ = ()  # each kind of node holds its line and column, then its own fields


class Lit(Node):
    __slots__ = _fields = ("line", "col", "value")
    def __init__(self, line: int, col: int, value: Fraction):
        self.line, self.col, self.value = line, col, value


class Sym(Node):
    __slots__ = _fields = ("line", "col", "name")
    def __init__(self, line: int, col: int, name: str):
        self.line, self.col, self.name = line, col, name


class Odot(Node):
    __slots__ = _fields = ("line", "col", "factors")
    def __init__(self, line: int, col: int, factors: tuple[Node, ...]):
        self.line, self.col, self.factors = line, col, factors


class Delta(Node):
    __slots__ = _fields = ("line", "col", "power", "inner")
    def __init__(self, line: int, col: int, power: int, inner: Node):
        self.line, self.col, self.power, self.inner = line, col, power, inner


class Sum(Node):
    __slots__ = _fields = ("line", "col", "terms")
    def __init__(self, line: int, col: int, terms: tuple[tuple[int, Node], ...]):
        self.line, self.col, self.terms = line, col, terms  # (sign, term); the first sign is 1


FormExpr = Node

# One match reads the whitespace before a token (``\s`` is the set ``str.isspace``
# accepts) and the token; the group that matched names its kind, and ``bad`` is a
# character that begins no token.  ``**`` is one token so that forms reject it and
# polynomials read it as ``^``.
_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_]\w*)|(?P<punct>\*\*|[@*+\-^()/])|(?P<bad>\S))")
_DELTA = re.compile(r"d(\d*)")


class _Tok(Record):
    __slots__ = _fields = ("kind", "text", "line", "col")
    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind, self.text, self.line, self.col = kind, text, line, col  # kind: int, name, punct or end

    def value(self, digits: Union[str, None] = None) -> int:
        """The integer ``digits`` (this token's text by default), read at this token."""
        try:
            return int(digits or self.text)
        except ValueError:  # past Python's digit limit for int(str)
            limit = sys.get_int_max_str_digits()
            raise ParseError(f"integer literal longer than {limit} digits", self.line, self.col) from None


class TokenStream:
    """A cursor over the tokens of a text, shared with ``jets.parse_poly2``;
    it bounds how deep the taken parentheses nest."""

    def __init__(self, text: str):
        lines = text.splitlines() or [""]
        self.tokens: list[_Tok] = []
        for lineno, line in enumerate(lines, start=1):
            # without trailing whitespace every match attempt succeeds, so the scan stays linear
            for m in _TOKEN.finditer(line.rstrip()):
                kind = m.lastgroup
                if kind == "bad":
                    raise ParseError(f"unexpected character {m[kind]!r}", lineno, m.start(kind) + 1)
                self.tokens.append(_Tok(kind, m[kind], lineno, m.start(kind) + 1))
        self.tokens.append(_Tok("end", "", len(lines), len(lines[-1]) + 1))
        self.i = 0
        self.depth = 0

    def peek(self) -> _Tok:
        return self.tokens[self.i]

    def take(self) -> _Tok:
        tok = self.tokens[self.i]
        self.i += 1
        self.depth += (tok.text == "(") - (tok.text == ")")
        if self.depth > MAX_NESTING:
            raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", tok.line, tok.col)
        return tok

    def expect(self, text: str) -> _Tok:
        tok = self.take()
        if tok.text != text:
            raise ParseError(f"expected {text!r}", tok.line, tok.col)
        return tok


class _Parser(TokenStream):
    def parse_expr(self) -> Node:
        terms = [(1, self.parse_term())]
        while self.peek().text in ("+", "-"):
            sign = 1 if self.take().text == "+" else -1
            terms.append((sign, self.parse_term()))
        first = terms[0][1]
        return first if len(terms) == 1 else Sum(first.line, first.col, tuple(terms))

    def parse_term(self) -> Node:
        factors = [self.parse_atom()]
        # ``*`` may follow only a bare scalar or symbol, so never an atom ending in ")"
        while self.peek().text == "@" or (self.peek().text == "*" and self.tokens[self.i - 1].text != ")"):
            self.take()
            factors.append(self.parse_atom())
        first = factors[0]
        return first if len(factors) == 1 else Odot(first.line, first.col, tuple(factors))

    def parse_atom(self) -> Node:
        tok = self.peek()
        if tok.text == "(":
            self.take()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.kind == "int":
            self.take()
            value = Fraction(tok.value())
            if self.peek().text == "/":
                self.take()
                den = self.take()
                if den.kind != "int":
                    raise ParseError("expected denominator", den.line, den.col)
                if den.value() == 0:
                    raise ParseError("zero denominator", den.line, den.col)
                value /= den.value()
            return Lit(tok.line, tok.col, value)
        if tok.kind == "name":
            delta = self._try_delta(tok)
            if delta is not None:
                return delta
            self.take()
            return Sym(tok.line, tok.col, tok.text)
        raise ParseError("expected expression", tok.line, tok.col)

    def _try_delta(self, tok: _Tok) -> Union[Delta, None]:
        """Recognize d(...), d^k(...) and the dk(...) sugar."""
        m = _DELTA.fullmatch(tok.text)
        if not m:
            return None
        save = self.i
        self.take()
        power = None  # the token after "^"
        if not m.group(1) and self.peek().text == "^":
            self.take()
            power = self.take()
            if power.kind != "int":
                raise ParseError("expected integer power", power.line, power.col)
        elif self.peek().text != "(":
            self.i = save  # a plain symbol that happens to start with the letter d
            return None
        self.expect("(")
        k = power.value() if power is not None else tok.value(m.group(1) or "1")
        if k < 1:
            raise ParseError("differential power must be at least 1", tok.line, tok.col)
        inner = self.parse_expr()
        self.expect(")")
        return Delta(tok.line, tok.col, k, inner)


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


def _sum(parts: Iterable[LeibnizForm]) -> dict[int, LeibnizForm]:
    """Each order's parts added in one merge (a zero part if they cancel); a lone part is kept."""
    orders: dict[int, list[LeibnizForm]] = {}
    for form in parts:
        orders.setdefault(form.order, []).append(form)
    return {order: fs[0].add(*fs[1:]) if len(fs) > 1 else fs[0] for order, fs in orders.items()}


def _check_order(expr: FormExpr, order: int) -> None:
    if order > MAX_ORDER:
        raise LoweringError(f"line {expr.line}, column {expr.col}: order {order} exceeds the cap {MAX_ORDER}")


def _product0(u: LeibnizForm, v: LeibnizForm) -> LeibnizForm:
    """u ⊙ v for forms of order 0, each at most one coefficient: one backend product."""
    products = (mu.coeff.mul(mv.coeff) for mu in u.terms for mv in v.terms)
    return LeibnizForm(u.spec, 0, tuple(LeibnizMonomial(c, ()) for c in products if not c.is_zero()))


def _lower(expr: FormExpr, spec: AlgebraSpec) -> dict[int, LeibnizForm]:
    if isinstance(expr, Lit):
        return {0: LeibnizForm.from_alg(spec.scalar(Scalar.of(expr.value)))}
    if isinstance(expr, Sym):
        try:
            elem = spec.symbol(expr.name)
        except KeyError:
            raise LoweringError(f"line {expr.line}, column {expr.col}: unknown symbol {expr.name!r}") from None
        form = LeibnizForm.from_alg(elem)
        # a symbol valued zero has no part, so no product with it meets the order cap
        return {} if form.is_zero() else {0: form}
    if isinstance(expr, Sum):
        parts = ((sign, form) for sign, term in expr.terms for form in _lower(term, spec).values())
        return _sum(form if sign > 0 else form.scale(MINUS_ONE) for sign, form in parts)
    if isinstance(expr, Odot):
        acc = _lower(expr.factors[0], spec)
        for factor in expr.factors[1:]:
            right, products = _lower(factor, spec), []
            for lo, lf in acc.items():
                for ro, rf in right.items():
                    _check_order(expr, lo + ro)
                    products.append(_product0(lf, rf) if lo == ro == 0 else odot(lf, rf))
            acc = _sum(products)
        return acc
    if isinstance(expr, Delta):
        acc = {}
        for order, form in _lower(expr.inner, spec).items():  # distinct orders, so nothing to merge
            _check_order(expr, order + expr.power)
            for _ in range(expr.power):
                form = symbolic_delta(form)
            acc[form.order] = form
        return acc
    raise TypeError(f"unknown node {expr!r}")
