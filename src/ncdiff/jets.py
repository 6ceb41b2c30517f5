"""Second-order jets in one and two variables.

The collection (value, first, second derivatives) of a function at a
point transforms under a change of variables by the second-order chain
rule; unlike the first-order case the second derivatives pick up a
contribution of the first.  In one variable the rule compresses into
multiplication by an upper-triangular 2x2 transfer matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .parser import ParseError, TokenStream
from .scalars import rational

#: the largest exponent and total degree ``parse_poly2`` builds; ``Poly2.pow``
#: multiplies once per unit of exponent and terms grow with the degree squared
MAX_DEGREE = 100
#: the largest coefficient bit length ``parse_poly2`` may build: a constant
#: has degree 0, so only this bounds nested powers like ((2^100)^100)^100
MAX_COEFF_BITS = 4096


# -- exact polynomials in two variables (used to build jets) -------------


@dataclass(frozen=True)
class Poly2:
    """Polynomial with rational coefficients in two named variables."""

    coeffs: tuple[tuple[tuple[int, int], int | Fraction], ...]

    @staticmethod
    def of(coeffs: Mapping[tuple[int, int], int | Fraction]) -> Poly2:
        acc = {k: rational(v) for k, v in coeffs.items() if v != 0}
        return Poly2(tuple(sorted(acc.items())))

    @staticmethod
    def const(c) -> Poly2:
        return Poly2.of({(0, 0): rational(c)})

    @staticmethod
    def var(index: int) -> Poly2:
        return Poly2.of({(1, 0) if index == 0 else (0, 1): 1})

    def __add__(self, other: Poly2) -> Poly2:
        acc = dict(self.coeffs)
        for k, v in other.coeffs:
            acc[k] = acc.get(k, 0) + v
        return Poly2.of(acc)

    def __sub__(self, other: Poly2) -> Poly2:
        return self + other.scale(-1)

    def __mul__(self, other: Poly2) -> Poly2:
        acc: dict[tuple[int, int], int | Fraction] = {}
        for (i1, j1), c1 in self.coeffs:
            for (i2, j2), c2 in other.coeffs:
                k = (i1 + i2, j1 + j2)
                acc[k] = acc.get(k, 0) + c1 * c2
        return Poly2.of(acc)

    def scale(self, c) -> Poly2:
        c = rational(c)
        return Poly2.of({k: v * c for k, v in self.coeffs})

    def degree(self) -> int:
        return max((i + j for (i, j), _ in self.coeffs), default=0)

    def coeff_bound(self) -> int:
        """Bits of the largest integer coefficient plus bits of the term
        count: a product's coefficient bits are at most the sum of its
        factors' bounds, and a power's at most the exponent times it."""
        bits = max((c.numerator.bit_length() for _, c in self.coeffs), default=0)
        return bits + len(self.coeffs).bit_length()

    def pow(self, n: int) -> Poly2:
        out = Poly2.const(1)
        for _ in range(n):
            out = out * self
        return out

    def diff(self, index: int) -> Poly2:
        acc: dict[tuple[int, int], int | Fraction] = {}
        for (i, j), c in self.coeffs:
            if index == 0 and i > 0:
                acc[(i - 1, j)] = acc.get((i - 1, j), 0) + c * i
            elif index == 1 and j > 0:
                acc[(i, j - 1)] = acc.get((i, j - 1), 0) + c * j
        return Poly2.of(acc)

    def eval(self, a, b) -> int | Fraction:
        a, b = rational(a), rational(b)
        total = 0
        for (i, j), c in self.coeffs:
            total += c * a**i * b**j
        return rational(total)


def parse_poly2(text: str, vars: tuple[str, str]) -> Poly2:
    """Parse ``+ - * ^`` polynomial syntax over two named variables; ``**``
    is ``^``.  Errors raise ``ParseError`` (a ``ValueError``) at their line
    and column."""
    ts = TokenStream(text)

    def atom() -> Poly2:
        t = ts.take()
        if t.text == "(":
            e = expr()
            ts.expect(")")
        elif t.kind == "int":
            e = Poly2.const(int(t.text))
        elif t.kind == "name" and t.text in vars:
            e = Poly2.var(vars.index(t.text))
        elif t.text == "-":
            return atom().scale(-1)
        else:
            raise ParseError("expected expression", t.line, t.col)
        while ts.peek().text in ("^", "**"):
            ts.take()
            n = ts.take()
            if n.kind != "int":
                raise ParseError("exponent must be a nonnegative integer", n.line, n.col)
            power = int(n.text)
            if power > MAX_DEGREE or power * e.degree() > MAX_DEGREE:
                raise ParseError(f"power exceeds the degree cap {MAX_DEGREE}", n.line, n.col)
            if power * e.coeff_bound() > MAX_COEFF_BITS:
                raise ParseError(f"power exceeds the coefficient cap {MAX_COEFF_BITS} bits", n.line, n.col)
            e = e.pow(power)
        return e

    def product() -> Poly2:
        e = atom()
        while ts.peek().text == "*":
            t = ts.take()
            rhs = atom()
            if e.degree() + rhs.degree() > MAX_DEGREE:
                raise ParseError(f"product exceeds the degree cap {MAX_DEGREE}", t.line, t.col)
            if e.coeff_bound() + rhs.coeff_bound() > MAX_COEFF_BITS:
                raise ParseError(f"product exceeds the coefficient cap {MAX_COEFF_BITS} bits", t.line, t.col)
            e = e * rhs
        return e

    def expr() -> Poly2:
        e = product()
        while ts.peek().text in ("+", "-"):
            if ts.take().text == "+":
                e = e + product()
            else:
                e = e - product()
        return e

    out = expr()
    end = ts.take()
    if end.kind != "end":
        raise ParseError("trailing input after polynomial", end.line, end.col)
    return out


# -- jets -----------------------------------------------------------------


@dataclass(frozen=True)
class Jet2:
    """Value, first and second derivatives at a point; the mixed second
    derivative is stored once."""

    f: int | Fraction
    fx: int | Fraction
    fy: int | Fraction
    fxx: int | Fraction
    fxy: int | Fraction
    fyy: int | Fraction

    @staticmethod
    def of(f, fx, fy, fxx, fxy, fyy) -> Jet2:
        return Jet2(rational(f), rational(fx), rational(fy), rational(fxx), rational(fxy), rational(fyy))

    @staticmethod
    def of_poly(p: Poly2, at: tuple) -> Jet2:
        a, b = at
        px, py = p.diff(0), p.diff(1)
        return Jet2(
            p.eval(a, b),
            px.eval(a, b),
            py.eval(a, b),
            px.diff(0).eval(a, b),
            px.diff(1).eval(a, b),
            py.diff(1).eval(a, b),
        )


@dataclass(frozen=True)
class ChangeOfVars2:
    """2-jets of the substituted coordinates x(u,v), y(u,v) at the
    working point."""

    xj: Jet2
    yj: Jet2

    def is_linear(self) -> bool:
        return all(
            d == 0
            for d in (self.xj.fxx, self.xj.fxy, self.xj.fyy, self.yj.fxx, self.yj.fxy, self.yj.fyy)
        )


def transform_jet2(fj: Jet2, cv: ChangeOfVars2) -> Jet2:
    """Second-order chain rule in two variables.

    The new second derivatives carry both the quadratic first-derivative
    part of the substitution and a term proportional to the old first
    derivatives times the substitution's second derivatives.
    """
    x, y = cv.xj, cv.yj
    fu = fj.fx * x.fx + fj.fy * y.fx
    fv = fj.fx * x.fy + fj.fy * y.fy
    fuu = (
        fj.fxx * x.fx**2
        + fj.fyy * y.fx**2
        + 2 * fj.fxy * x.fx * y.fx
        + fj.fx * x.fxx
        + fj.fy * y.fxx
    )
    fvv = (
        fj.fxx * x.fy**2
        + fj.fyy * y.fy**2
        + 2 * fj.fxy * x.fy * y.fy
        + fj.fx * x.fyy
        + fj.fy * y.fyy
    )
    fuv = (
        fj.fxx * x.fx * x.fy
        + fj.fyy * y.fx * y.fy
        + fj.fxy * (x.fx * y.fy + x.fy * y.fx)
        + fj.fx * x.fxy
        + fj.fy * y.fxy
    )
    return Jet2(fj.f, fu, fv, fuu, fuv, fvv)


@dataclass(frozen=True)
class Jet1:
    d1: int | Fraction
    d2: int | Fraction

    @staticmethod
    def of(d1, d2) -> Jet1:
        return Jet1(rational(d1), rational(d2))


def chain2_1d(phi: Jet1, u: Jet1) -> Jet1:
    """One-variable second-order chain rule."""
    return Jet1(phi.d1 * u.d1, phi.d2 * u.d1**2 + phi.d1 * u.d2)


@dataclass(frozen=True)
class TransferMatrix1:
    """Upper-triangular matrix carrying a 1D change of variable.

    Acting on the row vector (first, second derivative) from the right
    it performs the second-order chain rule in one multiplication.
    """

    a: int | Fraction  # du/dv
    b: int | Fraction  # d2u/dv2

    @staticmethod
    def of_jet(u: Jet1) -> TransferMatrix1:
        return TransferMatrix1(u.d1, u.d2)

    def rows(self) -> tuple[tuple[int | Fraction, ...], ...]:
        return ((self.a, self.b), (0, self.a**2))

    def apply(self, phi: Jet1) -> Jet1:
        return Jet1(phi.d1 * self.a, phi.d1 * self.b + phi.d2 * self.a**2)


def transfer_compose(m1: TransferMatrix1, m2: TransferMatrix1) -> TransferMatrix1:
    """Matrix product; the composite stays upper triangular with the
    squared top-left entry in the corner."""
    a = m1.a * m2.a
    b = m1.a * m2.b + m1.b * m2.a**2
    return TransferMatrix1(a, b)


_BASIS = ("du2", "dv2", "dudv", "d2u", "d2v")


def _expand_second_differential(
    fj: Jet2, cv: ChangeOfVars2, include_first_order: bool
) -> dict[str, int | Fraction]:
    """Substitute the coordinate differentials into
    fxx dx^2 + fyy dy^2 + 2 fxy dx dy [+ fx d2x + fy d2y]
    and collect over the basis monomials in the new variables."""
    x, y = cv.xj, cv.yj
    out = {k: 0 for k in _BASIS}

    def add_square(coef: int | Fraction, au: int | Fraction, av: int | Fraction) -> None:
        out["du2"] += coef * au * au
        out["dv2"] += coef * av * av
        out["dudv"] += coef * 2 * au * av

    def add_cross(
        coef: int | Fraction, au: int | Fraction, av: int | Fraction, bu: int | Fraction, bv: int | Fraction
    ) -> None:
        out["du2"] += coef * au * bu
        out["dv2"] += coef * av * bv
        out["dudv"] += coef * (au * bv + av * bu)

    add_square(fj.fxx, x.fx, x.fy)
    add_square(fj.fyy, y.fx, y.fy)
    add_cross(2 * fj.fxy, x.fx, x.fy, y.fx, y.fy)
    if include_first_order:
        for coef, j in ((fj.fx, x), (fj.fy, y)):
            out["du2"] += coef * j.fxx
            out["dv2"] += coef * j.fyy
            out["dudv"] += coef * 2 * j.fxy
            out["d2u"] += coef * j.fx
            out["d2v"] += coef * j.fy
    return out


def delta2_invariance_check(
    fj: Jet2, cv: ChangeOfVars2, *, drop_first_derivative_terms: bool = False
) -> bool:
    """Check that the substituted second differential reproduces the
    transformed jet's coefficients.

    With ``drop_first_derivative_terms`` the fx d2x + fy d2y part of the
    expansion is omitted and only the second-derivative coefficients are
    compared; that truncation survives linear changes of variables only.
    """
    got = _expand_second_differential(fj, cv, include_first_order=not drop_first_derivative_terms)
    want = transform_jet2(fj, cv)
    expected = {
        "du2": want.fxx,
        "dv2": want.fyy,
        "dudv": 2 * want.fxy,
        "d2u": want.fx,
        "d2v": want.fy,
    }
    keys = ("du2", "dv2", "dudv") if drop_first_derivative_terms else _BASIS
    return all(got[k] == expected[k] for k in keys)
