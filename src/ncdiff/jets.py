"""Second-order jets in one and two variables.

The collection (value, first, second derivatives) of a function at a
point transforms under a change of variables by the second-order chain
rule; unlike the first-order case the second derivatives pick up a
contribution of the first.  In one variable the rule compresses into
multiplication by an upper-triangular 2x2 transfer matrix.
"""

from __future__ import annotations

from fractions import Fraction

from .parser import ParseError, TokenStream
from .scalars import Record, rational

#: the largest exponent and total degree ``parse_poly2`` builds; a power
#: multiplies once per unit of exponent and terms grow with the degree squared
MAX_DEGREE = 100
#: the largest coefficient bit length ``parse_poly2`` may build: a constant
#: has degree 0, so only this bounds nested powers like ((2^100)^100)^100
MAX_COEFF_BITS = 4096
#: the most bits ``composite_jet_bits`` may estimate for the jet of a ``jet``
#: request; one estimated at 40 million bits took 25 s to build, then could not print
MAX_JET_BITS = 65536


# -- exact polynomials in two variables (used to build jets) -------------


class Poly2(Record):
    """Polynomial with rational coefficients in two named variables."""

    __slots__ = _fields = ("coeffs",)
    def __init__(self, coeffs: tuple[tuple[tuple[int, int], int | Fraction], ...]):
        self.coeffs = coeffs

    @staticmethod
    def of(coeffs: dict[tuple[int, int], int | Fraction]) -> Poly2:
        return Poly2(tuple(sorted((k, rational(v)) for k, v in coeffs.items() if v != 0)))


def _product(a: dict, b: dict) -> dict:
    """The coefficients of a times b: the one polynomial product, on the
    ``{(i, j): c}`` dicts that every polynomial is built on before its ``Poly2``."""
    acc: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            acc[k] = acc.get(k, 0) + c1 * c2
    return {k: c for k, c in acc.items() if c}


def _power(a: dict, n: int) -> dict:
    out: dict = {(0, 0): 1}
    for _ in range(n):
        out = _product(out, a)
    return out


def _degree(a: dict) -> int:
    return max((i + j for i, j in a), default=0)


def _coeff_bound(a: dict) -> int:
    """Bits of the largest integer coefficient plus bits of the term count:
    a product's coefficient bits are at most the sum of its factors' bounds,
    and a power's at most the exponent times it."""
    bits = max((c.numerator.bit_length() for c in a.values()), default=0)
    return bits + len(a).bit_length()


def parse_poly2(text: str, vars: tuple[str, str]) -> Poly2:
    """Parse ``+ - * ^`` polynomial syntax over two named variables; ``**``
    is ``^``.  Errors raise ``ParseError`` (a ``ValueError``) at their line
    and column."""
    ts = TokenStream(text)

    def atom() -> dict:
        t, negate = ts.take(), False
        while t.text == "-":  # unary minus binds looser than "^": -x^2 is -(x^2)
            t, negate = ts.take(), not negate
        if t.text == "(":
            e = expr()
            ts.expect(")")
        elif t.kind == "int":
            c = t.value()
            e = {(0, 0): c} if c else {}
        elif t.kind == "name" and t.text in vars:
            e = {(1, 0) if t.text == vars[0] else (0, 1): 1}
        else:
            raise ParseError("expected expression", t.line, t.col)
        while ts.peek().text in ("^", "**"):
            ts.take()
            n = ts.take()
            if n.kind != "int":
                raise ParseError("exponent must be a nonnegative integer", n.line, n.col)
            power = n.value()
            if power > MAX_DEGREE or power * _degree(e) > MAX_DEGREE:
                raise ParseError(f"power exceeds the degree cap {MAX_DEGREE}", n.line, n.col)
            if power * _coeff_bound(e) > MAX_COEFF_BITS:
                raise ParseError(f"power exceeds the coefficient cap {MAX_COEFF_BITS} bits", n.line, n.col)
            e = _power(e, power)
        return {k: -c for k, c in e.items()} if negate else e

    def product() -> dict:
        e = atom()
        while ts.peek().text == "*":
            t = ts.take()
            rhs = atom()
            if _degree(e) + _degree(rhs) > MAX_DEGREE:
                raise ParseError(f"product exceeds the degree cap {MAX_DEGREE}", t.line, t.col)
            if _coeff_bound(e) + _coeff_bound(rhs) > MAX_COEFF_BITS:
                raise ParseError(f"product exceeds the coefficient cap {MAX_COEFF_BITS} bits", t.line, t.col)
            e = _product(e, rhs)
        return e

    def expr() -> dict:
        acc: dict = {}  # every signed product's coefficients, built once
        sign = 1
        while True:
            for k, c in product().items():
                acc[k] = acc.get(k, 0) + sign * c
            if ts.peek().text not in ("+", "-"):
                return {k: c for k, c in acc.items() if c}
            sign = 1 if ts.take().text == "+" else -1

    out = expr()
    end = ts.take()
    if end.kind != "end":
        raise ParseError("trailing input after polynomial", end.line, end.col)
    return Poly2(tuple(sorted(out.items())))  # integer coefficients, already in normal form


# -- jets -----------------------------------------------------------------


class Jet2(Record):
    """Value, first and second derivatives at a point; the mixed second
    derivative is stored once.  Every field is an ``int`` or a ``Fraction``."""

    __slots__ = _fields = ("f", "fx", "fy", "fxx", "fxy", "fyy")
    def __init__(self, f, fx, fy, fxx, fxy, fyy):
        self.f, self.fx, self.fy, self.fxx, self.fxy, self.fyy = f, fx, fy, fxx, fxy, fyy

    @staticmethod
    def of(f, fx, fy, fxx, fxy, fyy) -> Jet2:
        return Jet2(rational(f), rational(fx), rational(fy), rational(fxx), rational(fxy), rational(fyy))

    @staticmethod
    def of_poly(p: Poly2, at: tuple) -> Jet2:
        """The jet of p at ``at`` in one pass over the terms, in integers over
        the point's common denominator: at (n/d, m/e), x^i y^j is
        n^i d^(D-i) m^j e^(E-j) over d^D e^E, D and E the largest exponents."""
        xs, xden = _power_jets(at[0], {i for (i, _), _ in p.coeffs})
        ys, yden = _power_jets(at[1], {j for (_, j), _ in p.coeffs})
        f = fx = fy = fxx = fxy = fyy = 0
        for (i, j), c in p.coeffs:
            (x0, x1, x2), (y0, y1, y2) = xs[i], ys[j]
            f += c * x0 * y0
            fx += c * x1 * y0
            fy += c * x0 * y1
            fxx += c * x2 * y0
            fxy += c * x1 * y1
            fyy += c * x0 * y2
        den, jet = xden * yden, (f, fx, fy, fxx, fxy, fyy)
        return Jet2(*map(rational, jet if den == 1 else (Fraction(v, den) for v in jet)))


def _power_jets(q, exponents: set[int]) -> tuple[dict[int, tuple[int, int, int]], int]:
    """(t^k, k t^(k-1), k(k-1) t^(k-2)) at t = q = n/d for each k in exponents, as
    numerators over d^D, D the largest k, and d^D; q must be exact."""
    q = rational(q)
    n, d, top = q.numerator, q.denominator, max(exponents, default=0)
    pw = lambda k: n**k * d ** (top - k)
    return {k: (pw(k), k * pw(k - 1) if k else 0, k * (k - 1) * pw(k - 2) if k > 1 else 0) for k in exponents}, d**top


def composite_jet_bits(f: Poly2, x: Poly2, y: Poly2, at: tuple) -> int:
    """The bits of f's jet after x, y at ``at``, estimated before any power is built: p's jet at a point
    of bu- and bv-bit parts takes at most ``_coeff_bound`` + bu per unit of p's degree in its first variable
    + bv per unit in its second + the derivative factors' bits; the chain rule adds x's and y's squared."""
    def bits(p: Poly2, bu: int, bv: int) -> int:
        du, dv = (max((k[i] for k, _ in p.coeffs), default=0) for i in (0, 1))
        return _coeff_bound(dict(p.coeffs)) + du * bu + dv * bv + 2 * (du + dv).bit_length()

    bx, by = (bits(p, *(max(abs(q.numerator), q.denominator).bit_length() for q in at)) for p in (x, y))
    return bits(f, bx, by) + 2 * max(bx, by)


class ChangeOfVars2(Record):
    """2-jets of the substituted coordinates x(u,v), y(u,v) at the
    working point."""

    __slots__ = _fields = ("xj", "yj")
    def __init__(self, xj: Jet2, yj: Jet2):
        self.xj, self.yj = xj, yj


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


class Jet1(Record):
    __slots__ = _fields = ("d1", "d2")
    def __init__(self, d1: int | Fraction, d2: int | Fraction):
        self.d1, self.d2 = d1, d2

    @staticmethod
    def of(d1, d2) -> Jet1:
        return Jet1(rational(d1), rational(d2))


def chain2_1d(phi: Jet1, u: Jet1) -> Jet1:
    """One-variable second-order chain rule."""
    return Jet1(phi.d1 * u.d1, phi.d2 * u.d1**2 + phi.d1 * u.d2)


class TransferMatrix1(Record):
    """Upper-triangular matrix carrying a 1D change of variable.

    Acting on the row vector (first, second derivative) from the right
    it performs the second-order chain rule in one multiplication.
    """

    __slots__ = _fields = ("a", "b")
    def __init__(self, a: int | Fraction, b: int | Fraction):
        self.a, self.b = a, b  # du/dv, d2u/dv2

    @staticmethod
    def of_jet(u: Jet1) -> TransferMatrix1:
        return TransferMatrix1(u.d1, u.d2)

    def rows(self) -> tuple[tuple[int | Fraction, ...], ...]:
        return ((self.a, self.b), (0, self.a**2))

    def apply(self, phi: Jet1) -> Jet1:
        return Jet1(*_row_times((phi.d1, phi.d2), self.rows()))


def transfer_compose(m1: TransferMatrix1, m2: TransferMatrix1) -> TransferMatrix1:
    """Matrix product m1 m2; the composite stays upper triangular with the
    squared top-left entry in the corner, so its top row determines it."""
    return TransferMatrix1(*_row_times(m1.rows()[0], m2.rows()))


def _row_times(row: tuple, rows: tuple) -> tuple[int | Fraction, ...]:
    """The row vector ``row`` times the matrix ``rows``, each entry in normal form."""
    return tuple(rational(sum(x * c for x, c in zip(row, col))) for col in zip(*rows))


def _expand_second_differential(fj: Jet2, cv: ChangeOfVars2, include_first_order: bool) -> tuple:
    """Substitute the coordinate differentials, as polynomials in du, dv on
    coefficient dicts, into fxx dx^2 + fyy dy^2 + 2 fxy dx dy [+ fx d2x + fy d2y]
    and collect over the basis monomials du2, dv2, dudv, d2u, d2v in the new variables."""
    x, y = cv.xj, cv.yj
    dx, dy = {(1, 0): x.fx, (0, 1): x.fy}, {(1, 0): y.fx, (0, 1): y.fy}
    quad = [(fj.fxx, _product(dx, dx)), (2 * fj.fxy, _product(dx, dy)), (fj.fyy, _product(dy, dy))]
    d2u = d2v = 0
    if include_first_order:
        quad += [(coef, {(2, 0): j.fxx, (1, 1): 2 * j.fxy, (0, 2): j.fyy}) for coef, j in ((fj.fx, x), (fj.fy, y))]
        d2u, d2v = fj.fx * x.fx + fj.fy * y.fx, fj.fx * x.fy + fj.fy * y.fy
    du2, dudv, dv2 = (sum(c * p.get(e, 0) for c, p in quad) for e in ((2, 0), (1, 1), (0, 2)))
    return du2, dv2, dudv, d2u, d2v


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
    expected = (want.fxx, want.fyy, 2 * want.fxy, want.fx, want.fy)
    compared = 3 if drop_first_derivative_terms else 5
    return got[:compared] == expected[:compared]
