import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ncdiff import jets
from ncdiff.jets import (
    Jet1,
    Jet2,
    MAX_COEFF_BITS,
    MAX_DEGREE,
    Poly2,
    chain2_1d,
    delta2_invariance_check,
    parse_poly2,
    transfer_apply,
    transfer_compose,
    transfer_matrix,
    transform_jet2,
)
from ncdiff.parser import MAX_NESTING, ParseError, TokenStream
from ncdiff.scalars import rational
from ncdiff.verify import (
    composite_jet_oracle,
    random_jet_instance,
)
from reference_builders import poly_add, poly_const, poly_mul, poly_pow, poly_scale


# -- the reference route to a jet: differentiate formally, then evaluate ----


def poly_diff(p: Poly2, index: int) -> Poly2:
    acc = {}
    for (i, j), c in p.coeffs:
        if index == 0 and i > 0:
            acc[(i - 1, j)] = acc.get((i - 1, j), 0) + c * i
        elif index == 1 and j > 0:
            acc[(i, j - 1)] = acc.get((i, j - 1), 0) + c * j
    return Poly2.of(acc)


def poly_eval(p: Poly2, a, b):
    a, b = rational(a), rational(b)
    total = 0
    for (i, j), c in p.coeffs:
        total += c * a**i * b**j
    return rational(total)


def coordinate_jets(x: Poly2, y: Poly2, at: tuple) -> tuple[Jet2, Jet2]:
    return Jet2.of_poly(x, at), Jet2.of_poly(y, at)


def reference_jet(p: Poly2, at: tuple) -> Jet2:
    px, py = poly_diff(p, 0), poly_diff(p, 1)
    parts = (p, px, py, poly_diff(px, 0), poly_diff(px, 1), poly_diff(py, 1))
    return Jet2(*(poly_eval(q, *at) for q in parts))


def test_poly2_arithmetic_and_diff():
    x, y = Poly2.of({(1, 0): 1}), Poly2.of({(0, 1): 1})
    p = poly_add(poly_mul(poly_pow(x, 2), y), poly_scale(x, 3))
    assert poly_eval(p, 2, 5) == 26
    assert poly_eval(poly_diff(p, 0), 2, 5) == 23
    assert poly_diff(p, 1) == poly_pow(x, 2)
    assert poly_eval(poly_diff(poly_diff(p, 0), 1), 2, 5) == 4
    assert Jet2.of_poly(p, (2, 5)) == Jet2(26, 23, 4, 10, 4, 0)


def test_integer_polynomials_give_int_jets():
    p = parse_poly2("x^2*y - 3*x*y^2 + 7", ("x", "y"))
    for at in ((1, 2), (-2, 3), (Fraction(4, 2), Fraction(-1))):
        jet = Jet2.of_poly(p, at)
        fields = (jet.f, jet.fx, jet.fy, jet.fxx, jet.fxy, jet.fyy)
        assert all(type(v) is int for v in fields), fields
    assert Jet2.of_poly(parse_poly2("x^2*y", ("x", "y")), (1, 2)) == Jet2(2, 4, 1, 4, 2, 0)
    assert type(Jet2.of_poly(p, (Fraction(1, 2), 1)).f) is Fraction


def test_jets_reject_floats():
    x = Poly2.of({(1, 0): 1})
    for build in (lambda: Jet1.of(0.5, 1), lambda: Poly2.of({(0, 0): 0.5}), lambda: Jet2.of_poly(x, (0.5, 1))):
        with pytest.raises(TypeError):
            build()


def test_parse_poly2_basic():
    p = parse_poly2("x^2*y - 2*y + 7", ("x", "y"))
    assert poly_eval(p, 3, 2) == 9 * 2 - 4 + 7
    q = parse_poly2("(u + v)^2", ("u", "v"))
    assert poly_eval(q, 1, 2) == 9
    with pytest.raises(ValueError):
        parse_poly2("x +", ("x", "y"))
    with pytest.raises(ValueError):
        parse_poly2("x ^ y", ("x", "y"))
    with pytest.raises(ValueError):
        parse_poly2("w + 1", ("x", "y"))


def test_parse_poly2_reads_unary_minus_in_a_loop():
    xy = ("x", "y")
    assert parse_poly2("-x^2", xy) == poly_scale(parse_poly2("x^2", xy), -1)
    assert parse_poly2("--x - -y", xy) == parse_poly2("x + y", xy)
    assert parse_poly2("-" * 2001 + "(x + y)^2", xy) == parse_poly2("-(x + y)^2", xy)


def test_parse_poly2_builds_a_sum_once():
    """An n-term sum runs at most 8n lines of ``ncdiff.jets`` beyond what its
    terms run when parsed alone, not a pass over the running sum once per term
    (n²/2 lines, whether through ``Poly2.of``, a product or a comprehension)."""

    def lines_run(text):
        count = 0

        def trace(frame, event, arg):
            nonlocal count
            if frame.f_code.co_filename != jets.__file__:
                return None
            count += event == "line"
            return trace

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            poly = parse_poly2(text, ("x", "y"))
        finally:
            sys.settrace(previous)
        return poly, count

    terms = [f"{i + j + 1}*x^{i}*y^{j}" for i in range(24) for j in range(24 - i)]
    n = len(terms)  # 300 distinct monomials, 150 of them subtracted
    poly, total = lines_run(" + ".join(terms).replace("+", "-", n // 2))
    assert len(poly.coeffs) == n
    assert total <= 8 * n + sum(lines_run(term)[1] for term in terms)


def test_parse_poly2_shares_the_form_tokenizer():
    assert parse_poly2("x**2*y", ("x", "y")) == parse_poly2("x^2*y", ("x", "y"))
    assert parse_poly2("(u+v)**2", ("u", "v")) == parse_poly2("(u+v)^2", ("u", "v"))
    for text, col in (("x * * 2", 5), ("x/2", 2), ("x**", 4), ("x + $", 5)):
        with pytest.raises(ParseError) as err:
            parse_poly2(text, ("x", "y"))
        assert (err.value.line, err.value.col) == (1, col)


def test_parse_poly2_caps_the_degree_before_multiplying():
    assert parse_poly2(f"x^{MAX_DEGREE}", ("x", "y")) == Poly2.of({(MAX_DEGREE, 0): 1})
    assert parse_poly2(f"2^{MAX_DEGREE}", ("x", "y")) == poly_const(2**MAX_DEGREE)
    assert parse_poly2("x^60*y^40", ("x", "y")) == Poly2.of({(60, 40): 1})
    cases = (
        ("x^200000", 3),
        ("(x+y)^1000", 7),
        ("2^101", 3),
        ("-x^101", 4),
        ("(x+y)^60^2", 10),
        ("(x^51)^2", 8),
        ("x^60*y^41", 5),
    )
    for text, col in cases:
        with pytest.raises(ParseError) as err:
            parse_poly2(text, ("x", "y"))
        assert (err.value.line, err.value.col) == (1, col)
        assert f"degree cap {MAX_DEGREE}" in str(err.value)
    # a constant has degree 0: only the coefficient cap bounds nested powers
    assert parse_poly2("(2^100)^30*2^100", ("x", "y")) == poly_const(2**3100)
    for text, col in (("(2^100)^100", 9), ("((2^100)^100)^100", 10), ("(2^100)^40*2^100", 11)):
        with pytest.raises(ParseError) as err:
            parse_poly2(text, ("x", "y"))
        assert (err.value.line, err.value.col) == (1, col)
        assert f"coefficient cap {MAX_COEFF_BITS} bits" in str(err.value)


# up to degree 8, the degree of the composites that ``verify jets`` differentiates
EXPONENTS = st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(lambda k: sum(k) <= 8)
COEFFICIENTS = st.one_of(st.integers(-(10**9), 10**9), st.fractions(max_denominator=60))
POLYS = st.dictionaries(EXPONENTS, COEFFICIENTS, max_size=14).map(Poly2.of)
COORDINATES = st.one_of(st.just(0), st.integers(-7, 7), st.fractions(-7, 7, max_denominator=16))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(p=POLYS, a=COORDINATES, b=COORDINATES)
@example(p=Poly2.of({(8, 0): 1, (0, 8): -1, (3, 5): Fraction(1, 3)}), a=Fraction(-3, 2), b=0)
@example(p=Poly2.of({(1, 1): 5, (0, 0): Fraction(2, 7)}), a=Fraction(0), b=Fraction(-4, 1))
@example(p=Poly2.of({}), a=Fraction(1, 3), b=-2)
def test_one_pass_jet_matches_the_diff_eval_route(p, a, b):
    jet = Jet2.of_poly(p, (a, b))
    assert jet == reference_jet(p, (a, b))
    for v in (jet.f, jet.fx, jet.fy, jet.fxx, jet.fxy, jet.fyy):
        assert type(v) is int or (type(v) is Fraction and v.denominator > 1), jet


# -- the reference parser: parse_poly2 as it was, one Poly2 object per step --


def ref_mul(a: Poly2, b: Poly2) -> Poly2:
    acc = {}
    for (i1, j1), c1 in a.coeffs:
        for (i2, j2), c2 in b.coeffs:
            k = (i1 + i2, j1 + j2)
            acc[k] = acc.get(k, 0) + c1 * c2
    return Poly2.of(acc)


def ref_degree(p: Poly2) -> int:
    return max((i + j for (i, j), _ in p.coeffs), default=0)


def ref_coeff_bound(p: Poly2) -> int:
    bits = max((c.numerator.bit_length() for _, c in p.coeffs), default=0)
    return bits + len(p.coeffs).bit_length()


def reference_parse_poly2(text: str, vars: tuple[str, str]) -> Poly2:
    ts = TokenStream(text)

    def atom() -> Poly2:
        t, negate = ts.take(), False
        while t.text == "-":
            t, negate = ts.take(), not negate
        if t.text == "(":
            e = expr()
            ts.expect(")")
        elif t.kind == "int":
            e = poly_const(t.value())
        elif t.kind == "name" and t.text in vars:
            e = Poly2.of({(1, 0) if vars.index(t.text) == 0 else (0, 1): 1})
        else:
            raise ParseError("expected expression", t.line, t.col)
        while ts.peek().text in ("^", "**"):
            ts.take()
            n = ts.take()
            if n.kind != "int":
                raise ParseError("exponent must be a nonnegative integer", n.line, n.col)
            power = n.value()
            if power > MAX_DEGREE or power * ref_degree(e) > MAX_DEGREE:
                raise ParseError(f"power exceeds the degree cap {MAX_DEGREE}", n.line, n.col)
            if power * ref_coeff_bound(e) > MAX_COEFF_BITS:
                raise ParseError(f"power exceeds the coefficient cap {MAX_COEFF_BITS} bits", n.line, n.col)
            out = poly_const(1)
            for _ in range(power):
                out = ref_mul(out, e)
            e = out
        return poly_scale(e, -1) if negate else e

    def product() -> Poly2:
        e = atom()
        while ts.peek().text == "*":
            t = ts.take()
            rhs = atom()
            if ref_degree(e) + ref_degree(rhs) > MAX_DEGREE:
                raise ParseError(f"product exceeds the degree cap {MAX_DEGREE}", t.line, t.col)
            if ref_coeff_bound(e) + ref_coeff_bound(rhs) > MAX_COEFF_BITS:
                raise ParseError(f"product exceeds the coefficient cap {MAX_COEFF_BITS} bits", t.line, t.col)
            e = ref_mul(e, rhs)
        return e

    def expr() -> Poly2:
        acc = {}
        sign = 1
        while True:
            for k, c in product().coeffs:
                acc[k] = acc.get(k, 0) + sign * c
            if ts.peek().text not in ("+", "-"):
                return Poly2.of(acc)
            sign = 1 if ts.take().text == "+" else -1

    out = expr()
    end = ts.take()
    if end.kind != "end":
        raise ParseError("trailing input after polynomial", end.line, end.col)
    return out


# texts at the caps: a degree of 100 and 101, 4096 coefficient bits and past them
NEAR_THE_CAPS = [
    "x^100",
    "x^101",
    "y**100",
    "-x^101",
    "x^60*y^40",
    "x^60*y^41",
    "x^50*x^50*x",
    "(x+y)^50*(x-y)^50",
    "(x+y)^50*(x-y)^51",
    "(x - x)^1000",
    "(x^60 - x^60)^2",
    "(x^60 - x^60)*x^60",
    f"0*{2**4094}",
    f"{2**4094}*0",
    f"{2**4094}*1",
    f"{2**4095}*1",
    f"({2**2045}*(1+x+x^2+x^3)*(1-x))^2",
    f"{2**2045}*(1+x+x^2+x^3)*(1-x)*{2**2046}",
    "(x+y-x-y+1)^100",
    "0^4096",
    "0*x^100*y",
    "2^100",
    "2^101",
    "(2^100)^40",
    "(2^100)^41",
    "(2^4000)^1*2^90",
    "((2^10)^10)^10*x^2",
    "(3*x + 5*y - 7)^30",
    "x**2**3",
    "x ** ** 2",
    "x^-1",
    "--x - -y + ---1",
    "-" * 301 + "x^2",
    "(" * MAX_NESTING + "x+1" + ")" * MAX_NESTING,
    "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1),
    "((x)",
    "(x))",
    "x y",
    "x +\n y^2 *",
    "u + v",
    "",
]


def random_poly_text(rng, depth=0) -> str:
    """A sum of products of powers, mostly well formed, biased toward the caps."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 3)):
            if depth < 3 and rng.random() < 0.3:
                base = "(" + random_poly_text(rng, depth + 1) + ")"
            else:
                base = rng.choice(["x", "y", "x", "y", "0", "1", "2", "3", "12", str(2**64), str(2**1400)])
            if rng.random() < 0.4:
                exponent = rng.choice([0, 1, 2, 3, 4, 7, 20] if rng.random() < 0.85 else [33, 50, 100, 101, 4097])
                base += rng.choice(["^", "**", " ^ "]) + str(exponent)
            factors.append("-" * rng.choice([0, 0, 0, 1, 2, 5]) + base)
        terms.append("*".join(factors))
    text = rng.choice([" + ", " - ", "-"]).join(terms)
    if depth == 0 and rng.random() < 0.2:  # one character deleted or doubled
        i = rng.randrange(len(text))
        text = text[:i] + rng.choice(["", text[i] * 2]) + text[i + 1 :]
    return text


def parsed(parse, text):
    try:
        return parse(text, ("x", "y"))
    except ParseError as exc:
        return str(exc), exc.line, exc.col


def test_parse_poly2_matches_the_object_by_object_parser():
    rng = random.Random(3232)
    texts = NEAR_THE_CAPS + [random_poly_text(rng) for _ in range(600)]
    outcomes = [parsed(parse_poly2, text) for text in texts]
    for text, got in zip(texts, outcomes):
        assert got == parsed(reference_parse_poly2, text), text
    errors = sum(isinstance(o, tuple) for o in outcomes)
    assert 0.15 * len(texts) < errors < 0.85 * len(texts)  # both outcomes are well represented


@settings(max_examples=300, derandomize=True, deadline=None)
@given(text=st.text("xy0129^*+-() \n", max_size=30))
def test_parse_poly2_matches_the_reference_on_any_text(text):
    assert parsed(parse_poly2, text) == parsed(reference_parse_poly2, text)


def test_identity_change_is_identity():
    fj = Jet2.of(5, 1, 2, 3, 4, 6)
    ident = Jet2.of(0, 1, 0, 0, 0, 0), Jet2.of(0, 0, 1, 0, 0, 0)
    assert transform_jet2(fj, *ident) == fj


def test_linear_change_uses_only_second_derivatives():
    # second derivatives of the output depend on input second derivatives
    # only; the first-derivative terms drop because x'' = y'' = 0
    lin = Jet2.of(0, 2, 1, 0, 0, 0), Jet2.of(0, -1, 3, 0, 0, 0)
    a = transform_jet2(Jet2.of(0, 7, -4, 1, 2, 3), *lin)
    b = transform_jet2(Jet2.of(0, 100, 55, 1, 2, 3), *lin)
    assert (a.fxx, a.fxy, a.fyy) == (b.fxx, b.fxy, b.fyy)


def test_transform_against_composition_oracle(rng):
    for _ in range(40):
        f, x, y, at = random_jet_instance(rng)
        fj = Jet2.of_poly(f, (poly_eval(x, *at), poly_eval(y, *at)))
        assert transform_jet2(fj, *coordinate_jets(x, y, at)) == composite_jet_oracle(f, x, y, at)


def test_oracle_against_sympy(rng):
    sympy = pytest.importorskip("sympy")
    u, v = sympy.symbols("u v")

    def to_sympy(p, a, b):
        return sum(sympy.Rational(c) * a**i * b**j for (i, j), c in p.coeffs)

    for _ in range(15):
        f, x, y, at = random_jet_instance(rng)
        xs, ys = to_sympy(x, u, v), to_sympy(y, u, v)
        fs = to_sympy(f, xs, ys)
        subs = {u: sympy.Rational(at[0]), v: sympy.Rational(at[1])}
        want = composite_jet_oracle(f, x, y, at)
        assert sympy.Rational(want.f) == fs.subs(subs)
        assert sympy.Rational(want.fx) == sympy.diff(fs, u).subs(subs)
        assert sympy.Rational(want.fy) == sympy.diff(fs, v).subs(subs)
        assert sympy.Rational(want.fxx) == sympy.diff(fs, u, 2).subs(subs)
        assert sympy.Rational(want.fxy) == sympy.diff(fs, u, v).subs(subs)
        assert sympy.Rational(want.fyy) == sympy.diff(fs, v, 2).subs(subs)


def test_transform_is_functorial(rng):
    # change (x,y) <- (s,t) <- (u,v): transforming twice equals
    # transforming under the composite substitution
    for _ in range(15):
        f, x_in_st, y_in_st, at_uv = random_jet_instance(rng)
        s_in_uv, t_in_uv, _, _ = random_jet_instance(rng)
        st = (poly_eval(s_in_uv, *at_uv), poly_eval(t_in_uv, *at_uv))
        xy = (poly_eval(x_in_st, *st), poly_eval(y_in_st, *st))
        fj = Jet2.of_poly(f, xy)
        step1 = transform_jet2(fj, *coordinate_jets(x_in_st, y_in_st, st))
        step2 = transform_jet2(step1, *coordinate_jets(s_in_uv, t_in_uv, at_uv))

        def compose(p, a, b):
            out = poly_const(0)
            for (i, j), c in p.coeffs:
                out = poly_add(out, poly_mul(poly_mul(poly_pow(a, i), poly_pow(b, j)), poly_const(c)))
            return out

        x_in_uv = compose(x_in_st, s_in_uv, t_in_uv)
        y_in_uv = compose(y_in_st, s_in_uv, t_in_uv)
        direct = transform_jet2(fj, *coordinate_jets(x_in_uv, y_in_uv, at_uv))
        assert step2 == direct


def test_chain_rule_1d_examples():
    # phi(u) = u^2 with u(v) = v^3 at v = 2
    phi = Jet1.of(16, 2)  # derivatives of u^2 at u = 8
    u = Jet1.of(12, 12)  # derivatives of v^3 at v = 2
    out = chain2_1d(phi, u)
    assert out == Jet1.of(192, 480)
    ident = Jet1.of(1, 0)
    assert chain2_1d(phi, ident) == phi


def test_transfer_matrix_equation(rng):
    for _ in range(30):
        phi = Jet1.of(rng.randint(-5, 5), rng.randint(-5, 5))
        u = Jet1.of(rng.randint(-5, 5), rng.randint(-5, 5))
        assert transfer_apply(transfer_matrix(u), phi) == chain2_1d(phi, u)


def test_transfer_products_keep_the_rational_normal_form():
    m = transfer_matrix(Jet1(Fraction(2), Fraction(1, 2)))
    out = transfer_apply(m, Jet1(Fraction(3), Fraction(1)))
    assert out == Jet1(6, Fraction(11, 2)) and type(out.d1) is int
    composed = transfer_compose(m, transfer_matrix(Jet1(Fraction(1, 2), Fraction(4))))
    assert composed == ((1, Fraction(65, 8)), (0, 1))
    assert all(type(c) is int for c in (composed[0][0], *composed[1]))


def test_transfer_compose_example():
    # u(v) = v^2, v(w) = w + 1 at w = 1: composite u(w) = (w+1)^2
    m_u_in_v = transfer_matrix(Jet1.of(4, 2))  # at v = 2
    m_v_in_w = transfer_matrix(Jet1.of(1, 0))
    composed = transfer_compose(m_u_in_v, m_v_in_w)
    assert composed == transfer_matrix(Jet1.of(4, 2))
    assert composed[1] == (Fraction(0), Fraction(16))
    ident = transfer_matrix(Jet1.of(1, 0))
    assert transfer_compose(composed, ident) == composed


def test_transfer_compose_matches_composite_jet(rng):
    for _ in range(20):
        u = Jet1.of(rng.randint(-4, 4), rng.randint(-4, 4))
        v = Jet1.of(rng.randint(-4, 4), rng.randint(-4, 4))
        composed = transfer_compose(transfer_matrix(u), transfer_matrix(v))
        assert composed == transfer_matrix(chain2_1d(u, v))
        assert composed[1][0] == 0
        assert composed[1][1] == composed[0][0] ** 2


def test_invariance_check(rng):
    ident = Jet2.of(0, 1, 0, 0, 0, 0), Jet2.of(0, 0, 1, 0, 0, 0)
    assert delta2_invariance_check(Jet2.of(1, 2, 3, 4, 5, 6), *ident)
    for _ in range(20):
        f, x, y, at = random_jet_instance(rng)
        fj = Jet2.of_poly(f, (poly_eval(x, *at), poly_eval(y, *at)))
        assert delta2_invariance_check(fj, *coordinate_jets(x, y, at))


def test_truncated_expansion_detected_under_nonlinear_change():
    fj = Jet2.of(0, 1, 1, 1, 1, 1)
    nonlinear = Jet2.of(0, 1, 0, 2, 0, 0), Jet2.of(0, 0, 1, 0, 0, 0)
    assert delta2_invariance_check(fj, *nonlinear)
    assert not delta2_invariance_check(fj, *nonlinear, drop_first_derivative_terms=True)
    linear = Jet2.of(0, 2, 0, 0, 0, 0), Jet2.of(0, 1, 3, 0, 0, 0)
    assert delta2_invariance_check(fj, *linear, drop_first_derivative_terms=True)
