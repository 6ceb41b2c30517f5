from fractions import Fraction

import pytest

from ncdiff.jets import (
    ChangeOfVars2,
    Jet1,
    Jet2,
    MAX_COEFF_BITS,
    MAX_DEGREE,
    Poly2,
    TransferMatrix1,
    chain2_1d,
    delta2_invariance_check,
    parse_poly2,
    transfer_compose,
    transform_jet2,
)
from ncdiff.parser import ParseError
from ncdiff.verify import (
    change_of_vars,
    composite_jet_oracle,
    random_jet_instance,
)


def test_poly2_arithmetic_and_diff():
    x, y = Poly2.var(0), Poly2.var(1)
    p = x.pow(2) * y + x.scale(3)
    assert p.eval(2, 5) == 26
    assert p.diff(0).eval(2, 5) == 23
    assert p.diff(1) == x.pow(2)
    assert p.diff(0).diff(1).eval(2, 5) == 4


def test_integer_polynomials_give_int_jets():
    p = parse_poly2("x^2*y - 3*x*y^2 + 7", ("x", "y"))
    for at in ((1, 2), (-2, 3), (Fraction(4, 2), Fraction(-1))):
        jet = Jet2.of_poly(p, at)
        fields = (jet.f, jet.fx, jet.fy, jet.fxx, jet.fxy, jet.fyy)
        assert all(type(v) is int for v in fields), fields
    assert Jet2.of_poly(parse_poly2("x^2*y", ("x", "y")), (1, 2)) == Jet2(2, 4, 1, 4, 2, 0)
    assert type(Jet2.of_poly(p, (Fraction(1, 2), 1)).f) is Fraction


def test_jets_reject_floats():
    x = Poly2.var(0)
    for build in (lambda: Jet1.of(0.5, 1), lambda: Poly2.const(0.5), lambda: x.scale(0.5), lambda: x.eval(0.5, 1)):
        with pytest.raises(TypeError):
            build()


def test_parse_poly2_basic():
    p = parse_poly2("x^2*y - 2*y + 7", ("x", "y"))
    assert p.eval(3, 2) == 9 * 2 - 4 + 7
    q = parse_poly2("(u + v)^2", ("u", "v"))
    assert q.eval(1, 2) == 9
    with pytest.raises(ValueError):
        parse_poly2("x +", ("x", "y"))
    with pytest.raises(ValueError):
        parse_poly2("x ^ y", ("x", "y"))
    with pytest.raises(ValueError):
        parse_poly2("w + 1", ("x", "y"))


def test_parse_poly2_reads_unary_minus_in_a_loop():
    xy = ("x", "y")
    assert parse_poly2("-x^2", xy) == parse_poly2("x^2", xy).scale(-1)
    assert parse_poly2("--x - -y", xy) == parse_poly2("x + y", xy)
    assert parse_poly2("-" * 2001 + "(x + y)^2", xy) == parse_poly2("-(x + y)^2", xy)


def test_parse_poly2_builds_a_sum_once(monkeypatch):
    """An n-term sum passes at most 4n terms through ``Poly2.of`` beyond what
    its terms pass when parsed alone, not the running sum once per term (n²/2)."""
    seen = 0
    inner = Poly2.of

    def counting(coeffs):
        nonlocal seen
        seen += len(coeffs)
        return inner(coeffs)

    def passed(text):
        nonlocal seen
        seen = 0
        poly = parse_poly2(text, ("x", "y"))
        return poly, seen

    monkeypatch.setattr(Poly2, "of", staticmethod(counting))
    terms = [f"{i + j + 1}*x^{i}*y^{j}" for i in range(24) for j in range(24 - i)]
    n = len(terms)  # 300 distinct monomials, 150 of them subtracted
    poly, total = passed(" + ".join(terms).replace("+", "-", n // 2))
    assert len(poly.coeffs) == n
    assert total <= 4 * n + sum(passed(term)[1] for term in terms)


def test_parse_poly2_shares_the_form_tokenizer():
    assert parse_poly2("x**2*y", ("x", "y")) == parse_poly2("x^2*y", ("x", "y"))
    assert parse_poly2("(u+v)**2", ("u", "v")) == parse_poly2("(u+v)^2", ("u", "v"))
    for text, col in (("x * * 2", 5), ("x/2", 2), ("x**", 4), ("x + $", 5)):
        with pytest.raises(ParseError) as err:
            parse_poly2(text, ("x", "y"))
        assert (err.value.line, err.value.col) == (1, col)


def test_parse_poly2_caps_the_degree_before_multiplying():
    assert parse_poly2(f"x^{MAX_DEGREE}", ("x", "y")).degree() == MAX_DEGREE
    assert parse_poly2(f"2^{MAX_DEGREE}", ("x", "y")) == Poly2.const(2**MAX_DEGREE)
    assert parse_poly2("x^60*y^40", ("x", "y")).degree() == 100
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
    assert parse_poly2("(2^100)^30*2^100", ("x", "y")) == Poly2.const(2**3100)
    for text, col in (("(2^100)^100", 9), ("((2^100)^100)^100", 10), ("(2^100)^40*2^100", 11)):
        with pytest.raises(ParseError) as err:
            parse_poly2(text, ("x", "y"))
        assert (err.value.line, err.value.col) == (1, col)
        assert f"coefficient cap {MAX_COEFF_BITS} bits" in str(err.value)


def test_identity_change_is_identity():
    fj = Jet2.of(5, 1, 2, 3, 4, 6)
    ident = ChangeOfVars2(Jet2.of(0, 1, 0, 0, 0, 0), Jet2.of(0, 0, 1, 0, 0, 0))
    assert transform_jet2(fj, ident) == fj


def test_linear_change_uses_only_second_derivatives():
    # second derivatives of the output depend on input second derivatives
    # only; the first-derivative terms drop because x'' = y'' = 0
    lin = ChangeOfVars2(Jet2.of(0, 2, 1, 0, 0, 0), Jet2.of(0, -1, 3, 0, 0, 0))
    a = transform_jet2(Jet2.of(0, 7, -4, 1, 2, 3), lin)
    b = transform_jet2(Jet2.of(0, 100, 55, 1, 2, 3), lin)
    assert (a.fxx, a.fxy, a.fyy) == (b.fxx, b.fxy, b.fyy)
    assert all(d == 0 for j in (lin.xj, lin.yj) for d in (j.fxx, j.fxy, j.fyy))


def test_transform_against_composition_oracle(rng):
    for _ in range(40):
        f, x, y, at = random_jet_instance(rng)
        fj = Jet2.of_poly(f, (x.eval(*at), y.eval(*at)))
        assert transform_jet2(fj, change_of_vars(x, y, at)) == composite_jet_oracle(f, x, y, at)


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
        st = (s_in_uv.eval(*at_uv), t_in_uv.eval(*at_uv))
        xy = (x_in_st.eval(*st), y_in_st.eval(*st))
        fj = Jet2.of_poly(f, xy)
        step1 = transform_jet2(fj, change_of_vars(x_in_st, y_in_st, st))
        step2 = transform_jet2(step1, change_of_vars(s_in_uv, t_in_uv, at_uv))

        def compose(p, a, b):
            out = Poly2.const(0)
            for (i, j), c in p.coeffs:
                out = out + a.pow(i) * b.pow(j) * Poly2.const(c)
            return out

        x_in_uv = compose(x_in_st, s_in_uv, t_in_uv)
        y_in_uv = compose(y_in_st, s_in_uv, t_in_uv)
        direct = transform_jet2(fj, change_of_vars(x_in_uv, y_in_uv, at_uv))
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
        assert TransferMatrix1.of_jet(u).apply(phi) == chain2_1d(phi, u)


def test_transfer_products_keep_the_rational_normal_form():
    m = TransferMatrix1(Fraction(2), Fraction(1, 2))
    out = m.apply(Jet1(Fraction(3), Fraction(1)))
    assert out == Jet1(6, Fraction(11, 2)) and type(out.d1) is int
    composed = transfer_compose(m, TransferMatrix1(Fraction(1, 2), Fraction(4)))
    assert composed == TransferMatrix1(1, Fraction(65, 8)) and type(composed.a) is int


def test_transfer_compose_example():
    # u(v) = v^2, v(w) = w + 1 at w = 1: composite u(w) = (w+1)^2
    m_u_in_v = TransferMatrix1.of_jet(Jet1.of(4, 2))  # at v = 2
    m_v_in_w = TransferMatrix1.of_jet(Jet1.of(1, 0))
    composed = transfer_compose(m_u_in_v, m_v_in_w)
    assert composed == TransferMatrix1.of_jet(Jet1.of(4, 2))
    assert composed.rows()[1] == (Fraction(0), Fraction(16))
    ident = TransferMatrix1.of_jet(Jet1.of(1, 0))
    assert transfer_compose(composed, ident) == composed


def test_transfer_compose_matches_composite_jet(rng):
    for _ in range(20):
        u = Jet1.of(rng.randint(-4, 4), rng.randint(-4, 4))
        v = Jet1.of(rng.randint(-4, 4), rng.randint(-4, 4))
        composed = transfer_compose(TransferMatrix1.of_jet(u), TransferMatrix1.of_jet(v))
        assert composed == TransferMatrix1.of_jet(chain2_1d(u, v))
        assert composed.rows()[1][0] == 0
        assert composed.rows()[1][1] == composed.rows()[0][0] ** 2


def test_invariance_check(rng):
    ident = ChangeOfVars2(Jet2.of(0, 1, 0, 0, 0, 0), Jet2.of(0, 0, 1, 0, 0, 0))
    assert delta2_invariance_check(Jet2.of(1, 2, 3, 4, 5, 6), ident)
    for _ in range(20):
        f, x, y, at = random_jet_instance(rng)
        fj = Jet2.of_poly(f, (x.eval(*at), y.eval(*at)))
        assert delta2_invariance_check(fj, change_of_vars(x, y, at))


def test_truncated_expansion_detected_under_nonlinear_change():
    fj = Jet2.of(0, 1, 1, 1, 1, 1)
    nonlinear = ChangeOfVars2(Jet2.of(0, 1, 0, 2, 0, 0), Jet2.of(0, 0, 1, 0, 0, 0))
    assert delta2_invariance_check(fj, nonlinear)
    assert not delta2_invariance_check(fj, nonlinear, drop_first_derivative_terms=True)
    linear = ChangeOfVars2(Jet2.of(0, 2, 0, 0, 0, 0), Jet2.of(0, 1, 3, 0, 0, 0))
    assert delta2_invariance_check(fj, linear, drop_first_derivative_terms=True)
