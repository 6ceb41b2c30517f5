from fractions import Fraction

import pytest

import ncdiff.parser
from ncdiff.algebra import AlgebraSpec
from ncdiff.leibniz import LeibnizForm, embed, module_mul, odot, symbolic_delta
from ncdiff.parser import (
    Add,
    Delta,
    Lit,
    LoweringError,
    MAX_ORDER,
    Mul,
    Odot,
    ParseError,
    lower,
    parse,
)
from ncdiff.scalars import Scalar

SPEC = AlgebraSpec.free(("f", "g", "h", "dx"))
TWO_POINT = AlgebraSpec.function(("L", "R"), {"x": (1, 0), "y": (0, 1)})


def lowered(text, spec=SPEC):
    return lower(parse(text), spec)


def test_ast_shapes():
    tree = parse("d2(f) @ d(g)")
    assert isinstance(tree, Odot)
    assert isinstance(tree.left, Delta) and tree.left.power == 2
    assert isinstance(tree.right, Delta) and tree.right.power == 1
    tree = parse("f + 2*g")
    assert isinstance(tree, Add)
    assert isinstance(tree.right, Mul) and isinstance(tree.right.head, Lit)


def test_sugar_matches_caret_power():
    assert lowered("d2(f)") == lowered("d^2(f)")
    assert lowered("d3(f)") == lowered("d^3(f)")


def test_odot_binds_tighter_than_plus_and_looser_than_star():
    spec = SPEC
    f, g, h = (spec.symbol(s) for s in "fgh")
    df = symbolic_delta(LeibnizForm.from_alg(f))
    dg = symbolic_delta(LeibnizForm.from_alg(g))
    parts = lowered("h*d(f) @ d(g)")
    assert set(parts) == {2}
    want = odot(module_mul(h, df), dg)
    assert embed(parts[2]) == embed(want)
    parts = lowered("d(f) + d(f) @ d(g)")
    assert set(parts) == {1, 2}


def test_order_zero_odot_lowers_to_module_product():
    parts = lowered("x @ d(x)", TWO_POINT)
    x = TWO_POINT.symbol("x")
    want = module_mul(x, symbolic_delta(LeibnizForm.from_alg(x)))
    assert parts == {1: want}


def test_scalar_literals():
    parts = lowered("3/4*d(f) - d(f)")
    form = parts[1]
    assert form == symbolic_delta(LeibnizForm.from_alg(SPEC.symbol("f"))).scale(
        Scalar(Fraction(-1, 4))
    )


def test_symbol_starting_with_d_is_not_a_differential():
    parts = lowered("dx @ d(dx)")
    assert set(parts) == {1}


def test_parenthesized_groups():
    a = lowered("d((f + g))")
    b = lowered("d(f) + d(g)")
    assert embed(a[1]) == embed(b[1])


def test_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("d(")
    assert err.value.line == 1 and err.value.col == 3
    with pytest.raises(ParseError):
        parse("f + ")
    with pytest.raises(ParseError):
        parse("f ? g")
    with pytest.raises(ParseError):
        parse("d^x(f)")
    with pytest.raises(ParseError):
        parse("f g")
    with pytest.raises(ParseError):
        parse("d0(f)")


def test_unknown_symbol_reported_at_lowering():
    with pytest.raises(LoweringError) as err:
        lowered("nope")
    assert "unknown symbol" in str(err.value)


def test_order_cap_reported_at_lowering_before_any_differential():
    assert max(lowered("d^4(f)@d^4(g)")) == MAX_ORDER == 8
    for text, col in (("f + d^9(g)", 5), ("d(f) + d^1000000000(g)", 8), ("d^5(f)@d^5(g)", 1)):
        with pytest.raises(LoweringError) as err:
            lowered(text)
        assert str(err.value).startswith(f"line 1, column {col}: order ") and "exceeds the cap 8" in str(err.value)


def test_zero_and_empty_results():
    parts = lowered("f - f")
    assert parts == {}
    parts = lowered("d(1)")
    assert parts == {}


def test_print_parse_round_trip():
    texts = ["d(f)", "f*d2(g)", "d(f)@d(g)", "2*d(f)", "f*d(g)@d(h)"]
    for text in texts:
        parts = lowered(text)
        (order,) = parts
        printed = str(parts[order])
        reparsed = lowered(printed)
        assert reparsed == parts, text


def test_nested_odot_lowers_each_subtree_once(monkeypatch):
    """The right operand of ⊙ is lowered once, not once per homogeneous
    part of the left operand, so nesting costs 7 calls per level."""
    calls = 0
    inner = ncdiff.parser._lower

    def counting(expr, spec):
        nonlocal calls
        calls += 1
        return inner(expr, spec)

    monkeypatch.setattr(ncdiff.parser, "_lower", counting)
    text = "f"
    for depth in range(1, 5):
        text = f"(f + d(f) + g)@({text})"
        calls = 0
        parts = lowered(text)
        assert calls == 7 * depth + 1
        assert sorted(parts) == list(range(depth + 1))
