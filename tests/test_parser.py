import functools
import itertools
import random
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ncdiff.leibniz
import ncdiff.parser
from ncdiff.algebra import AlgebraSpec, FreePoly
from ncdiff.leibniz import LeibnizForm, embed, module_mul, odot, symbolic_delta
from ncdiff.parser import (
    Delta,
    Lit,
    LoweringError,
    MAX_NESTING,
    MAX_ORDER,
    Odot,
    ParseError,
    Sum,
    Sym,
    TokenStream,
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
    left, right = tree.factors
    assert isinstance(left, Delta) and left.power == 2
    assert isinstance(right, Delta) and right.power == 1
    tree = parse("f + 2*g - h@d(f)@g")
    assert isinstance(tree, Sum) and [sign for sign, _ in tree.terms] == [1, 1, -1]
    (_, f), (_, scaled), (_, chain) = tree.terms
    assert isinstance(f, Sym) and isinstance(scaled, Odot)
    assert [type(n) for n in scaled.factors] == [Lit, Sym]
    assert [type(n) for n in chain.factors] == [Sym, Delta, Sym] and (chain.line, chain.col) == (1, 11)


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
    with pytest.raises(ParseError, match="expected denominator") as err:
        parse("1/")
    assert (err.value.line, err.value.col) == (1, 3)


#: digits, letters (``é`` is a word character that begins no token), operators,
#: characters that begin no token, whitespace inside a line (tab, NBSP, U+3000)
#: and line breaks (``\v``, ``\f``, ``\x1c``, ``\r``, ``\n``)
LEXER_ALPHABET = list("0129dfgx_é@*+-^()/?$") + ["**", "\t", " ", "\u00a0", "\u3000", "\v", "\f", "\x1c", "\r", "\n"]
PUNCT = {"**", "@", "*", "+", "-", "^", "(", ")", "/"}


def is_word(c):
    return c.isalnum() or c == "_"


def begins_token(c):
    return c.isdecimal() or c.isascii() and (c.isalpha() or c == "_") or c in PUNCT


def tokens_or_error(text):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in TokenStream(text).tokens]
    except ParseError as err:
        return err


@settings(max_examples=400, derandomize=True, deadline=None)
@given(text=st.lists(st.sampled_from(LEXER_ALPHABET), max_size=30).map("".join))
def test_tokens_meet_the_lexer_specification(text):
    """Each token's text sits at its (line, column), maximal where a longer
    token could start there; every character no token covers is whitespace
    (``str.isspace``); the end token follows the last line; and an error
    points at the first non-whitespace character that begins no token."""
    lines = text.splitlines() or [""]
    got = tokens_or_error(text)
    if isinstance(got, ParseError):
        line, col = got.line, got.col
        c = lines[line - 1][col - 1]
        assert str(got) == f"line {line}, column {col}: unexpected character {c!r}"
        assert not c.isspace() and not begins_token(c)
        before = "\n".join(lines[: line - 1] + [lines[line - 1][: col - 1]])
        prefix = tokens_or_error(before)  # everything before the character lexes
        assert not isinstance(prefix, ParseError)
        last = prefix[-2] if len(prefix) > 1 else None
        assert not (last and last[0] == "name" and last[2] == line and last[3] + len(last[1]) == col and is_word(c))
        return
    *tokens, end = got
    assert end == ("end", "", len(lines), len(lines[-1]) + 1)
    covered = set()
    for kind, tok, line, col in tokens:
        row = lines[line - 1]
        assert row[col - 1 : col - 1 + len(tok)] == tok
        after = row[col - 1 + len(tok) : col + len(tok)]
        if kind == "int":
            assert tok.isdecimal() and not after.isdecimal()
        elif kind == "name":
            assert tok[0].isascii() and (tok[0].isalpha() or tok[0] == "_") and all(map(is_word, tok))
            assert not (after and is_word(after))
        else:
            assert kind == "punct" and tok in PUNCT and not (tok == "*" and after == "*")
        span = {(line, i) for i in range(col, col + len(tok))}
        assert not span & covered
        covered |= span
    assert [t[2:] for t in tokens] == sorted(t[2:] for t in tokens)
    for line, row in enumerate(lines, start=1):
        assert all(c.isspace() for col, c in enumerate(row, start=1) if (line, col) not in covered)


def test_tokens_are_read_past_any_whitespace_and_across_lines():
    form = [("name", "d", 1), ("punct", "(", 2), ("name", "f", 3), ("punct", ")", 4), ("punct", "@", 6)]
    form += [("name", "d", 8), ("punct", "(", 9), ("name", "g", 10), ("punct", ")", 11), ("end", "", 12)]
    for gap in ("\t", "\u00a0"):
        text = f"d(f){gap}@{gap}d(g)"
        assert tokens_or_error(text) == [(kind, tok, 1, col) for kind, tok, col in form]
        assert lowered(text) == lowered("d(f)@d(g)")
    text = "2*d(f)\n  @ d^2(g)\t\r\n+ f "
    assert tokens_or_error(text) == [
        ("int", "2", 1, 1), ("punct", "*", 1, 2), ("name", "d", 1, 3), ("punct", "(", 1, 4), ("name", "f", 1, 5),
        ("punct", ")", 1, 6), ("punct", "@", 2, 3), ("name", "d", 2, 5), ("punct", "^", 2, 6), ("int", "2", 2, 7),
        ("punct", "(", 2, 8), ("name", "g", 2, 9), ("punct", ")", 2, 10), ("punct", "+", 3, 1), ("name", "f", 3, 3),
        ("end", "", 3, 5),
    ]
    assert lowered(text) == lowered("2*d(f) @ d^2(g) + f")
    with pytest.raises(ParseError, match="^line 3, column 3: unexpected character '\\$'$"):
        parse("f\n\u3000\n+\u00a0$")


def test_trailing_whitespace_is_read_in_linear_time():
    """A scan that tried a match at each of n trailing whitespace characters
    takes time quadratic in n: one line of 20,000 trailing spaces took about 23 s
    on a 2-core host."""
    start = time.process_time()
    tokens = TokenStream("f" + " " * 20_000 + "\n" + "\u3000" * 20_000 + "\n").tokens
    assert time.process_time() - start < 2
    assert [(t.kind, t.line, t.col) for t in tokens] == [("name", 1, 1), ("end", 2, 20_001)]


def test_unknown_symbol_reported_at_lowering():
    with pytest.raises(LoweringError) as err:
        lowered("nope")
    assert "unknown symbol" in str(err.value)


def test_leftmost_unknown_symbol_is_reported():
    """Sums and chains lower left to right, ``*`` chains included."""
    for text in ("nope*nada", "nope*nada*d(f)", "nope@nada", "nope + nada", "f*nope*d(nada)"):
        with pytest.raises(LoweringError) as err:
            lowered(text)
        assert "unknown symbol 'nope'" in str(err.value), text


def test_star_joins_the_odot_chain_only_after_a_scalar_or_symbol():
    assert lowered("2*f*g@d(h)") == lowered("2@f@g@d(h)")
    assert lowered("d(f)@g*d(h)") == lowered("d(f)@g@d(h)")
    assert lowered("3/4*d(f)") == lowered("3/4@d(f)")
    for text, col in (("(f)*g", 4), ("d(f)*g", 5), ("f*(g)*h", 6), ("2*d(f)*g", 7)):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"line 1, column {col}: unexpected '*'"


def test_a_symbol_valued_zero_has_no_part():
    """No product with it reaches the order cap, whichever product joins it."""
    spec = AlgebraSpec.function(("L", "R"), {"x": (1, 0), "z": (0, 0)})
    for text in ("z", "z*d^4(x)@d^5(x)", "z@d^4(x)@d^5(x)", "d^4(x)@z*d^5(x)", "d^5(z)@d^4(x)"):
        assert lowered(text, spec) == {}, text
    with pytest.raises(LoweringError):
        lowered("0*d^4(x)@d^5(x)", spec)


def test_long_sums_and_chains_lower_without_recursion():
    """Sums and chains are flat nodes folded in loops, so their length is not
    bounded by the interpreter's recursion limit."""
    assert lowered(" + ".join(["d(f) - d(g)"] * 5_000)) == lowered("5000*d(f) - 5000*d(g)")
    assert lowered("@".join(["x"] * 5_000 + ["d(y)"]), TWO_POINT) == lowered("x@d(y)", TWO_POINT)
    assert lowered("2*" * 5_000 + "d(f)") == lowered(f"{2**5_000}*d(f)")


def test_nesting_is_capped_where_a_parenthesis_is_taken():
    assert lowered("(" * MAX_NESTING + "f" + ")" * MAX_NESTING) == lowered("f")
    assert lowered("(" * (MAX_NESTING - 1) + "d(f)" + ")" * (MAX_NESTING - 1)) == lowered("d(f)")
    assert lowered("d(" * 8 + "f" + ")" * 8) == lowered("d^8(f)")
    for text, col in (
        ("(" * (MAX_NESTING + 1) + "f" + ")" * (MAX_NESTING + 1), MAX_NESTING + 1),
        ("(" * 330 + "f", MAX_NESTING + 1),
        ("d(" * 250 + "f" + ")" * 250, 2 * MAX_NESTING + 2),
        ("(f) + " + "(" * MAX_NESTING + "d(f" + ")" * (MAX_NESTING + 1), 6 + MAX_NESTING + 2),
    ):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"line 1, column {col}: parentheses nest deeper than {MAX_NESTING}"


def test_long_integer_literals_are_parse_errors_at_the_literal():
    limit = sys.get_int_max_str_digits()
    digits = "1" * (limit + 1)
    for text, col in (
        (f"{digits}*d(f)", 1),
        (f"f + 1/{digits}*d(f)", 7),
        (f"d^{digits}(f)", 3),
        (f"f@d{digits}(f)", 3),
    ):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"line 1, column {col}: integer literal longer than {limit} digits"
    assert lowered(f"{'1' * limit}*d(f)") == lowered(f"{int('1' * limit)}*d(f)")


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
    part of the left operand, so nesting costs 6 calls per level: the
    chain, the three-term sum, f, d(f) and its f, and g."""
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
        assert calls == 6 * depth + 1
        assert sorted(parts) == list(range(depth + 1))


def test_lowering_a_sum_merges_each_order_once(monkeypatch):
    """A sum of n distinct monomials passes a bounded number of monomials per
    term through the merge, not the whole running sum once per term (n²/2)."""
    n = 300
    spec = AlgebraSpec.free(tuple(f"s{i}" for i in range(n)))
    seen = 0
    inner = ncdiff.leibniz._collect

    def counting(spec, order, terms):
        nonlocal seen
        terms = list(terms)
        seen += len(terms)
        return inner(spec, order, terms)

    monkeypatch.setattr(ncdiff.leibniz, "_collect", counting)
    parts = lowered(" - ".join(f"d{i % 2 + 1}(s{i})" for i in range(n)), spec)
    assert [len(parts[order].terms) for order in (1, 2)] == [n // 2, n // 2]
    assert seen <= 4 * n


@pytest.mark.parametrize("suffix", ["", "*d(h)"], ids=["order0", "order1"])
def test_a_factor_list_adds_its_coefficients_once(monkeypatch, suffix):
    """n distinct words on one factor list pass a bounded number of terms per
    word through ``FreePoly.of``, not the running coefficient once per word."""
    n, syms = 300, ("f", "g", "h", "i", "k")
    words = [w for r in range(1, 6) for w in itertools.product(syms, repeat=r)][:n]
    seen = 0
    inner = FreePoly.of

    def counting(spec, terms):
        nonlocal seen
        terms = list(terms)
        seen += len(terms)
        return inner(spec, terms)

    monkeypatch.setattr(FreePoly, "of", staticmethod(counting))
    (form,) = lowered(" + ".join("*".join(w) + suffix for w in words), AlgebraSpec.free(syms)).values()
    (mono,) = form.terms
    assert len(mono[0].terms) == n
    assert seen <= 5 * n


def test_a_product_of_symbols_normalizes_each_leaf_once(monkeypatch):
    """A product of order-0 factors moves no coefficient past a factor, so
    ``f*g*h*f`` calls ``LeibnizForm.of`` once per leaf and not once per ``*``."""
    calls = []
    inner = LeibnizForm.of

    def counting(spec, order, terms):
        calls.append(order)
        return inner(spec, order, terms)

    tree = parse("f*g*h*f")
    monkeypatch.setattr(LeibnizForm, "of", staticmethod(counting))
    (form,) = lower(tree, SPEC).values()
    assert str(form) == "fghf"
    assert calls == [0, 0, 0, 0]


ORDER0_SPECS = {
    "free": AlgebraSpec.free(("f", "g", "h")),
    "comm": AlgebraSpec.free(("f", "g", "h"), commutative=True),
    "function": AlgebraSpec.function(
        ("L", "M"), {"f": (Fraction(1, 2), -3), "g": (2, Scalar.of(0, Fraction(5, 3))), "h": (1, 0), "k": (0, 7)}
    ),
    "matrix": AlgebraSpec.matrix(
        2, {"f": [[Fraction(1, 2), 1], [0, 1]], "g": [[1, 0], [Scalar.of(0, 1), 1]], "h": [[0, 1], [1, 0]]}
    ),
}


@pytest.mark.parametrize("name", ORDER0_SPECS)
def test_a_product_of_order0_parts_is_one_backend_product(monkeypatch, name):
    """A ``*`` between two order-0 parts multiplies their coefficients in the
    backend: a 3000-word product lowers with ``odot`` refused, to the forms
    the ⊙ route gives, and so does a product that vanishes."""
    spec = ORDER0_SPECS[name]
    texts = ["*".join(["f", "g", "2", "h"][i % 4] for i in range(3000)), "f*g - g*f"]
    texts += ["2*h*k"] if name == "function" else []
    want = [{o: w for o, w in pairwise_lower(parse(t), spec).items() if not w.is_zero()} for t in texts]

    def refuse(*args):
        raise AssertionError("odot lowered a product of order-0 parts")

    monkeypatch.setattr(ncdiff.parser, "odot", refuse)
    assert [lowered(text, spec) for text in texts] == want
    assert len(want[0][0].terms) == 1 and (not want[1]) == (name in ("comm", "function"))
    assert name != "function" or not want[2]


def pairwise_lower(expr, spec):
    """The oracle: each order of a node adds its parts one at a time by
    ``LeibnizForm.add``; leaves lower as ``_lower`` lowers them."""

    def per_order(parts):
        orders = {}
        for order, form in parts:
            orders.setdefault(order, []).append(form)
        return {order: functools.reduce(LeibnizForm.add, forms) for order, forms in orders.items()}

    if isinstance(expr, Sum):
        return per_order(
            (order, form if sign > 0 else form.scale(-1))
            for sign, term in expr.terms
            for order, form in pairwise_lower(term, spec).items()
        )
    if isinstance(expr, Odot):
        acc = pairwise_lower(expr.factors[0], spec)
        for factor in expr.factors[1:]:
            right, products = pairwise_lower(factor, spec), []
            for lo, lf in acc.items():
                for ro, rf in right.items():
                    ncdiff.parser._check_order(expr, lo + ro)
                    products.append((lo + ro, odot(lf, rf)))
            acc = per_order(products)
        return acc
    if isinstance(expr, Delta):
        acc = {}
        for order, form in pairwise_lower(expr.inner, spec).items():
            ncdiff.parser._check_order(expr, order + expr.power)
            for _ in range(expr.power):
                form = symbolic_delta(form)
            acc[order + expr.power] = form
        return acc
    return ncdiff.parser._lower(expr, spec)


def random_form_text(rng, symbols, depth):
    """Sums (some with a cancelling copy of a term), ⊙ chains and powers of d."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(symbols + ["2", "3/4"])
    kind = rng.random()
    if kind < 0.45:
        terms = [random_form_text(rng, symbols, depth - 1) for _ in range(rng.randint(2, 4))]
        text = " + ".join(terms)
        return f"{text} - ({rng.choice(terms)})" if rng.random() < 0.4 else text.replace(" + ", " - ", 1)
    if kind < 0.8:
        factors = [random_form_text(rng, symbols, depth - 1) for _ in range(rng.randint(2, 3))]
        return "@".join(f"({f})" for f in factors)
    return f"d^{rng.randint(1, 3)}({random_form_text(rng, symbols, depth - 1)})"


@pytest.mark.parametrize("spec_name", ["free_spec", "comm_spec", "three_point", "mat_spec"])
def test_lowering_matches_pairwise_addition(spec_name, request):
    """Same orders, zero parts included, same forms term for term, and the same
    order-cap errors as adding each part to a running sum."""
    spec = request.getfixturevalue(spec_name)
    symbols = sorted(spec.symbols)
    rng = random.Random(20)
    for _ in range(60):
        expr = parse(random_form_text(rng, symbols, 4))
        try:
            want = pairwise_lower(expr, spec)
        except LoweringError as err:
            with pytest.raises(LoweringError, match=re.escape(str(err))):
                ncdiff.parser._lower(expr, spec)
            continue
        got = ncdiff.parser._lower(expr, spec)
        assert list(got) == list(want) and got == want
