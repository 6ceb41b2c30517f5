import gc
import weakref

import pytest

from ncdiff.algebra import AlgebraSpec
from ncdiff.frame import (
    FrameElem,
    SubsetIndex,
    delta_iter,
    frame_delta,
    frame_sum,
    lam,
    lift_to,
)
from ncdiff.leibniz import (
    LeibnizForm,
    LeibnizMonomial,
    embed,
    enumerate_types,
    generator_form_str,
    generator_monomial_eval,
    module_mul,
    odot,
    symbolic_delta,
)
from ncdiff.scalars import Scalar, integer
from ncdiff.tensor import TensorPoly
from ncdiff.verify import (
    EXPANSION_TABLE,
    check_table_row,
    default_free_spec,
    odot_chain,
    random_elem,
    random_leibniz_form,
)

from exactlinalg import flatten, rank

SPEC = default_free_spec()
F, G, H, I, K = (SPEC.symbol(s) for s in "fghik")
U = SPEC.unit()


def form_of(elem):
    return LeibnizForm.from_alg(elem)


def d(form, times=1):
    for _ in range(times):
        form = symbolic_delta(form)
    return form


def elem_t(*factors, coeff=1):
    return TensorPoly.elementary(SPEC, factors, integer(coeff))


def test_module_action():
    w = d(form_of(G))
    assert module_mul(U, w) == w
    a, b = F, G.mul(H)
    assert module_mul(a, module_mul(b, w)) == module_mul(a.mul(b), w)
    assert embed(module_mul(F, d(form_of(G)))).body == elem_t(F, G) - elem_t(F.mul(G), U)


def test_symbolic_delta_shapes():
    df = d(form_of(F))
    assert df.order == 1
    assert df.terms == (LeibnizMonomial(U, ((1, F),)),)
    w = d(module_mul(F, d(form_of(G))))
    assert w.terms == (
        LeibnizMonomial(U, ((1, F), (1, G))),
        LeibnizMonomial(F, ((2, G),)),
    )
    assert d(form_of(SPEC.unit())).is_zero()
    assert d(form_of(SPEC.scalar(3))).is_zero()


def test_delta_distributes_over_odot_factors():
    lhs = d(odot(d(form_of(G)), d(form_of(H))))
    rhs = odot(d(form_of(G), 2), d(form_of(H))) + odot(d(form_of(G)), d(form_of(H), 2))
    assert embed(lhs) == embed(rhs)


def test_order_zero_odot_is_module_multiplication(rng):
    for _ in range(10):
        sigma = random_leibniz_form(SPEC, rng.randint(0, 3), rng)
        a = random_elem(SPEC, rng)
        assert odot(form_of(a), sigma) == module_mul(a, sigma)


def test_odot_associativity_on_one_forms():
    u, v, w = (d(form_of(s)) for s in (F, G, H))
    assert odot(odot(u, v), w) == odot(u, odot(v, w))


def test_odot_against_its_defining_rule():
    # d(g) ⊙ s = d(g s) - g d(s), here with a non-unit coefficient inside s
    sigma = module_mul(H, d(form_of(K)))
    out = odot(d(form_of(G)), sigma)
    want = d(module_mul(G, sigma)) - module_mul(G, d(sigma))
    assert embed(out) == embed(want)
    # and for a squared differential: d2(g) ⊙ s = d(d(g) ⊙ s) - d(g) ⊙ d(s)
    out2 = odot(d(form_of(G), 2), sigma)
    want2 = d(odot(d(form_of(G)), sigma)) - odot(d(form_of(G)), d(sigma))
    assert embed(out2) == embed(want2)
    # and as forms, term order included, against the rules applied monomial
    # by monomial, for k = 1-4 and a two-monomial σ with non-unit coefficients
    for spec, _, _ in ORACLE_CASES.values():
        s0, s1, s2 = (spec.symbol(s) for s in spec.symbols[:3])
        sigma = module_mul(s2, odot(d(form_of(s0)), d(form_of(s1))))
        sigma += module_mul(s0.add(s1), d(form_of(s2), 2))
        assert len(sigma.terms) == 2
        for k in range(1, 5):
            u = module_mul(s1, d(form_of(s0.add(s2)), k))
            assert odot(u, sigma).terms == recursive_odot(u, sigma).terms


def test_embed_displayed_expansions():
    got = embed(odot(module_mul(F, d(form_of(G))), d(form_of(H)))).body
    want = (
        elem_t(F, U, G, H)
        - elem_t(F.mul(G), U, U, H)
        - elem_t(F, U, G.mul(H), U)
        + elem_t(F.mul(G), U, H, U)
    )
    assert got == want

    got = embed(odot(d(form_of(G)), d(form_of(H)))).body
    want = (
        elem_t(U, U, G, H)
        - elem_t(G, U, U, H)
        - elem_t(U, U, G.mul(H), U)
        + elem_t(G, U, H, U)
    )
    assert got == want

    got = embed(module_mul(F, d(form_of(G), 2))).body
    want = (
        elem_t(F, U, U, G)
        - elem_t(F, U, G, U)
        - elem_t(F, G, U, U)
        + elem_t(F.mul(G), U, U, U)
    )
    assert got == want


def test_embed_respects_module_and_delta(rng):
    for _ in range(12):
        w = random_leibniz_form(SPEC, rng.randint(0, 3), rng)
        a = random_elem(SPEC, rng)
        n = w.order
        assert embed(module_mul(a, w)) == lift_to(a, n).mul(embed(w))
        assert embed(symbolic_delta(w)) == frame_delta(embed(w))


def test_single_factor_embedding_is_iterated_delta():
    for k in (1, 2, 3):
        assert embed(d(form_of(G), k)) == delta_iter(G, k)


@pytest.mark.parametrize("key", sorted(EXPANSION_TABLE), ids=lambda k: f"order{k[0]}row{k[1]}")
def test_expansion_table_rows(key):
    assert check_table_row(SPEC, *key)


def test_generator_monomial_examples():
    dg_dh = generator_monomial_eval(
        [(SubsetIndex.of(2, (1,)), G), (SubsetIndex.of(2, (0,)), H)], 2
    )
    assert dg_dh == embed(odot_chain(SPEC, [(1, "g"), (1, "h")]))

    dg_d2h = generator_monomial_eval(
        [(SubsetIndex.of(3, (2,)), G), (SubsetIndex.of(3, (1, 0)), H)], 3
    )
    assert dg_d2h == embed(odot_chain(SPEC, [(1, "g"), (2, "h")]))

    single = generator_monomial_eval([(SubsetIndex.of(2, (1, 0)), F)], 2)
    assert single == delta_iter(F, 2)


def test_generator_monomial_errors():
    with pytest.raises(ValueError):
        generator_monomial_eval([(SubsetIndex.of(2, (0,)), G), (SubsetIndex.of(2, (0,)), H)], 2)
    with pytest.raises(ValueError):
        generator_monomial_eval([(SubsetIndex.of(2, (1,)), G)], 3)
    with pytest.raises(ValueError):
        generator_monomial_eval([], 2)


def test_bimodule_actions_differ_even_for_commuting_backend():
    spec = AlgebraSpec.function(("L", "R"), {"x": (1, 0), "y": (0, 1)})
    x = spec.symbol("x")
    w = symbolic_delta(LeibnizForm.from_alg(x))
    left = embed(module_mul(x, w))
    right = embed(w).mul(lam(FrameElem.from_alg(x)))
    assert left != right


def test_printing_both_notations():
    w = module_mul(F, odot(d(form_of(G), 2), d(form_of(H))))
    (mono,) = w.terms
    assert str(mono) == "f*d2(g)@d(h)"
    assert generator_form_str(mono) == "f·d{1,0}(g)·d{0}(h)"
    bare = LeibnizMonomial(F, ())
    assert str(bare) == "f"


def test_enumerate_types_counts_and_order():
    assert enumerate_types(1) == [(1,)]
    assert enumerate_types(2) == [(2,), (1, 1)]
    assert enumerate_types(3) == [(3,), (2, 1), (1, 2), (1, 1, 1)]
    assert len(enumerate_types(4)) == 8
    for n in range(1, 9):
        types = enumerate_types(n)
        assert len(types) == 2 ** (n - 1)
        assert len(set(types)) == len(types)
        assert all(sum(t) == n for t in types)
    with pytest.raises(ValueError):
        enumerate_types(0)


def test_generic_forms_normalize_onto_the_type_monomials(rng):
    # anything built from module products and deltas lands on the 2^(n-1) shapes
    for _ in range(10):
        a, b, c = (random_elem(SPEC, rng) for _ in range(3))
        w2 = module_mul(a, symbolic_delta(module_mul(b, symbolic_delta(form_of(c)))))
        assert set(m.composition for m in w2.terms) <= set(enumerate_types(2))
        w3 = module_mul(a, symbolic_delta(w2))
        assert set(m.composition for m in w3.terms) <= set(enumerate_types(3))


def test_type_monomials_are_linearly_independent():
    for n, symbols in ((2, (G, H)), (3, (G, H, I))):
        vectors = []
        for comp in enumerate_types(n):
            factors = tuple((k, symbols[j]) for j, k in enumerate(comp))
            vectors.append(flatten(embed(LeibnizForm.monomial(U, factors)).body))
        assert rank(vectors) == 2 ** (n - 1)


def test_odot_is_bilinear(rng):
    # bilinearity as forms; normal forms are compared through the embedding
    for _ in range(8):
        u = random_leibniz_form(SPEC, rng.randint(0, 2), rng)
        v = random_leibniz_form(SPEC, rng.randint(0, 2), rng)
        w = random_leibniz_form(SPEC, v.order, rng)
        assert embed(odot(u, v + w)) == embed(odot(u, v) + odot(u, w))
        assert embed(odot(v + w, u)) == embed(odot(v, u) + odot(w, u))


# (spec, a, b): a·b == 0 for the function and matrix backends
ORACLE_CASES = {
    "free": (AlgebraSpec.free(("f", "g", "h")), None, None),
    "comm": (AlgebraSpec.free(("f", "g", "h"), commutative=True), None, None),
    "func": (
        AlgebraSpec.function(("P", "Q", "S"), {"x": (1, 0, 0), "y": (0, 1, 2), "z": (3, -1, 1)}),
        "x",
        "y",
    ),
    "mat": (
        AlgebraSpec.matrix(
            2, {"n": [[0, 1], [0, 0]], "f": [[3, 1], [2, 7]], "g": [[0, 1], [1, 0]]}
        ),
        "n",
        "n",
    ),
}


def random_canonical_form(spec, order, pool, rng):
    """A canonical form whose monomials share factors often enough to merge."""
    monos = []
    for _ in range(rng.randint(0, 4)):
        comp = rng.choice(enumerate_types(order)) if order else ()
        factors = tuple((k, rng.choice(pool)) for k in comp)
        monos.append(LeibnizMonomial(rng.choice(pool), factors))
    return LeibnizForm.of(spec, order, monos)


def assert_normalizes_to(got, spec, order, raw_monomials):
    want = LeibnizForm.of(spec, order, raw_monomials)
    assert got == want
    assert got.terms == want.terms


@pytest.mark.parametrize("case", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
def test_collect_only_operations_match_full_normalization(case, rng):
    """Operations that only merge canonical monomials equal LeibnizForm.of
    on the raw monomials, term order included."""
    spec, a_name, b_name = case
    syms = [spec.symbol(s) for s in spec.symbols]
    two = Scalar.of(2)
    pool = [spec.unit(), *syms, syms[0].scale(two), syms[1].add(spec.unit()), syms[0].mul(syms[1])]
    pool.append(random_elem(spec, rng))
    multipliers = [spec.zero(), syms[0], pool[-1]]
    if a_name is not None:
        multipliers.append(spec.symbol(a_name))
    for _ in range(25):
        n, m = rng.randint(0, 2), rng.randint(0, 2)
        u, v = random_canonical_form(spec, n, pool, rng), random_canonical_form(spec, n, pool, rng)
        w = random_canonical_form(spec, m, pool, rng)
        c = Scalar.of(rng.randint(-2, 2), rng.randint(-1, 1))
        assert_normalizes_to(u + v, spec, n, u.terms + v.terms)
        negated_v = [LeibnizMonomial(t.coeff.neg(), t.factors) for t in v.terms]
        assert_normalizes_to(u - v, spec, n, u.terms + tuple(negated_v))
        scaled = [LeibnizMonomial(t.coeff.scale(c), t.factors) for t in u.terms]
        assert_normalizes_to(u.scale(c), spec, n, scaled)
        assert u.scale(0).terms == ()
        assert (u - u).is_zero()
        one_term = lambda t: LeibnizForm.of(spec, t.order, [t])
        parts = [odot(one_term(s), one_term(t)).terms for s in u.terms for t in w.terms]
        assert_normalizes_to(odot(u, w), spec, n + m, [t for part in parts for t in part])
        for a in multipliers:
            multiplied = [LeibnizMonomial(a.mul(t.coeff), t.factors) for t in u.terms]
            assert_normalizes_to(module_mul(a, u), spec, n, multiplied)
    if a_name is not None:
        # a·b == 0 kills exactly the monomial whose coefficient is b
        a, b = spec.symbol(a_name), spec.symbol(b_name)
        kept = LeibnizMonomial(spec.unit(), ((1, syms[0]),))
        form = LeibnizForm.of(spec, 1, [LeibnizMonomial(b, ((1, syms[-1]),)), kept])
        killed = module_mul(a, form)
        assert len(form.terms) == 2 and len(killed.terms) == 1
        raw = [LeibnizMonomial(a.mul(t.coeff), t.factors) for t in form.terms]
        assert_normalizes_to(killed, spec, 1, raw)


def recursive_odot(u, v):
    """Reference ⊙ that reads the rules monomial by monomial, folding the
    factors of u from the right: d(g) ⊙ b·N = d(gb) ⊙ N - g·(d(b) ⊙ N) and
    d^k(g) ⊙ m = d(d^{k-1}(g) ⊙ m) - d^{k-1}(g) ⊙ dm."""

    def power(k, g, sigma):
        spec = sigma.spec
        out = []
        for mono in sigma.terms:
            if k == 1:
                out.append(LeibnizMonomial(spec.unit(), ((1, g.mul(mono.coeff)),) + mono.factors))
                out.append(LeibnizMonomial(g.neg(), ((1, mono.coeff),) + mono.factors))
            else:
                m = LeibnizForm(spec, mono.order, (mono,))
                out += (symbolic_delta(power(k - 1, g, m)) - power(k - 1, g, symbolic_delta(m))).terms
        return LeibnizForm.of(spec, sigma.order + k, out)

    parts = []
    for mu in u.terms:
        acc = v
        for k, g in reversed(mu.factors):
            acc = power(k, g, acc)
        parts += module_mul(mu.coeff, acc).terms
    return LeibnizForm.of(u.spec, u.order + v.order, parts)


def test_no_library_state_keeps_user_data():
    """⊙ and the embedding keep nothing of their inputs once they return."""
    spec = AlgebraSpec.free(("p", "q"))
    p, q = spec.symbol("p"), spec.symbol("q")
    w = odot(module_mul(q, d(form_of(p), 2)), d(form_of(q)))
    assert embed(w).level == 3
    ref = weakref.ref(spec)
    del spec, p, q, w
    gc.collect()
    assert ref() is None


def recursive_embed(w):
    """Reference embedding that reads the ⊙ rules in the symbolic layer:
    d(g) ⊙ σ = d(gσ) - g·dσ and d^k(g) ⊙ σ = d(d^{k-1}(g) ⊙ σ) - d^{k-1}(g) ⊙ dσ,
    embedding each symbolic result again."""
    memo = {}

    def embed_form(sigma):
        return frame_sum(sigma.spec, sigma.order, (embed_mono(m) for m in sigma.terms))

    def embed_mono(mono):
        n = mono.order
        if not mono.factors:
            return FrameElem.from_alg(mono.coeff)
        if len(mono.factors) == 1:
            k, g = mono.factors[0]
            return lift_to(mono.coeff, n).mul(delta_iter(g, k))
        (k, g), rest = mono.factors[0], mono.factors[1:]
        spec = mono.coeff.spec
        sigma = LeibnizForm(spec, n - k, (LeibnizMonomial(spec.unit(), rest),))
        return lift_to(mono.coeff, n).mul(embed_power(k, g, sigma))

    def embed_power(k, g, sigma):
        key = (k, g, sigma)
        if key not in memo:
            n = k + sigma.order
            if k == 1:
                memo[key] = frame_delta(embed_form(module_mul(g, sigma))) - lift_to(g, n).mul(
                    frame_delta(embed_form(sigma))
                )
            else:
                memo[key] = frame_delta(embed_power(k - 1, g, sigma)) - embed_power(
                    k - 1, g, symbolic_delta(sigma)
                )
        return memo[key]

    return embed_form(w)


EMBED_ORACLE_SPECS = {name: case[0] for name, case in ORACLE_CASES.items()}
EMBED_ORACLE_SPECS["func-complex"] = AlgebraSpec.function(
    ("L", "R"), {"x": (Scalar.of(1, 2), 0), "y": (1, -3)}
)


@pytest.mark.parametrize("spec", EMBED_ORACLE_SPECS.values(), ids=EMBED_ORACLE_SPECS.keys())
def test_embed_matches_recursive_symbolic_embedding(spec, rng):
    """The frame-only fold equals the symbolic recursion, term order included:
    every type of orders 1-3 (multi-term factors up to order 2), one order-4
    type, an order-0 form and ⊙ products, all with non-unit coefficients."""
    syms = [spec.symbol(s) for s in spec.symbols]

    def monomial(comp, factor):
        return LeibnizForm.monomial(random_elem(spec, rng), [(k, factor()) for k in comp])

    types = enumerate_types(1) + enumerate_types(2)
    forms = [monomial(c, lambda: random_elem(spec, rng)) for c in types]
    types = enumerate_types(3) + [(1, 3)]
    forms += [monomial(c, lambda: rng.choice(syms)) for c in types]
    a = LeibnizForm.from_alg(random_elem(spec, rng))
    forms += [a, odot(forms[0], a), odot(forms[0], forms[1]), odot(forms[2], forms[0])]
    for w in forms:
        assert embed(w).body.terms == recursive_embed(w).body.terms


INT_SPECS = {
    "free": AlgebraSpec.free(("x", "y")),
    "function": AlgebraSpec.function(("L", "M", "R"), {"x": (1, -1, 3), "y": (0, 1, -2)}),
    "function-complex": AlgebraSpec.function(
        ("L", "M", "R"), {"x": (Scalar.of(1, 2), -1, 3), "y": (0, Scalar.of(1, -1), -2)}
    ),
}


@pytest.mark.parametrize("spec", INT_SPECS.values(), ids=INT_SPECS.keys())
def test_integer_forms_embed_with_int_coefficient_parts(spec):
    """Integral coefficients stay ``int`` through the embedding, the cheap
    path of ``Scalar``, also when normalizing a form divides a factor by
    its leading coefficient (3x - 2y becomes 3 times x - 2/3 y), and for
    Gaussian integers, whose products and sums are complex."""
    x, y = (spec.symbol(s) for s in spec.symbols[:2])
    a = x.scale(integer(3)).add(y.scale(integer(-2)))
    b = x.add(y.scale(integer(-2)))
    forms = [
        LeibnizForm.monomial(a, [(1, x), (2, b)]),
        LeibnizForm.monomial(a, [(1, y), (1, b), (1, x)]),
        LeibnizForm.monomial(a, [(3, b)]),
        LeibnizForm.monomial(a, [(1, x), (2, a)]),
    ]
    for w in forms:
        terms = embed(w).body.terms
        assert w.order == 3 and terms
        assert all(type(part) is int for c, _ in terms for part in (c.re, c.im))
