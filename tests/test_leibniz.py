import functools
import gc
import itertools
import json
import random
import sys
import weakref
from fractions import Fraction
from operator import itemgetter

import pytest

import ncdiff.frame
import ncdiff.leibniz
from ncdiff.algebra import AlgebraMismatchError, AlgebraSpec, FreePoly
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
    _collect,
    _integer_image,
    _normalize,
    embed,
    enumerate_types,
    generator_form_str,
    generator_monomial_eval,
    module_mul,
    odot,
    symbolic_delta,
)
from ncdiff.parser import lower, parse
from ncdiff.scalars import MINUS_ONE, ONE, Scalar
from ncdiff.tensor import (
    TensorPoly,
    _eval_table,
    _glue,
    _matrix_table,
    mult_map,
    t_algebra_product,
    tensor_concat,
    tensor_eval_all,
    tensor_to_matrix,
)
from ncdiff.verify import (
    EXPANSION_TABLE,
    default_free_spec,
    odot_chain,
    random_elem,
    random_frame_elem,
    random_leibniz_form,
    table_row,
)

from exactlinalg import dense_terms, flatten, rank

SPEC = default_free_spec()
F, G, H, I, K = (SPEC.symbol(s) for s in "fghik")
U = SPEC.unit()


def form_of(elem):
    return LeibnizForm.from_alg(elem)


def unit_multiples(spec):
    """Constant coefficients: the unit, an integer, a fraction and i."""
    return [spec.unit(), spec.scalar(3), spec.scalar(Scalar.of(Fraction(-1, 2))), spec.scalar(Scalar.of(0, 1))]


def d(form, times=1):
    for _ in range(times):
        form = symbolic_delta(form)
    return form


def elem_t(*factors, coeff=1):
    return TensorPoly.elementary(factors, Scalar.of(coeff))


def test_module_action():
    w = d(form_of(G))
    assert module_mul(U, w) == w
    a, b = F, G.mul(H)
    assert module_mul(a, module_mul(b, w)) == module_mul(a.mul(b), w)
    assert embed(module_mul(F, d(form_of(G)))).body == elem_t(F, G) - elem_t(F.mul(G), U)


def test_symbolic_delta_shapes():
    df = d(form_of(F))
    assert df.order == 1
    assert df.terms == ((U, ((1, F),)),)
    w = d(module_mul(F, d(form_of(G))))
    assert w.terms == (
        (U, ((1, F), (1, G))),
        (F, ((2, G),)),
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
    """Also on the same factor lists under scalar coefficients, whose d(a) ⊙ N
    ``symbolic_delta`` leaves out."""
    constants = unit_multiples(SPEC)
    for _ in range(12):
        w = random_leibniz_form(SPEC, rng.randint(0, 3), rng)
        a = random_elem(SPEC, rng)
        n = w.order
        scalar_w = LeibnizForm.of(SPEC, n, [(rng.choice(constants), factors) for _, factors in w.terms])
        for form in (w, scalar_w):
            assert embed(module_mul(a, form)) == lift_to(a, n).mul(embed(form))
            assert embed(symbolic_delta(form)) == frame_delta(embed(form))


def test_single_factor_embedding_is_iterated_delta():
    for k in (1, 2, 3):
        assert embed(d(form_of(G), k)) == delta_iter(G, k)


@pytest.mark.parametrize("key", sorted(EXPANSION_TABLE), ids=lambda k: f"order{k[0]}row{k[1]}")
def test_expansion_table_rows(key):
    _, lhs, rhs = table_row(SPEC, *key)
    assert lhs == rhs


def test_generator_monomial_examples():
    dg_dh = generator_monomial_eval([(SubsetIndex.of(2, (1,)), G), (SubsetIndex.of(2, (0,)), H)])
    assert dg_dh == embed(odot_chain(SPEC, [(1, "g"), (1, "h")]))

    dg_d2h = generator_monomial_eval([(SubsetIndex.of(3, (2,)), G), (SubsetIndex.of(3, (1, 0)), H)])
    assert dg_d2h == embed(odot_chain(SPEC, [(1, "g"), (2, "h")]))

    single = generator_monomial_eval([(SubsetIndex.of(2, (1, 0)), F)])
    assert single == delta_iter(F, 2)
    # evaluated in the frame layer; the leibniz name is the same function
    assert generator_monomial_eval is ncdiff.frame.generator_monomial_eval


def test_generator_monomial_errors():
    with pytest.raises(ValueError):
        generator_monomial_eval([(SubsetIndex.of(2, (0,)), G), (SubsetIndex.of(2, (0,)), H)])
    with pytest.raises(ValueError, match="indices at levels 2 and 3"):
        generator_monomial_eval([(SubsetIndex.of(2, (1,)), G), (SubsetIndex.of(3, (0,)), H)])
    with pytest.raises(ValueError):
        generator_monomial_eval([])
    with pytest.raises(ValueError, match="empty generator sum"):
        ncdiff.frame.generator_sum(G, ())


MIXES = {
    "free": (AlgebraSpec.free(("f", "g")).symbol("f"), AlgebraSpec.free(("f", "h")).symbol("h")),
    "function": (
        AlgebraSpec.function(("L", "R"), {"x": (1, 0)}).symbol("x"),
        AlgebraSpec.function(("L", "R"), {"x": (0, 1)}).symbol("x"),
    ),
    "matrix": (
        AlgebraSpec.matrix(2, {"x": [[0, 1], [0, 0]]}).symbol("x"),
        AlgebraSpec.matrix(2, {"x": [[0, 0], [1, 0]]}).symbol("x"),
    ),
    "function-matrix": (
        AlgebraSpec.matrix(2, {"x": [[0, 0], [1, 0]]}).symbol("x").scale(Scalar.of(3)),
        AlgebraSpec.function(("L", "R"), {"y": (1, 2)}).symbol("y"),
    ),
}


@pytest.mark.parametrize("mix", MIXES.values(), ids=MIXES.keys())
def test_forms_refuse_elements_of_another_algebra(mix):
    """A coefficient or factor from another spec is refused wherever a
    monomial is normalized, whichever of the two comes first."""
    a, b = mix
    for coeff, g in ((a, b), (b, a)):
        with pytest.raises(AlgebraMismatchError, match="form element from a different algebra"):
            LeibnizForm.monomial(coeff, [(1, g)])
        with pytest.raises(AlgebraMismatchError, match="form element from a different algebra"):
            LeibnizForm.monomial(coeff.spec.unit(), [(1, coeff), (2, g)])
        with pytest.raises(AlgebraMismatchError, match="form element from a different algebra"):
            LeibnizForm.of(coeff.spec, 0, [(g, ())])
    assert embed(LeibnizForm.monomial(a, [(1, a)])).level == 1


def test_form_monomials_must_have_the_order_and_positive_powers():
    with pytest.raises(ValueError, match="inhomogeneous sum of monomials"):
        LeibnizForm.of(SPEC, 2, [(F, ((1, G),))])
    with pytest.raises(ValueError, match="inhomogeneous sum of monomials"):
        LeibnizForm.of(SPEC, 1, [(F, ((1, G),)), (F, ((2, G),))])
    with pytest.raises(ValueError, match="differential powers must be positive"):
        LeibnizForm.of(SPEC, 1, [(F, ((0, H), (1, G)))])


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
    assert str(w) == "f*d2(g)@d(h)"
    assert generator_form_str(mono) == "f·d{1,0}(g)·d{0}(h)"
    assert str(form_of(F)) == "f"


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

    def first_part_first(m):
        return [(first,) + tail for first in range(m, 0, -1) for tail in first_part_first(m - first)] if m else [()]

    for n in range(1, 11):
        assert enumerate_types(n) == first_part_first(n)


def composition(w):
    """The powers (k1, ..., kr) of each monomial of w."""
    return [tuple(k for k, _ in factors) for _, factors in w.terms]


def test_generic_forms_normalize_onto_the_type_monomials(rng):
    # anything built from module products and deltas lands on the 2^(n-1) shapes
    for _ in range(10):
        a, b, c = (random_elem(SPEC, rng) for _ in range(3))
        w2 = module_mul(a, symbolic_delta(module_mul(b, symbolic_delta(form_of(c)))))
        assert set(composition(w2)) <= set(enumerate_types(2))
        w3 = module_mul(a, symbolic_delta(w2))
        assert set(composition(w3)) <= set(enumerate_types(3))


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


def oracle_pool(spec):
    """Elements for canonical forms: the unit, the symbols, a multiple, a sum and a product."""
    syms = [spec.symbol(s) for s in spec.symbols]
    return [spec.unit(), *syms, syms[0].scale(Scalar.of(2)), syms[1].add(spec.unit()), syms[0].mul(syms[1])]


def random_canonical_form(spec, order, pool, rng):
    """A canonical form whose monomials share factors often enough to merge."""
    monos = []
    for _ in range(rng.randint(0, 4)):
        comp = rng.choice(enumerate_types(order)) if order else ()
        factors = tuple((k, rng.choice(pool)) for k in comp)
        monos.append((rng.choice(pool), factors))
    return LeibnizForm.of(spec, order, monos)


def raw_delta(spec, mono):
    """The raw monomials of d(a·N): d(a) ⊙ N (zero when a is a constant),
    then N with each factor's power raised in turn."""
    a, factors = mono
    yield spec.unit(), ((1, a),) + factors
    for i, (k, g) in enumerate(factors):
        yield a, factors[:i] + ((k + 1, g),) + factors[i + 1 :]


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
    pool = oracle_pool(spec) + [random_elem(spec, rng)]
    multipliers = [spec.zero(), syms[0], pool[-1]]
    if a_name is not None:
        multipliers.append(spec.symbol(a_name))
    for _ in range(25):
        n, m = rng.randint(0, 2), rng.randint(0, 2)
        u, v = random_canonical_form(spec, n, pool, rng), random_canonical_form(spec, n, pool, rng)
        w = random_canonical_form(spec, m, pool, rng)
        c = Scalar.of(rng.randint(-2, 2), rng.randint(-1, 1))
        assert_normalizes_to(u + v, spec, n, u.terms + v.terms)
        negated_v = [(b.neg(), factors) for b, factors in v.terms]
        assert_normalizes_to(u - v, spec, n, u.terms + tuple(negated_v))
        scaled = [(b.scale(c), factors) for b, factors in u.terms]
        assert_normalizes_to(u.scale(c), spec, n, scaled)
        assert u.scale(0).terms == ()
        assert (u - u).is_zero()
        one_term = lambda t: LeibnizForm.of(spec, sum(k for k, _ in t[1]), [t])
        parts = [odot(one_term(s), one_term(t)).terms for s in u.terms for t in w.terms]
        assert_normalizes_to(odot(u, w), spec, n + m, [t for part in parts for t in part])
        for form in (u, *map(one_term, u.terms)):  # one-monomial forms too
            raw = [r for t in form.terms for r in raw_delta(spec, t)]
            assert_normalizes_to(symbolic_delta(form), spec, n + 1, raw)
        for a in multipliers:
            multiplied = [(a.mul(b), factors) for b, factors in u.terms]
            assert_normalizes_to(module_mul(a, u), spec, n, multiplied)
    if a_name is not None:
        # a·b == 0 kills exactly the monomial whose coefficient is b
        a, b = spec.symbol(a_name), spec.symbol(b_name)
        kept = spec.unit(), ((1, syms[0]),)
        form = LeibnizForm.of(spec, 1, [(b, ((1, syms[-1]),)), kept])
        killed = module_mul(a, form)
        assert len(form.terms) == 2 and len(killed.terms) == 1
        raw = [(a.mul(c), factors) for c, factors in form.terms]
        assert_normalizes_to(killed, spec, 1, raw)


@pytest.mark.parametrize("case", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
def test_symbolic_delta_normalizes_only_the_new_differential(case, rng, monkeypatch):
    """``symbolic_delta`` normalizes d(a) ⊙ N once for each monomial a·N
    whose coefficient is not a constant, and never a raised power."""
    spec, _, _ = case
    pool, unit = oracle_pool(spec), spec.unit()
    seen, normalize = [], ncdiff.leibniz._normalize
    monkeypatch.setattr(
        ncdiff.leibniz, "_normalize", lambda spec, mono, order: seen.append(mono) or normalize(spec, mono, order)
    )
    constants = 0
    for _ in range(25):
        w = random_canonical_form(spec, rng.randint(0, 3), pool, rng)
        seen.clear()
        symbolic_delta(w)
        varying = [(a, factors) for a, factors in w.terms if a.unit_multiple() is None]
        assert seen == [(unit, ((1, a),) + factors) for a, factors in varying]
        constants += len(w.terms) - len(varying)
    assert constants


def test_collect_keys_no_lone_monomial(monkeypatch):
    """``_collect`` returns a lone nonzero monomial as the form, without a
    ``sort_key`` call; two monomials are keyed."""
    keyed, sort_key = [], FreePoly.sort_key
    monkeypatch.setattr(FreePoly, "sort_key", lambda g: keyed.append(g) or sort_key(g))
    mono = F, ((2, G), (1, F))
    for terms in ([mono], [(SPEC.zero(), ((1, F), (2, G))), mono]):
        assert _collect(SPEC, 3, terms).terms == (mono,)
    assert keyed == []
    assert _collect(SPEC, 3, [mono, mono]).terms == ((F.scale(Scalar.of(2)), mono[1]),)
    assert keyed


@pytest.mark.parametrize("case", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
def test_form_add_takes_any_number_of_summands(case, rng):
    """``LeibnizForm.add(*forms)`` is the pairwise sum, and a form over
    another algebra or of another order is refused at every position."""
    spec, _, _ = case
    pool = oracle_pool(spec)
    for _ in range(25):
        n = rng.randint(0, 2)
        u, *vs = (random_canonical_form(spec, n, pool, rng) for _ in range(rng.randint(1, 6)))
        assert u.add(*vs) == functools.reduce(LeibnizForm.add, vs, u)
        assert u.add(*vs, *(v.scale(MINUS_ONE) for v in vs)) == u
    x = d(form_of(spec.symbol(spec.symbols[0])))
    assert x.add() == x
    for foreign, error in [(d(form_of(F)), AlgebraMismatchError), (form_of(x.terms[0][1][0][1]), ValueError)]:
        for at in range(4):
            operands = [x] * 4
            operands[at] = foreign
            with pytest.raises(error):
                operands[0].add(*operands[1:])


def per_monomial_module_mul(a, w):
    """a times every coefficient of w, factor lists kept, zero products dropped."""
    terms = ((a.mul(b), factors) for b, factors in w.terms)
    return LeibnizForm(w.spec, w.order, tuple(m for m in terms if not m[0].is_zero()))


@pytest.mark.parametrize("case", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
def test_module_mul_multiplies_each_coefficient(case, rng):
    """``module_mul``, an order-0 ``odot``, equals the per-monomial product,
    including products that vanish off the free backend."""
    spec, a_name, _ = case
    pool = oracle_pool(spec)
    multipliers = [spec.zero(), *pool] + ([spec.symbol(a_name)] if a_name is not None else [])
    for _ in range(25):
        w = random_canonical_form(spec, rng.randint(0, 3), pool, rng)
        for a in multipliers:
            assert module_mul(a, w) == per_monomial_module_mul(a, w)
    with pytest.raises(AlgebraMismatchError):
        module_mul(F, d(form_of(pool[1])))


def pairwise_collect(spec, order, terms):
    """The oracle for ``_collect``: each later coefficient of a factor list is
    added to the running sum by a two-summand ``add``, and a zero sum drops it."""
    acc = {}
    for a, factors in terms:
        if a.is_zero():
            continue
        key = tuple((k, g.sort_key()) for k, g in factors)
        if key in acc:
            total = acc[key][0].add(a)
            if total.is_zero():
                del acc[key]
            else:
                acc[key] = total, factors
        else:
            acc[key] = a, factors
    return LeibnizForm(spec, order, tuple(acc[k] for k in sorted(acc)))


def cancelling_copy(mono, c):
    """A raw monomial that normalizes to minus ``mono``, its first factor scaled by c."""
    a, factors = mono
    if not factors:
        return a.neg(), ()
    (k, g), *rest = factors
    return a.scale(-c.inverse()), ((k, g.scale(c)), *rest)


@pytest.mark.parametrize("spec", ["free_spec", "comm_spec", "three_point", "mat_spec"])
def test_merging_equals_the_pairwise_fold(spec, request, rng):
    """Seeded: monomials on a few repeated factor lists, some cancelled by
    rescaled copies, merge as the pairwise fold merges them, term order and
    empty forms included."""
    spec = request.getfixturevalue(spec)
    pool = [random_elem(spec, rng) for _ in range(4)]
    sizes = []
    for _ in range(80):
        order = rng.randint(0, 3)
        comps = [rng.choice(enumerate_types(order)) if order else () for _ in range(rng.randint(1, 3))]
        lists = [tuple((k, rng.choice(pool)) for k in comp) for comp in comps]
        monos = [(random_elem(spec, rng), rng.choice(lists)) for _ in range(rng.randint(1, 8))]
        c = Scalar.of(Fraction(rng.choice((-3, -1, 2, 5)), rng.choice((1, 2))))
        monos += [cancelling_copy(m, c) for m in monos if rng.random() < 0.7]
        rng.shuffle(monos)
        got = LeibnizForm.of(spec, order, monos)
        normalized = (_normalize(spec, m, order) for m in monos)
        want = pairwise_collect(spec, order, [m for m in normalized if m is not None])
        assert got == want
        assert got.terms == want.terms
        sizes.append(len(got.terms))
    assert 0 in sizes and max(sizes) > 1


def recursive_odot(u, v):
    """Reference ⊙ that reads the rules monomial by monomial, folding the
    factors of u from the right: d(g) ⊙ b·N = d(gb) ⊙ N - g·(d(b) ⊙ N) and
    d^k(g) ⊙ m = d(d^{k-1}(g) ⊙ m) - d^{k-1}(g) ⊙ dm."""

    def power(k, g, sigma):
        spec = sigma.spec
        out = []
        for mono in sigma.terms:
            a, factors = mono
            if k == 1:
                out.append((spec.unit(), ((1, g.mul(a)),) + factors))
                out.append((g.neg(), ((1, a),) + factors))
            else:
                m = LeibnizForm(spec, sigma.order, (mono,))
                out += (symbolic_delta(power(k - 1, g, m)) - power(k - 1, g, symbolic_delta(m))).terms
        return LeibnizForm.of(spec, sigma.order + k, out)

    parts = []
    for a, factors in u.terms:
        acc = v
        for k, g in reversed(factors):
            acc = power(k, g, acc)
        parts += module_mul(a, acc).terms
    return LeibnizForm.of(u.spec, u.order + v.order, parts)


@pytest.mark.parametrize("case", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
def test_closed_odot_matches_the_recursive_oracle(case, rng):
    """⊙ by the closed Leibniz step equals the recursion read monomial by
    monomial: term for term on the free and commutative backends, and through
    the embedding on the function and matrix ones, whose normal forms are not
    unique (the embedding is linear, so that of the difference is checked).
    Left powers k run to 5, both sides are sums, and coefficients on the
    right are scalars (which take no Leibniz step) or not."""
    spec = case[0]
    syms = [spec.symbol(s) for s in spec.symbols]
    pool = [*syms, syms[0].mul(syms[1]), syms[1].add(spec.unit()), random_elem(spec, rng)]
    coeffs = pool + unit_multiples(spec)

    def form(order):
        """Two or three monomials; the first one is the single power d^order."""
        comps = [(order,) if order else ()]
        comps += [rng.choice(enumerate_types(order)) if order else () for _ in range(rng.randint(1, 2))]
        monos = [(rng.choice(coeffs), tuple((k, rng.choice(pool)) for k in c)) for c in comps]
        return LeibnizForm.of(spec, order, monos)

    for n in range(6):
        for m in range(3 if n < 4 else 2):
            u, v = form(n), form(m)
            got, want = odot(u, v), recursive_odot(u, v)
            if spec.backend == "free":
                assert got.terms == want.terms
            else:
                assert embed(got - want).body.is_zero()


def test_odot_never_differentiates_a_whole_form(monkeypatch):
    """⊙ moves a coefficient left by the closed Leibniz step alone: it calls
    ``symbolic_delta`` zero times."""
    u = module_mul(G, odot(d(form_of(F), 3), d(form_of(H.add(U)), 2)))
    v = module_mul(H, odot(d(form_of(F.add(G)), 2), d(form_of(G.mul(H)))))
    want = recursive_odot(u, v)
    calls = []
    monkeypatch.setattr("ncdiff.leibniz.symbolic_delta", lambda w: calls.append(w))
    assert odot(u, v).terms == want.terms
    assert calls == []


def test_odot_past_a_constant_takes_no_leibniz_step(monkeypatch):
    """F ⊙ c = c·F: a constant right coefficient is not moved left factor by
    factor, so ``odot(d2(f), d(g))`` normalizes nothing through ``LeibnizForm.of``."""
    u, v = d(form_of(F), 2), d(form_of(G))
    want = recursive_odot(u, v)
    calls = []
    inner = LeibnizForm.of

    def counting(spec, order, terms):
        calls.append(order)
        return inner(spec, order, terms)

    monkeypatch.setattr(LeibnizForm, "of", staticmethod(counting))
    assert odot(u, v).terms == want.terms
    assert calls == []


def test_building_the_types_multiplies_by_no_unit(monkeypatch):
    """``_normalize`` scales no coefficient by the content ``ONE`` of a monic
    factor, and ``odot`` multiplies no coefficient by the unit: building the
    16 order-5 types with ``odot_chain`` makes no such ``FreePoly`` call."""
    spec = AlgebraSpec.free(tuple(f"s{i}" for i in range(5)))
    unit, scale, mul, by_unit = spec.unit(), FreePoly.scale, FreePoly.mul, []

    def counted_scale(a, c):
        by_unit.append(c == ONE)
        return scale(a, c)

    def counted_mul(a, b):
        by_unit.append(unit in (a, b))
        return mul(a, b)

    monkeypatch.setattr(FreePoly, "scale", counted_scale)
    monkeypatch.setattr(FreePoly, "mul", counted_mul)
    for comp in enumerate_types(5):
        names = [(k, f"s{j}") for j, k in enumerate(comp)]
        factors = tuple((k, spec.symbol(name)) for k, name in names)
        assert odot_chain(spec, names).terms == ((unit, factors),)
    assert not any(by_unit)


# pairs of expressions for one element that lower to unequal forms on the
# free backend: d is linear, but a differentiated sum stays one factor
FREE_FG = AlgebraSpec.free(("f", "g"))
ONE_ELEMENT_TWO_FORMS = [("d(f + g)", "d(f) + d(g)"), ("d(f)@d(f + g)", "d(f)@d(f) + d(f)@d(g)")]


@pytest.mark.parametrize("lhs, rhs", ONE_ELEMENT_TWO_FORMS)
def test_forms_of_one_element_embed_equally_on_the_free_backend(lhs, rhs):
    (u,), (v,) = (lower(parse(text), FREE_FG).values() for text in (lhs, rhs))
    assert embed(u) == embed(v)


@pytest.mark.xfail(
    strict=True,
    reason="normal forms are not unique on the free backend "
    "(ROADMAP item 'Equality of forms is equality in F_n 𝒜')",
)
@pytest.mark.parametrize("lhs, rhs", ONE_ELEMENT_TWO_FORMS)
def test_forms_of_one_element_are_equal_on_the_free_backend(lhs, rhs):
    (u,), (v,) = (lower(parse(text), FREE_FG).values() for text in (lhs, rhs))
    assert u == v


# the realize benchmark's 3×3 matrix shape, with Gaussian-rational entries
MAT3 = AlgebraSpec.matrix(
    3,
    {
        "f": [[Fraction(1, 2), 2, Scalar.of(0, Fraction(-1, 3))], [1, Fraction(5, 4), 0], [-3, 1, Fraction(2, 7)]],
        "g": [[0, Scalar.of(1, 1), 1], [Fraction(-2, 3), 0, 4], [1, Fraction(1, 6), 2]],
    },
)


def test_embed_folds_real_forms_without_scalar_arithmetic(monkeypatch):
    """On real function and matrix specs with fractional values the fold
    multiplies and adds plain ints: ``embed`` makes no ``Scalar`` product or
    sum in this module or in ``tensor``.  On ``MAT3``, whose entries are
    complex, the fold keeps ``Scalar`` coefficients and multiplies them."""
    two = AlgebraSpec.function(("L", "R"), {"x": (Fraction(1, 2), -3), "y": (2, Fraction(5, 3))})
    mat = AlgebraSpec.matrix(
        2, {"f": [[Fraction(3, 2), 1], [2, 7]], "g": [[0, 1], [1, Fraction(-1, 3)]]}
    )
    (x, y), (f, g) = ([spec.symbol(s) for s in spec.symbols] for spec in (two, mat))
    real = [
        LeibnizForm.monomial(two.unit(), [(3, x)]),
        LeibnizForm.monomial(x, [(3, y)]),
        LeibnizForm.monomial(two.unit(), [(1, x), (1, y), (1, x)]),
        LeibnizForm.monomial(two.unit(), [(2, x), (1, y)]).add(LeibnizForm.monomial(y, [(1, x), (2, y)])),
        LeibnizForm.monomial(g, [(2, f)]),
        LeibnizForm.monomial(mat.unit(), [(1, f), (1, g)]).scale(Scalar.of(Fraction(-2, 5))),
    ]
    complex_ = [form for text in ("d(f)@d(g)", "g*d2(f)") for form in lower(parse(text), MAT3).values()]
    wants = [frame_fold_embed(w) for w in real + complex_]
    calls, mul, add = [], Scalar.__mul__, Scalar.__add__

    def counted(op):
        def run(a, b):
            if sys._getframe(1).f_globals["__name__"] in ("ncdiff.leibniz", "ncdiff.tensor"):
                calls.append(op)
            return (mul if op == "mul" else add)(a, b)
        return run

    monkeypatch.setattr(Scalar, "__mul__", counted("mul"))
    monkeypatch.setattr(Scalar, "__add__", counted("add"))
    for w, want in zip(real, wants):
        assert embed(w) == want
    assert not calls
    for w, want in zip(complex_, wants[len(real):]):
        assert embed(w) == want
    assert "mul" in calls


REAL_AND_COMPLEX = {
    "function": AlgebraSpec.function(
        ("L", "M", "R"), {"x": (Fraction(1, 2), -3, 2), "y": (2, Fraction(5, 3), 0), "z": (1, Scalar.of(0, Fraction(1, 2)), -1)}
    ),
    "matrix": AlgebraSpec.matrix(
        2, {"x": [[Fraction(3, 2), 1], [2, 7]], "y": [[0, 1], [1, Fraction(-1, 3)]], "z": [[1, Scalar.of(2, -1)], [0, 1]]}
    ),
}


@pytest.mark.parametrize("spec", REAL_AND_COMPLEX.values(), ids=REAL_AND_COMPLEX.keys())
def test_integer_embed_is_exact_across_the_real_complex_boundary(spec):
    """A form folds on ints only when every basis coefficient is real; a
    complex coefficient over real factors, and one complex factor among real
    ones, fold on ``Scalar`` coefficients.  Either way the image of
    ``_integer_image``, sorted by key, is ``frame_fold_embed`` times its
    denominator, with ``int`` parts only: ``int`` coefficients on a real
    form, and ``Scalar``s of two ``int``s on a complex one."""
    x, y, z = (spec.symbol(s) for s in "xyz")
    i, gaussian = Scalar.of(0, 1), Scalar.of(1, Fraction(1, 2))
    forms = {
        "real": [LeibnizForm.monomial(x, [(1, y), (2, x)]), LeibnizForm.monomial(spec.unit(), [(2, y), (1, x)])],
        "complex coefficient": [
            LeibnizForm.monomial(x.scale(gaussian), [(1, y), (2, x)]),
            LeibnizForm.monomial(spec.scalar(i), [(2, y), (1, x)]),
            LeibnizForm.monomial(x, [(1, y), (1, x)]).add(LeibnizForm.monomial(spec.scalar(gaussian), [(1, x), (1, y)])),
        ],
        "complex factor": [
            LeibnizForm.monomial(y, [(1, x), (1, z), (1, y)]),
            LeibnizForm.monomial(spec.unit(), [(2, z), (1, x)]),
            LeibnizForm.monomial(x, [(1, y), (2, x)]).add(LeibnizForm.monomial(spec.unit(), [(1, z), (2, y)])),
        ],
    }
    for kind, ws in forms.items():
        for w in ws:
            terms, den = _integer_image(w)
            want = [(c * Scalar(den), key) for c, key in frame_fold_embed(w).body.terms]
            got = sorted(((c if kind != "real" else Scalar(c), key) for c, key in terms), key=itemgetter(1))
            assert got == want and den > 1
            if kind == "real":
                assert all(type(c) is int for c, _ in terms)
            else:
                assert all(type(c) is Scalar and type(c.re) is type(c.im) is int for c, _ in terms)
                assert any(c.im for c, _ in terms)


def test_embed_multiplies_no_fractions(monkeypatch):
    """On a 3×3 rational matrix spec every factor and coefficient is scaled to
    Gaussian integers before the fold: no product ``embed`` makes in this
    module or in ``tensor`` has a ``Fraction`` part, and it divides at most
    once per output term."""
    forms = [form for text in ("d(f)@d(g)", "g*d2(f)") for form in lower(parse(text), MAT3).values()]
    wants = [frame_fold_embed(w) for w in forms]
    mul, div, products, divisions = Scalar.__mul__, Scalar.__truediv__, [], []
    here = lambda: sys._getframe(2).f_globals["__name__"] in ("ncdiff.leibniz", "ncdiff.tensor")

    def counted_mul(a, b):
        if here():
            products.append(any(type(p) is Fraction for c in (a, b) for p in (c.re, c.im)))
        return mul(a, b)

    def counted_div(a, b):
        if here():
            divisions.append(a)
        return div(a, b)

    monkeypatch.setattr(Scalar, "__mul__", counted_mul)
    monkeypatch.setattr(Scalar, "__truediv__", counted_div)
    for w, want in zip(forms, wants):
        products.clear()
        divisions.clear()
        got = embed(w)
        assert got == want and any(type(c.re) is Fraction for c, _ in got.body.terms)
        assert products and not any(products)
        assert 0 < len(divisions) <= len(got.body.terms)


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
        return frame_sum(sigma.spec, sigma.order, (embed_mono(sigma.order, m) for m in sigma.terms))

    def embed_mono(n, mono):
        a, factors = mono
        if not factors:
            return FrameElem.from_alg(a)
        if len(factors) == 1:
            k, g = factors[0]
            return lift_to(a, n).mul(delta_iter(g, k))
        (k, g), rest = factors[0], factors[1:]
        sigma = LeibnizForm(a.spec, n - k, ((a.spec.unit(), rest),))
        return lift_to(a, n).mul(embed_power(k, g, sigma))

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


def frame_fold_embed(w):
    """Reference embedding that folds each monomial from the right in frame
    operations on whole 2^n-slot tensors: d is frame_delta, the last factor
    is delta_iter, d(g) ⊙ σ is 1⊗(g·s) - lift_to(g)⊗s for the image s of σ,
    d^k(g) ⊙ σ = d(d^{k-1}(g) ⊙ σ) - d^{k-1}(g) ⊙ dσ, and the coefficient
    and g· multiply the first slot through t_algebra_product."""

    def times(a, s):
        return FrameElem(t_algebra_product(TensorPoly.wrap(a), s.body))

    def power(k, g, s):
        if k > 1:
            return frame_delta(power(k - 1, g, s)) - power(k - 1, g, frame_delta(s))
        unit = TensorPoly.unit(s.spec, 2**s.level)
        lifted = tensor_concat(lift_to(g, s.level).body, s.body)
        return FrameElem(tensor_concat(unit, times(g, s).body) - lifted)

    def fold(a, factors):
        if not factors:
            return FrameElem.from_alg(a)
        s = delta_iter(factors[-1][1], factors[-1][0])
        for k, g in reversed(factors[:-1]):
            s = power(k, g, s)
        return times(a, s)

    return frame_sum(w.spec, w.order, (fold(a, factors) for a, factors in w.terms))


EMBED_ORACLE_SPECS = {name: case[0] for name, case in ORACLE_CASES.items()}
EMBED_ORACLE_SPECS["func-complex"] = AlgebraSpec.function(
    ("L", "R"), {"x": (Scalar.of(1, 2), 0), "y": (1, -3)}
)
# (spec, top order): every embedding oracle spec up to order 5, and the 3×3
# matrices up to order 2, the realize benchmark's top order on them
EMBED_ORACLE_CASES = {name: (spec, 5) for name, spec in EMBED_ORACLE_SPECS.items()}
EMBED_ORACLE_CASES["mat3-complex"] = (MAT3, 2)


@pytest.mark.parametrize("spec, top", EMBED_ORACLE_CASES.values(), ids=EMBED_ORACLE_CASES.keys())
def test_embed_matches_recursive_symbolic_embedding(spec, top, rng):
    """``embed`` equals the symbolic recursion and the frame fold, term order
    included, and its terms are canonical (re-normalizing them through
    ``TensorPoly.of`` changes nothing): every type of orders 1-3 (multi-term
    factors up to order 2), one order-4 type, an order-0 form, ⊙ products,
    order-2 types under the constants 3, -1/2 and i, and sums of two or three
    monomials of each order 0-5, the first with a drawn coefficient and the
    others with constant ones; orders stop at ``top``."""
    syms = [spec.symbol(s) for s in spec.symbols]
    constants = unit_multiples(spec)[1:]  # 3, -1/2 and i scale the folded image

    def monomial(comp, factor, coeff=None):
        coeff = random_elem(spec, rng) if coeff is None else coeff
        return LeibnizForm.monomial(coeff, [(k, factor()) for k in comp])

    types = enumerate_types(1) + enumerate_types(2)
    forms = [monomial(c, lambda: random_elem(spec, rng)) for c in types]
    types = enumerate_types(3) + [(1, 3)]
    forms += [monomial(c, lambda: rng.choice(syms)) for c in types]
    a = LeibnizForm.from_alg(random_elem(spec, rng))
    forms += [a, odot(forms[0], a), odot(forms[0], forms[1]), odot(forms[2], forms[0])]
    forms += [monomial(c, lambda: random_elem(spec, rng), b) for b in constants for c in enumerate_types(2)]
    for n in range(6):
        factor = (lambda: random_elem(spec, rng)) if n < 3 else (lambda: rng.choice(syms))
        comps = [rng.choice(enumerate_types(n)) if n else () for _ in range(rng.randint(2, 3))]
        # the first coefficient is drawn, the others constant: the monomials' denominators differ
        coeffs = [None] + [rng.choice(constants) for _ in comps[1:]]
        forms.append(sum((monomial(c, factor, b) for c, b in zip(comps, coeffs)), LeibnizForm(spec, n, ())))
    for w in (w for w in forms if w.order <= top):
        body = embed(w).body
        assert body.terms == recursive_embed(w).body.terms == frame_fold_embed(w).body.terms
        raw = [(c, [spec.basis_elem(label) for label in labels]) for c, labels in dense_terms(body)]
        assert body.terms == TensorPoly.of(spec, body.degree, raw).terms


def test_embed_matches_the_frame_fold_on_every_type():
    """Every type of orders 1-6 over distinct symbols, each factor used once."""
    spec = AlgebraSpec.free(tuple(f"s{i}" for i in range(6)))
    syms = [spec.symbol(s) for s in spec.symbols]
    for n in range(1, 7):
        for comp in enumerate_types(n):
            w = LeibnizForm.monomial(spec.unit(), [(k, syms[j]) for j, k in enumerate(comp)])
            assert embed(w).body.terms == frame_fold_embed(w).body.terms


def test_embed_multiplies_no_whole_tensors(monkeypatch):
    """The embedding folds with level differentials on occupied-slot keys:
    its label products go through its own memo, and no slotwise or glued
    tensor product, frame product or re-expansion by ``TensorPoly.of`` runs."""

    w = module_mul(H, odot(d(form_of(F.add(G)), 2), d(form_of(G.mul(H)))))
    want = frame_fold_embed(w)

    def forbidden(*args, **kwargs):
        raise AssertionError("embed multiplied whole tensors")

    for module in ("ncdiff.frame", "ncdiff.leibniz", "ncdiff.tensor"):
        for name in ("componentwise_product", "t_algebra_product", "mult_map"):
            monkeypatch.setattr(f"{module}.{name}", forbidden, raising=False)
    monkeypatch.setattr(FrameElem, "mul", forbidden)
    monkeypatch.setattr(TensorPoly, "of", staticmethod(forbidden))
    assert embed(w) == want


def assert_occupied_slot_keys(t):
    unit = t.spec.unit_label()
    for _, key in t.terms:
        slots = [slot for slot, _ in key]
        assert slots == sorted(set(slots)) and all(0 <= slot < t.degree for slot in slots)
        assert all(label != unit for _, label in key)


@pytest.mark.parametrize("spec", EMBED_ORACLE_SPECS.values(), ids=EMBED_ORACLE_SPECS.keys())
def test_keys_name_the_occupied_slots_alone(spec, rng):
    """Every key is sorted by slot, holds no unit label and names slots below
    the degree; the unit of every degree is the one empty key; and each term
    of the image of an r-factor monomial occupies at most r + 1 slots."""
    for degree in range(1, 9):
        assert TensorPoly.unit(spec, degree).terms == ((ONE, ()),)
    syms = [spec.symbol(s) for s in spec.symbols]
    for n in range(1, 5):
        for comp in enumerate_types(n):
            w = LeibnizForm.monomial(random_elem(spec, rng), [(k, rng.choice(syms)) for k in comp])
            frame = embed(w)
            assert all(len(key) <= len(comp) + 1 for _, key in frame.body.terms)
            a = lift_to(random_elem(spec, rng), n)
            for t in (frame, frame_delta(frame), frame.mul(a), a.mul(frame)):
                assert_occupied_slot_keys(t.body)
            assert_occupied_slot_keys(t_algebra_product(frame.body, a.body, 2 ** (n - 1)))


def oracle_json(u: TensorPoly) -> dict:
    """A tensor's document built anew for every slot of every term."""
    terms = [
        {"coeff": c.to_json(), "factors": [u.spec.basis_elem(label).to_json() for label in labels]}
        for c, labels in dense_terms(u)
    ]
    return {"degree": u.degree, "terms": terms}


JSON_ORACLE_SPECS = {**EMBED_ORACLE_SPECS, "free-unicode": AlgebraSpec.free(("φ", "g"))}


@pytest.mark.parametrize("spec", JSON_ORACLE_SPECS.values(), ids=JSON_ORACLE_SPECS.keys())
def test_tensor_json_text_matches_a_slot_by_slot_oracle(spec, rng):
    """``json_text`` encodes each distinct label and coefficient once; the
    text and ``to_json`` equal the document built slot by slot."""
    syms = [spec.symbol(s) for s in spec.symbols]
    half, complex_ = Scalar.of(Fraction(1, 2)), Scalar.of(Fraction(-2, 3), 1)
    tensors = [
        TensorPoly.zero(spec, 2),
        TensorPoly.unit(spec, 4),
        TensorPoly.elementary(syms[:2], complex_),
    ]
    for k, c in [(1, half), (2, complex_), (3, Scalar.of(-4))]:
        factors = [(k, rng.choice(syms)), (1, random_elem(spec, rng))]
        tensors.append(embed(LeibnizForm.monomial(random_elem(spec, rng).scale(c), factors)).body)
    coeffs = [c for u in tensors for c, _ in u.terms]
    assert any(c.im for c in coeffs) and any(type(c.re) is Fraction for c in coeffs)
    for u in tensors:
        want = oracle_json(u)
        assert u.json_text() == json.dumps(want, sort_keys=True, separators=(",", ":"))
        assert u.to_json() == want


# Gaussian-rational values with several denominators, so the cores' denominators are not 1
CORE_SPECS = {
    "free": ORACLE_CASES["free"][0],
    "comm": ORACLE_CASES["comm"][0],
    "func-fraction": AlgebraSpec.function(("L", "M", "R"), {"x": (Fraction(1, 2), -3, Fraction(2, 3)), "y": (2, Fraction(5, 3), 0)}),
    "func-complex": AlgebraSpec.function(("L", "R"), {"x": (Scalar.of(Fraction(1, 2), 2), 0), "y": (1, Scalar.of(0, Fraction(-1, 3)))}),
    "mat2": AlgebraSpec.matrix(2, {"f": [[Fraction(3, 2), Scalar.of(0, 1)], [2, 7]], "g": [[0, 1], [1, Fraction(-1, 3)]]}),
    "mat3": MAT3,
}


@pytest.mark.parametrize("spec", CORE_SPECS.values(), ids=CORE_SPECS.keys())
def test_integer_embed_is_embed_times_its_denominator(spec, rng):
    """``_integer_image(w)`` is a list of terms over Gaussian integers and
    its denominator, which divided out and sorted by key is ``embed(w).body``
    term for term: random forms of orders 0-3 with drawn, unit and constant
    coefficients, their sums and zero forms.  On dense specs the realization
    cores fed by it, divided out, are ``tensor_eval_all`` and
    ``tensor_to_matrix`` of ``embed(w).body``."""
    forms = []
    for order in range(4):
        monomials = []
        for coeff in [random_elem(spec, rng), *unit_multiples(spec)]:
            comp = rng.choice(enumerate_types(order)) if order else ()
            monomials.append(LeibnizForm.monomial(coeff, [(k, random_elem(spec, rng)) for k in comp]))
        total = monomials[0].add(*monomials[1:])
        forms += [*monomials, total, total - total]
    assert any(w.is_zero() for w in forms) and not all(w.is_zero() for w in forms)
    divided = lambda d, re, im: [Scalar.of(Fraction(r, d), Fraction(i, d)) for r, i in zip(re, im or [0] * len(re))]
    dens = []
    for w in forms:
        body, (ints, den) = embed(w).body, _integer_image(w)
        dens.append(den)
        assert den >= 1
        assert all(type(c) is int or type(c.re) is type(c.im) is int for c, _ in ints)
        exact = [((Scalar(c) if type(c) is int else c) / Scalar(den), key) for c, key in ints]
        assert sorted(exact, key=itemgetter(1)) == list(body.terms)
        if spec.backend == "function" and len(spec.points) ** body.degree <= 4096:
            assert divided(*_eval_table(spec, body.degree, ints, den)) == tensor_eval_all(body)
        if spec.backend == "matrix" and spec.dim**body.degree <= 16:
            size = spec.dim**body.degree
            cells = divided(*_matrix_table(spec, body.degree, ints, den))
            assert [cells[i : i + size] for i in range(0, size * size, size)] == tensor_to_matrix(body)
    assert max(dens) > 1


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
    a = x.scale(Scalar.of(3)).add(y.scale(Scalar.of(-2)))
    b = x.add(y.scale(Scalar.of(-2)))
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


def face(u: TensorPoly, s: int) -> TensorPoly:
    """Face s of a tensor of degree 2^n, s < n: slot j, for each j whose bit
    s is 0, times slot j + 2^s, through ``_glue``.  The kept slots close up:
    slot j lands on j with bit s deleted, as does its partner."""
    low = (1 << s) - 1
    closed = lambda j: (j >> (s + 1)) << s | (j & low)
    halves = lambda key, bit: [(closed(j), label) for j, label in key if (j >> s & 1) == bit]
    return _glue(u.spec, u.degree // 2, ((c, halves(key, 0), halves(key, 1)) for c, key in u.terms))


@pytest.mark.parametrize("spec", ["free_spec", "comm_spec", "three_point", "mat_spec"])
def test_every_face_kills_an_embedded_form(request, spec):
    """Every face of level n sends the image of a form of order n to zero:
    three random forms per order 1-4.  Face n - 1 is ``mult_map``.  As a
    control, some face leaves some random frame element of levels 1-3
    nonzero, so the faces can fail."""
    spec, rng = request.getfixturevalue(spec), random.Random(5)
    for order in range(1, 5):
        for _ in range(3):
            body = embed(random_leibniz_form(spec, order, rng)).body
            assert not body.is_zero()
            assert face(body, order - 1) == mult_map(body)
            assert all(face(body, s).is_zero() for s in range(order))
    controls = [random_frame_elem(spec, level, rng).body for level in (1, 2, 3) for _ in range(4)]
    assert any(not face(u, s).is_zero() for u in controls for s in range(u.degree.bit_length() - 1))


def basis_labels(spec: AlgebraSpec) -> list:
    """The dense spec's basis labels: the unit, then the one-hot pattern of
    every cell but the last (``_DenseElem.basis_decomposition``'s family)."""
    unit = spec.unit_label()
    labels = [unit] + [tuple(int(i == p) for i in range(len(unit))) for p in range(len(unit) - 1)]
    assert all(spec.basis_elem(label).basis_decomposition() == ((ONE, label),) for label in labels)
    return labels


RANK_CASES = [
    ("2-point function", AlgebraSpec.function(("L", "R"), {"x": (1, 0)}), {1: 2, 2: 4, 3: 8}),
    ("3-point function", CORE_SPECS["func-fraction"], {1: 6, 2: 18}),
    ("2x2 matrix", CORE_SPECS["mat2"], {1: 12, 2: 48}),
]


@pytest.mark.parametrize("spec, ranks", [case[1:] for case in RANK_CASES], ids=[case[0] for case in RANK_CASES])
def test_basis_monomials_embed_with_full_rank(spec, ranks):
    """The monomials e·d^{k1}(b1) ⊙ ... ⊙ d^{kr}(br), e a basis label and
    each b_i a label other than the unit, over every composition of n, have
    independent images, as many as there are monomials: the pinned exact
    ranks of ROADMAP item 2's table."""
    labels = basis_labels(spec)
    elem = spec.basis_elem
    for order, want in ranks.items():
        vectors = [
            flatten(embed(LeibnizForm.monomial(elem(e), [(k, elem(b)) for k, b in zip(comp, bs)])).body)
            for comp in enumerate_types(order)
            for e in labels
            for bs in itertools.product(labels[1:], repeat=len(comp))
        ]
        assert len(vectors) == want and rank(vectors) == want
