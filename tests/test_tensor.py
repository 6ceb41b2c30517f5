import functools
import gc
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncdiff.algebra import AlgebraMismatchError, AlgebraSpec, func_as_diagonal
from ncdiff.frame import FrameElem, frame_delta, frame_sum, lam, rho, slot_embed
from ncdiff.leibniz import LeibnizForm, embed, enumerate_types, odot
from ncdiff.parser import lower, parse
from ncdiff.scalars import MINUS_ONE, ONE, ZERO, Scalar
from ncdiff.tensor import (
    OmegaMonomial,
    TensorPoly,
    _matrix_table,
    componentwise_product,
    mult_map,
    omega_product,
    omega_to_tensor,
    t_algebra_product,
    tensor_collect,
    tensor_concat,
    tensor_d,
    tensor_eval,
    tensor_eval_all,
    tensor_sum,
    tensor_to_matrix,
    universal_d,
)
from ncdiff.verify import random_elem, random_omega_monomial

from exactlinalg import coboundary, dense_labels, dense_terms, kron
from reference_builders import expand as reference_expand

SPEC = AlgebraSpec.free(("f", "g", "h", "k"))
F, G, H, K = (SPEC.symbol(s) for s in "fghk")
U = SPEC.unit()


def omega(*elems):
    """The universal-form monomial e0 d e1 ... d eq over the base algebra."""
    return OmegaMonomial(tuple(TensorPoly.wrap(e) for e in elems))


def value_at(f, point):
    """A function-backend element's value at a named point."""
    return f.values[f.spec.point_index(point)]


def elem_t(*factors, coeff=ONE):
    return TensorPoly.elementary(factors, coeff)


def d0(a):
    return elem_t(U, a) - elem_t(a, U)


def test_concat_examples():
    assert tensor_concat(TensorPoly.wrap(F), TensorPoly.unit(SPEC, 2)) == elem_t(F, U, U)
    two = tensor_concat(elem_t(F, G, coeff=Scalar.of(2)), elem_t(H, coeff=Scalar.of(3)))
    assert two == elem_t(F, G, H, coeff=Scalar.of(6))
    summed = TensorPoly.wrap(F) + TensorPoly.wrap(G)
    assert tensor_concat(summed, TensorPoly.wrap(H)) == elem_t(F, H) + elem_t(G, H)


def test_componentwise_product_examples():
    lhs = componentwise_product(elem_t(F, U), elem_t(U, H) - elem_t(H, U))
    assert lhs == elem_t(F, H) - elem_t(F.mul(H), U)
    u = elem_t(F, G) + elem_t(H, U, coeff=Scalar.of(-2))
    assert componentwise_product(TensorPoly.unit(SPEC, 2), u) == u


def test_componentwise_product_is_associative_and_unital(rng):
    def rand():
        pick = lambda: rng.choice((F, G, H, U))
        t = TensorPoly.of(
            SPEC, 2, [(Scalar.of(rng.randint(-2, 2)), (pick(), pick())) for _ in range(2)]
        )
        return t if not t.is_zero() else elem_t(F, G)

    one = TensorPoly.unit(SPEC, 2)
    for _ in range(15):
        a, b, c = rand(), rand(), rand()
        assert componentwise_product(componentwise_product(a, b), c) == componentwise_product(
            a, componentwise_product(b, c)
        )
        assert componentwise_product(one, a) == a
        assert componentwise_product(a, one) == a


def test_componentwise_two_point_kills_orthogonal_coordinates():
    spec = AlgebraSpec.function(("L", "R"), {"x": (1, 0), "y": (0, 1)})
    x, y = spec.symbol("x"), spec.symbol("y")
    xx = TensorPoly.elementary((x, x))
    xy = TensorPoly.elementary((x, y))
    assert componentwise_product(xx, xy).is_zero()


def test_t_algebra_product_glues_the_boundary_slots():
    lhs = t_algebra_product(elem_t(F, G), elem_t(H, K))
    assert lhs == elem_t(F, G.mul(H), K)
    assert t_algebra_product(TensorPoly.wrap(F), TensorPoly.wrap(G)) == TensorPoly.wrap(F.mul(G))


def test_t_algebra_product_is_associative(rng):
    def rand_deg2():
        terms = []
        for _ in range(rng.randint(1, 2)):
            pick = lambda: rng.choice((F, G, H, U))
            terms.append((Scalar.of(rng.randint(-2, 2)), (pick(), pick())))
        t = TensorPoly.of(SPEC, 2, terms)
        return t if not t.is_zero() else elem_t(F, G)

    for _ in range(15):
        a, b, c = rand_deg2(), rand_deg2(), rand_deg2()
        assert t_algebra_product(t_algebra_product(a, b), c) == t_algebra_product(
            a, t_algebra_product(b, c)
        )


def test_mult_map():
    assert mult_map(d0(F)).is_zero()
    assert mult_map(tensor_concat(elem_t(F, U), elem_t(U, G))) == elem_t(F, G)
    with pytest.raises(ValueError, match="degree 3 is odd"):
        mult_map(elem_t(F, G, H))


def test_mult_map_kills_level_differentials(rng):
    from ncdiff.frame import frame_delta
    from ncdiff.verify import random_frame_elem

    for level in (0, 1):
        for _ in range(10):
            omega = frame_delta(random_frame_elem(SPEC, level, rng))
            assert mult_map(omega.body).is_zero()


def assert_d_is_the_coboundary(m):
    """omega_to_tensor(d m) is b(omega_to_tensor(m)) for the test-side coboundary b, and b∘b = 0 there."""
    t = omega_to_tensor(m)
    assert omega_to_tensor(universal_d(m)) == coboundary(t, m.width)
    assert coboundary(coboundary(t, m.width), m.width).is_zero()


def test_universal_d_and_nilpotency():
    m = omega(F)
    dm = universal_d(m)
    assert dm.chain[0] == TensorPoly.unit(SPEC, 1)
    assert dm.chain[1] == TensorPoly.wrap(F)
    assert_d_is_the_coboundary(m)
    dfg = universal_d(omega(F, G))
    assert dfg.degree == 2
    assert_d_is_the_coboundary(omega(F, G, H))


def test_label_tables_wrap_no_function(monkeypatch):
    """Label-product tables are dict memos, not per-call cache wrappers:
    embedding each order-5 type over fresh free symbols, and slotwise
    products that multiply labels, make no ``functools.update_wrapper`` call."""
    wrapped, update_wrapper = [], functools.update_wrapper
    monkeypatch.setattr(functools, "update_wrapper", lambda *a, **k: wrapped.append(a) or update_wrapper(*a, **k))
    for i, comp in enumerate(enumerate_types(5)):
        spec = AlgebraSpec.free(tuple(f"s{i}x{j}" for j in range(len(comp))))
        factors = tuple((k, spec.symbol(name)) for k, name in zip(comp, spec.symbols))
        assert not embed(LeibnizForm.monomial(spec.unit(), factors)).body.is_zero()
    assert wrapped == []
    mat = AlgebraSpec.matrix(2, {"f": [[3, 1], [2, 7]], "g": [[0, 1], [1, 0]]})
    for spec in (SPEC, mat):
        f, g = (spec.symbol(s) for s in "fg")
        pairs = [(f, g), (g, spec.unit())]
        u = tensor_sum(spec, 2, [TensorPoly.elementary(pair) for pair in pairs])
        want = [TensorPoly.elementary((a.mul(c), b.mul(e))) for a, b in pairs for c, e in pairs]
        assert componentwise_product(u, u) == tensor_sum(spec, 2, want)
    assert wrapped == []


def test_omega_to_tensor_examples():
    assert omega_to_tensor(omega(F, G)) == elem_t(F, G) - elem_t(F.mul(G), U)
    assert omega_to_tensor(universal_d(omega(G))) == d0(G)


def test_omega_monomial_reads_spec_and_width_from_its_first_letter():
    m = OmegaMonomial((elem_t(F, G), elem_t(U, H)))
    assert (m.spec, m.width, m.degree) == (SPEC, 2, 1)
    with pytest.raises(ValueError, match="degree mismatch: 2 vs 1"):
        OmegaMonomial((elem_t(F, G), TensorPoly.wrap(H)))
    other = AlgebraSpec.free(("f", "g", "h", "k"), commutative=True)
    with pytest.raises(AlgebraMismatchError):
        OmegaMonomial((TensorPoly.wrap(F), TensorPoly.wrap(other.symbol("g"))))


def test_omega_product_examples():
    # degree 0 on the left acts through the head coefficient
    (m,) = omega_product(omega(F), omega(G, H))
    assert m.chain[0] == TensorPoly.wrap(F.mul(G))
    # (f dg) * h = f d(gh) - fg dh
    out = omega_product(omega(F, G), omega(H))
    expanded = tensor_sum(SPEC, 2, (omega_to_tensor(m) for m in out))
    want = omega_to_tensor(omega(F, G.mul(H))) - omega_to_tensor(
        omega(F.mul(G), H)
    )
    assert expanded == want
    # dg * dh = dg dh
    out = omega_product(
        universal_d(omega(G)), universal_d(omega(H))
    )
    assert len(out) == 1
    assert out[0].chain == (TensorPoly.unit(SPEC, 1), TensorPoly.wrap(G), TensorPoly.wrap(H))


# frame level of the letters -> degrees (q, r) of the factors; the total
# falls with the width, as one dense letter of width 4 can have hundreds of terms
OMEGA_DEGREES = {0: [(0, 3), (1, 2), (2, 1), (3, 0)], 1: [(0, 2), (1, 1), (2, 0)], 2: [(1, 0), (0, 1)]}


def test_omega_product_matches_glued_tensor_product(rng):
    """The closed product expands to the glued product of the expansions,
    over width-1 letters with unit parts and over random frame letters of
    widths 1, 2 and 4 on every backend."""

    def rand_monomial(degree):
        letters = [rng.choice((F, G, H, K)) for _ in range(degree + 1)]
        if rng.random() < 0.4:
            letters[0] = letters[0].add(U.scale(Scalar.of(rng.randint(1, 2))))
        return omega(*letters)

    def check(u, v):
        degree = (u.degree + v.degree + 1) * u.width
        got = tensor_sum(u.spec, degree, (omega_to_tensor(m) for m in omega_product(u, v)))
        assert got == t_algebra_product(omega_to_tensor(u), omega_to_tensor(v), block=u.width)

    for _ in range(20):
        check(rand_monomial(rng.randint(0, 2)), rand_monomial(rng.randint(0, 2)))
    for spec in ORACLE_SPECS.values():
        for level, degrees in OMEGA_DEGREES.items():
            for q, r in degrees:
                check(random_omega_monomial(spec, level, q, rng), random_omega_monomial(spec, level, r, rng))


def test_random_omega_monomials_are_never_trivially_zero(free_spec, comm_spec, three_point, mat_spec):
    """No letter is zero and no differentiated letter is a unit multiple, so a
    random check built on them never compares two zero tensors by construction."""
    rng = random.Random(5)
    for spec in (free_spec, comm_spec, three_point, mat_spec):
        for level in range(3):
            for degree in range(4):
                for _ in range(5):
                    assert not random_omega_monomial(spec, level, degree, rng).is_trivially_zero()


POINTS = AlgebraSpec.function(
    ("P", "Q", "S"),
    {
        "f": (Fraction(1, 2), Fraction(-2), Fraction(3)),
        "g": (Fraction(2), Fraction(1, 3), Fraction(-1)),
        "h": (Fraction(-3, 2), Fraction(5), Fraction(0)),
        "k": (Fraction(1), Fraction(4), Fraction(-1, 3)),
    },
)


def test_tensor_eval_one_form_closed_formula():
    f, g = POINTS.symbol("f"), POINTS.symbol("g")
    body = omega_to_tensor(omega(f, g))
    for x, y in itertools.product(POINTS.points, repeat=2):
        want = value_at(f, x) * (value_at(g, y) - value_at(g, x))
        assert tensor_eval(body, (x, y)) == want
        if x == y:
            assert tensor_eval(body, (x, y)).is_zero()


def test_tensor_eval_three_differentials_closed_formula():
    f, g, h, k = (POINTS.symbol(s) for s in "fghk")
    body = omega_to_tensor(omega(f, g, h, k))
    for x, y, z, t in itertools.product(POINTS.points, repeat=4):
        want = (
            value_at(f, x)
            * (value_at(g, y) - value_at(g, x))
            * (value_at(h, z) - value_at(h, y))
            * (value_at(k, t) - value_at(k, z))
        )
        assert tensor_eval(body, (x, y, z, t)) == want


def test_tensor_eval_errors():
    f, g = POINTS.symbol("f"), POINTS.symbol("g")
    body = omega_to_tensor(omega(f, g))
    with pytest.raises(ValueError):
        tensor_eval(body, ("P",))
    with pytest.raises(AlgebraMismatchError):
        tensor_eval(elem_t(F, G), ("P", "Q"))
    with pytest.raises(KeyError):
        tensor_eval(body, ("P", "nope"))


TWO_COMPLEX = AlgebraSpec.function(
    ("L", "R"), {"x": (Scalar.of(1, 2), 3), "y": (Fraction(1, 2), Fraction(-1, 3))}
)


@pytest.mark.parametrize("spec, max_order", [(TWO_COMPLEX, 3), (POINTS, 2)], ids=["2pt", "3pt"])
def test_tensor_eval_all_matches_per_tuple_eval(spec, max_order):
    """The one-pass table lists tensor_eval at every tuple, in
    itertools.product order, for embedded forms of orders 0 to max_order."""
    a, b = (spec.symbol(s) for s in spec.symbols[:2])
    c = a.scale(Scalar.of(-3, 1)).add(b.scale(Scalar.of(Fraction(2, 5))))
    one_form = LeibnizForm.monomial(c, [(1, a)]).scale(Scalar.of(Fraction(-7, 2)))
    forms = [
        LeibnizForm.from_alg(c),
        one_form,
        LeibnizForm.monomial(b, [(2, c)]),
        odot(one_form, LeibnizForm.monomial(a.scale(Scalar.of(5)), [(1, b)])),
        LeibnizForm.monomial(a, [(3, b)]),
        odot(one_form, odot(LeibnizForm.from_alg(b), LeibnizForm.monomial(c, [(2, a)]))),
    ]
    tensors = [embed(w).body for w in forms if w.order <= max_order]
    tensors += [TensorPoly.zero(spec, 2)]
    for u in tensors:
        want = [tensor_eval(u, t) for t in itertools.product(spec.points, repeat=u.degree)]
        assert tensor_eval_all(u) == want


@pytest.mark.parametrize(
    "spec", [SPEC, AlgebraSpec.matrix(2, {"f": [[3, 1], [2, 7]]})], ids=["free", "matrix"]
)
def test_tensor_eval_all_needs_the_function_backend(spec):
    with pytest.raises(AlgebraMismatchError):
        tensor_eval_all(TensorPoly.unit(spec, 2))


def test_tensor_json_shape():
    doc = (elem_t(F, U) - elem_t(U, F)).to_json()
    assert doc["degree"] == 2
    assert {frozenset(t) for t in map(tuple, (term.keys() for term in doc["terms"]))} == {
        frozenset(("coeff", "factors"))
    }
    coeffs = {tuple(map(tuple, t["coeff"])) for t in doc["terms"]}
    assert coeffs == {((1, 1), (0, 1)), ((-1, 1), (0, 1))}


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_to_json_parses_with_the_collector_paused(monkeypatch, enabled):
    """``to_json`` is the parsed ``json_text``, parsed with the cyclic
    collector paused; the collector's state before the call is restored
    after it, also when the parse raises."""
    u = embed(odot(LeibnizForm.monomial(F, [(2, G)]), LeibnizForm.monomial(U, [(1, H)]))).body
    loads, paused = json.loads, []

    def parse(text):
        paused.append(not gc.isenabled())
        return loads(text)

    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        monkeypatch.setattr(json, "loads", parse)
        doc = u.to_json()
        assert gc.isenabled() == enabled and paused == [True]
        monkeypatch.setattr(json, "loads", lambda text: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            u.to_json()
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert doc == loads(u.json_text()) and len(doc["terms"]) == len(u.terms) > 10


def test_normalization_merges_and_drops():
    t = TensorPoly.of(
        SPEC,
        2,
        [
            (ONE, (F.scale(Scalar.of(2)), G)),
            (Scalar.of(-2), (F, G)),
            (Scalar.of(5), (F, SPEC.zero())),
        ],
    )
    assert t.is_zero()


ORACLE_SPECS = {
    "free": SPEC,
    "comm": AlgebraSpec.free(("f", "g", "h"), commutative=True),
    "func": POINTS,
    "mat": AlgebraSpec.matrix(2, {"f": [[3, 1], [2, 7]], "g": [[0, 1], [1, 0]]}),
}


def random_canonical(spec, degree, rng):
    """A canonical tensor whose terms share factors often enough to merge."""
    pool = [spec.unit(), spec.symbol(spec.symbols[0]), random_elem(spec, rng)]
    terms = []
    for _ in range(rng.randint(0, 3)):
        coeff = Scalar.of(Fraction(rng.randint(-3, 3), rng.choice((1, 2))), rng.choice((0, 0, 1)))
        terms.append((coeff, tuple(rng.choice(pool) for _ in range(degree))))
    return TensorPoly.of(spec, degree, terms)


def materialize(spec, terms):
    """Terms over labels as terms over the basis elements they name."""
    return [(k, tuple(map(spec.basis_elem, labels))) for k, labels in terms]


def assert_normalizes_to(got, spec, degree, raw_terms):
    want = TensorPoly.of(spec, degree, materialize(spec, raw_terms))
    assert got == want
    assert got.terms == want.terms


@pytest.mark.parametrize("spec", ORACLE_SPECS.values(), ids=ORACLE_SPECS.keys())
def test_canonical_operations_match_full_normalization(spec, rng):
    """Operations that skip re-expansion equal TensorPoly.of on the raw
    term list, term order included."""
    for _ in range(20):
        d = rng.randint(1, 2)
        u, v, w = (random_canonical(spec, d, rng) for _ in range(3))
        c = Scalar.of(rng.randint(-3, 3), rng.randint(-1, 1))
        du, dv, dw = dense_terms(u), dense_terms(v), dense_terms(w)
        assert_normalizes_to(u + v, spec, d, du + dv)
        negated_v = [(MINUS_ONE * k, f) for k, f in dv]
        assert_normalizes_to(u - v, spec, d, du + negated_v)
        assert_normalizes_to(u.scale(c), spec, d, [(c * k, f) for k, f in du])
        assert_normalizes_to(u.scale(0), spec, d, [(ZERO * k, f) for k, f in du])
        assert_normalizes_to(-u, spec, d, [(MINUS_ONE * k, f) for k, f in du])
        concat = [(ku * kv, fu + fv) for ku, fu in du for kv, fv in dv]
        assert_normalizes_to(tensor_concat(u, v), spec, 2 * d, concat)
        assert_normalizes_to(tensor_sum(spec, d, (u, v, w)), spec, d, du + dv + dw)
        assert (u + (-u)).is_zero()
    for level in (0, 1, 2):
        width = 2**level
        a, b = (FrameElem(random_canonical(spec, width, rng)) for _ in range(2))
        pad = (spec.unit_label(),) * width
        right = [(k, f + pad) for k, f in dense_terms(a.body)]
        left = [(k, pad + f) for k, f in dense_terms(a.body)]
        assert_normalizes_to(rho(a).body, spec, 2 * width, right)
        assert_normalizes_to(lam(a).body, spec, 2 * width, left)
        negated_right = [(MINUS_ONE * k, f) for k, f in right]
        assert_normalizes_to(frame_delta(a).body, spec, 2 * width, left + negated_right)
        summed = dense_terms(a.body) + dense_terms(b.body)
        assert_normalizes_to(frame_sum(spec, level, (a, b)).body, spec, width, summed)


@pytest.mark.parametrize("spec", ORACLE_SPECS.values(), ids=ORACLE_SPECS.keys())
def test_print_order_is_the_order_of_dense_label_tuples(spec, rng):
    """Output lists terms as their tuples of one label per slot sort, unit
    slots included, for labels below the unit (dense specs) and above it
    (free specs), keys that end early, and slots met in any order."""
    syms = [spec.symbol(s) for s in spec.symbols]
    tensors = [random_canonical(spec, rng.randint(1, 4), rng) for _ in range(20)]
    for n in (1, 2, 3):
        for comp in enumerate_types(n):
            factors = [(k, random_elem(spec, rng) if k == 1 else rng.choice(syms)) for k in comp]
            tensors.append(embed(LeibnizForm.monomial(random_elem(spec, rng), factors)).body)
    assert max(len(u.terms) for u in tensors) > 8
    for u in tensors:
        assert [(c, dense_labels(u, key)) for c, key in u.print_order()] == dense_terms(u)


DIFFERENTIAL_SPECS = {
    **ORACLE_SPECS,
    "func-complex": AlgebraSpec.function(("L", "R"), {"x": (Scalar.of(1, 2), 0), "y": (1, -3)}),
}


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS.values(), ids=DIFFERENTIAL_SPECS.keys())
def test_tensor_d_is_the_two_concatenations(spec, rng):
    """tensor_d(u) is 1⊗u - u⊗1 merged through tensor_sum, term order
    included, on tensors that hold a unit-key term."""
    with_unit = 0
    for d in range(1, 9):
        unit = TensorPoly.unit(spec, d)
        for _ in range(3):
            u = random_canonical(spec, d, rng) + unit.scale(Scalar.of(rng.choice((1, -1, 2)), rng.randint(0, 1)))
            want = tensor_sum(spec, 2 * d, (tensor_concat(unit, u), -tensor_concat(u, unit)))
            assert tensor_d(u) == want
            with_unit += any(not key for _, key in u.terms)
    assert with_unit >= 20


@pytest.mark.parametrize("spec", ORACLE_SPECS.values(), ids=ORACLE_SPECS.keys())
def test_omega_to_tensor_is_the_two_concatenation_formula(spec, rng):
    def two_concatenations(m):
        unit = TensorPoly.unit(m.spec, m.width)
        acc = m.chain[0]
        for letter in m.chain[1:]:
            d_letter = tensor_concat(unit, letter) - tensor_concat(letter, unit)
            acc = t_algebra_product(acc, d_letter, block=m.width)
        return acc

    for level in (0, 1, 2):
        for degree in (0, 1, 2):
            m = random_omega_monomial(spec, level, degree, rng)
            assert omega_to_tensor(m) == two_concatenations(m)


def slotwise(u, v, glue):
    """Terms of u and v paired up, with glue(fu, fv) building the slots."""
    pairs = itertools.product(materialize(u.spec, dense_terms(u)), materialize(v.spec, dense_terms(v)))
    return [(ku * kv, glue(fu, fv)) for (ku, fu), (kv, fv) in pairs]


def times(fa, fb):
    return tuple(a.mul(b) for a, b in zip(fa, fb))


def dense_kron(t):
    """The Kronecker-chain realization over materialized basis elements."""
    spec = t.spec
    as_matrix = func_as_diagonal if spec.backend == "function" else (lambda m: m)
    mats = lambda label: [list(r) for r in as_matrix(spec.basis_elem(label)).rows]
    size = (spec.dim or len(spec.points)) ** t.degree
    out = [[ZERO] * size for _ in range(size)]
    for c, labels in dense_terms(t):
        acc = mats(labels[0])
        for label in labels[1:]:
            acc = kron(mats(label), acc)
        out = [[o + c * a for o, a in zip(ro, ra)] for ro, ra in zip(out, acc)]
    return out


@pytest.mark.parametrize("spec", ORACLE_SPECS.values(), ids=ORACLE_SPECS.keys())
def test_label_products_and_realization_match_materialized_elements(spec, rng):
    """Products over labels equal TensorPoly.of on the slotwise products of
    the basis elements, term order included; realization equals the dense
    Kronecker route and the pointwise product of values."""
    samples = [[random_canonical(spec, d, rng) for _ in range(2)] for d in (1, 2, 2)]
    if spec.backend == "matrix":
        # E10 E01 = E11 leaves the basis; it expands as the identity minus E00
        e10, e01 = (TensorPoly(spec, 1, ((ONE, ((0, cell),)),)) for cell in ((0, 0, 1, 0), (0, 1, 0, 0)))
        product = componentwise_product(e10, e01)
        assert dense_terms(product) == [(MINUS_ONE, ((1, 0, 0, 0),)), (ONE, ((1, 0, 0, 1),))]
        samples.append([e10, e01])
    for u, v in samples:
        d = u.degree
        want = TensorPoly.of(spec, d, slotwise(u, v, times))
        assert componentwise_product(u, v).terms == want.terms
        for block in (1, 2) if d % 2 == 0 else (1,):
            glue = lambda fu, fv: fu[:-block] + times(fu[-block:], fv[:block]) + fv[block:]
            want = TensorPoly.of(spec, 2 * d - block, slotwise(u, v, glue))
            assert t_algebra_product(u, v, block).terms == want.terms
        w = tensor_concat(u, v)
        halves = [(k, times(f[:d], f[d:])) for k, f in materialize(spec, dense_terms(w))]
        assert mult_map(w).terms == TensorPoly.of(spec, d, halves).terms
    unit = spec.unit_label()
    assert spec.basis_elem(unit) == spec.unit()
    if spec.backend == "free":
        with pytest.raises(AlgebraMismatchError):
            tensor_to_matrix(samples[0][0])
        with pytest.raises(AlgebraMismatchError):
            spec.support(unit)
        return
    # the whole spanning family: the unit and every one-hot pattern
    one_hots = [tuple(int(q == p) for q in range(len(unit))) for p in range(len(unit))]
    as_matrix = func_as_diagonal if spec.backend == "function" else (lambda m: m)
    for label in [unit] + one_hots:
        rows = as_matrix(spec.basis_elem(label)).rows
        cells = [(i, j) for i, row in enumerate(rows) for j, e in enumerate(row) if not e.is_zero()]
        assert spec.support(label) == cells
    for u in [random_canonical(spec, d, rng) for d in (1, 2, 3, 3)]:
        assert tensor_to_matrix(u) == dense_kron(u)
        if spec.backend == "function":
            for pts in itertools.product(spec.points, repeat=u.degree):
                idx = [spec.point_index(p) for p in pts]
                want = ZERO
                for k, factors in materialize(spec, dense_terms(u)):
                    for f, i in zip(factors, idx):
                        k = k * f.values[i]
                    want = want + k
                assert tensor_eval(u, pts) == want


def test_scale_by_one_or_minus_one_keeps_or_negates(rng):
    """Scaling by 1 keeps the tensor, by -1 negates it, and by 2 doubles it."""
    u = TensorPoly.zero(TWO_COMPLEX, 2)
    while len(u.terms) < 3:
        u = random_canonical(TWO_COMPLEX, 2, rng) + random_canonical(TWO_COMPLEX, 2, rng)
    for one in (1, ONE, Scalar.of(Fraction(3, 3))):
        assert u.scale(one) == u
    for minus_one in (-1, MINUS_ONE, Scalar.of(-1, 0)):
        assert u.scale(minus_one) == u.neg()
    assert u.scale(2) == u + u


PRIMES = [p for p in range(2, 98) if all(p % q for q in range(2, p))]
# (backend, points or matrix dimension, highest order): the orders stop where
# the oracle's dense table would pass 256 rows or a 16 x 16 matrix
REALIZATION_KINDS = [("function", 2, 3), ("function", 3, 2), ("matrix", 2, 2), ("matrix", 3, 1)]


@st.composite
def realization_cases(draw):
    """A function or matrix spec whose values are Gaussian rationals with
    distinct prime denominators up to 97 (integers once the primes run out),
    and a list of embedded forms of orders 0 up to the kind's highest."""
    backend, size, top = draw(st.sampled_from(REALIZATION_KINDS))
    primes = iter(draw(st.permutations(PRIMES)))

    def part():
        num = draw(st.integers(-4, 4))
        return Fraction(num, next(primes, 1)) if num else 0

    def value():
        return Scalar.of(part(), part() if draw(st.booleans()) else 0)

    if backend == "function":
        points = ("P", "Q", "S")[:size]
        spec = AlgebraSpec.function(points, {s: tuple(value() for _ in points) for s in "xy"})
    else:
        rows = lambda: [[value() for _ in range(size)] for _ in range(size)]
        spec = AlgebraSpec.matrix(size, {"x": rows(), "y": rows()})
    x, y, unit = spec.symbol("x"), spec.symbol("y"), spec.unit()

    def elem():
        k = draw(st.lists(st.integers(-2, 2), min_size=3, max_size=3))
        return x.scale(Scalar.of(k[0])).add(y.scale(Scalar.of(k[1]))).add(unit.scale(Scalar.of(k[2])))

    def form(order):
        cuts = sorted(draw(st.sets(st.integers(1, order - 1)))) if order > 1 else []
        parts = [b - a for a, b in zip([0, *cuts], [*cuts, order])] if order else []
        return LeibnizForm.monomial(elem(), [(k, elem()) for k in parts])

    tensors = [embed(form(order)).body for order in range(top + 1)]
    u, v = (embed(form(draw(st.integers(0, top)))).body for _ in range(2))
    if u.degree == v.degree:
        tensors.append(u + v)
    return spec, tensors + [u - u]  # u - u cancels to the zero tensor


def assert_shared_cells(cells):
    """Every zero cell is the ZERO singleton, and equal cells are one object."""
    first = {}
    for c in cells:
        assert c is ZERO or not c.is_zero()
        assert first.setdefault(c, c) is c


@settings(max_examples=20, derandomize=True, deadline=None)
@given(case=realization_cases())
def test_integer_realization_matches_the_scalar_oracles(case):
    """tensor_eval_all and tensor_to_matrix, which sum over one common
    denominator, equal tensor_eval at every tuple and the dense Kronecker
    route, and share one object per distinct cell value."""
    spec, tensors = case
    for u in tensors:
        if spec.backend == "function":
            table = tensor_eval_all(u)
            assert table == [tensor_eval(u, t) for t in itertools.product(spec.points, repeat=u.degree)]
            assert_shared_cells(table)
        if spec.dim**u.degree <= 16:
            mat = tensor_to_matrix(u)
            assert mat == dense_kron(u)
            assert_shared_cells([c for row in mat for c in row])


def test_realization_kernels_add_and_multiply_no_scalars(monkeypatch):
    """The kernels sum integers over one common denominator: no Scalar is
    added or multiplied per cell, whatever the table's size."""
    spec = TWO_COMPLEX
    x, y = spec.symbol("x"), spec.symbol("y")
    u = embed(LeibnizForm.monomial(y, [(1, x), (2, y)])).body
    mat = AlgebraSpec.matrix(2, {"f": [[Fraction(1, 3), Scalar.of(0, Fraction(2, 5))], [1, Fraction(-3, 7)]]})
    v = embed(LeibnizForm.monomial(mat.symbol("f"), [(2, mat.symbol("f"))])).body
    want = tensor_eval_all(u), tensor_to_matrix(v)

    def refuse(*args):
        raise AssertionError("Scalar arithmetic in a realization kernel")

    for name in ("__add__", "__sub__", "__mul__", "__neg__"):
        monkeypatch.setattr(Scalar, name, refuse)
    assert (tensor_eval_all(u), tensor_to_matrix(v)) == want


def slotwise_matrix_table(u):
    """``_matrix_table(u, 1)`` by the slotwise rule: every term is expanded
    over the support of every slot's label, the unit's included."""
    spec, size = u.spec, u.spec.dim**u.degree
    d = math.lcm(*(Fraction(p).denominator for c, _ in u.terms for p in (c.re, c.im)))
    re, im = [0] * (size * size), [0] * (size * size)
    for c, key in u.terms:
        for cells in itertools.product(*map(spec.support, dense_labels(u, key))):
            i = sum((r * size + s) * spec.dim**k for k, (r, s) in enumerate(cells))
            re[i] += int(c.re * d)
            im[i] += int(c.im * d)
    return d, re, im if any(im) else None


MATRIX_TABLE_SPECS = {
    "3x3": AlgebraSpec.matrix(
        3,
        {
            "f": [[Fraction(1, 2), 0, Fraction(-2, 3)], [0, 3, 0], [1, 0, Fraction(5, 7)]],
            "g": [[0, 1, 0], [Fraction(1, 5), 0, -1], [0, 2, 0]],
        },
    ),
    "3x3-complex": AlgebraSpec.matrix(
        3,
        {
            "f": [[Scalar.of(1, Fraction(1, 2)), 0, 2], [Scalar.of(0, -1), 1, 0], [0, Fraction(3, 4), Scalar.of(-1, 1)]],
            "g": [[0, Scalar.of(0, Fraction(2, 3)), 1], [1, 0, 0], [Scalar.of(2, -1), 0, Fraction(1, 3)]],
        },
    ),
    "2x2-complex": AlgebraSpec.matrix(2, {"f": [[Scalar.of(1, 2), Fraction(1, 3)], [0, Scalar.of(0, -1)]], "g": [[0, 1], [1, Fraction(-1, 2)]]}),
}


@pytest.mark.parametrize("spec", MATRIX_TABLE_SPECS.values(), ids=MATRIX_TABLE_SPECS.keys())
def test_matrix_table_expands_unit_slots_once_per_pattern(spec):
    """The matrix kernel, which expands the unit's cells once per pattern of
    occupied slots, sums what the slotwise expansion of every term sums, over
    keys of every pattern: orders 0 to 2 over 3 x 3 matrices (up to 81 x 81)
    and to 3 over 2 x 2 (256 x 256)."""
    exprs = ["g*f + 1/2", "d(f) - g*d(g)", "g*d(f)@d(g) + d2(f)", "f*d(g)@d2(f) - d3(g)"]
    top = 2 if spec.dim == 3 else 3
    for expr in exprs[: top + 1]:
        (form,) = lower(parse(expr), spec).values()
        body = embed(form).body
        patterns = {tuple(slot for slot, _ in key) for _, key in body.terms}
        assert len(patterns) > 1 or form.order == 0
        assert _matrix_table(body, 1) == slotwise_matrix_table(body), expr
        if spec.dim**body.degree <= 9:
            size = spec.dim**body.degree
            d, re, im = _matrix_table(body, 1)
            cells = [Scalar.of(Fraction(r, d), Fraction(i, d)) for r, i in zip(re, im or [0] * len(re))]
            assert [cells[i : i + size] for i in range(0, size * size, size)] == dense_kron(body)


NORMAL_FORM_SPECS = {
    "function-real": POINTS,
    "function-complex": TWO_COMPLEX,
    "matrix-real": AlgebraSpec.matrix(2, {"f": [[Fraction(1, 2), 0], [Fraction(-2, 3), 3]], "g": [[0, 1], [Fraction(1, 5), -1]]}),
    "matrix-complex": MATRIX_TABLE_SPECS["2x2-complex"],
}


@pytest.mark.parametrize("spec", NORMAL_FORM_SPECS.values(), ids=NORMAL_FORM_SPECS.keys())
def test_realized_cells_keep_the_scalar_normal_form(spec):
    """tensor_eval_all and tensor_to_matrix give Scalars in normal form: every
    zero cell is the ZERO singleton, every integral part an ``int`` and every
    other a ``Fraction``; each value is tensor_eval at its tuple, or the cell
    of the Kronecker product of its terms' slot matrices."""
    a, b = spec.symbols[:2]
    seen = set()
    for expr in [f"{a}*{b} + 1/2", f"d({a}) - {b}*d({b})", f"{b}*d({a})@d({b}) + d2({a})"]:
        (form,) = lower(parse(expr), spec).values()
        body = embed(form).body
        if spec.backend == "function":
            cells = tensor_eval_all(body)
            assert cells == [tensor_eval(body, t) for t in itertools.product(spec.points, repeat=body.degree)]
        else:
            rows = tensor_to_matrix(body)
            assert rows == dense_kron(body)
            cells = [c for row in rows for c in row]
        for c in cells:
            assert c is ZERO or not c.is_zero()
            for part in (c.re, c.im):
                assert type(part) is (int if part.denominator == 1 else Fraction)
            seen.update(["zero" if c is ZERO else "nonzero", *(type(p) for p in (c.re, c.im) if p)])
    assert seen == {"zero", "nonzero", int, Fraction}


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS.values(), ids=DIFFERENTIAL_SPECS.keys())
def test_of_leaves_out_unit_slots_and_keeps_unit_multiples(spec, rng):
    """``TensorPoly.of`` leaves out slots that hold the unit itself and equals
    the expansion that multiplies every slot in: on unit slots (the spec's
    unit or one built by a sum), unit multiples, zero factors, zero
    coefficients and all-unit factors; 2·1 stays a coefficient."""
    reference = lambda degree, terms: tensor_collect(spec, degree, reference_expand(spec, degree, terms))
    unit, zero, a = spec.unit(), spec.zero(), spec.symbol(spec.symbols[0])
    two, half, summed_unit = spec.scalar(2), spec.scalar(Scalar.of(Fraction(1, 2))), zero.add(unit)
    b = random_elem(spec, rng)
    cases = {
        "unit slots": [(ONE, (a, unit, unit)), (Scalar.of(3), (unit, b, summed_unit))],
        "unit multiples": [(ONE, (two, unit, a)), (MINUS_ONE, (unit, half, two))],
        "zero factors": [(ONE, (a, zero, unit)), (ONE, (zero, unit, unit))],
        "zero coefficients": [(ZERO, (a, b, unit)), (ONE, (a, unit, unit)), (ZERO, (unit, unit, unit))],
        "all units": [(Scalar.of(-2), (unit, unit, unit)), (ONE, (unit, summed_unit, unit))],
    }
    pool = [unit, summed_unit, zero, two, half, a, b]
    cases["mixed"] = [(Scalar.of(rng.randint(-2, 2)), tuple(rng.choice(pool) for _ in range(3))) for _ in range(40)]
    for name, terms in cases.items():
        assert TensorPoly.of(spec, 3, terms) == reference(3, terms), name
    assert TensorPoly.of(spec, 3, [(ONE, (unit, summed_unit, unit))]) == TensorPoly.unit(spec, 3)
    assert TensorPoly.of(spec, 2, [(ONE, (two, unit))]).terms == ((Scalar.of(2), ()),)
    assert TensorPoly.of(spec, 2, [(ONE, (zero, unit))]).is_zero()
    for p in range(3):
        for j in range(2**p):
            factors = tuple(b if i == j else unit for i in range(2**p))
            assert slot_embed(b, j, p).body.terms == reference(2**p, [(ONE, factors)]).terms
    for elem in (unit, two, zero, a, b):
        assert FrameElem.from_alg(elem).body.terms == reference(1, [(ONE, (elem,))]).terms
