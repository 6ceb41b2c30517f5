import itertools
from fractions import Fraction

import pytest

from ncdiff.algebra import AlgebraMismatchError, AlgebraSpec, func_as_diagonal
from ncdiff.frame import FrameElem, frame_delta, frame_sum, lam, rho
from ncdiff.leibniz import LeibnizForm, embed, odot
from ncdiff.scalars import MINUS_ONE, ONE, ZERO, Scalar, integer
from ncdiff.tensor import (
    OmegaMonomial,
    TensorPoly,
    componentwise_product,
    kron,
    mult_map,
    omega_product,
    omega_to_tensor,
    t_algebra_product,
    tensor_concat,
    tensor_eval,
    tensor_eval_all,
    tensor_sum,
    tensor_to_matrix,
    universal_d,
)
from ncdiff.verify import random_elem

SPEC = AlgebraSpec.free(("f", "g", "h", "k"))
F, G, H, K = (SPEC.symbol(s) for s in "fghk")
U = SPEC.unit()


def elem_t(*factors, coeff=ONE):
    return TensorPoly.elementary(SPEC, factors, coeff)


def d0(a):
    return elem_t(U, a) - elem_t(a, U)


def test_concat_examples():
    assert tensor_concat(TensorPoly.wrap(F), TensorPoly.unit(SPEC, 2)) == elem_t(F, U, U)
    two = tensor_concat(elem_t(F, G, coeff=integer(2)), elem_t(H, coeff=integer(3)))
    assert two == elem_t(F, G, H, coeff=integer(6))
    summed = TensorPoly.wrap(F) + TensorPoly.wrap(G)
    assert tensor_concat(summed, TensorPoly.wrap(H)) == elem_t(F, H) + elem_t(G, H)


def test_componentwise_product_examples():
    lhs = componentwise_product(elem_t(F, U), elem_t(U, H) - elem_t(H, U))
    assert lhs == elem_t(F, H) - elem_t(F.mul(H), U)
    u = elem_t(F, G) + elem_t(H, U, coeff=integer(-2))
    assert componentwise_product(TensorPoly.unit(SPEC, 2), u) == u


def test_componentwise_product_is_associative_and_unital(rng):
    def rand():
        pick = lambda: rng.choice((F, G, H, U))
        t = TensorPoly.of(
            SPEC, 2, [(integer(rng.randint(-2, 2)), (pick(), pick())) for _ in range(2)]
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
    xx = TensorPoly.elementary(spec, (x, x))
    xy = TensorPoly.elementary(spec, (x, y))
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
            terms.append((integer(rng.randint(-2, 2)), (pick(), pick())))
        t = TensorPoly.of(SPEC, 2, terms)
        return t if not t.is_zero() else elem_t(F, G)

    for _ in range(15):
        a, b, c = rand_deg2(), rand_deg2(), rand_deg2()
        assert t_algebra_product(t_algebra_product(a, b), c) == t_algebra_product(
            a, t_algebra_product(b, c)
        )


def test_mult_map():
    assert mult_map(1, d0(F)).is_zero()
    assert mult_map(2, tensor_concat(elem_t(F, U), elem_t(U, G))) == elem_t(F, G)
    with pytest.raises(ValueError):
        mult_map(2, elem_t(F, G, H))


def test_mult_map_kills_level_differentials(rng):
    from ncdiff.frame import frame_delta
    from ncdiff.verify import random_frame_elem

    for level in (0, 1):
        for _ in range(10):
            omega = frame_delta(random_frame_elem(SPEC, level, rng))
            assert mult_map(2**level, omega.body).is_zero()


def test_universal_d_and_nilpotency():
    m = OmegaMonomial.of_elems(F)
    dm = universal_d(m)
    assert dm.chain[0] == TensorPoly.unit(SPEC, 1)
    assert dm.chain[1] == TensorPoly.wrap(F)
    assert omega_to_tensor(universal_d(dm)).is_zero()
    dfg = universal_d(OmegaMonomial.of_elems(F, G))
    assert dfg.degree == 2
    assert omega_to_tensor(universal_d(universal_d(OmegaMonomial.of_elems(F, G, H)))).is_zero()


def test_omega_to_tensor_examples():
    assert omega_to_tensor(OmegaMonomial.of_elems(F, G)) == elem_t(F, G) - elem_t(F.mul(G), U)
    assert omega_to_tensor(universal_d(OmegaMonomial.of_elems(G))) == d0(G)


def test_omega_product_examples():
    # degree 0 on the left acts through the head coefficient
    (m,) = omega_product(OmegaMonomial.of_elems(F), OmegaMonomial.of_elems(G, H))
    assert m.chain[0] == TensorPoly.wrap(F.mul(G))
    # (f dg) * h = f d(gh) - fg dh
    out = omega_product(OmegaMonomial.of_elems(F, G), OmegaMonomial.of_elems(H))
    expanded = tensor_sum(SPEC, 2, (omega_to_tensor(m) for m in out))
    want = omega_to_tensor(OmegaMonomial.of_elems(F, G.mul(H))) - omega_to_tensor(
        OmegaMonomial.of_elems(F.mul(G), H)
    )
    assert expanded == want
    # dg * dh = dg dh
    out = omega_product(
        universal_d(OmegaMonomial.of_elems(G)), universal_d(OmegaMonomial.of_elems(H))
    )
    assert len(out) == 1
    assert out[0].chain == (TensorPoly.unit(SPEC, 1), TensorPoly.wrap(G), TensorPoly.wrap(H))


def test_omega_product_matches_glued_tensor_product(rng):
    def rand_monomial(degree):
        letters = [rng.choice((F, G, H, K)) for _ in range(degree + 1)]
        if rng.random() < 0.4:
            letters[0] = letters[0].add(U.scale(integer(rng.randint(1, 2))))
        return OmegaMonomial.of_elems(*letters)

    for _ in range(20):
        u = rand_monomial(rng.randint(0, 2))
        v = rand_monomial(rng.randint(0, 2))
        got = tensor_sum(
            SPEC, u.degree + v.degree + 1, (omega_to_tensor(m) for m in omega_product(u, v))
        )
        want = t_algebra_product(omega_to_tensor(u), omega_to_tensor(v))
        assert got == want


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
    body = omega_to_tensor(OmegaMonomial.of_elems(f, g))
    for x, y in itertools.product(POINTS.points, repeat=2):
        want = f.value_at(x) * (g.value_at(y) - g.value_at(x))
        assert tensor_eval(body, (x, y)) == want
        if x == y:
            assert tensor_eval(body, (x, y)).is_zero()


def test_tensor_eval_three_differentials_closed_formula():
    f, g, h, k = (POINTS.symbol(s) for s in "fghk")
    body = omega_to_tensor(OmegaMonomial.of_elems(f, g, h, k))
    for x, y, z, t in itertools.product(POINTS.points, repeat=4):
        want = (
            f.value_at(x)
            * (g.value_at(y) - g.value_at(x))
            * (h.value_at(z) - h.value_at(y))
            * (k.value_at(t) - k.value_at(z))
        )
        assert tensor_eval(body, (x, y, z, t)) == want


def test_tensor_eval_errors():
    f, g = POINTS.symbol("f"), POINTS.symbol("g")
    body = omega_to_tensor(OmegaMonomial.of_elems(f, g))
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
        odot(one_form, LeibnizForm.monomial(a.scale(integer(5)), [(1, b)])),
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


def test_normalization_merges_and_drops():
    t = TensorPoly.of(
        SPEC,
        2,
        [
            (ONE, (F.scale(integer(2)), G)),
            (integer(-2), (F, G)),
            (integer(5), (F, SPEC.zero())),
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
        assert_normalizes_to(u + v, spec, d, u.terms + v.terms)
        negated_v = tuple((MINUS_ONE * k, f) for k, f in v.terms)
        assert_normalizes_to(u - v, spec, d, u.terms + negated_v)
        assert_normalizes_to(u.scale(c), spec, d, [(c * k, f) for k, f in u.terms])
        assert_normalizes_to(u.scale(0), spec, d, [(ZERO * k, f) for k, f in u.terms])
        assert_normalizes_to(-u, spec, d, [(MINUS_ONE * k, f) for k, f in u.terms])
        concat = [(ku * kv, fu + fv) for ku, fu in u.terms for kv, fv in v.terms]
        assert_normalizes_to(tensor_concat(u, v), spec, 2 * d, concat)
        assert_normalizes_to(tensor_sum(spec, d, (u, v, w)), spec, d, u.terms + v.terms + w.terms)
        assert (u + (-u)).is_zero()
    for level in (0, 1, 2):
        width = 2**level
        a, b = (FrameElem(level, random_canonical(spec, width, rng)) for _ in range(2))
        pad = (spec.unit_label(),) * width
        right = [(k, f + pad) for k, f in a.body.terms]
        left = [(k, pad + f) for k, f in a.body.terms]
        assert_normalizes_to(rho(a).body, spec, 2 * width, right)
        assert_normalizes_to(lam(a).body, spec, 2 * width, left)
        negated_right = [(MINUS_ONE * k, f) for k, f in right]
        assert_normalizes_to(frame_delta(a).body, spec, 2 * width, left + negated_right)
        summed = a.body.terms + b.body.terms
        assert_normalizes_to(frame_sum(spec, level, (a, b)).body, spec, width, summed)


def slotwise(u, v, glue):
    """Terms of u and v paired up, with glue(fu, fv) building the slots."""
    pairs = itertools.product(materialize(u.spec, u.terms), materialize(v.spec, v.terms))
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
    for c, labels in t.terms:
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
        e10, e01 = (TensorPoly(spec, 1, ((ONE, (cell,)),)) for cell in ((0, 0, 1, 0), (0, 1, 0, 0)))
        product = componentwise_product(e10, e01)
        assert product.terms == ((MINUS_ONE, ((1, 0, 0, 0),)), (ONE, ((1, 0, 0, 1),)))
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
        halves = [(k, times(f[:d], f[d:])) for k, f in materialize(spec, w.terms)]
        assert mult_map(d, w).terms == TensorPoly.of(spec, d, halves).terms
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
                for k, factors in materialize(spec, u.terms):
                    for f, i in zip(factors, idx):
                        k = k * f.values[i]
                    want = want + k
                assert tensor_eval(u, pts) == want
