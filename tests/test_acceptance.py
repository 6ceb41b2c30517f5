"""Acceptance suite: one test per criterion, every equality exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import itertools
import random
from fractions import Fraction

from ncdiff.algebra import AlgebraSpec
from ncdiff.frame import (
    FrameElem,
    SubsetIndex,
    delta_I,
    delta_iter,
    frame_delta,
    generator_sum,
    lam,
    lift_to,
    module_left,
    module_right,
    rho,
    slot_embed,
    slot_in_generators,
)
from ncdiff.jets import (
    Jet1,
    Jet2,
    chain2_1d,
    delta2_invariance_check,
    transfer_apply,
    transfer_compose,
    transfer_matrix,
    transform_jet2,
)
from ncdiff.leibniz import (
    LeibnizForm,
    embed,
    enumerate_types,
    module_mul,
    odot,
    symbolic_delta,
)
from ncdiff.scalars import ONE, Scalar
from ncdiff.tensor import (
    TensorPoly,
    omega_to_tensor,
    tensor_eval,
    tensor_to_matrix,
)
from ncdiff.verify import (
    EXPANSION_TABLE,
    composite_jet_oracle,
    default_free_spec,
    random_elem,
    random_jet_instance,
    random_leibniz_form,
    random_omega_monomial,
    table_row,
)

from exactlinalg import coboundary, in_span, kron, rank

SPEC = default_free_spec()
F, G, H = SPEC.symbol("f"), SPEC.symbol("g"), SPEC.symbol("h")
U = SPEC.unit()


def report(number: int, text: str) -> None:
    print(f"[criterion {number:02d}] PASS - {text}")


def elem_t(*factors, coeff=1):
    return TensorPoly.elementary(factors, Scalar.of(coeff))


def test_criterion_01_generator_tables():
    def slots(*signed, p):
        total = FrameElem.zero(SPEC, p)
        for sign, j in signed:
            total = total + slot_embed(F, j, p).scale(sign)
        return total

    displayed = {
        (): slots((1, 0), p=2),
        (0,): slots((1, 1), (-1, 0), p=2),
        (1,): slots((1, 2), (-1, 0), p=2),
        (1, 0): slots((1, 3), (-1, 2), (-1, 1), (1, 0), p=2),
    }
    for members, want in displayed.items():
        assert delta_I(F, SubsetIndex.of(2, members)) == want

    inversion = {
        0: {()},
        1: {(), (0,)},
        2: {(), (1,)},
        3: {(), (0,), (1,), (1, 0)},  # subset-sum rule, checked by expansion
    }
    for j, want_subsets in inversion.items():
        subsets = slot_in_generators(j, 2)
        assert {ix.members for ix in subsets} == want_subsets
        assert generator_sum(F, subsets) == slot_embed(F, j, 2)

    for mask in range(8):
        members = tuple(s for s in range(3) if (mask >> s) & 1)
        elem = delta_I(F, SubsetIndex.of(3, members))
        assert elem.level == 3 and not elem.is_zero()
    for j in range(8):
        assert generator_sum(F, slot_in_generators(j, 3)) == slot_embed(F, j, 3)

    report(1, "level-2 generator table, corrected inversion, level-3 round trip")


def test_criterion_02_product_rule_computation():
    GH = G.mul(H)
    lhs = frame_delta(module_left(FrameElem.from_alg(G), delta_iter(H, 1)))
    assert lhs.body == (
        elem_t(U, U, G, H)
        - elem_t(U, U, GH, U)
        - elem_t(G, H, U, U)
        + elem_t(GH, U, U, U)
    )
    cross = module_right(frame_delta(rho(FrameElem.from_alg(G))), delta_iter(H, 1))
    assert cross.body == (
        elem_t(U, U, G, H)
        - elem_t(G, U, U, H)
        - elem_t(U, U, GH, U)
        + elem_t(G, U, H, U)
    )
    carried = module_left(lift_to(G, 1), frame_delta(delta_iter(H, 1)))
    assert carried.body == (
        elem_t(G, U, U, H)
        - elem_t(G, U, H, U)
        - elem_t(G, H, U, U)
        + elem_t(GH, U, U, U)
    )
    assert lhs == cross + carried

    rng = random.Random(101)
    for _ in range(20):
        h = random_elem(SPEC, rng)
        lhs = lam(delta_iter(h, 1))
        assert lhs == delta_I(h, SubsetIndex.of(2, (1, 0))) + delta_I(h, SubsetIndex.of(2, (0,)))

    report(2, "two-sided product-rule computation and the left-lift identity")


def test_criterion_03_nilpotency_inside_levels_but_not_across():
    rng = random.Random(103)
    for _ in range(100):
        level = rng.randint(0, 2)
        letters = random_omega_monomial(SPEC, level, rng.randint(0, 2), rng)
        width, t = 2**level, omega_to_tensor(letters)
        assert omega_to_tensor((TensorPoly.unit(SPEC, width),) + letters) == coboundary(t, width)
        assert coboundary(coboundary(t, width), width).is_zero()
    assert not delta_iter(F, 2).is_zero()
    report(3, "d is the coboundary b and b**2 = 0 inside each level (100 monomials), iterated delta nonzero")


def test_criterion_04_expansion_tables_orders_1_to_4():
    assert len(EXPANSION_TABLE) == 15
    assert len(EXPANSION_TABLE[(3, 3)][1]) == 3  # three-term order-3 row
    assert len(EXPANSION_TABLE[(4, 7)][1]) == 7  # seven-term row
    assert len(EXPANSION_TABLE[(4, 8)][1]) == 9  # nine-term row
    for key in sorted(EXPANSION_TABLE):
        _, lhs, rhs = table_row(SPEC, *key)
        assert lhs == rhs, key
    report(4, "all 15 expansion-table rows, orders 1..4, exact")


def test_criterion_05_associativity_and_derivation():
    rng = random.Random(105)
    triples = 0
    while triples < 50:
        orders = [rng.randint(0, 2) for _ in range(3)]
        if sum(orders) > 4:
            continue
        u, v, w = (random_leibniz_form(SPEC, o, rng) for o in orders)
        assert embed(odot(odot(u, v), w)) == embed(odot(u, odot(v, w)))
        triples += 1
    for _ in range(50):
        w = random_leibniz_form(SPEC, rng.randint(0, 3), rng)
        assert embed(symbolic_delta(w)) == frame_delta(embed(w))
    report(5, "50 associativity triples and 50 derivation/embedding checks")


def test_criterion_06_function_algebra_closed_forms():
    rng = random.Random(106)
    points = ("P", "Q", "S")
    values = {
        name: tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in points)
        for name in ("f", "g", "h")
    }
    spec = AlgebraSpec.function(points, values)
    f, g, h = (spec.symbol(s) for s in "fgh")
    fv = lambda e, p: e.values[spec.point_index(p)]

    body1 = embed(module_mul(f, symbolic_delta(LeibnizForm.from_alg(g)))).body
    for x, y in itertools.product(points, repeat=2):
        assert tensor_eval(body1, (x, y)) == fv(f, x) * (fv(g, y) - fv(g, x))

    body2 = embed(module_mul(f, symbolic_delta(symbolic_delta(LeibnizForm.from_alg(g))))).body
    body3 = embed(
        module_mul(f, odot(symbolic_delta(LeibnizForm.from_alg(g)), symbolic_delta(LeibnizForm.from_alg(h))))
    ).body
    count = 0
    for x, y, z, t in itertools.product(points, repeat=4):
        count += 1
        want2 = fv(f, x) * ((fv(g, t) - fv(g, z)) - (fv(g, y) - fv(g, x)))
        assert tensor_eval(body2, (x, y, z, t)) == want2
        want3 = fv(f, x) * (fv(g, z) - fv(g, x)) * (fv(h, t) - fv(h, z))
        assert tensor_eval(body3, (x, y, z, t)) == want3
        if (x == y and z == t) or (x == z and y == t):
            assert tensor_eval(body2, (x, y, z, t)).is_zero()
        if x == z and z == t:
            assert tensor_eval(body3, (x, y, z, t)).is_zero()
    assert count == 81
    report(6, "closed evaluation formulas and vanishing patterns on all 81 tuples")


def test_criterion_07_two_point_algebra():
    spec = AlgebraSpec.function(("L", "R"), {"x": (1, 0), "y": (0, 1)})
    x, y = spec.symbol("x"), spec.symbol("y")
    form = lambda e: LeibnizForm.from_alg(e)
    d = symbolic_delta

    x_dx = embed(module_mul(x, d(form(x)))).body
    y_dy = embed(module_mul(y, d(form(y)))).body
    table = {
        ("L", "L"): (0, 0),
        ("L", "R"): (-1, 0),
        ("R", "L"): (0, -1),
        ("R", "R"): (0, 0),
    }
    for args, (want_x, want_y) in table.items():
        assert tensor_eval(x_dx, args) == Scalar.of(want_x)
        assert tensor_eval(y_dy, args) == Scalar.of(want_y)

    one = spec.unit()
    x_d2x = embed(module_mul(x, d(d(form(x))))).body
    assert x_d2x == (
        elem_t(x, one, one, x)
        - elem_t(x, one, x, one)
        - elem_t(x, x, one, one)
        + elem_t(x, one, one, one)
    )
    nonzero = {}
    for args in itertools.product("LR", repeat=4):
        v = tensor_eval(x_d2x, args)
        if not v.is_zero():
            nonzero[args] = v
    assert len(nonzero) == 5
    assert nonzero[("L", "R", "R", "L")] == Scalar.of(2)
    assert nonzero[("L", "L", "L", "R")] == Scalar.of(-1)
    assert nonzero[("L", "L", "R", "L")] == Scalar.of(1)
    assert set(nonzero) == {
        ("L", "L", "L", "R"),
        ("L", "L", "R", "L"),
        ("L", "R", "L", "L"),
        ("L", "R", "R", "L"),
        ("L", "R", "R", "R"),
    }

    x_dx_dx = embed(module_mul(x, odot(d(form(x)), d(form(x))))).body
    assert x_dx_dx == elem_t(x, one, x, x) - elem_t(x, one, one, x)

    lam_, mu = Fraction(2), Fraction(7)
    eps = Scalar.of(mu - lam_)
    fdiag = x.scale(Scalar.of(lam_)).add(y.scale(Scalar.of(mu)))
    body = delta_iter(fdiag, 2).body
    func_route = [
        tensor_eval(body, tuple("LR"[(i >> s) & 1] for s in range(4))) for i in range(16)
    ]
    mat_spec = AlgebraSpec.matrix(2, {"f": [[lam_, 0], [0, mu]]})
    mat16 = tensor_to_matrix(delta_iter(mat_spec.symbol("f"), 2).body)
    assert all(mat16[i][j].is_zero() for i in range(16) for j in range(16) if i != j)
    mat_route = [mat16[i][i] for i in range(16)]
    assert func_route == mat_route
    signs = (0, 1, -1, 0, -1, 0, -2, -1, 1, 2, 0, 1, 0, 1, -1, 0)
    assert func_route == [eps * Scalar.of(s) for s in signs]
    assert sorted(s.key() for s in func_route) == sorted(
        (eps * Scalar.of(s)).key() for s in (0, -1, 1, 0, -1, -2, 0, -1, 1, 0, 2, 1, 0, -1, 1, 0)
    )

    # the order-2 module is spanned by the four stated monomials
    def value_vector(w):
        b = embed(w).body
        return {args: tensor_eval(b, args) for args in itertools.product("LR", repeat=4)}

    basis = [
        value_vector(module_mul(x, d(d(form(x))))),
        value_vector(module_mul(y, d(d(form(y))))),
        value_vector(module_mul(x, odot(d(form(x)), d(form(x))))),
        value_vector(module_mul(y, odot(d(form(y)), d(form(y))))),
    ]
    assert rank(basis) == 4
    gens = [one, x, y]
    for a, b in itertools.product(gens, repeat=2):
        assert in_span(basis, value_vector(module_mul(a, d(d(form(b))))))
    for a, b, c in itertools.product(gens, repeat=3):
        assert in_span(basis, value_vector(module_mul(a, odot(d(form(b)), d(form(c))))))

    assert enumerate_types(3) == [(3,), (2, 1), (1, 2), (1, 1, 1)]
    d3_monomials = []
    for comp in enumerate_types(3):
        for coord in (x, y):
            factors = tuple((k, coord) for k in comp)
            w = LeibnizForm.monomial(coord, factors)
            d3_monomials.append(embed(w))
    assert len(d3_monomials) == 8
    assert all(not m.is_zero() for m in d3_monomials)
    assert len({m.body for m in d3_monomials}) == 8
    report(7, "two-point tables, expansions, 16-entry diagonal, span and types")



def test_criterion_08_matrix_representation():
    sym_spec = AlgebraSpec.free(("f11", "f12", "f21", "f22"))
    syms = {(i, j): sym_spec.symbol(f"f{i + 1}{j + 1}") for i in range(2) for j in range(2)}
    zero, one = sym_spec.zero(), sym_spec.unit()

    # independent route: entry (r, c) of the block construction, slot 0
    # indexing the fast digit
    def two_slot_matrix(slot0, slot1):
        out = [[zero for _ in range(4)] for _ in range(4)]
        for r0, r1, c0, c1 in itertools.product(range(2), repeat=4):
            out[r0 + 2 * r1][c0 + 2 * c1] = slot0[r0][c0].mul(slot1[r1][c1])
        return out

    ident = [[one, zero], [zero, one]]
    generic = [[syms[(0, 0)], syms[(0, 1)]], [syms[(1, 0)], syms[(1, 1)]]]
    lhs = two_slot_matrix(ident, generic)
    rhs = two_slot_matrix(generic, ident)
    symbolic = [[lhs[r][c].sub(rhs[r][c]) for c in range(4)] for r in range(4)]

    f11, f12, f21, f22 = (syms[(i, j)] for i in range(2) for j in range(2))
    displayed = [
        [zero, f12.neg(), f12, zero],
        [f21.neg(), f11.sub(f22), zero, f12],
        [f21, zero, f22.sub(f11), f12.neg()],
        [zero, f21, f21.neg(), zero],
    ]
    assert symbolic == displayed

    # package route, assembled entrywise by linearity over the four
    # matrix units
    assembled = [[zero for _ in range(4)] for _ in range(4)]
    for (i, j), sym in syms.items():
        unit_doc = [[1 if (r, s) == (i, j) else 0 for s in range(2)] for r in range(2)]
        mat_spec = AlgebraSpec.matrix(2, {"e": unit_doc})
        unit_mat = tensor_to_matrix(delta_iter(mat_spec.symbol("e"), 1).body)
        for r in range(4):
            for c in range(4):
                coeff = unit_mat[r][c]
                if not coeff.is_zero():
                    assembled[r][c] = assembled[r][c].add(sym.scale(coeff))
    assert assembled == displayed

    rng = random.Random(108)
    for _ in range(3):
        entries = [[Fraction(rng.randint(-5, 5), rng.choice((1, 2))) for _ in range(2)] for _ in range(2)]
        mat_spec = AlgebraSpec.matrix(2, {"f": entries})
        fmat = mat_spec.symbol("f")
        d2 = tensor_to_matrix(delta_iter(fmat, 2).body)
        dmat = tensor_to_matrix(delta_iter(fmat, 1).body)
        i4 = [[ONE if i == j else Scalar.of(0) for j in range(4)] for i in range(4)]
        want = [
            [a - b for a, b in zip(r1, r2)]
            for r1, r2 in zip(kron(dmat, i4), kron(i4, dmat))
        ]
        assert d2 == want
    report(8, "displayed 4x4 with symbolic entries (two routes) and 16x16 identity")


def test_criterion_09_jets():
    rng = random.Random(109)
    for _ in range(100):
        f, x, y, at = random_jet_instance(rng)
        xj, yj = Jet2.of_poly(x, at), Jet2.of_poly(y, at)
        fj = Jet2.of_poly(f, (xj.f, yj.f))
        assert transform_jet2(fj, xj, yj) == composite_jet_oracle(f, x, y, at)
    for _ in range(100):
        phi = Jet1.of(rng.randint(-6, 6), rng.randint(-6, 6))
        u = Jet1.of(rng.randint(-6, 6), rng.randint(-6, 6))
        v = Jet1.of(rng.randint(-6, 6), rng.randint(-6, 6))
        m_u, m_v = transfer_matrix(u), transfer_matrix(v)
        assert transfer_apply(m_u, phi) == chain2_1d(phi, u)
        assert transfer_compose(m_u, m_v) == transfer_matrix(chain2_1d(u, v))
    # a linear substitution leaves no first-derivative contribution in
    # the new second derivatives
    linear = Jet2.of(0, 2, -1, 0, 0, 0), Jet2.of(0, 1, 3, 0, 0, 0)
    a = transform_jet2(Jet2.of(0, 5, -7, 1, 2, 3), *linear)
    b = transform_jet2(Jet2.of(0, 11, 13, 1, 2, 3), *linear)
    assert (a.fxx, a.fxy, a.fyy) == (b.fxx, b.fxy, b.fyy)
    assert delta2_invariance_check(Jet2.of(0, 5, -7, 1, 2, 3), *linear, drop_first_derivative_terms=True)
    nonlinear = Jet2.of(0, 1, 0, 2, 0, 0), Jet2.of(0, 0, 1, 0, 0, 0)
    assert not delta2_invariance_check(Jet2.of(0, 1, 1, 1, 1, 1), *nonlinear, drop_first_derivative_terms=True)
    report(9, "100 jet transforms vs oracle, 100 transfer matrices, truncation cases")


def test_criterion_10_type_and_rank_counts():
    from exactlinalg import flatten

    counts = [len(enumerate_types(n)) for n in range(1, 9)]
    assert counts == [2 ** (n - 1) for n in range(1, 9)]
    assert counts[:4] == [1, 2, 4, 8]
    for n, names in ((2, ("g", "h")), (3, ("g", "h", "i"))):
        vectors = []
        for comp in enumerate_types(n):
            factors = tuple((k, SPEC.symbol(names[j])) for j, k in enumerate(comp))
            vectors.append(flatten(embed(LeibnizForm.monomial(U, factors)).body))
        assert rank(vectors) == 2 ** (n - 1)
    report(10, "type counts 1..8 and rank witnesses for orders 2, 3")
