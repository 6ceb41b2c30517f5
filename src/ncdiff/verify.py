"""Built-in verification suites.

Each suite is a list of named exact checks over fixed or seeded-random
data: the generator tables and their inversion, the product rule for
the level differentials, nilpotency of the universal differential
inside one level, the order 1..4 expansion tables of the ⊙ product in
the generator basis, ⊙ associativity, and the jet transformation laws.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .algebra import AlgebraSpec, AlgElem
from .frame import (
    FrameElem,
    SubsetIndex,
    delta_I,
    delta_iter,
    frame_delta,
    frame_sum,
    generator_sum,
    is_universal_one_form,
    lam,
    lift_to,
    module_left,
    module_right,
    rho,
    slot_embed,
    slot_in_generators,
)
from .jets import (
    ChangeOfVars2,
    Jet1,
    Jet2,
    Poly2,
    TransferMatrix1,
    chain2_1d,
    delta2_invariance_check,
    transfer_compose,
    transform_jet2,
)
from .leibniz import (
    LeibnizForm,
    embed,
    enumerate_types,
    generator_monomial_eval,
    odot,
    symbolic_delta,
)
from .scalars import Scalar
from .tensor import OmegaMonomial, TensorPoly, omega_to_tensor, universal_d


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def default_free_spec() -> AlgebraSpec:
    return AlgebraSpec.free(("f", "g", "h", "i", "k"))


# -- expansion tables -------------------------------------------------------
#
# Right-hand sides are written over the generator family with the lifts
# implicit; each entry is (sign, [(levels, symbol), ...]).  The two
# seven/nine-term rows keep their cancelling and repeated monomials so
# the recorded identities match the displayed ones verbatim.

GeneratorTerm = tuple[int, Sequence[tuple[Sequence[int], str]]]

EXPANSION_TABLE: dict[tuple[int, int], tuple[Sequence[tuple[int, str]], Sequence[GeneratorTerm]]] = {
    # (order, row): (⊙ monomial as [(power, symbol)...], generator sum)
    (1, 1): ([(1, "g")], [(+1, [((0,), "g")])]),
    (2, 1): ([(2, "g")], [(+1, [((1, 0), "g")])]),
    (2, 2): ([(1, "g"), (1, "h")], [(+1, [((1,), "g"), ((0,), "h")])]),
    (3, 1): ([(3, "g")], [(+1, [((2, 1, 0), "g")])]),
    (3, 2): ([(1, "g"), (2, "h")], [(+1, [((2,), "g"), ((1, 0), "h")])]),
    (3, 3): (
        [(2, "g"), (1, "h")],
        [
            (+1, [((2, 1), "g"), ((0,), "h")]),
            (+1, [((1,), "g"), ((2, 0), "h")]),
            (-1, [((2,), "g"), ((1, 0), "h")]),
        ],
    ),
    (3, 4): ([(1, "g"), (1, "h"), (1, "i")], [(+1, [((2,), "g"), ((1,), "h"), ((0,), "i")])]),
    (4, 1): ([(4, "f")], [(+1, [((3, 2, 1, 0), "f")])]),
    (4, 2): ([(1, "f"), (3, "g")], [(+1, [((3,), "f"), ((2, 1, 0), "g")])]),
    (4, 3): (
        [(1, "f"), (2, "g"), (1, "h")],
        [
            (+1, [((3,), "f"), ((2, 1), "g"), ((0,), "h")]),
            (+1, [((3,), "f"), ((1,), "g"), ((2, 0), "h")]),
            (-1, [((3,), "f"), ((2,), "g"), ((1, 0), "h")]),
        ],
    ),
    (4, 4): (
        [(1, "f"), (1, "g"), (2, "h")],
        [(+1, [((3,), "f"), ((2,), "g"), ((1, 0), "h")])],
    ),
    (4, 5): (
        [(1, "f"), (1, "g"), (1, "h"), (1, "i")],
        [(+1, [((3,), "f"), ((2,), "g"), ((1,), "h"), ((0,), "i")])],
    ),
    (4, 6): (
        [(2, "f"), (2, "g")],
        [
            (+1, [((3, 2), "f"), ((1, 0), "g")]),
            (+1, [((2,), "f"), ((3, 1, 0), "g")]),
            (-1, [((3,), "f"), ((2, 1, 0), "g")]),
        ],
    ),
    (4, 7): (
        [(2, "f"), (1, "g"), (1, "h")],
        [
            (+1, [((3, 2), "f"), ((1,), "g"), ((0,), "h")]),
            (+1, [((2,), "f"), ((3, 1), "g"), ((0,), "h")]),
            (+1, [((2,), "f"), ((1,), "g"), ((3, 0), "h")]),
            (-1, [((3,), "f"), ((2, 1), "g"), ((0,), "h")]),
            (-1, [((3,), "f"), ((1,), "g"), ((2, 0), "h")]),
            (+1, [((3,), "f"), ((2,), "g"), ((1, 0), "h")]),
            (-1, [((3,), "f"), ((2,), "g"), ((1, 0), "h")]),
        ],
    ),
    (4, 8): (
        [(3, "f"), (1, "g")],
        [
            (+1, [((3, 2, 1), "f"), ((0,), "g")]),
            (+1, [((2, 1), "f"), ((3, 0), "g")]),
            (+1, [((3, 1), "f"), ((2, 0), "g")]),
            (+1, [((1,), "f"), ((3, 2, 0), "g")]),
            (-1, [((3, 2), "f"), ((1, 0), "g")]),
            (-1, [((2,), "f"), ((3, 1, 0), "g")]),
            (-1, [((3, 2), "f"), ((1, 0), "g")]),
            (-1, [((2,), "f"), ((3, 1, 0), "g")]),
            (+1, [((3,), "f"), ((2, 1, 0), "g")]),
        ],
    ),
}


def odot_chain(spec: AlgebraSpec, factors: Sequence[tuple[int, str]]) -> LeibnizForm:
    """Build d^{k1}(g1) ⊙ d^{k2}(g2) ⊙ ... from powers and symbol names."""
    out = None
    for power, name in factors:
        form = LeibnizForm.from_alg(spec.symbol(name))
        for _ in range(power):
            form = symbolic_delta(form)
        out = form if out is None else odot(out, form)
    return out


def generator_table_rhs(spec: AlgebraSpec, order: int, terms: Sequence[GeneratorTerm]) -> FrameElem:
    parts = []
    for sign, monomial in terms:
        factors = [
            (SubsetIndex.of(order, levels), spec.symbol(name)) for levels, name in monomial
        ]
        parts.append(generator_monomial_eval(factors, order).scale(sign))
    return frame_sum(spec, order, parts)


def check_table_row(spec: AlgebraSpec, order: int, row: int) -> bool:
    factors, rhs = EXPANSION_TABLE[(order, row)]
    return embed(odot_chain(spec, factors)) == generator_table_rhs(spec, order, rhs)


# -- random data -----------------------------------------------------------


def random_scalar(rng: random.Random) -> Scalar:
    return Scalar.of(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))))


def random_elem(spec: AlgebraSpec, rng: random.Random, max_terms: int = 2) -> AlgElem:
    if spec.backend == "function":
        out = spec.zero()
        for name in spec.symbols:
            out = out.add(spec.symbol(name).scale(random_scalar(rng)))
        return out
    out = spec.zero()
    for _ in range(rng.randint(1, max_terms)):
        word = spec.symbol(rng.choice(spec.symbols))
        if rng.random() < 0.3:
            word = word.mul(spec.symbol(rng.choice(spec.symbols)))
        out = out.add(word.scale(random_scalar(rng)))
    if out.is_zero():
        out = spec.symbol(rng.choice(spec.symbols))
    return out


def random_frame_elem(spec: AlgebraSpec, level: int, rng: random.Random) -> FrameElem:
    width = 2**level
    terms = []
    for _ in range(rng.randint(1, 2)):
        factors = tuple(
            random_elem(spec, rng) if rng.random() < 0.5 else spec.unit() for _ in range(width)
        )
        terms.append((random_scalar(rng), factors))
    return FrameElem(level, TensorPoly.of(spec, width, terms))


def random_leibniz_form(spec: AlgebraSpec, order: int, rng: random.Random) -> LeibnizForm:
    if order == 0:
        return LeibnizForm.from_alg(random_elem(spec, rng))
    types = enumerate_types(order)
    composition = rng.choice(types)
    factors = tuple((k, random_elem(spec, rng, max_terms=1)) for k in composition)
    coeff = random_elem(spec, rng, max_terms=1) if rng.random() < 0.7 else spec.unit()
    form = LeibnizForm.monomial(coeff, factors)
    if form.is_zero():
        return random_leibniz_form(spec, order, rng)
    return form


def random_omega_monomial(spec: AlgebraSpec, level: int, degree: int, rng: random.Random) -> OmegaMonomial:
    width = 2**level
    blocks = tuple(random_frame_elem(spec, level, rng).body for _ in range(degree + 1))
    return OmegaMonomial(spec, width, blocks)


def random_poly2(rng: random.Random, max_degree: int = 2) -> Poly2:
    coeffs = {}
    for _ in range(rng.randint(1, 4)):
        i, j = rng.randint(0, max_degree), rng.randint(0, max_degree)
        coeffs[(i, j)] = Fraction(rng.randint(-3, 3))
    poly = Poly2.of(coeffs)
    return poly if poly.coeffs else Poly2.const(1)


def random_jet_instance(rng: random.Random):
    f = random_poly2(rng)
    x = random_poly2(rng)
    y = random_poly2(rng)
    at = (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2), rng.choice((1, 2))))
    return f, x, y, at


def composite_jet_oracle(f: Poly2, x: Poly2, y: Poly2, at: tuple) -> Jet2:
    """Brute-force route: substitute the coordinate polynomials into f,
    then differentiate the composite polynomial formally."""
    composite = Poly2.const(0)
    for (i, j), c in f.coeffs:
        composite = composite + x.pow(i) * y.pow(j) * Poly2.const(c)
    return Jet2.of_poly(composite, at)


def change_of_vars(x: Poly2, y: Poly2, at: tuple) -> ChangeOfVars2:
    return ChangeOfVars2(Jet2.of_poly(x, at), Jet2.of_poly(y, at))


# -- suites ------------------------------------------------------------


def suite_generators() -> list[CheckResult]:
    spec = default_free_spec()
    f = spec.symbol("f")
    out = []
    expected_level2 = {
        (): [(1, (0,))],
        (0,): [(1, (1,)), (-1, (0,))],
        (1,): [(1, (2,)), (-1, (0,))],
        (1, 0): [(1, (3,)), (-1, (2,)), (-1, (1,)), (1, (0,))],
    }
    for members, slots in expected_level2.items():
        want = frame_sum(spec, 2, (slot_embed(f, slot, 2).scale(sign) for sign, (slot,) in slots))
        index = SubsetIndex.of(2, members)
        out.append(CheckResult(f"level2.d{index}", delta_I(f, index) == want))
    for j in range(4):
        subsets = slot_in_generators(f, j, 2)
        out.append(
            CheckResult(f"level2.slot{j}.inversion", generator_sum(f, subsets) == slot_embed(f, j, 2))
        )
    for j in range(8):
        subsets = slot_in_generators(f, j, 3)
        out.append(
            CheckResult(f"level3.slot{j}.inversion", generator_sum(f, subsets) == slot_embed(f, j, 3))
        )
    return out


def suite_leibniz() -> list[CheckResult]:
    spec = default_free_spec()
    g, h = spec.symbol("g"), spec.symbol("h")
    rng = random.Random(7)
    out = []
    one_form = module_left(FrameElem.from_alg(g), delta_iter(h, 1))
    lhs = frame_delta(one_form)
    term1 = module_right(frame_delta(rho(FrameElem.from_alg(g))), delta_iter(h, 1))
    term2 = module_left(lift_to(g, 1), frame_delta(delta_iter(h, 1)))
    out.append(CheckResult("product.rule.split", lhs == term1 + term2))
    out.append(
        CheckResult(
            "lam.generator.identity",
            lam(delta_iter(h, 1))
            == delta_I(h, SubsetIndex.of(2, (1, 0))) + delta_I(h, SubsetIndex.of(2, (0,))),
        )
    )
    for level in range(4):
        ok = True
        for _ in range(5):
            a = random_frame_elem(spec, level, rng)
            b = random_frame_elem(spec, level, rng)
            lhs = frame_delta(a.mul(b))
            rhs = frame_delta(a).mul(lam(b)) + rho(a).mul(frame_delta(b))
            ok = ok and lhs == rhs
        out.append(CheckResult(f"derivation.level{level}", ok))
    return out


def suite_d2() -> list[CheckResult]:
    spec = default_free_spec()
    rng = random.Random(11)
    out = []
    ok = True
    for _ in range(30):
        level = rng.randint(0, 2)
        degree = rng.randint(0, 2)
        m = random_omega_monomial(spec, level, degree, rng)
        expanded = omega_to_tensor(universal_d(universal_d(m)))
        ok = ok and expanded.is_zero()
    out.append(CheckResult("universal.d.squares.to.zero", ok))
    out.append(CheckResult("iterated.delta.nonzero", not delta_iter(spec.symbol("f"), 2).is_zero()))
    kernel_ok = True
    for level in (0, 1):
        for _ in range(5):
            omega = frame_delta(random_frame_elem(spec, level, rng))
            kernel_ok = kernel_ok and is_universal_one_form(omega)
    out.append(CheckResult("image.in.kernel.of.mult", kernel_ok))
    return out


def suite_tables() -> list[CheckResult]:
    spec = default_free_spec()
    return [
        CheckResult(f"order{order}.row{row}", check_table_row(spec, order, row))
        for (order, row) in sorted(EXPANSION_TABLE)
    ]


def suite_odot() -> list[CheckResult]:
    spec = default_free_spec()
    rng = random.Random(23)
    assoc_ok = True
    derivation_ok = True
    for _ in range(12):
        orders = [rng.randint(0, 2) for _ in range(3)]
        while sum(orders) > 4:
            i = rng.randrange(3)
            orders[i] = max(0, orders[i] - 1)
        u, v, w = (random_leibniz_form(spec, o, rng) for o in orders)
        assoc_ok = assoc_ok and odot(odot(u, v), w) == odot(u, odot(v, w))
        if u.order + v.order <= 3:
            lhs = symbolic_delta(odot(u, v))
            rhs = odot(symbolic_delta(u), v) + odot(u, symbolic_delta(v))
            derivation_ok = derivation_ok and embed(lhs) == embed(rhs)
    intertwine_ok = True
    for _ in range(10):
        w = random_leibniz_form(spec, rng.randint(0, 3), rng)
        intertwine_ok = intertwine_ok and embed(symbolic_delta(w)) == frame_delta(embed(w))
    return [
        CheckResult("odot.associative", assoc_ok),
        CheckResult("delta.is.derivation", derivation_ok),
        CheckResult("embed.intertwines.delta", intertwine_ok),
    ]


def suite_jets() -> list[CheckResult]:
    rng = random.Random(31)
    out = []
    formulas_ok = True
    invariance_ok = True
    for _ in range(25):
        f, x, y, at = random_jet_instance(rng)
        cv = change_of_vars(x, y, at)
        fj = Jet2.of_poly(f, (x.eval(*at), y.eval(*at)))
        formulas_ok = formulas_ok and transform_jet2(fj, cv) == composite_jet_oracle(f, x, y, at)
        invariance_ok = invariance_ok and delta2_invariance_check(fj, cv)
    out.append(CheckResult("chain.rule.vs.composition", formulas_ok))
    out.append(CheckResult("second.differential.invariant", invariance_ok))
    nonlinear = ChangeOfVars2(
        Jet2.of(3, 1, 2, 2, 0, 0), Jet2.of(5, 0, 1, 0, 0, 2)
    )
    fj = Jet2.of(1, 2, 3, 4, 5, 6)
    out.append(
        CheckResult(
            "truncation.detected",
            not delta2_invariance_check(fj, nonlinear, drop_first_derivative_terms=True),
        )
    )
    linear = ChangeOfVars2(Jet2.of(0, 1, 2, 0, 0, 0), Jet2.of(0, 3, 1, 0, 0, 0))
    out.append(
        CheckResult(
            "truncation.safe.for.linear",
            delta2_invariance_check(fj, linear, drop_first_derivative_terms=True),
        )
    )
    transfer_ok = True
    for _ in range(25):
        phi = Jet1.of(rng.randint(-4, 4), rng.randint(-4, 4))
        u = Jet1.of(rng.randint(-4, 4), rng.randint(-4, 4))
        v = Jet1.of(rng.randint(-4, 4), rng.randint(-4, 4))
        m_u, m_v = TransferMatrix1.of_jet(u), TransferMatrix1.of_jet(v)
        transfer_ok = transfer_ok and m_u.apply(phi) == chain2_1d(phi, u)
        composed = transfer_compose(m_u, m_v)
        transfer_ok = transfer_ok and composed.rows()[1][0] == 0
        transfer_ok = transfer_ok and composed.apply(phi) == chain2_1d(chain2_1d(phi, u), v)
    out.append(CheckResult("transfer.matrix.multiplicative", transfer_ok))
    return out


SUITES: dict[str, Callable[[], list[CheckResult]]] = {
    "generators": suite_generators,
    "leibniz": suite_leibniz,
    "d2": suite_d2,
    "tables": suite_tables,
    "odot": suite_odot,
    "jets": suite_jets,
}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        out = []
        for suite in SUITES.values():
            out.extend(suite())
        return out
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name]()
