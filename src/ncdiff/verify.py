"""Built-in verification suites.

Each suite yields instances ``(check name, lhs, rhs)`` of exact
identities over fixed or seeded-random data: the generator tables and
their inversion, the product rule for the level differentials,
nilpotency of the universal differential inside one level, the order
1..4 expansion tables of the ⊙ product in the generator basis, ⊙
associativity, and the jet transformation laws.  ``run_suite`` judges
the instances and names the first failing instance of a failing check.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from typing import Callable, Iterator, Sequence

from .algebra import AlgebraSpec, AlgElem, FreePoly
from .frame import (
    FrameElem,
    SubsetIndex,
    delta_I,
    delta_iter,
    frame_delta,
    frame_sum,
    generator_monomial_eval,
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
    _power,
    _product,
    chain2_1d,
    delta2_invariance_check,
    transfer_compose,
    transform_jet2,
)
from .leibniz import (
    LeibnizForm,
    embed,
    enumerate_types,
    odot,
    symbolic_delta,
)
from .scalars import Record, Scalar
from .tensor import OmegaMonomial, TensorPoly, omega_to_tensor, universal_d


#: one instance of a named check: (check name, lhs, rhs)
Instance = tuple[str, object, object]


class CheckResult(Record):
    __slots__ = _fields = ("name", "ok", "detail")
    def __init__(self, name: str, ok: bool, detail: str = ""):
        self.name, self.ok, self.detail = name, ok, detail


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
        parts.append(generator_monomial_eval(factors).scale(sign))
    return frame_sum(spec, order, parts)


def table_row(spec: AlgebraSpec, order: int, row: int) -> Instance:
    """The row's ⊙ monomial, embedded, and the generator sum recorded for it."""
    factors, rhs = EXPANSION_TABLE[(order, row)]
    return f"order{order}.row{row}", embed(odot_chain(spec, factors)), generator_table_rhs(spec, order, rhs)


# -- random data -----------------------------------------------------------
# Builders make values in normal form directly; tests/reference_builders.py keeps the step-by-step routes.


def random_scalar(rng: random.Random) -> Scalar:
    n, d = rng.randint(-3, 3), rng.choice((1, 1, 2))
    return Scalar(Fraction(n, d) if n % d else n // d)


def random_elem(spec: AlgebraSpec, rng: random.Random, max_terms: int = 2) -> AlgElem:
    if spec.backend == "function":
        return spec.zero().add(*(spec.symbol(name).scale(random_scalar(rng)) for name in spec.symbols))
    words = []
    for _ in range(rng.randint(1, max_terms)):
        word = (rng.choice(spec.symbols),)
        if rng.random() < 0.3:
            word += (rng.choice(spec.symbols),)
        words.append((word, random_scalar(rng)))
    out = FreePoly.of(spec, words) if spec.backend == "free" else spec.zero().add(
        *(reduce(lambda a, b: a.mul(b), map(spec.symbol, w)).scale(c) for w, c in words))
    if out.is_zero():
        out = spec.symbol(rng.choice(spec.symbols))
    return out


def random_frame_elem(spec: AlgebraSpec, level: int, rng: random.Random) -> FrameElem:
    width, unit, terms = 2**level, spec.unit(), []
    for _ in range(rng.randint(1, 2)):
        factors = tuple(random_elem(spec, rng) if rng.random() < 0.5 else unit for _ in range(width))
        terms.append((random_scalar(rng), factors))
    return FrameElem(TensorPoly.of(spec, width, terms))


def random_leibniz_form(spec: AlgebraSpec, order: int, rng: random.Random) -> LeibnizForm:
    if order == 0:
        return LeibnizForm.from_alg(random_elem(spec, rng))
    composition = rng.choice(enumerate_types(order))
    factors = tuple((k, random_elem(spec, rng, max_terms=1)) for k in composition)
    coeff = random_elem(spec, rng, max_terms=1) if rng.random() < 0.7 else spec.unit()
    form = LeibnizForm.monomial(coeff, factors)
    if form.is_zero():
        return random_leibniz_form(spec, order, rng)
    return form


def random_omega_monomial(spec: AlgebraSpec, level: int, degree: int, rng: random.Random) -> OmegaMonomial:
    """Never trivially zero: a zero letter or a unit-multiple differentiated letter is drawn again."""
    letters: list[TensorPoly] = []
    while len(letters) <= degree:
        letter = random_frame_elem(spec, level, rng).body
        if not letter.is_zero() and (not letters or letter.unit_multiple() is None):
            letters.append(letter)
    return OmegaMonomial(tuple(letters))


def random_poly2(rng: random.Random, max_degree: int = 2) -> Poly2:
    coeffs = {}
    for _ in range(rng.randint(1, 4)):
        i, j = rng.randint(0, max_degree), rng.randint(0, max_degree)
        coeffs[(i, j)] = rng.randint(-3, 3)
    return Poly2.of(coeffs if any(coeffs.values()) else {(0, 0): 1})


def random_jet_instance(rng: random.Random):
    f, x, y = (random_poly2(rng) for _ in range(3))
    at = (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2), rng.choice((1, 2))))
    return f, x, y, at


def composite_jet_oracle(f: Poly2, x: Poly2, y: Poly2, at: tuple) -> Jet2:
    """Brute-force route: substitute the coordinate polynomials into f, on
    coefficient dicts, then read the composite polynomial's jet."""
    xd, yd, composite = dict(x.coeffs), dict(y.coeffs), {}
    for (i, j), c in f.coeffs:
        for k, v in _product(_power(xd, i), _power(yd, j)).items():
            composite[k] = composite.get(k, 0) + c * v
    return Jet2.of_poly(Poly2.of(composite), at)


def change_of_vars(x: Poly2, y: Poly2, at: tuple) -> ChangeOfVars2:
    return ChangeOfVars2(Jet2.of_poly(x, at), Jet2.of_poly(y, at))


# -- suites ------------------------------------------------------------


def suite_generators() -> Iterator[Instance]:
    spec = default_free_spec()
    f = spec.symbol("f")
    expected_level2 = {
        (): [(1, (0,))],
        (0,): [(1, (1,)), (-1, (0,))],
        (1,): [(1, (2,)), (-1, (0,))],
        (1, 0): [(1, (3,)), (-1, (2,)), (-1, (1,)), (1, (0,))],
    }
    for members, slots in expected_level2.items():
        want = frame_sum(spec, 2, (slot_embed(f, slot, 2).scale(sign) for sign, (slot,) in slots))
        index = SubsetIndex.of(2, members)
        yield f"level2.d{index}", delta_I(f, index), want
    for level in (2, 3):
        for j in range(2**level):
            subsets = slot_in_generators(j, level)
            yield f"level{level}.slot{j}.inversion", generator_sum(f, subsets), slot_embed(f, j, level)


def suite_leibniz() -> Iterator[Instance]:
    spec = default_free_spec()
    g, h = spec.symbol("g"), spec.symbol("h")
    rng = random.Random(7)
    one_form = module_left(FrameElem.from_alg(g), delta_iter(h, 1))
    term1 = module_right(frame_delta(rho(FrameElem.from_alg(g))), delta_iter(h, 1))
    term2 = module_left(lift_to(g, 1), frame_delta(delta_iter(h, 1)))
    yield "product.rule.split", frame_delta(one_form), term1 + term2
    yield (
        "lam.generator.identity",
        lam(delta_iter(h, 1)),
        delta_I(h, SubsetIndex.of(2, (1, 0))) + delta_I(h, SubsetIndex.of(2, (0,))),
    )
    for level in range(4):
        for _ in range(5):
            a = random_frame_elem(spec, level, rng)
            b = random_frame_elem(spec, level, rng)
            rhs = frame_delta(a).mul(lam(b)) + rho(a).mul(frame_delta(b))
            yield f"derivation.level{level}", frame_delta(a.mul(b)), rhs


def suite_d2() -> Iterator[Instance]:
    spec = default_free_spec()
    rng = random.Random(11)
    for _ in range(30):
        level = rng.randint(0, 2)
        degree = rng.randint(0, 2)
        m = random_omega_monomial(spec, level, degree, rng)
        yield "universal.d.squares.to.zero", omega_to_tensor(universal_d(universal_d(m))).is_zero(), True
    yield "iterated.delta.nonzero", delta_iter(spec.symbol("f"), 2).is_zero(), False
    for level in (0, 1):
        for _ in range(5):
            omega = frame_delta(random_frame_elem(spec, level, rng))
            yield "image.in.kernel.of.mult", is_universal_one_form(omega), True


def suite_tables() -> Iterator[Instance]:
    spec = default_free_spec()
    return (table_row(spec, order, row) for order, row in sorted(EXPANSION_TABLE))


def suite_odot() -> Iterator[Instance]:
    spec = default_free_spec()
    rng = random.Random(23)
    for _ in range(12):
        orders = [rng.randint(0, 2) for _ in range(3)]
        while sum(orders) > 4:
            i = rng.randrange(3)
            orders[i] = max(0, orders[i] - 1)
        u, v, w = (random_leibniz_form(spec, o, rng) for o in orders)
        uv = odot(u, v)
        yield "odot.associative", odot(uv, w), odot(u, odot(v, w))
        if u.order + v.order <= 3:
            rhs = odot(symbolic_delta(u), v) + odot(u, symbolic_delta(v))
            yield "delta.is.derivation", embed(symbolic_delta(uv)), embed(rhs)
    for _ in range(10):
        w = random_leibniz_form(spec, rng.randint(0, 3), rng)
        yield "embed.intertwines.delta", embed(symbolic_delta(w)), frame_delta(embed(w))


def suite_jets() -> Iterator[Instance]:
    rng = random.Random(31)
    for _ in range(25):
        f, x, y, at = random_jet_instance(rng)
        cv = change_of_vars(x, y, at)
        fj = Jet2.of_poly(f, (cv.xj.f, cv.yj.f))
        yield "chain.rule.vs.composition", transform_jet2(fj, cv), composite_jet_oracle(f, x, y, at)
        yield "second.differential.invariant", delta2_invariance_check(fj, cv), True
    nonlinear = ChangeOfVars2(Jet2.of(3, 1, 2, 2, 0, 0), Jet2.of(5, 0, 1, 0, 0, 2))
    linear = ChangeOfVars2(Jet2.of(0, 1, 2, 0, 0, 0), Jet2.of(0, 3, 1, 0, 0, 0))
    fj = Jet2.of(1, 2, 3, 4, 5, 6)
    truncated = delta2_invariance_check(fj, nonlinear, drop_first_derivative_terms=True)
    yield "truncation.detected", truncated, False
    truncated = delta2_invariance_check(fj, linear, drop_first_derivative_terms=True)
    yield "truncation.safe.for.linear", truncated, True
    for _ in range(25):
        phi = Jet1.of(rng.randint(-4, 4), rng.randint(-4, 4))
        u = Jet1.of(rng.randint(-4, 4), rng.randint(-4, 4))
        v = Jet1.of(rng.randint(-4, 4), rng.randint(-4, 4))
        m_u, m_v = TransferMatrix1.of_jet(u), TransferMatrix1.of_jet(v)
        composed = transfer_compose(m_u, m_v)
        yield "transfer.matrix.multiplicative", m_u.apply(phi), chain2_1d(phi, u)
        yield "transfer.matrix.multiplicative", composed.rows()[1][0], 0
        yield "transfer.matrix.multiplicative", composed.apply(phi), chain2_1d(chain2_1d(phi, u), v)


SUITES: dict[str, Callable[[], Iterator[Instance]]] = {
    "generators": suite_generators,
    "leibniz": suite_leibniz,
    "d2": suite_d2,
    "tables": suite_tables,
    "odot": suite_odot,
    "jets": suite_jets,
}


def run_suite(name: str) -> list[CheckResult]:
    """Judge the named suite, or every suite for ``all``.  A check passes when
    each of its instances has lhs == rhs, else its detail names the first
    failing instance, counted from 0; checks keep their first-appearance order."""
    suites = SUITES.values() if name == "all" else (SUITES[name],)
    counts: dict[str, int] = {}
    failures: dict[str, str] = {}
    for suite in suites:
        for check, lhs, rhs in suite():
            k = counts.get(check, 0)
            counts[check] = k + 1
            if check not in failures and lhs != rhs:
                failures[check] = f"instance {k}: {lhs} != {rhs}"
    return [CheckResult(check, check not in failures, failures.get(check, "")) for check in counts]
