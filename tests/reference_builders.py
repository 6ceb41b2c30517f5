"""Step-by-step routes to the built-in checks' inputs, one object operation
per step: the reference that the library's normal-form builders and
dict routes must reproduce instance for instance.

- ``poly_*``: arithmetic on ``Poly2`` objects, each step rebuilt by
  ``Poly2.of``;
- ``random_scalar``, ``random_elem``, ``random_poly2``: the random builders
  through ``Scalar.of(Fraction(...))``, backend ``mul``/``scale``/``add`` and
  ``Poly2.of``;
- ``composite_jet_oracle`` and ``expand_second_differential``: composition
  and substitution on ``Poly2`` objects;
- ``expand``: ``TensorPoly.of``'s expansion with every slot, the unit's too,
  multiplied into each term;
- ``suite_odot``: the ⊙ suite with ``odot(u, v)`` built twice.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ncdiff.algebra import AlgebraMismatchError
from ncdiff.frame import frame_delta
from ncdiff.jets import Jet2, Poly2, _power, _product
from ncdiff.leibniz import embed, odot, symbolic_delta
from ncdiff.scalars import Scalar, rational
from ncdiff.tensor import _multilinear
from ncdiff.verify import default_free_spec, random_leibniz_form


# -- Poly2 arithmetic, one object per step ---------------------------------


def poly_const(c) -> Poly2:
    return Poly2.of({(0, 0): rational(c)})


def poly_add(a: Poly2, b: Poly2) -> Poly2:
    acc = dict(a.coeffs)
    for k, v in b.coeffs:
        acc[k] = acc.get(k, 0) + v
    return Poly2.of(acc)


def poly_mul(a: Poly2, b: Poly2) -> Poly2:
    return Poly2.of(_product(dict(a.coeffs), dict(b.coeffs)))


def poly_scale(p: Poly2, c) -> Poly2:
    c = rational(c)
    return Poly2.of({k: v * c for k, v in p.coeffs})


def poly_pow(p: Poly2, n: int) -> Poly2:
    return Poly2.of(_power(dict(p.coeffs), n))


# -- the random builders ----------------------------------------------------


def random_scalar(rng: random.Random) -> Scalar:
    return Scalar.of(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))))


def random_elem(spec, rng: random.Random, max_terms: int = 2):
    if spec.backend == "function":
        return spec.zero().add(*(spec.symbol(name).scale(random_scalar(rng)) for name in spec.symbols))
    words = []
    for _ in range(rng.randint(1, max_terms)):
        word = spec.symbol(rng.choice(spec.symbols))
        if rng.random() < 0.3:
            word = word.mul(spec.symbol(rng.choice(spec.symbols)))
        words.append(word.scale(random_scalar(rng)))
    out = spec.zero().add(*words)
    if out.is_zero():
        out = spec.symbol(rng.choice(spec.symbols))
    return out


def random_poly2(rng: random.Random, max_degree: int = 2) -> Poly2:
    coeffs = {}
    for _ in range(rng.randint(1, 4)):
        i, j = rng.randint(0, max_degree), rng.randint(0, max_degree)
        coeffs[(i, j)] = Fraction(rng.randint(-3, 3))
    poly = Poly2.of(coeffs)
    return poly if poly.coeffs else poly_const(1)


# -- the jet routes on Poly2 objects ----------------------------------------


def composite_jet_oracle(f: Poly2, x: Poly2, y: Poly2, at: tuple) -> Jet2:
    composite = poly_const(0)
    for (i, j), c in f.coeffs:
        composite = poly_add(composite, poly_mul(poly_mul(poly_pow(x, i), poly_pow(y, j)), poly_const(c)))
    return Jet2.of_poly(composite, at)


def expand_second_differential(fj, x, y, include_first_order: bool) -> tuple:
    dx, dy = Poly2.of({(1, 0): x.fx, (0, 1): x.fy}), Poly2.of({(1, 0): y.fx, (0, 1): y.fy})
    quad = poly_add(
        poly_add(poly_scale(poly_mul(dx, dx), fj.fxx), poly_scale(poly_mul(dx, dy), 2 * fj.fxy)),
        poly_scale(poly_mul(dy, dy), fj.fyy),
    )
    d2u = d2v = 0
    if include_first_order:
        for coef, j in ((fj.fx, x), (fj.fy, y)):
            quad = poly_add(quad, poly_scale(Poly2.of({(2, 0): j.fxx, (1, 1): 2 * j.fxy, (0, 2): j.fyy}), coef))
        d2u, d2v = fj.fx * x.fx + fj.fy * y.fx, fj.fx * x.fy + fj.fy * y.fy
    du2, dudv, dv2 = (dict(quad.coeffs).get(e, 0) for e in ((2, 0), (1, 1), (0, 2)))
    return du2, dv2, dudv, d2u, d2v


# -- TensorPoly.of's expansion, every slot multiplied in --------------------


def expand(spec, degree: int, terms):
    unit = spec.unit_label()
    for coeff, factors in terms:
        factors = tuple(factors)
        if len(factors) != degree:
            raise ValueError(f"term has {len(factors)} slots, expected {degree}")
        for f in factors:
            if f.spec != spec:
                raise AlgebraMismatchError("tensor slot from a different algebra")
        if not coeff.is_zero():
            slots = [(slot, f.basis_decomposition()) for slot, f in enumerate(factors)]
            yield from _multilinear(coeff, [], slots, unit)


# -- the ⊙ suite with odot(u, v) built twice --------------------------------


def suite_odot():
    spec = default_free_spec()
    rng = random.Random(23)
    for _ in range(12):
        orders = [rng.randint(0, 2) for _ in range(3)]
        while sum(orders) > 4:
            i = rng.randrange(3)
            orders[i] = max(0, orders[i] - 1)
        u, v, w = (random_leibniz_form(spec, o, rng) for o in orders)
        yield "odot.associative", odot(odot(u, v), w), odot(u, odot(v, w))
        if u.order + v.order <= 3:
            rhs = odot(symbolic_delta(u), v) + odot(u, symbolic_delta(v))
            yield "delta.is.derivation", embed(symbolic_delta(odot(u, v))), embed(rhs)
    for _ in range(10):
        w = random_leibniz_form(spec, rng.randint(0, 3), rng)
        yield "embed.intertwines.delta", embed(symbolic_delta(w)), frame_delta(embed(w))
