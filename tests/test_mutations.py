"""The mutation table: each row breaks the library in one place, by a
monkeypatch, and names exactly the ``verify`` checks that must then fail,
so a faster route can never leave a check unable to fail.  Each new check
adds a row."""

from __future__ import annotations

from math import comb

import pytest

from ncdiff import frame, jets, leibniz, tensor, verify
from ncdiff.jets import Jet2
from ncdiff.leibniz import LeibnizForm, LeibnizMonomial
from ncdiff.scalars import rational
from ncdiff.tensor import Memo

transform_jet2 = jets.transform_jet2
expand_second_differential = jets._expand_second_differential


def transform_without_fx_xfxy(fj, cv):
    """The chain rule with fj.fx * x.fxy dropped from fuv."""
    out = transform_jet2(fj, cv)
    return Jet2(out.f, out.fx, out.fy, out.fxx, rational(out.fxy - fj.fx * cv.xj.fxy), out.fyy)


def substitution_without_first_order(fj, cv, include_first_order):
    """The substituted second differential without fx d2x + fy d2y in its
    quadratic part; the d2u and d2v coefficients are kept."""
    return expand_second_differential(fj, cv, False)[:3] + expand_second_differential(fj, cv, include_first_order)[3:]


def right_products(g, part=lambda c: c):
    """``tensor.left_products`` with the factors swapped: label -> label·g."""
    return Memo(lambda label: tuple((part(c), lp) for c, lp in g.spec.basis_elem(label).mul(g).basis_decomposition()))


def move_left_flipping(binomial: int, last: int):
    """``leibniz._move_left`` with its binomial terms times ``binomial`` and
    its term -g·d^k(c) times ``last`` (each 1 or -1)."""
    def move_left(factors, b):
        if not factors or b.unit_multiple() is not None:
            return (LeibnizMonomial(b, factors),)
        spec, unit, form = b.spec, b.spec.unit(), LeibnizForm.from_alg(b)
        for k, g in reversed(factors):
            out = []
            for m in form.terms:
                c, n = m.coeff, m.factors
                out.append(LeibnizMonomial(unit, ((k, g.mul(c)),) + n))
                out += (LeibnizMonomial(spec.scalar(-binomial * comb(k, j)), ((k - j, g), (j, c)) + n) for j in range(1, k))
                out.append(LeibnizMonomial(g.neg() if last == 1 else g, ((k, c),) + n))
            form = LeibnizForm.of(spec, form.order + k, out)
        return form.terms
    return move_left


def coboundary_without_sign(u, width):
    """``tensor.coboundary`` adding every inserted unit block, none subtracted."""
    shifted = lambda key, at: tuple((slot + width if slot >= at else slot, label) for slot, label in key)
    terms = ((c, shifted(key, at)) for at in range(0, u.degree + 1, width) for c, key in u.terms)
    return tensor.tensor_collect(u.spec, u.degree + width, terms)


def mult_map_swapped(u):
    """``tensor.mult_map`` multiplying its blocks in the wrong order: slot s + p times slot s."""
    p = u.degree // 2
    items = ((c, [(s - p, l) for s, l in f if s >= p], [(s, l) for s, l in f if s < p]) for c, f in u.terms)
    return tensor._glue(u.spec, p, items)


def omega_to_tensor_flipping_d(letters):
    """``tensor.omega_to_tensor`` with d b = b (x) 1 - 1 (x) b: every differentiated letter negated."""
    return tensor.omega_to_tensor(letters[:1] + tuple(-a for a in letters[1:]))


#: the ``EXPANSION_TABLE`` rows with two or more factors
PRODUCT_ROWS = {"order2.row2", "order3.row2", "order3.row3", "order3.row4", *(f"order4.row{i}" for i in range(2, 9))}

#: row name: (suite, [(module, name, replacement)], the checks that fail)
MUTATIONS = {
    "transform_jet2.drops.fx.xfxy.from.fuv": (
        "jets",
        [(jets, "transform_jet2", transform_without_fx_xfxy), (verify, "transform_jet2", transform_without_fx_xfxy)],
        {"chain.rule.vs.composition", "second.differential.invariant"},
    ),
    "invariance.substitution.drops.first.order": (
        "jets",
        [(jets, "_expand_second_differential", substitution_without_first_order)],
        {"second.differential.invariant"},
    ),
    "composite.oracle.uncomposed": (
        "jets",
        [(verify, "composite_jet_oracle", lambda f, x, y, at: Jet2.of_poly(f, at))],
        {"chain.rule.vs.composition"},
    ),
    "glue.multiplies.b.a": (
        "all",
        [(tensor, "left_products", right_products)],
        {*PRODUCT_ROWS, "image.in.kernel.of.mult"},  # mult_map glues through the same table
    ),
    "move.left.flips.binomial.terms": (
        "all",
        [(leibniz, "_move_left", move_left_flipping(binomial=-1, last=1))],
        {"delta.is.derivation"},
    ),
    "move.left.flips.g.dk.c": (
        "all",
        [(leibniz, "_move_left", move_left_flipping(binomial=1, last=-1))],
        {"delta.is.derivation", "odot.associative"},
    ),
    "lam.pads.on.the.right": (
        "all",
        [(frame, "lam", frame.rho), (verify, "lam", frame.rho)],
        {*(f"derivation.level{n}" for n in range(4)), "lam.generator.identity", "product.rule.split", *PRODUCT_ROWS},
    ),
    "coboundary.drops.its.sign": (
        "all",
        [(tensor, "coboundary", coboundary_without_sign), (verify, "coboundary", coboundary_without_sign)],
        {"universal.d.squares.to.zero"},
    ),
    "omega.to.tensor.flips.d": (
        "all",
        [(verify, "omega_to_tensor", omega_to_tensor_flipping_d)],
        {"universal.d.squares.to.zero"},
    ),
    "mult.map.swaps.its.blocks": (
        "all",
        [(tensor, "mult_map", mult_map_swapped), (frame, "mult_map", mult_map_swapped)],
        {"image.in.kernel.of.mult"},
    ),
}


def failing_checks(suite: str) -> set[str]:
    return {r.name for r in verify.run_suite(suite) if not r.ok}


@pytest.mark.parametrize("row", list(MUTATIONS))
def test_each_mutation_fails_its_checks(monkeypatch, row):
    suite, patches, must_fail = MUTATIONS[row]
    for module, name, replacement in patches:
        monkeypatch.setattr(module, name, replacement)
    assert failing_checks(suite) == must_fail
