"""The mutation table: each row breaks the library in one place, by a
monkeypatch, and names exactly the ``verify`` checks that must then fail,
so a faster route can never leave a check unable to fail.  Each new check
adds a row: ``test_every_check_of_suite_all_has_a_row`` fails until it has one."""

from __future__ import annotations

from math import comb

import pytest

from ncdiff import frame, jets, leibniz, tensor, verify
from ncdiff.jets import Jet2
from ncdiff.leibniz import LeibnizForm
from ncdiff.scalars import rational
from ncdiff.tensor import Memo

transform_jet2 = jets.transform_jet2
expand_second_differential = jets._expand_second_differential


def transform_without_fx_xfxy(fj, x, y):
    """The chain rule with fj.fx * x.fxy dropped from fuv."""
    out = transform_jet2(fj, x, y)
    return Jet2(out.f, out.fx, out.fy, out.fxx, rational(out.fxy - fj.fx * x.fxy), out.fyy)


def substitution_without_first_order(fj, x, y, include_first_order):
    """The substituted second differential without fx d2x + fy d2y in its
    quadratic part; the d2u and d2v coefficients are kept."""
    return expand_second_differential(fj, x, y, False)[:3] + expand_second_differential(fj, x, y, include_first_order)[3:]


def substitution_always_first_order(fj, x, y, include_first_order):
    """The substituted second differential with fx d2x + fy d2y, truncated or not."""
    return expand_second_differential(fj, x, y, True)


def invariance_comparing_all_five(fj, x, y, *, drop_first_derivative_terms=False):
    """``jets.delta2_invariance_check`` comparing all five coefficients, under the truncation too."""
    want = transform_jet2(fj, x, y)
    got = expand_second_differential(fj, x, y, not drop_first_derivative_terms)
    return got == (want.fxx, want.fyy, 2 * want.fxy, want.fx, want.fy)


def right_products(g, part=lambda c: c):
    """``tensor.left_products`` with the factors swapped: label -> label·g."""
    return Memo(lambda label: tuple((part(c), lp) for c, lp in g.spec.basis_elem(label).mul(g).basis_decomposition()))


def move_left_flipping(binomial: int, last: int):
    """``leibniz._move_left`` with its binomial terms times ``binomial`` and
    its term -g·d^k(c) times ``last`` (each 1 or -1)."""
    def move_left(factors, b):
        if not factors or b.unit_multiple() is not None:
            return ((b, factors),)
        spec, unit, form = b.spec, b.spec.unit(), LeibnizForm.from_alg(b)
        for k, g in reversed(factors):
            out = []
            for c, n in form.terms:
                out.append((unit, ((k, g.mul(c)),) + n))
                out += ((spec.scalar(-binomial * comb(k, j)), ((k - j, g), (j, c)) + n) for j in range(1, k))
                out.append((g.neg() if last == 1 else g, ((k, c),) + n))
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


def delta_I_dropping_lowest_level(f, index):
    """``frame.delta_I`` that lifts on the right at the lowest chosen level in place of differentiating."""
    return frame.generator_monomial_eval(((frame.SubsetIndex(index.p, index.members[:-1]), f),))


def d_items_flipped(items, d):
    """``tensor._d_items`` of u⊗1 - 1⊗u: the kept keys positive, the shifted keys negated."""
    return [(key, -c) for key, c in tensor._d_items(items, d)]


#: the ``EXPANSION_TABLE`` rows: 2^(n-1) of order n
TABLE_ROWS = {f"order{n}.row{i}" for n in range(1, 5) for i in range(1, 2 ** (n - 1) + 1)}

#: the ``EXPANSION_TABLE`` rows with two or more factors
PRODUCT_ROWS = {"order2.row2", "order3.row2", "order3.row3", "order3.row4", *(f"order4.row{i}" for i in range(2, 9))}

#: the checks of suite ``generators``
GENERATOR_CHECKS = {
    "level2.d{}", "level2.d{0}", "level2.d{1}", "level2.d{1,0}",
    *(f"level{p}.slot{j}.inversion" for p in (2, 3) for j in range(2**p)),
}

#: the ``generators`` checks that apply a level differential: all but the plain lift and the slot-0 inversions
DIFFERENTIATING_CHECKS = GENERATOR_CHECKS - {"level2.d{}", "level2.slot0.inversion", "level3.slot0.inversion"}

#: row name: (suite, [(module, name, replacement)], the checks that fail)
MUTATIONS = {
    "rho.pads.on.the.left": (
        "generators",
        [(frame, "rho", frame.lam)],
        GENERATOR_CHECKS - {"level2.d{1,0}"},
    ),
    "delta.I.drops.its.lowest.level": (
        "generators",
        [(module, "delta_I", delta_I_dropping_lowest_level) for module in (frame, verify)],
        DIFFERENTIATING_CHECKS,
    ),
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
    "transfer.matrix.corner.unsquared": (
        "jets",
        [(module, "transfer_matrix", lambda u: ((u.d1, u.d2), (0, u.d1))) for module in (jets, verify)],
        {"transfer.matrix.multiplicative"},
    ),
    "truncated.substitution.keeps.first.order": (
        "jets",
        [(jets, "_expand_second_differential", substitution_always_first_order)],
        {"truncation.detected"},
    ),
    "truncated.check.compares.all.five": (
        "jets",
        [(module, "delta2_invariance_check", invariance_comparing_all_five) for module in (jets, verify)],
        {"truncation.safe.for.linear"},
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
    "frame.delta.flips.its.sign": (
        "all",
        [(frame, "tensor_d", lambda u: -tensor.tensor_d(u))],
        {
            *(DIFFERENTIATING_CHECKS - {"level2.d{1,0}"}),
            "order1.row1", "order3.row1", "order3.row2", "order3.row3", "order3.row4",
            "embed.intertwines.delta", "lam.generator.identity",
        },
    ),
    "embed.d.flips.its.sign": (
        "all",
        [(leibniz, "_d_items", d_items_flipped)],
        {
            "order2.row1", "order3.row2", "order3.row3", "order4.row1", "order4.row3", "order4.row4", "order4.row7",
            "embed.intertwines.delta",
        },
    ),
    "frame.delta.vanishes": (
        "all",
        [(frame, "tensor_d", lambda u: tensor.TensorPoly.zero(u.spec, 2 * u.degree))],
        {*DIFFERENTIATING_CHECKS, *TABLE_ROWS, "iterated.delta.nonzero", "embed.intertwines.delta"},
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


def test_every_check_of_suite_all_has_a_row():
    """Together the rows' failing sets name every check of ``verify all``."""
    checks = {r.name for r in verify.run_suite("all")}
    assert set().union(*(must_fail for _, _, must_fail in MUTATIONS.values())) == checks
