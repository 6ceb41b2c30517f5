"""The mutation table: each row breaks the library in one place, by a
monkeypatch, and names exactly the ``verify`` checks that must then fail,
so a faster route can never leave a check unable to fail.  Each new check
adds a row."""

from __future__ import annotations

import pytest

from ncdiff import jets, verify
from ncdiff.jets import Jet2
from ncdiff.scalars import rational

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
}


def failing_checks(suite: str) -> set[str]:
    return {r.name for r in verify.run_suite(suite) if not r.ok}


@pytest.mark.parametrize("row", list(MUTATIONS))
def test_each_mutation_fails_its_checks(monkeypatch, row):
    suite, patches, must_fail = MUTATIONS[row]
    for module, name, replacement in patches:
        monkeypatch.setattr(module, name, replacement)
    assert failing_checks(suite) == must_fail
