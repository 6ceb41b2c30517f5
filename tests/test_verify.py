"""The check battery's inputs: the normal-form builders of ``ncdiff.verify``
draw the same instances, in the same order, as the reference routes of
``reference_builders``, and leave the generator in the same state."""

from __future__ import annotations

import random

import pytest

import reference_builders as ref
from ncdiff import jets, tensor, verify

#: (module, name, reference route): every route the faster builders replaced
REFERENCE_ROUTES = [
    (verify, "random_scalar", ref.random_scalar),
    (verify, "random_elem", ref.random_elem),
    (verify, "random_poly2", ref.random_poly2),
    (verify, "composite_jet_oracle", ref.composite_jet_oracle),
    (jets, "_expand_second_differential", ref.expand_second_differential),
    (tensor, "_expand", ref.expand),
]


def take_reference_routes(monkeypatch) -> None:
    for module, name, route in REFERENCE_ROUTES:
        monkeypatch.setattr(module, name, route)


def printed(instances) -> list[tuple[str, str, str]]:
    """Each instance as its reprs: equal values in another form (2 and
    Fraction(2), or unsorted terms) would compare equal but print apart."""
    return [(check, repr(lhs), repr(rhs)) for check, lhs, rhs in instances]


@pytest.mark.parametrize("name", list(verify.SUITES))
def test_every_suite_draws_the_reference_instances(monkeypatch, name):
    got = list(verify.SUITES[name]())
    take_reference_routes(monkeypatch)
    want = list((ref.suite_odot if name == "odot" else verify.SUITES[name])())
    assert got == want
    assert printed(got) == printed(want)


def builder_draws(spec, seed: int) -> list[tuple[str, object]]:
    """Every builder over spec from one generator: each value's repr and
    the generator's state after it."""
    rng = random.Random(seed)
    calls = [lambda: verify.random_scalar(rng) for _ in range(20)]
    calls += [lambda: verify.random_elem(spec, rng) for _ in range(30)]
    calls += [lambda: verify.random_elem(spec, rng, max_terms=1) for _ in range(10)]
    calls += [lambda n=n: verify.random_frame_elem(spec, n, rng) for n in range(3) for _ in range(6)]
    calls += [lambda n=n: verify.random_leibniz_form(spec, n, rng) for n in range(4) for _ in range(4)]
    calls += [lambda: verify.random_jet_instance(rng) for _ in range(10)]
    return [(repr(call()), rng.getstate()) for call in calls]


@pytest.mark.parametrize("spec_name", ["free_spec", "comm_spec", "three_point", "mat_spec"])
def test_builders_match_the_reference_on_every_backend(request, monkeypatch, spec_name):
    spec = request.getfixturevalue(spec_name)
    for seed in (1, 2, 3):
        got = builder_draws(spec, seed)
        with monkeypatch.context() as patch:
            take_reference_routes(patch)
            want = builder_draws(spec, seed)
        assert got == want
