import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncdiff.algebra import (
    AlgebraMismatchError,
    AlgebraSpec,
    FreePoly,
    func_as_diagonal,
)
from ncdiff.scalars import ONE, Scalar, integer

FREE = AlgebraSpec.free(("f", "g", "h"))
COMM = AlgebraSpec.free(("f", "g", "h"), commutative=True)
TWO_POINT = AlgebraSpec.function(("L", "R"), {"x": (1, 0), "y": (0, 1)})
MAT = AlgebraSpec.matrix(2, {"f": [[3, 1], [2, 7]], "g": [[0, 1], [1, 0]]})

small_scalars = st.builds(
    Scalar, st.fractions(min_value=-6, max_value=6, max_denominator=3), st.just(Fraction(0))
)


def elems(spec):
    unit = st.just(spec.unit())
    syms = st.sampled_from([spec.symbol(s) for s in spec.symbols])
    pair = st.tuples(syms, syms).map(lambda ab: ab[0].mul(ab[1]))
    combo = st.tuples(syms, small_scalars, pair, small_scalars).map(
        lambda t: t[0].scale(t[1]).add(t[2].scale(t[3]))
    )
    return st.one_of(unit, syms, pair, combo)


@pytest.mark.parametrize("spec", [FREE, COMM, TWO_POINT, MAT], ids=["free", "comm", "func", "mat"])
def test_algebra_laws(spec):
    @settings(max_examples=60, deadline=None)
    @given(elems(spec), elems(spec), elems(spec))
    def check(a, b, c):
        assert a.mul(b).mul(c) == a.mul(b.mul(c))
        assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))
        assert a.add(b).mul(c) == a.mul(c).add(b.mul(c))
        assert spec.unit().mul(a) == a
        assert a.mul(spec.unit()) == a
        assert a.add(a.scale(integer(-1))).is_zero()

    check()


def test_two_point_relations():
    x, y = TWO_POINT.symbol("x"), TWO_POINT.symbol("y")
    assert x.mul(y).is_zero()
    assert y.mul(x).is_zero()
    assert x.mul(x) == x
    assert y.mul(y) == y
    assert x.add(y) == TWO_POINT.unit()


def test_free_words_do_not_commute():
    f, g = FREE.symbol("f"), FREE.symbol("g")
    assert f.mul(g) != g.mul(f)
    assert f.mul(g).terms == ((("f", "g"), ONE),)


def test_commutative_mode_sorts_words():
    f, g = COMM.symbol("f"), COMM.symbol("g")
    assert f.mul(g) == g.mul(f)
    assert g.mul(f).terms[0][0] == ("f", "g")


def test_canonical_form_idempotent():
    e = FreePoly.of(FREE, {("f", "g"): integer(2), ("g",): integer(-1), ("h",): integer(0)})
    again = FreePoly.of(FREE, dict(e.terms))
    assert e == again
    assert all(not c.is_zero() for _, c in e.terms)


def test_backend_mismatch_raises():
    with pytest.raises(AlgebraMismatchError):
        FREE.symbol("f").mul(COMM.symbol("f"))
    with pytest.raises(AlgebraMismatchError):
        TWO_POINT.symbol("x").add(FREE.symbol("f"))


def test_func_as_diagonal_examples():
    x, y = TWO_POINT.symbol("x"), TWO_POINT.symbol("y")
    lam, mu = integer(4), Scalar.of(Fraction(-3, 2))
    d = func_as_diagonal(x.scale(lam).add(y.scale(mu)))
    assert d.rows == ((lam, Scalar.of(0)), (Scalar.of(0), mu))
    ident = func_as_diagonal(TWO_POINT.unit())
    assert ident.unit_multiple() == ONE
    assert func_as_diagonal(x.mul(y)).is_zero()


def test_func_as_diagonal_is_a_homomorphism():
    rng = random.Random(5)
    for _ in range(20):
        a = TWO_POINT.symbol("x").scale(integer(rng.randint(-3, 3))).add(
            TWO_POINT.symbol("y").scale(integer(rng.randint(-3, 3)))
        )
        b = TWO_POINT.symbol("x").scale(integer(rng.randint(-3, 3))).add(
            TWO_POINT.symbol("y").scale(integer(rng.randint(-3, 3)))
        )
        assert func_as_diagonal(a.mul(b)) == func_as_diagonal(a).mul(func_as_diagonal(b))
        assert func_as_diagonal(a.add(b)) == func_as_diagonal(a).add(func_as_diagonal(b))


def test_spec_validation():
    with pytest.raises(ValueError):
        AlgebraSpec.free(("f", "f"))
    with pytest.raises(ValueError):
        AlgebraSpec.function(("L", "R"), {"x": (1,)})
    with pytest.raises(ValueError):
        AlgebraSpec.matrix(2, {"f": [[1, 0]]})
    with pytest.raises(KeyError):
        FREE.symbol("nope")


def test_spec_json_round_trip():
    for spec in (FREE, COMM, TWO_POINT, MAT):
        assert AlgebraSpec.from_json(spec.to_json()) == spec


def test_spec_json_documented_shape():
    doc = {
        "backend": "function",
        "points": ["L", "R"],
        "values": {"x": {"L": [[1, 1], [0, 1]], "R": [[0, 1], [0, 1]]}},
    }
    spec = AlgebraSpec.from_json(doc)
    assert spec.symbol("x").values == (ONE, Scalar.of(0))
