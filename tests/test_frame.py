import pytest

from ncdiff.algebra import AlgebraMismatchError, AlgebraSpec
from ncdiff.frame import (
    FrameElem,
    SubsetIndex,
    delta_I,
    delta_iter,
    frame_delta,
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
from ncdiff.leibniz import embed
from ncdiff.scalars import ONE, Scalar
from ncdiff.tensor import TensorPoly, mult_map, tensor_eval
from ncdiff.verify import random_frame_elem, random_leibniz_form

from exactlinalg import dense_terms

SPEC = AlgebraSpec.free(("f", "g", "h"))
F, G, H = (SPEC.symbol(s) for s in "fgh")


def slots(elem, *positions, p):
    """Signed sum of slot embeddings, a hand-built independent expansion."""
    total = FrameElem.zero(SPEC, p)
    for sign, j in positions:
        total = total + slot_embed(elem, j, p).scale(sign)
    return total


def test_rho_pads_right_and_lam_pads_left():
    f0 = FrameElem.from_alg(F)
    assert rho(f0).body == TensorPoly.elementary((F, SPEC.unit()))
    assert lam(f0).body == TensorPoly.elementary((SPEC.unit(), F))
    assert rho(FrameElem.unit(SPEC, 1)) == FrameElem.unit(SPEC, 2)
    assert lam(FrameElem.unit(SPEC, 1)) == FrameElem.unit(SPEC, 2)


@pytest.mark.parametrize("op", [FrameElem.mul, FrameElem.add, FrameElem.sub])
def test_operands_of_another_level_or_spec_are_refused(op):
    """The tensor layer's check is the only one: a level is a body degree."""
    f0 = FrameElem.from_alg(F)
    with pytest.raises(ValueError) as err:
        op(f0, rho(f0))
    assert not isinstance(err.value, AlgebraMismatchError)
    with pytest.raises(AlgebraMismatchError):
        op(f0, FrameElem.from_alg(AlgebraSpec.free(("f", "g")).symbol("f")))


def test_four_fold_lift_is_f_followed_by_fifteen_units():
    lifted = lift_to(F, 4)
    assert lifted == slot_embed(F, 0, 4)
    assert dense_terms(lifted.body) == [(ONE, (("f",),) + ((),) * 15)]


def test_lift_to_is_identity_at_own_level_and_multiplicative(rng):
    for level in (0, 1, 2):
        a = random_frame_elem(SPEC, level, rng)
        assert lift_to(a, level) == a
        b = random_frame_elem(SPEC, level, rng)
        assert lift_to(a.mul(b), level + 2) == lift_to(a, level + 2).mul(lift_to(b, level + 2))
    with pytest.raises(ValueError):
        lift_to(random_frame_elem(SPEC, 2, rng), 1)


def test_rho_and_lam_are_multiplicative(rng):
    for level in (0, 1, 2):
        a = random_frame_elem(SPEC, level, rng)
        b = random_frame_elem(SPEC, level, rng)
        assert rho(a.mul(b)) == rho(a).mul(rho(b))
        assert lam(a.mul(b)) == lam(a).mul(lam(b))


def test_frame_delta_base_case():
    assert delta_iter(F, 1) == slots(F, (1, 1), (-1, 0), p=1)
    assert frame_delta(FrameElem.unit(SPEC, 1)).is_zero()


def test_frame_delta_level_one_four_terms():
    got = delta_iter(H, 2)
    want = slots(H, (1, 3), (-1, 2), (-1, 1), (1, 0), p=2)
    assert got == want


def test_lam_of_level_one_differential():
    got = lam(delta_iter(H, 1))
    assert got == slots(H, (1, 3), (-1, 2), p=2)


def test_lam_splits_over_generators(rng):
    from ncdiff.verify import random_elem

    for _ in range(10):
        h = random_elem(SPEC, rng)
        lhs = lam(delta_iter(h, 1))
        rhs = delta_I(h, SubsetIndex.of(2, (1, 0))) + delta_I(h, SubsetIndex.of(2, (0,)))
        assert lhs == rhs


def test_derivation_law_all_levels(rng):
    for level in range(4):
        for _ in range(4):
            a = random_frame_elem(SPEC, level, rng)
            b = random_frame_elem(SPEC, level, rng)
            lhs = frame_delta(a.mul(b))
            rhs = frame_delta(a).mul(lam(b)) + rho(a).mul(frame_delta(b))
            assert lhs == rhs


def test_differential_image_is_killed_by_multiplication(rng):
    for level in (0, 1, 2):
        for _ in range(5):
            omega = frame_delta(random_frame_elem(SPEC, level, rng))
            assert mult_map(omega.body).is_zero()
            assert is_universal_one_form(omega)


def test_is_universal_one_form_examples():
    assert not is_universal_one_form(FrameElem.unit(SPEC, 2))
    gdh = module_left(FrameElem.from_alg(G), delta_iter(H, 1))
    assert is_universal_one_form(gdh)
    with pytest.raises(ValueError):
        is_universal_one_form(FrameElem.from_alg(F))


def test_delta_iter_examples():
    assert delta_iter(F, 1) == frame_delta(FrameElem.from_alg(F))
    assert not delta_iter(F, 2).is_zero()
    with pytest.raises(ValueError):
        delta_iter(F, 0)


def test_level2_generator_table():
    table = {
        (): [(1, 0)],
        (0,): [(1, 1), (-1, 0)],
        (1,): [(1, 2), (-1, 0)],
        (1, 0): [(1, 3), (-1, 2), (-1, 1), (1, 0)],
    }
    for members, expansion in table.items():
        got = delta_I(F, SubsetIndex.of(2, members))
        assert got == slots(F, *[(s, j) for s, j in expansion], p=2)


def test_level3_generators_and_roundtrip():
    for mask in range(8):
        members = tuple(s for s in range(3) if (mask >> s) & 1)
        elem = delta_I(F, SubsetIndex.of(3, members))
        assert elem.level == 3 and not elem.is_zero()
    assert delta_I(F, SubsetIndex.of(3, (2, 1, 0))) == delta_iter(F, 3)
    for j in range(8):
        subsets = slot_in_generators(j, 3)
        assert generator_sum(F, subsets) == slot_embed(F, j, 3)
        assert len(subsets) == 2 ** bin(j).count("1")


def test_full_subset_scan_equals_iterated_delta():
    for n in range(1, 5):
        assert delta_I(F, SubsetIndex.of(n, tuple(range(n)))) == delta_iter(F, n)


def level_scan(f, p, members):
    """The generator scan written out: differentiate at the chosen levels,
    lift on the right at the others."""
    out = FrameElem.from_alg(f)
    for s in range(p):
        out = frame_delta(out) if s in members else rho(out)
    return out


def test_generators_are_the_level_scan():
    """delta_I and delta_iter, both one-factor generator monomials, equal
    the scan for every subset at levels 0-4."""
    for f in (F, G.mul(H).add(F.scale(Scalar.of(-2)))):
        for p in range(5):
            for mask in range(2**p):
                members = [s for s in range(p) if (mask >> s) & 1]
                assert delta_I(f, SubsetIndex.of(p, members)) == level_scan(f, p, members)
            if p:
                assert delta_iter(f, p) == level_scan(f, p, range(p))


def bitmask_subsets(j, p):
    """Every subset of slot j's bits, smallest first, then by falling members."""
    bits = [s for s in range(p) if (j >> s) & 1]
    subsets = [SubsetIndex.of(p, (b for i, b in enumerate(bits) if (mask >> i) & 1)) for mask in range(1 << len(bits))]
    return sorted(subsets, key=lambda ix: (len(ix.members), ix.members))


def test_slot_in_generators_lists_subsets_in_bitmask_order():
    for p in range(6):
        for j in range(2**p):
            assert slot_in_generators(j, p) == tuple(bitmask_subsets(j, p))


def test_slot_embed_examples():
    assert slot_embed(F, 0, 2).body == TensorPoly.elementary((F, SPEC.unit(), SPEC.unit(), SPEC.unit()))
    assert slot_embed(F, 3, 2).body == TensorPoly.elementary((SPEC.unit(), SPEC.unit(), SPEC.unit(), F))
    assert slot_embed(SPEC.unit(), 2, 2) == FrameElem.unit(SPEC, 2)
    with pytest.raises(ValueError):
        slot_embed(F, 4, 2)
    with pytest.raises(ValueError):
        slot_in_generators(-1, 2)


def test_slot_in_generators_level2_table():
    assert [set(ix.members) for ix in slot_in_generators(0, 2)] == [set()]
    assert {tuple(ix.members) for ix in slot_in_generators(1, 2)} == {(), (0,)}
    assert {tuple(ix.members) for ix in slot_in_generators(2, 2)} == {(), (1,)}
    assert {tuple(ix.members) for ix in slot_in_generators(3, 2)} == {(), (0,), (1,), (1, 0)}
    for j in range(4):
        assert generator_sum(F, slot_in_generators(j, 2)) == slot_embed(F, j, 2)


def test_module_actions_match_worked_computation():
    g_times = module_left(FrameElem.from_alg(G), delta_iter(H, 1))
    assert g_times.body == TensorPoly.of(
        SPEC,
        2,
        [(Scalar.of(1), (G, H)), (Scalar.of(-1), (G.mul(H), SPEC.unit()))],
    )
    lhs = frame_delta(g_times)
    rhs1 = module_right(frame_delta(rho(FrameElem.from_alg(G))), delta_iter(H, 1))
    rhs2 = module_left(lift_to(G, 1), frame_delta(delta_iter(H, 1)))
    assert lhs == rhs1 + rhs2
    with pytest.raises(ValueError):
        module_left(FrameElem.from_alg(G), FrameElem.from_alg(H))


def test_value_validation():
    with pytest.raises(ValueError, match="body degree 3 is not a power of two"):
        FrameElem(TensorPoly.elementary((F, G, H)))
    with pytest.raises(ValueError):
        TensorPoly.of(SPEC, 0, [])


def test_level_is_read_from_the_body_degree(rng):
    """Every frame operation's result sits at the level its body's degree fixes."""
    results = []
    for p in range(5):
        a, b = random_frame_elem(SPEC, p, rng), random_frame_elem(SPEC, p, rng)
        one_form = frame_delta(b)
        results += [rho(a), lam(a), one_form, module_left(a, one_form), module_right(one_form, a)]
        results += [lift_to(F, p), slot_embed(G, 2**p - 1, p), delta_I(H, SubsetIndex.of(p, range(0, p, 2)))]
        results.append(embed(random_leibniz_form(SPEC, p, rng)))
    assert {x.level for x in results} == set(range(6))
    for x in results:
        assert 2**x.level == x.body.degree


def test_subset_index_validation_and_printing():
    ix = SubsetIndex.of(5, (0, 3, 1))
    assert ix.members == (3, 1, 0)
    assert str(ix) == "{3,1,0}"
    assert str(SubsetIndex.of(2, ())) == "{}"
    with pytest.raises(ValueError):
        SubsetIndex.of(2, (5,))


def test_high_level_evaluation_is_lazy_per_tuple():
    # 32 slots would need 2**32 table entries if materialized; a single
    # tuple evaluates directly and matches the alternating-sum formula
    spec = AlgebraSpec.function(("L", "R"), {"x": (1, 0), "y": (0, 1)})
    x = spec.symbol("x")
    elem = delta_iter(x, 5)
    args = tuple("L" if i % 3 == 0 else "R" for i in range(32))
    got = tensor_eval(elem.body, args)
    want = 0
    for j in range(32):
        sign = (-1) ** (5 - bin(j).count("1"))
        want += sign * (1 if args[j] == "L" else 0)
    assert got == Scalar.of(want)

