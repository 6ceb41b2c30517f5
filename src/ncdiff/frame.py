"""The tower of iterated frame algebras and their differentials.

Level p holds tensors of degree 2**p over the base algebra.  The two
elementary lifts pad an element with units on the right (rho) or on
the left (lam); the degree-one differential of level p is their
difference, ``tensor_d`` of the body, landing in level p+1.  A
generator monomial at level n is a product of factors (subset of
{0..n-1}, g) with disjoint subsets, evaluated by one scan of the levels
upward; the generators ``delta_I`` are its one-factor case, choosing at
each level either the differential or the right lift.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence, Union

from .algebra import AlgebraSpec, AlgElem
from .scalars import Record, Scalar
from .tensor import TensorPoly, componentwise_product, mult_map, tensor_concat, tensor_d, tensor_sum


@dataclass(frozen=True)
class FrameElem:
    body: TensorPoly

    def __post_init__(self):
        degree = self.body.degree
        if degree & (degree - 1):
            raise ValueError(f"body degree {degree} is not a power of two")

    @property
    def level(self) -> int:  # the p of degree 2**p
        return self.body.degree.bit_length() - 1

    @property
    def spec(self) -> AlgebraSpec:
        return self.body.spec

    @staticmethod
    def from_alg(elem: AlgElem) -> FrameElem:
        return FrameElem(TensorPoly.wrap(elem))

    @staticmethod
    def unit(spec: AlgebraSpec, level: int) -> FrameElem:
        return FrameElem(TensorPoly.unit(spec, 2**level))

    @staticmethod
    def zero(spec: AlgebraSpec, level: int) -> FrameElem:
        return FrameElem(TensorPoly.zero(spec, 2**level))

    # operands are checked once, by the tensor layer: the same spec and degree, so the same level
    def mul(self, other: FrameElem) -> FrameElem:
        return FrameElem(componentwise_product(self.body, other.body))

    def add(self, other: FrameElem) -> FrameElem:
        return FrameElem(self.body + other.body)

    def sub(self, other: FrameElem) -> FrameElem:
        return FrameElem(self.body - other.body)

    def scale(self, c: Union[Scalar, int]) -> FrameElem:
        return FrameElem(self.body.scale(c))

    def neg(self) -> FrameElem:
        return FrameElem(-self.body)

    def is_zero(self) -> bool:
        return self.body.is_zero()

    def __mul__(self, other: FrameElem) -> FrameElem:
        return self.mul(other)

    def __add__(self, other: FrameElem) -> FrameElem:
        return self.add(other)

    def __sub__(self, other: FrameElem) -> FrameElem:
        return self.sub(other)

    def __neg__(self) -> FrameElem:
        return self.neg()

    def __str__(self) -> str:
        return str(self.body)


def rho(alpha: FrameElem) -> FrameElem:
    """Right lift: pad with the unit of the current level; no key changes."""
    return FrameElem(TensorPoly(alpha.spec, 2 * alpha.body.degree, alpha.body.terms))


def lam(alpha: FrameElem) -> FrameElem:
    """Left lift: the mirror of rho."""
    unit = TensorPoly.unit(alpha.spec, alpha.body.degree)
    return FrameElem(tensor_concat(unit, alpha.body))


def lift_to(alpha: Union[FrameElem, AlgElem], p: int) -> FrameElem:
    """Iterated right lift up to level p."""
    if isinstance(alpha, AlgElem):
        alpha = FrameElem.from_alg(alpha)
    if p < alpha.level:
        raise ValueError(f"cannot lift level {alpha.level} down to {p}")
    while alpha.level < p:
        alpha = rho(alpha)
    return alpha


def frame_delta(omega: FrameElem) -> FrameElem:
    """The degree-one universal differential of the current level, lam - rho:
    ``tensor_d`` of the body."""
    return FrameElem(tensor_d(omega.body))


def module_left(a: FrameElem, omega: FrameElem) -> FrameElem:
    """Left module action of level p on a one-form sitting in level p+1
    (the product refuses any other level)."""
    return rho(a).mul(omega)


def module_right(omega: FrameElem, a: FrameElem) -> FrameElem:
    """Right module action; the coefficient is lifted from the left."""
    return omega.mul(lam(a))


class SubsetIndex(Record):
    """A subset of {0..p-1}, printed with members in decreasing order."""

    __slots__ = _fields = ("p", "members")
    def __init__(self, p: int, members: tuple[int, ...]):
        ms = tuple(sorted(set(members), reverse=True))
        if any(m < 0 or m >= p for m in ms):
            raise ValueError(f"members {ms} out of range for level {p}")
        self.p, self.members = p, ms

    @staticmethod
    def of(p: int, members: Iterable[int]) -> SubsetIndex:
        return SubsetIndex(p, tuple(members))

    def __str__(self) -> str:
        return "{" + ",".join(str(m) for m in self.members) + "}"


def generator_monomial_eval(factors: Sequence[tuple[SubsetIndex, AlgElem]]) -> FrameElem:
    """Evaluate a product of generators, indexed at one level, with the lifts left implicit.

    Each level is owned by at most one factor.  Scanning levels upward,
    the owner is differentiated while factors to its left are padded on
    the right (rho) and factors to its right on the left (lam); levels
    owned by nobody pad every factor on the right.  This is forced by
    the product rule, under which differentiating a product at level s
    right-pads everything left of the differentiated factor and
    left-pads everything right of it.
    """
    if not factors:
        raise ValueError("empty generator monomial")
    n = factors[0][0].p
    owners: dict[int, int] = {}
    for pos, (index, _) in enumerate(factors):
        if index.p != n:
            raise ValueError(f"indices at levels {n} and {index.p}")
        for s in index.members:
            if s in owners:
                raise ValueError(f"level {s} owned by two factors")
            owners[s] = pos
    out = None
    for pos, (index, g) in enumerate(factors):
        elem = FrameElem.from_alg(g)
        for s in range(n):
            owner = owners.get(s)
            if owner == pos:
                elem = frame_delta(elem)
            elif owner is None or pos < owner:
                elem = rho(elem)
            else:
                elem = lam(elem)
        out = elem if out is None else out.mul(elem)
    return out


def delta_I(f: AlgElem, index: SubsetIndex) -> FrameElem:
    """Generator: the one-factor generator monomial, differentiating at the
    chosen levels and lifting on the right at the others."""
    return generator_monomial_eval(((index, f),))


def delta_iter(f: AlgElem, n: int) -> FrameElem:
    """Apply the level differentials n times starting from the base algebra."""
    if n < 1:
        raise ValueError("delta_iter needs n >= 1")
    return delta_I(f, SubsetIndex.of(n, range(n)))


def generator_str(index: SubsetIndex, symbol: str) -> str:
    return f"d{index}({symbol})"


def slot_embed(f: AlgElem, j: int, p: int) -> FrameElem:
    """Elementary tensor with f in slot j and units elsewhere."""
    width = 2**p
    if not 0 <= j < width:
        raise ValueError(f"slot {j} out of range for level {p}")
    unit = f.spec.unit()
    factors = tuple(f if i == j else unit for i in range(width))
    return FrameElem(TensorPoly.elementary(factors))


def slot_in_generators(j: int, p: int) -> tuple[SubsetIndex, ...]:
    """Express a slot embedding of any element over the generator family.

    Slot j, read in binary with bit s marking a left-lift step at level
    s, decomposes as the unit-coefficient sum of the generators indexed
    by all subsets of its bit set, listed smallest first, then by their
    members read from the highest down.
    """
    if not 0 <= j < 2**p:
        raise ValueError(f"slot {j} out of range for level {p}")
    bits = [s for s in range(p - 1, -1, -1) if (j >> s) & 1]
    # combinations of the falling bits list each size's subsets falling: reverse them
    return tuple(SubsetIndex(p, c) for r in range(len(bits) + 1) for c in reversed([*combinations(bits, r)]))


def generator_sum(f: AlgElem, subsets: Sequence[SubsetIndex]) -> FrameElem:
    """Evaluate a unit-coefficient combination of generators."""
    if not subsets:
        raise ValueError("empty generator sum")
    return frame_sum(f.spec, subsets[0].p, (delta_I(f, ix) for ix in subsets))


def frame_sum(spec: AlgebraSpec, level: int, parts: Iterable[FrameElem]) -> FrameElem:
    """Sum elements of one level with a single merge over all their terms."""
    return FrameElem(tensor_sum(spec, 2**level, (part.body for part in parts)))


def is_universal_one_form(omega: FrameElem) -> bool:
    """Kernel test: the level's multiplication map must annihilate it
    (level 0, of odd degree 1, has none)."""
    return mult_map(omega.body).is_zero()
