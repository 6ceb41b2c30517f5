"""The tower of iterated frame algebras and their differentials.

Level p holds tensors of degree 2**p over the base algebra.  The two
elementary lifts pad an element with units on the right (rho) or on
the left (lam); the degree-one differential of level p is their
difference, landing in level p+1.  Subsets of {0..p-1} index a
generator family obtained by scanning the levels upward and choosing,
at each step, either the differential or the right lift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .algebra import AlgebraMismatchError, AlgebraSpec, AlgElem
from .scalars import Scalar
from .tensor import TensorPoly, componentwise_product, mult_map, tensor_concat, tensor_sum


@dataclass(frozen=True)
class FrameElem:
    level: int
    body: TensorPoly

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        if self.body.degree != 2**self.level:
            raise ValueError(
                f"body degree {self.body.degree} does not match level {self.level}"
            )

    @property
    def spec(self) -> AlgebraSpec:
        return self.body.spec

    @staticmethod
    def from_alg(elem: AlgElem) -> FrameElem:
        return FrameElem(0, TensorPoly.wrap(elem))

    @staticmethod
    def unit(spec: AlgebraSpec, level: int) -> FrameElem:
        return FrameElem(level, TensorPoly.unit(spec, 2**level))

    @staticmethod
    def zero(spec: AlgebraSpec, level: int) -> FrameElem:
        return FrameElem(level, TensorPoly.zero(spec, 2**level))

    def _check(self, other: FrameElem) -> None:
        if self.level != other.level:
            raise ValueError(f"level mismatch: {self.level} vs {other.level}")
        if self.spec != other.spec:
            raise AlgebraMismatchError("frame elements over different algebras")

    def mul(self, other: FrameElem) -> FrameElem:
        self._check(other)
        return FrameElem(self.level, componentwise_product(self.body, other.body))

    def add(self, other: FrameElem) -> FrameElem:
        self._check(other)
        return FrameElem(self.level, self.body + other.body)

    def sub(self, other: FrameElem) -> FrameElem:
        self._check(other)
        return FrameElem(self.level, self.body - other.body)

    def scale(self, c: Union[Scalar, int]) -> FrameElem:
        return FrameElem(self.level, self.body.scale(c))

    def neg(self) -> FrameElem:
        return FrameElem(self.level, -self.body)

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

    def to_json(self) -> dict:
        return {"level": self.level, "body": self.body.to_json()}

    def __str__(self) -> str:
        return str(self.body)


def rho(alpha: FrameElem) -> FrameElem:
    """Right lift: pad with the unit of the current level."""
    unit = TensorPoly.unit(alpha.spec, 2**alpha.level)
    return FrameElem(alpha.level + 1, tensor_concat(alpha.body, unit))


def lam(alpha: FrameElem) -> FrameElem:
    """Left lift: the mirror of rho."""
    unit = TensorPoly.unit(alpha.spec, 2**alpha.level)
    return FrameElem(alpha.level + 1, tensor_concat(unit, alpha.body))


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
    """The degree-one universal differential of the current level."""
    return lam(omega) - rho(omega)


def delta_iter(f: AlgElem, n: int) -> FrameElem:
    """Apply the level differentials n times starting from the base algebra."""
    if n < 1:
        raise ValueError("delta_iter needs n >= 1")
    out = FrameElem.from_alg(f)
    for _ in range(n):
        out = frame_delta(out)
    return out


def module_left(a: FrameElem, omega: FrameElem) -> FrameElem:
    """Left module action of level p on a one-form sitting in level p+1."""
    if omega.level != a.level + 1:
        raise ValueError("one-form must live one level above the coefficient")
    return rho(a).mul(omega)


def module_right(omega: FrameElem, a: FrameElem) -> FrameElem:
    """Right module action; the coefficient is lifted from the left."""
    if omega.level != a.level + 1:
        raise ValueError("one-form must live one level above the coefficient")
    return omega.mul(lam(a))


@dataclass(frozen=True)
class SubsetIndex:
    """A subset of {0..p-1}, printed with members in decreasing order."""

    p: int
    members: tuple[int, ...]

    def __post_init__(self):
        ms = tuple(sorted(set(self.members), reverse=True))
        object.__setattr__(self, "members", ms)
        if any(m < 0 or m >= self.p for m in ms):
            raise ValueError(f"members {ms} out of range for level {self.p}")

    @staticmethod
    def of(p: int, members: Iterable[int]) -> SubsetIndex:
        return SubsetIndex(p, tuple(members))

    def contains(self, s: int) -> bool:
        return s in self.members

    def __str__(self) -> str:
        return "{" + ",".join(str(m) for m in self.members) + "}"


def delta_I(f: AlgElem, index: SubsetIndex) -> FrameElem:
    """Generator: scan levels upward, differentiating at the chosen ones."""
    out = FrameElem.from_alg(f)
    for s in range(index.p):
        out = frame_delta(out) if index.contains(s) else rho(out)
    return out


def generator_str(index: SubsetIndex, symbol: str) -> str:
    return f"d{index}({symbol})"


def slot_embed(f: AlgElem, j: int, p: int) -> FrameElem:
    """Elementary tensor with f in slot j and units elsewhere."""
    width = 2**p
    if not 0 <= j < width:
        raise ValueError(f"slot {j} out of range for level {p}")
    unit = f.spec.unit()
    factors = tuple(f if i == j else unit for i in range(width))
    return FrameElem(p, TensorPoly.elementary(f.spec, factors))


def slot_in_generators(f: AlgElem, j: int, p: int) -> tuple[SubsetIndex, ...]:
    """Express a slot embedding over the generator family.

    Slot j, read in binary with bit s marking a left-lift step at level
    s, decomposes as the unit-coefficient sum of the generators indexed
    by all subsets of its bit set.
    """
    width = 2**p
    if not 0 <= j < width:
        raise ValueError(f"slot {j} out of range for level {p}")
    bits = [s for s in range(p) if (j >> s) & 1]
    subsets = []
    for mask in range(1 << len(bits)):
        subsets.append(SubsetIndex.of(p, (bits[i] for i in range(len(bits)) if (mask >> i) & 1)))
    return tuple(sorted(subsets, key=lambda ix: (len(ix.members), ix.members)))


def generator_sum(f: AlgElem, subsets: Sequence[SubsetIndex]) -> FrameElem:
    """Evaluate a unit-coefficient combination of generators."""
    if not subsets:
        raise ValueError("empty generator sum")
    return frame_sum(f.spec, subsets[0].p, (delta_I(f, ix) for ix in subsets))


def frame_sum(spec: AlgebraSpec, level: int, parts: Iterable[FrameElem]) -> FrameElem:
    """Sum elements of one level with a single merge over all their terms."""
    return FrameElem(level, tensor_sum(spec, 2**level, (part.body for part in parts)))


def is_universal_one_form(omega: FrameElem) -> bool:
    """Kernel test: the level's multiplication map must annihilate it."""
    if omega.level < 1:
        raise ValueError("one-form test needs level >= 1")
    return mult_map(2 ** (omega.level - 1), omega.body).is_zero()
