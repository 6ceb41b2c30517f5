"""Leibniz forms of higher order and their associative product.

A form of order n is a finite sum of canonical monomials

    a · d^{k1}(g1) ⊙ ... ⊙ d^{kr}(gr),        k1 + ... + kr = n,

with the algebra coefficient kept at the far left.  The ⊙ product is
defined by the recursion

    f ⊙ s            = f s
    d(f) ⊙ s         = d(f s) - f d(s)
    d^k(f) ⊙ s       = d(d^{k-1}(f) ⊙ s) - d^{k-1}(f) ⊙ d(s)    (k >= 2)

extended by associativity and bilinearity; d raises the order by one
and is a (non-graded) derivation for ⊙.  Interior coefficients are
eliminated eagerly through d(f) ⊙ (b·N) = d(fb) ⊙ N - f·(d(b) ⊙ N),
which follows from the rules above, so equality of normal forms is
decidable monomial by monomial.

The embedding realizes a form of order n inside level n of the frame
tower by the same rules read there: g· is the right lift of g, d is
frame_delta, so d(g) ⊙ σ is frame_delta(g)·lam(σ), and the rest follows
by folding the monomial from the right.  The generator tables, which
place every lift explicitly, stay the independent check of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Union

from .algebra import AlgebraMismatchError, AlgebraSpec, AlgElem
from .frame import (
    FrameElem,
    SubsetIndex,
    delta_iter,
    frame_delta,
    frame_sum,
    lam,
    lift_to,
    rho,
)
from .scalars import Scalar

Factor = tuple[int, AlgElem]


@dataclass(frozen=True)
class LeibnizMonomial:
    coeff: AlgElem
    factors: tuple[Factor, ...]

    @property
    def order(self) -> int:
        return sum(k for k, _ in self.factors)

    @property
    def composition(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.factors)

    def __str__(self) -> str:
        return _monomial_str(self)


@dataclass(frozen=True)
class LeibnizForm:
    """Sum of canonical monomials of one order, kept canonical by this
    module alone: differentiated elements are primitive and no unit
    multiples, coefficients are nonzero, factor lists are distinct and
    sorted.  ``LeibnizForm.of`` normalizes monomials with new elements;
    ``add``, ``sub``, ``odot`` and ``_odot_power`` only merge canonical
    monomials, and ``scale`` and ``module_mul`` keep their factor lists."""

    spec: AlgebraSpec
    order: int
    terms: tuple[LeibnizMonomial, ...]

    @staticmethod
    def of(spec: AlgebraSpec, order: int, terms: Iterable[LeibnizMonomial]) -> LeibnizForm:
        """Normalize arbitrary monomials, then merge equal factor lists."""
        normalized = (_normalize(mono, order) for mono in terms)
        return _collect(spec, order, (mono for mono in normalized if mono is not None))

    @staticmethod
    def from_alg(a: AlgElem) -> LeibnizForm:
        return LeibnizForm.of(a.spec, 0, [LeibnizMonomial(a, ())])

    @staticmethod
    def monomial(coeff: AlgElem, factors: Sequence[Factor]) -> LeibnizForm:
        order = sum(k for k, _ in factors)
        return LeibnizForm.of(coeff.spec, order, [LeibnizMonomial(coeff, tuple(factors))])

    def add(self, other: LeibnizForm) -> LeibnizForm:
        if self.spec != other.spec:
            raise AlgebraMismatchError("forms over different algebras")
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")
        return _collect(self.spec, self.order, self.terms + other.terms)

    def sub(self, other: LeibnizForm) -> LeibnizForm:
        return self.add(other.scale(Scalar.of(-1)))

    def scale(self, c: Union[Scalar, int]) -> LeibnizForm:
        c = c if isinstance(c, Scalar) else Scalar.of(c)
        if c.is_zero():
            return LeibnizForm(self.spec, self.order, ())
        terms = tuple(LeibnizMonomial(m.coeff.scale(c), m.factors) for m in self.terms)
        return LeibnizForm(self.spec, self.order, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: LeibnizForm) -> LeibnizForm:
        return self.add(other)

    def __sub__(self, other: LeibnizForm) -> LeibnizForm:
        return self.sub(other)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(str(m) for m in self.terms)


def _normalize(mono: LeibnizMonomial, order: int) -> Optional[LeibnizMonomial]:
    """Move every factor's content into the coefficient; None when a
    differentiated element is a unit multiple (d^k of a constant vanishes)."""
    if mono.order != order:
        raise ValueError("inhomogeneous sum of monomials")
    coeff = mono.coeff
    factors: list[Factor] = []
    for k, g in mono.factors:
        if k < 1:
            raise ValueError("differential powers must be positive")
        if g.unit_multiple() is not None:
            return None
        c, prim = g.content()
        coeff = coeff.scale(c)
        factors.append((k, prim))
    return LeibnizMonomial(coeff, tuple(factors))


def _collect(spec: AlgebraSpec, order: int, terms: Iterable[LeibnizMonomial]) -> LeibnizForm:
    """Merge normalized monomials by factor keys into canonical form."""
    acc: dict[tuple, LeibnizMonomial] = {}
    for mono in terms:
        if mono.coeff.is_zero():
            continue
        key = tuple((k, g.sort_key()) for k, g in mono.factors)
        if key in acc:
            total = acc[key].coeff.add(mono.coeff)
            if total.is_zero():
                del acc[key]
            else:
                acc[key] = LeibnizMonomial(total, acc[key].factors)
        else:
            acc[key] = mono
    return LeibnizForm(spec, order, tuple(acc[k] for k in sorted(acc)))


def _monomial_str(mono: LeibnizMonomial) -> str:
    factors = "@".join(
        (f"d({g})" if k == 1 else f"d{k}({g})") for k, g in mono.factors
    )
    c = mono.coeff.unit_multiple()
    if c is not None and c.is_one() and factors:
        return factors
    coeff = str(mono.coeff)
    if " + " in coeff or " - " in coeff:
        coeff = f"({coeff})"
    return f"{coeff}*{factors}" if factors else coeff


def generator_form_str(mono: LeibnizMonomial) -> str:
    """Generator-flavoured rendering, e.g. f·d{1,0}(g)."""
    parts = []
    c = mono.coeff.unit_multiple()
    if c is None or not c.is_one():
        parts.append(str(mono.coeff))
    for k, g in mono.factors:
        levels = "{" + ",".join(str(s) for s in range(k - 1, -1, -1)) + "}"
        parts.append(f"d{levels}({g})")
    return "·".join(parts)


# -- module structure and differential ----------------------------------


def module_mul(a: AlgElem, w: LeibnizForm) -> LeibnizForm:
    """Left action of the base algebra: multiply every coefficient."""
    if a.spec != w.spec:
        raise AlgebraMismatchError("coefficient from a different algebra")
    # factor lists keep their order; a·coeff can be zero off the free backend
    terms = (LeibnizMonomial(a.mul(m.coeff), m.factors) for m in w.terms)
    return LeibnizForm(w.spec, w.order, tuple(m for m in terms if not m.coeff.is_zero()))


def symbolic_delta(w: LeibnizForm) -> LeibnizForm:
    """Order-raising derivation.

    On a monomial a·N it contributes d(a) ⊙ N plus, for every factor,
    the monomial with that factor's power raised by one.
    """
    out: list[LeibnizMonomial] = []
    unit = w.spec.unit()
    for mono in w.terms:
        out.append(LeibnizMonomial(unit, ((1, mono.coeff),) + mono.factors))
        for i, (k, g) in enumerate(mono.factors):
            raised = mono.factors[:i] + ((k + 1, g),) + mono.factors[i + 1 :]
            out.append(LeibnizMonomial(mono.coeff, raised))
    return LeibnizForm.of(w.spec, w.order + 1, out)


# -- the ⊙ product -------------------------------------------------------


def odot(u: LeibnizForm, v: LeibnizForm) -> LeibnizForm:
    """Associative product of Leibniz forms; bilinear over scalars."""
    if u.spec != v.spec:
        raise AlgebraMismatchError("forms over different algebras")
    parts = (_odot_mono(mu, mv) for mu in u.terms for mv in v.terms)
    return _collect(u.spec, u.order + v.order, (m for part in parts for m in part.terms))


def _odot_mono(mu: LeibnizMonomial, mv: LeibnizMonomial) -> LeibnizForm:
    acc = _as_form(mv)
    for k, g in reversed(mu.factors):
        acc = _odot_power(k, g, acc)
    return module_mul(mu.coeff, acc)


def _odot_power(k: int, g: AlgElem, w: LeibnizForm) -> LeibnizForm:
    parts = (_odot_power_mono(k, g, mono) for mono in w.terms)
    return _collect(w.spec, w.order + k, (m for part in parts for m in part.terms))


@lru_cache(maxsize=None)
def _odot_power_mono(k: int, g: AlgElem, mono: LeibnizMonomial) -> LeibnizForm:
    spec = g.spec
    if k == 1:
        b, rest = mono.coeff, mono.factors
        # d(g) ⊙ b·N = d(gb) ⊙ N - g·(d(b) ⊙ N); a unit-multiple b makes
        # the subtracted monomial vanish during normalization.
        first = LeibnizMonomial(spec.unit(), ((1, g.mul(b)),) + rest)
        second = LeibnizMonomial(g.neg(), ((1, b),) + rest)
        return LeibnizForm.of(spec, mono.order + 1, [first, second])
    lower = _odot_power_mono(k - 1, g, mono)
    return symbolic_delta(lower) - _odot_power(k - 1, g, symbolic_delta(_as_form(mono)))


def _as_form(mono: LeibnizMonomial) -> LeibnizForm:
    return LeibnizForm(mono.coeff.spec, mono.order, (mono,))


# -- embedding into the frame tower --------------------------------------


def embed(w: LeibnizForm) -> FrameElem:
    """Realize a form of order n inside level n of the frame tower."""
    images = (
        lift_to(m.coeff, m.order).mul(_embed_factors(m.factors)) if m.factors else FrameElem.from_alg(m.coeff)
        for m in w.terms
    )
    return frame_sum(w.spec, w.order, images)


@lru_cache(maxsize=None)
def _embed_factors(factors: tuple[Factor, ...]) -> FrameElem:
    """Image of d^{k1}(g1) ⊙ ... ⊙ d^{kr}(gr), folded from the right."""
    (k, g), rest = factors[0], factors[1:]
    if not rest:
        return delta_iter(g, k)
    return _embed_power(k, g, _embed_factors(rest))


def _embed_power(k: int, g: AlgElem, s: FrameElem) -> FrameElem:
    """Image of d^k(g) ⊙ σ from the image s of σ; d(gσ) - g·dσ collapses
    to frame_delta(lift(g))·lam(s) because lam and rho are algebra maps."""
    if k == 1:
        return frame_delta(lift_to(g, s.level)).mul(lam(s))
    return frame_delta(_embed_power(k - 1, g, s)) - _embed_power(k - 1, g, frame_delta(s))


# -- monomial types -------------------------------------------------------


def enumerate_types(n: int) -> list[tuple[int, ...]]:
    """All compositions of n, lexicographically descending.

    Order n has exactly 2**(n-1) of them; each one is the shape of a
    canonical monomial.
    """
    if n < 1:
        raise ValueError("order must be at least 1")

    def go(m: int) -> list[tuple[int, ...]]:
        if m == 0:
            return [()]
        out = []
        for first in range(m, 0, -1):
            out.extend((first,) + tail for tail in go(m - first))
        return out

    return go(n)


# -- generator monomials ---------------------------------------------------


def generator_monomial_eval(
    factors: Sequence[tuple[SubsetIndex, AlgElem]], n: int
) -> FrameElem:
    """Evaluate a product of generators with the lifts left implicit.

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
    owners: dict[int, int] = {}
    for pos, (index, _) in enumerate(factors):
        if index.p != n:
            raise ValueError(f"index {index} is not at level {n}")
        for s in index.members:
            if s in owners:
                raise ValueError(f"level {s} owned by two factors")
            owners[s] = pos
    built: list[FrameElem] = []
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
        built.append(elem)
    out = built[0]
    for elem in built[1:]:
        out = out.mul(elem)
    return out
