"""Leibniz forms of higher order and their associative product.

A form of order n is a finite sum of canonical monomials

    a · d^{k1}(g1) ⊙ ... ⊙ d^{kr}(gr),        k1 + ... + kr = n,

with the algebra coefficient kept at the far left; a form's terms are the
pairs (a, ((k1, g1), ..., (kr, gr))), as a tensor's are (coefficient,
key) pairs.  d raises the order
by one and is a (non-graded) derivation for ⊙, so the Leibniz rule
d^k(gc) = Σ_j C(k,j) d^{k-j}(g) ⊙ d^j(c), solved for its j = 0 term,
moves a coefficient left past one factor in closed form:

    d^k(g) ⊙ c·N = d^k(gc) ⊙ N - Σ_{0<j<k} C(k,j) d^{k-j}(g) ⊙ d^j(c) ⊙ N - g·(d^k(c) ⊙ N).

Constants are central and d-closed (d(1) = 0), so a constant c takes no
such step, F ⊙ c = c·F, and d(c·N) = c·dN; ``_move_left`` and
``symbolic_delta`` decide these cases before any normalization.  Raising a
power keeps its factor primitive, so ``symbolic_delta`` normalizes only d(a) ⊙ N
and merges the rest as they are, and a lone monomial is canonical as it is.

Normal forms are unique on no backend, since normalization moves only
content into the coefficient: d is linear, but a differentiated sum stays
one factor, so over the free algebra d(f + g) and d(f) + d(g) are unequal
forms, and on function and matrix specs so are ``((d2(x) ⊙ x) ⊙ x) ⊙ d(y)``
and ``d2(x) ⊙ (x·x) ⊙ d(y)`` over x = (1, 0), y = (0, 3).  Only the
embeddings decide equality (ROADMAP item "Equality of forms is equality in
F_n 𝒜").

The embedding realizes a form of order n inside level n of the frame
tower, folding each monomial from the right, starting at the unit, by
d^k(g) ⊙ σ = d(d^{k-1}(g) ⊙ σ) - d^{k-1}(g) ⊙ dσ read there (``_power``,
the fold step): d is the level differential and g· multiplies the first
slot, so for the image s of σ, d(g) ⊙ σ = d(gσ) - g·dσ is
1⊗(g·s) - (g⊗1⊗...⊗1)⊗s (the right-lift terms cancel).  A term of the
image of a·d^{k1}(g1) ⊙ ... ⊙ d^{kr}(gr) has at most r + 1 non-unit slots
out of 2^n and is keyed by those alone, so d shifts and negates keys
(``tensor_d``'s rule) and 1⊗(g·s) rewrites slot 0 of a key and shifts the
rest.  The image is linear in each factor and coefficient, so they are
scaled to Gaussian-integer basis coefficients first: the fold merges
coefficients in one dict per monomial, multiplying them with ``*``, plain
``int``s on a real form and ``Scalar``s on a complex one, and
``embed`` sorts the image by key and divides each distinct output
coefficient once by the common denominator (``_integer_image`` stops before
that, with the integer terms the realization kernels read: the CLI sorts,
wraps and divides nothing).
The generator tables, which place every lift explicitly, stay the
independent check of it; generator monomials are evaluated in the frame
layer (``frame.generator_monomial_eval``, which this module re-exports).
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from math import comb, lcm, prod
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Optional, Sequence, Union

from .algebra import AlgebraMismatchError, AlgebraSpec, AlgElem
from .frame import FrameElem, SubsetIndex, generator_monomial_eval, generator_str
from .scalars import MINUS_ONE, ONE, ZERO, Record, Scalar
from .tensor import IntTerm, Key, Memo, TensorPoly, _common_denominator, _d_items, _shift, left_products

Factor = tuple[int, AlgElem]
Monomial = tuple[AlgElem, tuple[Factor, ...]]  # (coefficient, factors), as a tensor's (coefficient, key)


class LeibnizForm(Record):
    """Sum of canonical monomials of one order, each the pair
    (coefficient, factors) with factors ((k1, g1), ..., (kr, gr)), as a
    tensor's terms are (coefficient, key) pairs.  The terms are kept
    canonical by this module alone: differentiated elements are primitive
    and no unit multiples, coefficients are nonzero, factor lists are
    distinct and sorted, so a lone monomial is canonical as it is.
    ``LeibnizForm.of`` normalizes monomials with new elements and refuses
    one from another algebra; ``add``, ``sub``, ``odot``,
    ``module_mul`` (an order-0 ``odot``) and ``symbolic_delta`` (but for its
    d(a) ⊙ N) only merge canonical monomials; ``scale`` keeps factor lists."""

    __slots__ = _fields = ("spec", "order", "terms")
    def __init__(self, spec: AlgebraSpec, order: int, terms: tuple[Monomial, ...]):
        self.spec, self.order, self.terms = spec, order, terms

    @staticmethod
    def of(spec: AlgebraSpec, order: int, terms: Iterable[Monomial]) -> LeibnizForm:
        """Normalize arbitrary monomials over ``spec``, then merge equal factor lists."""
        normalized = (_normalize(spec, mono, order) for mono in terms)
        return _collect(spec, order, (mono for mono in normalized if mono is not None))

    @staticmethod
    def from_alg(a: AlgElem) -> LeibnizForm:
        return LeibnizForm.of(a.spec, 0, [(a, ())])

    @staticmethod
    def monomial(coeff: AlgElem, factors: Sequence[Factor]) -> LeibnizForm:
        order = sum(k for k, _ in factors)
        return LeibnizForm.of(coeff.spec, order, [(coeff, tuple(factors))])

    def add(self, *others: LeibnizForm) -> LeibnizForm:
        """The sum of this form and any number of others, merged once."""
        for other in others:
            if self.spec != other.spec:
                raise AlgebraMismatchError("forms over different algebras")
            if self.order != other.order:
                raise ValueError(f"order mismatch: {self.order} vs {other.order}")
        return _collect(self.spec, self.order, (m for f in (self, *others) for m in f.terms))

    def sub(self, other: LeibnizForm) -> LeibnizForm:
        return self.add(other.scale(MINUS_ONE))

    def scale(self, c: Union[Scalar, int]) -> LeibnizForm:
        c = c if isinstance(c, Scalar) else Scalar.of(c)
        if c.is_zero():
            return LeibnizForm(self.spec, self.order, ())
        terms = tuple((a.scale(c), factors) for a, factors in self.terms)
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
        return " + ".join(map(_monomial_str, self.terms))


def _normalize(spec: AlgebraSpec, mono: Monomial, order: int) -> Optional[Monomial]:
    """Move every factor's content into the coefficient; None when a
    differentiated element is a unit multiple (d^k of a constant vanishes).
    An element read from another spec is refused, as ``tensor._expand`` refuses one."""
    coeff, factors = mono
    if sum(k for k, _ in factors) != order:
        raise ValueError("inhomogeneous sum of monomials")
    if coeff.spec is not spec and coeff.spec != spec:
        raise AlgebraMismatchError("form element from a different algebra")
    primitive: list[Factor] = []
    for k, g in factors:
        if g.spec is not spec and g.spec != spec:
            raise AlgebraMismatchError("form element from a different algebra")
        if k < 1:
            raise ValueError("differential powers must be positive")
        if g.unit_multiple() is not None:
            return None
        c, prim = g.content()
        if c is not ONE:  # a monic element is its own primitive part
            coeff = coeff.scale(c)
        primitive.append((k, prim))
    return coeff, tuple(primitive)


def _collect(spec: AlgebraSpec, order: int, terms: Iterable[Monomial]) -> LeibnizForm:
    """Merge normalized monomials by factor keys into canonical form, adding
    the coefficients of a key's later monomials to its first in one ``add``;
    a lone nonzero monomial is canonical as it is, and is neither keyed nor sorted."""
    terms = [mono for mono in terms if not mono[0].is_zero()]
    if len(terms) < 2:
        return LeibnizForm(spec, order, tuple(terms))
    acc: dict[tuple, Monomial] = {}
    more: dict[tuple, list[AlgElem]] = {}
    for a, factors in terms:
        key = tuple((k, g.sort_key()) for k, g in factors)
        if key in acc:
            more.setdefault(key, []).append(a)
        else:
            acc[key] = a, factors
    for key, coeffs in more.items():
        first, factors = acc[key]
        total = first.add(*coeffs)
        if total.is_zero():
            del acc[key]
        else:
            acc[key] = total, factors
    return LeibnizForm(spec, order, tuple(acc[k] for k in sorted(acc)))


def _monomial_str(mono: Monomial) -> str:
    a, factors = mono
    text = "@".join((f"d({g})" if k == 1 else f"d{k}({g})") for k, g in factors)
    c = a.unit_multiple()
    if c is not None and c.is_one() and text:
        return text
    coeff = str(a)
    if " + " in coeff or " - " in coeff:
        coeff = f"({coeff})"
    return f"{coeff}*{text}" if text else coeff


def generator_form_str(mono: Monomial) -> str:
    """Generator-flavoured rendering, e.g. f·d{1,0}(g)."""
    a, factors = mono
    parts = []
    c = a.unit_multiple()
    if c is None or not c.is_one():
        parts.append(str(a))
    parts.extend(generator_str(SubsetIndex.of(k, range(k)), str(g)) for k, g in factors)
    return "·".join(parts)


# -- module structure and differential ----------------------------------


def module_mul(a: AlgElem, w: LeibnizForm) -> LeibnizForm:
    """Left action of the base algebra, a ⊙ w with a of order 0: multiply every coefficient."""
    return odot(LeibnizForm.from_alg(a), w)


def symbolic_delta(w: LeibnizForm) -> LeibnizForm:
    """Order-raising derivation.

    On a monomial a·N it contributes d(a) ⊙ N plus, for every factor,
    the monomial with that factor's power raised by one; d(a) ⊙ N is left
    out when a is a constant, since d(c·N) = c·dN; only d(a) ⊙ N is normalized.
    """
    out: list[Monomial] = []
    spec, unit = w.spec, w.spec.unit()
    for a, factors in w.terms:
        if a.unit_multiple() is None:
            out.append(_normalize(spec, (unit, ((1, a),) + factors), w.order + 1))
        for i, (k, g) in enumerate(factors):
            out.append((a, factors[:i] + ((k + 1, g),) + factors[i + 1 :]))
    return _collect(w.spec, w.order + 1, out)


# -- the ⊙ product -------------------------------------------------------


def odot(u: LeibnizForm, v: LeibnizForm) -> LeibnizForm:
    """Associative product of Leibniz forms; bilinear over scalars.  On
    monomials (a·F) ⊙ (b·G) = a·((F ⊙ b) ⊙ G): F ⊙ b folds F's factors from
    the right over b, and ⊙ G appends G's factors (G's coefficient is the unit)."""
    if u.spec != v.spec:
        raise AlgebraMismatchError("forms over different algebras")
    unit = u.spec.unit()
    times = lambda a, b: b if a == unit else a if b == unit else a.mul(b)
    out = ((times(a, c), moved + fv)
           for a, fu in u.terms for b, fv in v.terms for c, moved in _move_left(fu, b))
    return _collect(u.spec, u.order + v.order, out)


def _move_left(factors: tuple[Factor, ...], b: AlgElem) -> tuple[Monomial, ...]:
    """F ⊙ b for b of order 0, one closed Leibniz step per factor of F from the
    right, normalized once per factor (which drops the d^j(c) of a unit-multiple c);
    a constant b takes no step, F ⊙ b = b·F, and neither does an empty F."""
    if not factors or b.unit_multiple() is not None:
        return ((b, factors),)
    spec, unit, form = b.spec, b.spec.unit(), LeibnizForm.from_alg(b)
    for k, g in reversed(factors):
        out, neg_g = [], g.neg()
        for c, n in form.terms:
            out.append((unit, ((k, g.mul(c)),) + n))
            out += ((spec.scalar(-comb(k, j)), ((k - j, g), (j, c)) + n) for j in range(1, k))
            out.append((neg_g, ((k, c),) + n))
        form = LeibnizForm.of(spec, form.order + k, out)
    return form.terms


# -- embedding into the frame tower --------------------------------------


def _power(k: int, one: Callable[[dict, int, int, dict], dict], s: dict, width: int) -> dict:
    """embed's fold step, the recursion for d^k(g) ⊙ σ unrolled to Σ_{i<k} (-1)^i C(k-1, i) d^{k-1-i}(d(g) ⊙ d^i σ):
    its image from the image s of σ over ``width`` slots and one(s, width, b, out) = out + b·(d(g) ⊙ σ)."""
    acc = one(s, width, 1, {})
    for i in range(1, k):
        s, width = dict(_d_items(s.items(), width)), 2 * width
        acc = one(s, width, (-1) ** i * comb(k - 1, i), dict(_d_items(acc.items(), width)))
    return acc


def embed(w: LeibnizForm) -> FrameElem:
    """Realize a form of order n inside level n of the frame tower: the
    Gaussian-integer image of ``_integer_image`` sorted by key, with one
    ``Scalar`` per distinct coefficient, divided by the denominator once."""
    terms, den = _integer_image(w)
    d = Scalar(den)

    def exact(c: Union[int, Scalar]) -> Scalar:
        c = c if type(c) is Scalar else Scalar(c)
        return c if den == 1 else c / d

    exact = Memo(exact)
    terms.sort(key=itemgetter(1))
    return FrameElem(TensorPoly(w.spec, 2**w.order, tuple([(exact[c], key) for c, key in terms])))


def _integer_image(w: LeibnizForm) -> tuple[list[IntTerm], int]:
    """(terms, den): the terms of ``embed(w).body`` times a denominator den
    that makes every coefficient a Gaussian integer, keys distinct and in no
    particular order, as the realization kernels read them.  Each factor and
    coefficient is scaled by the lcm d of its basis coefficients' denominators (``integral``),
    and each monomial is folded by ``_power`` from den / (its product of d's)
    times the unit, or times a constant coefficient; any other coefficient
    multiplies slot 0.  A partial image maps key to coefficient: an ``int`` when
    the form's basis coefficients are real, read through the int view of
    ``left_products`` (basis elements multiply with integer structure
    constants), else a ``Scalar``; the image is the last one's items."""
    spec, unit = w.spec, w.spec.unit_label()

    def integral(a: AlgElem) -> tuple[AlgElem, int, bool]:
        """(d·a, d, whether a has a complex basis coefficient), d the lcm of their denominators."""
        terms = a.basis_decomposition()
        d = _common_denominator(terms)[0]
        return a if d == 1 else a.scale(Scalar(d)), d, any(c.im for c, _ in terms)

    def left_mul(out: dict, g: Memo, items: Iterable[tuple[Key, object]], at: int) -> dict:
        """out plus c·(g·key) for each (key, c) of items, g multiplying slot ``at`` (the lowest a key names)."""
        get = out.get
        for key, c in items:
            head, rest = (key[0][1], key[1:]) if key and key[0][0] == at else (unit, key)
            for cp, label in g[head]:
                to = rest if label == unit else ((at, label),) + rest
                out[to] = get(to, zero) + c * cp
        for key in [key for key, c in out.items() if c == zero]:
            del out[key]
        return out

    def one(g: Memo, s: dict, width: int, by: int, out: dict) -> dict:
        """out + by·(1⊗(g·s) - (g⊗1⊗...⊗1)⊗s), by·(d(g) ⊙ σ) for the image s of σ."""
        by, get, lifted = part(Scalar(by)), out.get, g[unit]
        moved = [(_shift(key, width), c * by) for key, c in s.items()]
        for key, c in moved:  # g⊗1⊗...⊗1 multiplies the unit of slot 0
            for cp, label in lifted:
                to = key if label == unit else ((0, label),) + key
                out[to] = get(to, zero) - c * cp
        return left_mul(out, g, moved, width)

    monos = [(integral(a), [(k, *integral(g)) for k, g in reversed(factors)]) for a, factors in w.terms]
    real = not any(coeff[2] or any(f[3] for f in factors) for coeff, factors in monos)
    zero, part = (0, attrgetter("re")) if real else (ZERO, lambda c: c)
    dens = [d * prod(e for _, _, e, _ in factors) for (_, d, _), factors in monos]
    den, total = lcm(*dens), {}
    for ((a, _, _), factors), d in zip(monos, dens):
        c = a.unit_multiple()  # a constant scales the unit the fold starts from
        s, width = {(): part(ONE if c is None else c) * part(Scalar(den // d))}, 1
        for k, g, _, _ in factors:
            s, width = _power(k, partial(one, left_products(g, part)), s, width), width << k
        if c is None or total:  # any other coefficient multiplies slot 0, and a sum adds s times the unit
            left_mul(total, left_products(a if c is None else spec.unit(), part), s.items(), 0)
        else:
            total = s
    return list(zip(total.values(), total)), den


# -- monomial types -------------------------------------------------------


def enumerate_types(n: int) -> list[tuple[int, ...]]:
    """All compositions of n, lexicographically descending.

    Order n has exactly 2**(n-1) of them; each one is the shape of a
    canonical monomial.
    """
    if n < 1:
        raise ValueError("order must be at least 1")
    # the parts between consecutive cut points of {1..n-1}, with 0 and n added
    bounds = ((0, *cuts, n) for r in range(n) for cuts in combinations(range(1, n), r))
    return sorted((tuple(b - a for a, b in zip(t, t[1:])) for t in bounds), reverse=True)
