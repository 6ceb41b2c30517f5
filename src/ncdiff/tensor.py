"""Formal tensor polynomials and universal differential forms.

A :class:`TensorPoly` of degree p is a finite linear combination of
p-fold elementary tensors of backend elements.  The same vector space
carries two different products: the slotwise one (the product algebra)
and the glued graded one (last slot of the left factor multiplies the
first slot of the right factor).  Universal forms a0 d a1 ... d aq are
kept as a secondary chain representation with an explicit expansion
map based on d b = 1 (x) b - b (x) 1.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

from .algebra import AlgebraMismatchError, AlgebraSpec, AlgElem, Decomposition, Label
from .scalars import MINUS_ONE, ONE, ZERO, Scalar

Term = tuple[Scalar, tuple[Label, ...]]
ElemTerm = tuple[Scalar, Sequence[AlgElem]]


def dumps(doc) -> str:
    """Compact JSON with sorted keys: the one form ncdiff writes."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class TensorPoly:
    """Finite linear combination of ``degree``-fold elementary tensors.

    The terms are always canonical, and this module alone keeps them so:
    a term is (coefficient, one basis label per slot; see
    ``AlgElem.basis_decomposition``), terms are sorted by label tuples,
    and no coefficient is zero.  Then ``==`` is a complete equality test.
    Labels sort as the basis elements' ``sort_key``s do, so term order is
    the same as with element slots.  The dataclass constructor takes
    canonical terms only; ``TensorPoly.of`` takes arbitrary elements.
    """

    spec: AlgebraSpec
    degree: int
    terms: tuple[Term, ...]

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("tensor degree must be at least 1")

    @staticmethod
    def of(spec: AlgebraSpec, degree: int, terms: Iterable[ElemTerm]) -> TensorPoly:
        """Build in canonical form from terms whose slots are elements.

        Every slot is expanded multilinearly over the backend's spanning
        family, so f (x) (a+b) and f (x) a + f (x) b normalize identically.
        """
        return _collect(spec, degree, _expand(spec, degree, terms))

    @staticmethod
    def wrap(elem: AlgElem) -> TensorPoly:
        return TensorPoly.of(elem.spec, 1, [(ONE, (elem,))])

    @staticmethod
    def unit(spec: AlgebraSpec, degree: int) -> TensorPoly:
        # the unit is a basis element of every backend
        return TensorPoly(spec, degree, ((ONE, (spec.unit_label(),) * degree),))

    @staticmethod
    def zero(spec: AlgebraSpec, degree: int) -> TensorPoly:
        return TensorPoly(spec, degree, ())

    @staticmethod
    def elementary(spec: AlgebraSpec, factors: Sequence[AlgElem], coeff: Scalar = ONE) -> TensorPoly:
        return TensorPoly.of(spec, len(factors), [(coeff, tuple(factors))])

    # -- linear structure ----------------------------------------------

    def add(self, other: TensorPoly) -> TensorPoly:
        return tensor_sum(self.spec, self.degree, (self, other))

    def sub(self, other: TensorPoly) -> TensorPoly:
        return self.add(other.neg())

    def scale(self, c: Union[Scalar, int]) -> TensorPoly:
        c = c if isinstance(c, Scalar) else Scalar.of(c)
        if c.is_zero():
            return TensorPoly.zero(self.spec, self.degree)
        return TensorPoly(self.spec, self.degree, tuple((c * k, f) for k, f in self.terms))

    def neg(self) -> TensorPoly:
        return TensorPoly(self.spec, self.degree, tuple((-k, f) for k, f in self.terms))

    def is_zero(self) -> bool:
        return not self.terms

    def unit_multiple(self) -> Union[Scalar, None]:
        if not self.terms:
            return ZERO
        unit = self.spec.unit_label()
        if len(self.terms) == 1 and all(label == unit for label in self.terms[0][1]):
            return self.terms[0][0]
        return None

    def __add__(self, other: TensorPoly) -> TensorPoly:
        return self.add(other)

    def __sub__(self, other: TensorPoly) -> TensorPoly:
        return self.sub(other)

    def __neg__(self) -> TensorPoly:
        return self.neg()

    def __mul__(self, other: TensorPoly) -> TensorPoly:
        return componentwise_product(self, other)

    def _check_compatible(self, other: TensorPoly) -> None:
        if self.spec != other.spec:
            raise AlgebraMismatchError("tensors over different algebras")
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    # -- serialization / printing ---------------------------------------

    def json_text(self) -> str:
        """``dumps(self.to_json())``, with each distinct label's element and
        each distinct coefficient encoded once (most slots hold the unit)."""
        factor = functools.cache(lambda label: dumps(self.spec.basis_elem(label).to_json()))
        coeff = functools.cache(lambda c: dumps(c.to_json()))
        terms = (
            f'{{"coeff":{coeff(c)},"factors":[{",".join(map(factor, labels))}]}}'
            for c, labels in self.terms
        )
        return f'{{"degree":{self.degree},"terms":[{",".join(terms)}]}}'

    def to_json(self) -> dict:
        return json.loads(self.json_text())  # fresh lists: callers may edit the document

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        slot = functools.cache(lambda label: _slot_str(self.spec.basis_elem(label)))  # few distinct labels
        out = []
        for i, (c, labels) in enumerate(self.terms):
            body = "⊗".join(map(slot, labels))
            if c.is_one():
                sign, mag = "+", body
            elif c == MINUS_ONE:
                sign, mag = "-", body
            else:
                sign, mag = "+", f"{c}·{body}"
            if i == 0:
                out.append(mag if sign == "+" else f"-{mag}")
            else:
                out.append(f"{sign} {mag}")
        return " ".join(out)


def _expand(spec: AlgebraSpec, degree: int, terms: Iterable[ElemTerm]) -> Iterator[Term]:
    """Expand terms over elements multilinearly over the backend basis."""
    for coeff, factors in terms:
        factors = tuple(factors)
        if len(factors) != degree:
            raise ValueError(f"term has {len(factors)} slots, expected {degree}")
        for f in factors:
            if f.spec != spec:
                raise AlgebraMismatchError("tensor slot from a different algebra")
        if not coeff.is_zero():
            yield from _multilinear(coeff, (), [f.basis_decomposition() for f in factors], ())


def _multilinear(coeff: Scalar, head: tuple, slots: list, tail: tuple) -> Iterator[Term]:
    """Expand coeff * head (x) slots (x) tail; a slot lists (coeff, label) pairs."""
    for combo in itertools.product(*slots):
        c = coeff
        for ci, _ in combo:
            c = _times(c, ci)
        yield c, head + tuple(label for _, label in combo) + tail


def _times(a: Scalar, b: Scalar) -> Scalar:
    """a * b, where a factor that is the ``ONE`` singleton is not multiplied
    in (``_glue``, ``TensorPoly.unit`` and ``wrap`` give most unit
    coefficients as it)."""
    return b if a is ONE else a if b is ONE else a * b


def _collect(spec: AlgebraSpec, degree: int, terms: Iterable[Term]) -> TensorPoly:
    """Merge terms by label tuple into canonical form."""
    acc: dict[tuple, Scalar] = {}
    for coeff, labels in terms:
        acc[labels] = acc[labels] + coeff if labels in acc else coeff
    kept = sorted(labels for labels, c in acc.items() if not c.is_zero())
    return TensorPoly(spec, degree, tuple((acc[labels], labels) for labels in kept))


def tensor_sum(spec: AlgebraSpec, degree: int, parts: Iterable[TensorPoly]) -> TensorPoly:
    """Sum tensors of one degree with a single merge over all their terms."""
    zero = TensorPoly.zero(spec, degree)
    parts = list(parts)
    for part in parts:
        zero._check_compatible(part)
    return _collect(spec, degree, (t for part in parts for t in part.terms))


def _slot_str(f: AlgElem) -> str:
    s = str(f)
    return f"({s})" if (" + " in s or " - " in s) else s


# -- products and maps --------------------------------------------------


def tensor_concat(u: TensorPoly, v: TensorPoly) -> TensorPoly:
    """Bilinear concatenation of label tuples.

    Needs no normalization: the key of fu + fv is the key of fu followed
    by that of fv, so nested walks over canonical operands give distinct
    keys in sorted order, and products of nonzero coefficients are nonzero.
    """
    if u.spec != v.spec:
        raise AlgebraMismatchError("tensors over different algebras")
    terms = tuple((_times(cu, cv), fu + fv) for cu, fu in u.terms for cv, fv in v.terms)
    return TensorPoly(u.spec, u.degree + v.degree, terms)


def _glue(spec: AlgebraSpec, degree: int, items: Iterable[tuple]) -> TensorPoly:
    """The one product loop.  An item (coeff, head, pairs, tail) stands for
    coeff * head (x) a1 b1 (x) ... (x) tail; a product of basis labels may
    leave the basis (E10 E01 = E11), so it is expanded over it again."""

    @functools.cache
    def product(pair: tuple[Label, Label]) -> Decomposition:
        a, b = (spec.basis_elem(label) for label in pair)
        return tuple((ONE if c == ONE else c, label) for c, label in a.mul(b).basis_decomposition())

    terms = (
        term
        for coeff, head, pairs, tail in items
        for term in _multilinear(coeff, head, [product(pair) for pair in pairs], tail)
    )
    return _collect(spec, degree, terms)


def componentwise_product(u: TensorPoly, v: TensorPoly) -> TensorPoly:
    """Slotwise product: the multiplication of the p-fold product algebra."""
    u._check_compatible(v)
    items = ((_times(cu, cv), (), zip(fu, fv), ()) for cu, fu in u.terms for cv, fv in v.terms)
    return _glue(u.spec, u.degree, items)


def t_algebra_product(u: TensorPoly, v: TensorPoly, block: int = 1) -> TensorPoly:
    """Graded product gluing the last block of u to the first block of v.

    With block width w the operands are read as chains over the w-fold
    product algebra; the glue multiplies the adjacent blocks slotwise.
    """
    if u.spec != v.spec:
        raise AlgebraMismatchError("tensors over different algebras")
    if u.degree % block or v.degree % block:
        raise ValueError("degrees must be multiples of the block width")
    items = (
        (_times(cu, cv), fu[:-block], zip(fu[-block:], fv[:block]), fv[block:])
        for cu, fu in u.terms
        for cv, fv in v.terms
    )
    return _glue(u.spec, u.degree + v.degree - block, items)


def mult_map(p: int, u: TensorPoly) -> TensorPoly:
    """Multiplication map of the p-fold product algebra, reading the input
    as a pair of p-blocks and multiplying them slotwise."""
    if u.degree != 2 * p:
        raise ValueError(f"degree {u.degree} is not 2*{p}")
    return _glue(u.spec, p, ((c, (), zip(f[:p], f[p:]), ()) for c, f in u.terms))


def tensor_eval(u: TensorPoly, pts: Sequence[str]) -> Scalar:
    """Evaluate a function-backend tensor at one tuple of points: a term
    counts when the 0/1 pattern of each slot is 1 at its point."""
    if len(pts) != u.degree:
        raise ValueError(f"expected {u.degree} points, got {len(pts)}")
    idx = [u.spec.point_index(p) for p in pts]
    total = ZERO
    for c, labels in u.terms:
        if all(label[i] for label, i in zip(labels, idx)):
            total = total + c
    return total


def tensor_eval_all(u: TensorPoly) -> list[Scalar]:
    """Evaluate a function-backend tensor at every tuple of points, listed
    in ``itertools.product(points, repeat=degree)`` order.

    One pass per slot, first to last: a term's label in the slot gives way
    to each point index where it is 1, folded into a mixed-radix row
    number, and terms whose (row prefix, remaining labels) keys agree are
    merged.  After the last slot every key is a whole row.
    """
    n = len(u.spec.point_names())
    ones = functools.cache(lambda label: [i for i, b in enumerate(label) if b])
    acc = {(0, labels): c for c, labels in u.terms}
    for _ in range(u.degree):
        merged: dict[tuple, Scalar] = {}
        for (row, labels), c in acc.items():
            rest = labels[1:]
            for i in ones(labels[0]):
                key = (row * n + i, rest)
                merged[key] = merged[key] + c if key in merged else c
        acc = merged
    values = [ZERO] * n**u.degree
    for (row, _), c in acc.items():
        values[row] = c
    return values


def tensor_to_matrix(u: TensorPoly) -> list[list[Scalar]]:
    """Dense matrix realization of the iterated Kronecker products.

    Slot 0 indexes the fastest-varying digit, so the last tensor factor
    forms the outermost Kronecker block; this matches the convention of
    representing 1 (x) f as the block-scaled identity.  Basis matrices are
    0/1, so a term adds its coefficient at each index built from one cell
    of each slot's ``support``.
    """
    dim = u.spec.dim
    support = functools.cache(u.spec.support)  # a few labels recur in every term
    size = dim**u.degree
    out = [[ZERO] * size for _ in range(size)]
    for c, labels in u.terms:
        for entries in itertools.product(*(support(label) for label in reversed(labels))):
            i = j = 0
            for r, s in entries:
                i, j = i * dim + r, j * dim + s
            out[i][j] = out[i][j] + c
    return out


# -- universal forms ----------------------------------------------------


@dataclass(frozen=True)
class OmegaMonomial:
    """Universal-form monomial a0 d a1 d a2 ... d aq.

    Chain letters are tensors of a fixed width so the same machinery
    serves the base algebra (width 1) and any level of the frame tower
    (width a power of two).
    """

    spec: AlgebraSpec
    width: int
    chain: tuple[TensorPoly, ...]

    def __post_init__(self):
        if not self.chain:
            raise ValueError("chain must be nonempty")
        for letter in self.chain:
            if letter.degree != self.width:
                raise ValueError("chain letter width mismatch")
            if letter.spec != self.spec:
                raise AlgebraMismatchError("chain letter from a different algebra")

    @property
    def degree(self) -> int:
        return len(self.chain) - 1

    @staticmethod
    def of_elems(*elems: AlgElem) -> OmegaMonomial:
        spec = elems[0].spec
        return OmegaMonomial(spec, 1, tuple(TensorPoly.wrap(e) for e in elems))

    def scale(self, c: Scalar) -> OmegaMonomial:
        return OmegaMonomial(self.spec, self.width, (self.chain[0].scale(c),) + self.chain[1:])

    def is_trivially_zero(self) -> bool:
        """True when a letter is zero or a differentiated letter is a unit
        multiple (the differential of the unit vanishes)."""
        if any(letter.is_zero() for letter in self.chain):
            return True
        return any(letter.unit_multiple() is not None for letter in self.chain[1:])

    def __str__(self) -> str:
        head = str(self.chain[0])
        tail = " ".join(f"d({letter})" for letter in self.chain[1:])
        return f"{head} {tail}".strip()


def universal_d(m: OmegaMonomial) -> OmegaMonomial:
    """Degree-raising differential: prepend the unit coefficient."""
    return OmegaMonomial(m.spec, m.width, (TensorPoly.unit(m.spec, m.width),) + m.chain)


def omega_to_tensor(m: OmegaMonomial) -> TensorPoly:
    """Expand with d b = 1 (x) b - b (x) 1 in every differentiated slot."""
    w = m.width
    unit = TensorPoly.unit(m.spec, w)
    acc = m.chain[0]
    for letter in m.chain[1:]:
        d_letter = tensor_concat(unit, letter) - tensor_concat(letter, unit)
        acc = t_algebra_product(acc, d_letter, block=w)
    return acc


def omega_product(u: OmegaMonomial, v: OmegaMonomial) -> tuple[OmegaMonomial, ...]:
    """Product of universal-form monomials as a sum of monomials.

    The head coefficient of the right factor is moved left through the
    differentials: d(a) b = d(ab) - a d(b).
    """
    if u.spec != v.spec or u.width != v.width:
        raise AlgebraMismatchError("universal forms over different algebras")
    if u.degree == 0:
        head = componentwise_product(u.chain[0], v.chain[0])
        out = OmegaMonomial(u.spec, u.width, (head,) + v.chain[1:])
        return () if out.is_trivially_zero() else (out,)
    u_head = OmegaMonomial(u.spec, u.width, u.chain[:-1])
    last = u.chain[-1]
    glued = componentwise_product(last, v.chain[0])
    unit = TensorPoly.unit(u.spec, u.width)
    m1 = OmegaMonomial(u.spec, u.width, (unit, glued) + v.chain[1:])
    m2 = OmegaMonomial(u.spec, u.width, (last, v.chain[0]) + v.chain[1:])
    out: list[OmegaMonomial] = []
    for piece, sign in ((m1, ONE), (m2, MINUS_ONE)):
        if piece.is_trivially_zero():
            continue
        for prod in omega_product(u_head, piece):
            prod = prod if sign.is_one() else prod.scale(sign)
            if not prod.is_trivially_zero():
                out.append(prod)
    return tuple(out)
