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

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

from .algebra import AlgebraMismatchError, AlgebraSpec, AlgElem, func_as_diagonal
from .scalars import ONE, ZERO, Scalar

Term = tuple[Scalar, tuple[AlgElem, ...]]


@dataclass(frozen=True)
class TensorPoly:
    """Finite linear combination of ``degree``-fold elementary tensors.

    The terms are always canonical, and this module alone keeps them so:
    every factor is a basis element of the backend (an entry of some
    ``basis_decomposition``), terms are sorted by their slot keys, and no
    coefficient is zero.  Then ``==`` is a complete equality test.  The
    dataclass constructor takes canonical terms only; ``TensorPoly.of``
    is the entry point for arbitrary elements.
    """

    spec: AlgebraSpec
    degree: int
    terms: tuple[Term, ...]

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("tensor degree must be at least 1")

    @staticmethod
    def of(spec: AlgebraSpec, degree: int, terms: Iterable[Term]) -> TensorPoly:
        """Build in canonical form from arbitrary elements.

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
        return TensorPoly(spec, degree, ((ONE, (spec.unit(),) * degree),))

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
        if len(self.terms) == 1 and all(
            f.unit_multiple() is not None and f.unit_multiple().is_one() for f in self.terms[0][1]
        ):
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

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "terms": [
                {"coeff": c.to_json(), "factors": [_elem_to_json(f) for f in factors]}
                for c, factors in self.terms
            ],
        }

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        out = []
        for i, (c, factors) in enumerate(self.terms):
            body = "⊗".join(_slot_str(f) for f in factors)
            if c.is_one():
                sign, mag = "+", body
            elif c == Scalar.of(-1):
                sign, mag = "-", body
            else:
                sign, mag = "+", f"{c}·{body}"
            if i == 0:
                out.append(mag if sign == "+" else f"-{mag}")
            else:
                out.append(f"{sign} {mag}")
        return " ".join(out)


def _expand(spec: AlgebraSpec, degree: int, terms: Iterable[Term]) -> Iterator[Term]:
    """Expand arbitrary terms multilinearly over the backend basis."""
    for coeff, factors in terms:
        factors = tuple(factors)
        if len(factors) != degree:
            raise ValueError(f"term has {len(factors)} slots, expected {degree}")
        for f in factors:
            if f.spec != spec:
                raise AlgebraMismatchError("tensor slot from a different algebra")
        if coeff.is_zero():
            continue
        for combo in itertools.product(*(f.basis_decomposition() for f in factors)):
            c = coeff
            for ci, _ in combo:
                c = c * ci
            yield c, tuple(b for _, b in combo)


def _collect(spec: AlgebraSpec, degree: int, terms: Iterable[Term]) -> TensorPoly:
    """Merge terms over basis elements by slot keys into canonical form."""
    acc: dict[tuple, Term] = {}
    for coeff, factors in terms:
        key = tuple(b.sort_key() for b in factors)
        if key in acc:
            prev_c, prev_f = acc[key]
            total = prev_c + coeff
            if total.is_zero():
                del acc[key]
            else:
                acc[key] = (total, prev_f)
        else:
            acc[key] = (coeff, factors)
    return TensorPoly(spec, degree, tuple(acc[k] for k in sorted(acc)))


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


def _elem_to_json(f: AlgElem):
    from .algebra import FreePoly, FuncElem, MatElem

    if isinstance(f, FreePoly):
        return {"words": [[list(w), c.to_json()] for w, c in f.terms]}
    if isinstance(f, FuncElem):
        return {"values": [v.to_json() for v in f.values]}
    if isinstance(f, MatElem):
        return {"rows": [[e.to_json() for e in row] for row in f.rows]}
    raise TypeError(f"unknown element type {type(f)!r}")


# -- products and maps --------------------------------------------------


def tensor_concat(u: TensorPoly, v: TensorPoly) -> TensorPoly:
    """Bilinear concatenation of factor tuples.

    Needs no normalization: the key of fu + fv is the key of fu followed
    by that of fv, so nested walks over canonical operands give distinct
    keys in sorted order, and products of nonzero coefficients are nonzero.
    """
    if u.spec != v.spec:
        raise AlgebraMismatchError("tensors over different algebras")
    terms = tuple((cu * cv, fu + fv) for cu, fu in u.terms for cv, fv in v.terms)
    return TensorPoly(u.spec, u.degree + v.degree, terms)


def componentwise_product(u: TensorPoly, v: TensorPoly) -> TensorPoly:
    """Slotwise product: the multiplication of the p-fold product algebra."""
    u._check_compatible(v)
    terms = []
    for cu, fu in u.terms:
        for cv, fv in v.terms:
            terms.append((cu * cv, tuple(a.mul(b) for a, b in zip(fu, fv))))
    return TensorPoly.of(u.spec, u.degree, terms)


def t_algebra_product(u: TensorPoly, v: TensorPoly, block: int = 1) -> TensorPoly:
    """Graded product gluing the last block of u to the first block of v.

    With block width w the operands are read as chains over the w-fold
    product algebra; the glue multiplies the adjacent blocks slotwise.
    """
    if u.spec != v.spec:
        raise AlgebraMismatchError("tensors over different algebras")
    if u.degree % block or v.degree % block:
        raise ValueError("degrees must be multiples of the block width")
    terms = []
    for cu, fu in u.terms:
        for cv, fv in v.terms:
            glued = tuple(a.mul(b) for a, b in zip(fu[-block:], fv[:block]))
            terms.append((cu * cv, fu[:-block] + glued + fv[block:]))
    return TensorPoly.of(u.spec, u.degree + v.degree - block, terms)


def mult_map(p: int, u: TensorPoly) -> TensorPoly:
    """Multiplication map of the p-fold product algebra, reading the input
    as a pair of p-blocks and multiplying them slotwise."""
    if u.degree != 2 * p:
        raise ValueError(f"degree {u.degree} is not 2*{p}")
    terms = [
        (c, tuple(f[i].mul(f[p + i]) for i in range(p))) for c, f in u.terms
    ]
    return TensorPoly.of(u.spec, p, terms)


def tensor_eval(u: TensorPoly, pts: Sequence[str]) -> Scalar:
    """Evaluate a function-backend tensor at one tuple of points."""
    if u.spec.backend != "function":
        raise AlgebraMismatchError("tensor_eval needs the function backend")
    if len(pts) != u.degree:
        raise ValueError(f"expected {u.degree} points, got {len(pts)}")
    idx = [u.spec.point_index(p) for p in pts]
    total = ZERO
    for c, factors in u.terms:
        prod = c
        for f, i in zip(factors, idx):
            prod = prod * f.values[i]
        total = total + prod
    return total


def kron(a: list[list[Scalar]], b: list[list[Scalar]]) -> list[list[Scalar]]:
    n, m = len(a), len(b)
    out = [[ZERO] * (n * m) for _ in range(n * m)]
    for i in range(n):
        for j in range(n):
            if a[i][j].is_zero():
                continue
            for k in range(m):
                for l in range(m):
                    out[i * m + k][j * m + l] = a[i][j] * b[k][l]
    return out


def tensor_to_matrix(u: TensorPoly) -> list[list[Scalar]]:
    """Dense matrix realization via iterated Kronecker products.

    Slot 0 indexes the fastest-varying digit, so the last tensor factor
    forms the outermost Kronecker block; this matches the convention of
    representing 1 (x) f as the block-scaled identity.
    """
    if u.spec.backend == "function":
        dim = len(u.spec.points)
        mats_of = lambda f: [list(r) for r in func_as_diagonal(f).rows]
    elif u.spec.backend == "matrix":
        dim = u.spec.dim
        mats_of = lambda f: [list(r) for r in f.rows]
    else:
        raise AlgebraMismatchError("dense realization needs the matrix or function backend")
    size = dim**u.degree
    out = [[ZERO] * size for _ in range(size)]
    for c, factors in u.terms:
        acc = mats_of(factors[0])
        for f in factors[1:]:
            acc = kron(mats_of(f), acc)
        for i in range(size):
            row = acc[i]
            for j in range(size):
                if not row[j].is_zero():
                    out[i][j] = out[i][j] + c * row[j]
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
    for piece, sign in ((m1, ONE), (m2, Scalar.of(-1))):
        if piece.is_trivially_zero():
            continue
        for prod in omega_product(u_head, piece):
            prod = prod if sign.is_one() else prod.scale(sign)
            if not prod.is_trivially_zero():
                out.append(prod)
    return tuple(out)


def omega_sum_to_tensor(monomials: Iterable[OmegaMonomial], spec: AlgebraSpec, degree: int) -> TensorPoly:
    return tensor_sum(spec, degree, (omega_to_tensor(m) for m in monomials))
