"""Formal tensor polynomials and universal differential forms.

A :class:`TensorPoly` of degree p is a finite linear combination of
p-fold elementary tensors of backend elements, each term keyed by its
non-unit slots alone.  The same vector space
carries two different products: the slotwise one (the product algebra)
and the glued graded one (last slot of the left factor multiplies the
first slot of the right factor).  Universal forms a0 d a1 ... d aq are
kept as a secondary chain representation with an explicit expansion
map based on d b = 1 (x) b - b (x) 1, written once as ``tensor_d``,
which is also the frame tower's level differential.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, itemgetter
from typing import Callable, Iterable, Iterator, Sequence, TypeVar, Union

from .algebra import AlgebraMismatchError, AlgebraSpec, AlgElem, Label
from .scalars import MINUS_ONE, ONE, ZERO, Record, Scalar

Key = tuple[tuple[int, Label], ...]
Term = tuple[Scalar, Key]
T = TypeVar("T")
ElemTerm = tuple[Scalar, Sequence[AlgElem]]


class Memo(dict):
    """A table filled on demand: a missing key's entry is f(key), stored on first lookup."""
    __slots__ = ("f",)
    def __init__(self, f: Callable):
        self.f = f
    def __missing__(self, key):
        value = self[key] = self.f(key)
        return value


#: compact JSON with sorted keys, the one form ncdiff writes; one encoder
#: serves every call, where ``json.dumps`` with options builds one per call
dumps: Callable[[object], str] = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@dataclass(frozen=True)
class TensorPoly:
    """Finite linear combination of ``degree``-fold elementary tensors.

    A term is (coefficient, key): the key holds the (slot, basis label)
    pairs of its non-unit slots, sorted by slot (see
    ``AlgElem.basis_decomposition``), so the unit of every degree is
    (ONE, ()).  Terms are canonical: sorted by key, keys distinct, no
    coefficient zero; then ``==`` is a complete equality test.  The
    constructor takes canonical terms only, ``TensorPoly.of`` arbitrary
    elements and ``tensor_collect`` raw keyed terms.
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
        return tensor_collect(spec, degree, _expand(spec, degree, terms))

    @staticmethod
    def wrap(elem: AlgElem) -> TensorPoly:
        return TensorPoly.of(elem.spec, 1, [(ONE, (elem,))])

    @staticmethod
    def unit(spec: AlgebraSpec, degree: int) -> TensorPoly:
        return TensorPoly(spec, degree, ((ONE, ()),))

    @staticmethod
    def zero(spec: AlgebraSpec, degree: int) -> TensorPoly:
        return TensorPoly(spec, degree, ())

    @staticmethod
    def elementary(factors: Sequence[AlgElem], coeff: Scalar = ONE) -> TensorPoly:
        return TensorPoly.of(factors[0].spec, len(factors), [(coeff, tuple(factors))])

    # -- linear structure ----------------------------------------------

    def add(self, other: TensorPoly) -> TensorPoly:
        return tensor_sum(self.spec, self.degree, (self, other))

    def sub(self, other: TensorPoly) -> TensorPoly:
        return self.add(other.neg())

    def scale(self, c: Union[Scalar, int]) -> TensorPoly:
        """c times every coefficient."""
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
        if len(self.terms) == 1 and not self.terms[0][1]:
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

    def print_order(self) -> list[Term]:
        """The terms as output lists them: as their tuples of one label per
        slot sort.  Two such tuples first differ at the lowest slot where
        the keys differ, so a pair whose label sorts below the unit ranks by
        rising slot, one above it by falling slot, and a key's end between."""
        unit = self.spec.unit_label()
        rank = lambda term: tuple((0, s, l) if l < unit else (2, -s, l) for s, l in term[1]) + ((1,),)
        return sorted(self.terms, key=rank)

    def _per_slot(self, f: Callable[[Label], T]) -> Iterator[tuple[Scalar, list[T]]]:
        """(coefficient, f of every slot's label) in print order, f of the
        unit where a key names none; f runs once per distinct label (a few
        recur in every term, and most slots hold the unit)."""
        f = Memo(f)
        unit = f[self.spec.unit_label()]
        for c, key in self.print_order():
            slots = [unit] * self.degree
            for slot, label in key:
                slots[slot] = f[label]
            yield c, slots

    def json_text(self) -> str:
        """``dumps(self.to_json())``, with each distinct label's element and
        each distinct coefficient encoded once."""
        coeff = Memo(lambda c: dumps(c.to_json()))
        rows = self._per_slot(lambda label: dumps(self.spec.basis_elem(label).to_json()))
        terms = (f'{{"coeff":{coeff[c]},"factors":[{",".join(slots)}]}}' for c, slots in rows)
        return f'{{"degree":{self.degree},"terms":[{",".join(terms)}]}}'

    def to_json(self) -> dict:
        """The parsed ``json_text`` (fresh lists: callers may edit it), parsed with the
        cyclic collector paused, whose passes cost several times the parse on a large tensor."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            return json.loads(self.json_text())
        finally:
            if enabled:
                gc.enable()

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        out = []
        for i, (c, slots) in enumerate(self._per_slot(lambda label: _slot_str(self.spec.basis_elem(label)))):
            body = "⊗".join(slots)
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
    """Expand terms over elements multilinearly over the backend basis.  A slot holding
    the unit itself, ((ONE, unit),), is left out; a unit multiple such as 2·1 stays."""
    unit = spec.unit_label()
    one = ((ONE, unit),)
    for coeff, factors in terms:
        factors = tuple(factors)
        if len(factors) != degree:
            raise ValueError(f"term has {len(factors)} slots, expected {degree}")
        for f in factors:
            if f.spec is not spec and f.spec != spec:
                raise AlgebraMismatchError("tensor slot from a different algebra")
        if not coeff.is_zero():
            slots = [(slot, d) for slot, d in enumerate(f.basis_decomposition() for f in factors) if d != one]
            yield from _multilinear(coeff, [], slots, unit)


def _multilinear(coeff: Scalar, fixed: list, slots: list, unit: Label) -> Iterator[Term]:
    """Expand coeff * fixed (x) slots: fixed holds (slot, label) pairs, and
    each of slots is (slot, decomposition); unit labels stay out of keys."""
    for combo in itertools.product(*(decomposition for _, decomposition in slots)):
        c, key = coeff, fixed[:]
        for (slot, _), (ci, label) in zip(slots, combo):
            c *= ci
            if label != unit:
                key.append((slot, label))
        yield c, tuple(sorted(key))


def left_products(g: AlgElem, part: Callable[[Scalar], T] = lambda c: c) -> Memo:
    """The table label -> g·label over the basis, a ``Memo`` filled on demand, each coefficient
    read through part: by default the ``Scalar`` itself, and ``attrgetter("re")``
    gives a real table's ``int`` view.  A product of basis labels may leave
    the basis (E10 E01 = E11), so it is expanded over it again."""
    spec, unit = g.spec, g.spec.unit_label()
    return Memo(lambda label: tuple(
        (part(c), lp) for c, lp in (g if label == unit else g.mul(spec.basis_elem(label))).basis_decomposition()
    ))


def tensor_collect(spec: AlgebraSpec, degree: int, terms: Iterable[Term]) -> TensorPoly:
    """Merge terms with canonical keys (sorted by slot, no unit label)."""
    acc: dict[Key, Scalar] = {}
    for coeff, key in terms:
        acc[key] = acc[key] + coeff if key in acc else coeff
    kept = sorted(((c, key) for key, c in acc.items() if not c.is_zero()), key=itemgetter(1))
    return TensorPoly(spec, degree, tuple(kept))


def tensor_sum(spec: AlgebraSpec, degree: int, parts: Iterable[TensorPoly]) -> TensorPoly:
    """Sum tensors of one degree with a single merge over all their terms."""
    zero = TensorPoly.zero(spec, degree)
    parts = list(parts)
    for part in parts:
        zero._check_compatible(part)
    if len(parts) == 1:  # already canonical
        return parts[0]
    return tensor_collect(spec, degree, (t for part in parts for t in part.terms))


def _slot_str(f: AlgElem) -> str:
    s = str(f)
    return f"({s})" if (" + " in s or " - " in s) else s


def _shift(key: Key, by: int) -> Key:
    return tuple([(slot + by, label) for slot, label in key])


# -- products and maps --------------------------------------------------


def tensor_concat(u: TensorPoly, v: TensorPoly) -> TensorPoly:
    """Bilinear concatenation: the right key moves past the left's slots.

    Needs no merge: the key of fu + fv is the key of fu followed by that
    of fv, so distinct pairs give distinct keys, and products of nonzero
    coefficients are nonzero.  One sort restores key order; ``lam`` gives
    it sorted input, on which it is linear.
    """
    if u.spec != v.spec:
        raise AlgebraMismatchError("tensors over different algebras")
    moved = [(cv, _shift(fv, u.degree)) for cv, fv in v.terms]
    terms = sorted(((cu * cv, fu + fv) for cu, fu in u.terms for cv, fv in moved), key=itemgetter(1))
    return TensorPoly(u.spec, u.degree + v.degree, tuple(terms))


def tensor_d(u: TensorPoly) -> TensorPoly:
    """The universal differential 1⊗u - u⊗1 of a degree-d tensor, by ``_d_items``."""
    items = _d_items(((key, c) for c, key in u.terms), u.degree)
    return TensorPoly(u.spec, 2 * u.degree, tuple((c, key) for key, c in items))


def _d_items(items: Iterable[tuple[Key, T]], d: int) -> list[tuple[Key, T]]:
    """The (key, coefficient) pairs of 1⊗u - u⊗1 from those of a degree-d u.

    The unit's empty key cancels; the keys of u⊗1 are u's, negated, and
    those of 1⊗u are u's moved up by d.  Every key of u⊗1 (slots below d)
    sorts before every key of 1⊗u, so no merge is needed and sorted pairs
    stay sorted.
    """
    items = [(key, c) for key, c in items if key]
    return [(key, -c) for key, c in items] + [(_shift(key, d), c) for key, c in items]


def _glue(spec: AlgebraSpec, degree: int, items: Iterable[tuple]) -> TensorPoly:
    """The one product loop.  An item (coeff, left, right) holds two keys
    already moved to output slots; where both hold a slot, the labels
    multiply, by one ``left_products`` table per left label, itself made on
    demand: ``products[a][b]`` lists a·b over the basis."""
    unit = spec.unit_label()
    products = Memo(lambda label: left_products(spec.basis_elem(label)))

    def terms() -> Iterator[Term]:
        for coeff, left, right in items:
            fixed, meets = dict(left), []
            for slot, b in right:
                if slot in fixed:
                    meets.append((slot, products[fixed.pop(slot)][b]))
                else:
                    fixed[slot] = b
            rest = list(fixed.items())
            yield from _multilinear(coeff, rest, meets, unit) if meets else [(coeff, tuple(sorted(rest)))]

    return tensor_collect(spec, degree, terms())


def componentwise_product(u: TensorPoly, v: TensorPoly) -> TensorPoly:
    """Slotwise product: the multiplication of the p-fold product algebra."""
    u._check_compatible(v)
    items = ((cu * cv, fu, fv) for cu, fu in u.terms for cv, fv in v.terms)
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
    moved = [(cv, _shift(fv, u.degree - block)) for cv, fv in v.terms]
    items = ((cu * cv, fu, fv) for cu, fu in u.terms for cv, fv in moved)
    return _glue(u.spec, u.degree + v.degree - block, items)


def mult_map(u: TensorPoly) -> TensorPoly:
    """Multiplication map of the p-fold product algebra for u of degree 2p,
    read as a pair of p-blocks multiplied slotwise: slot s meets slot s + p."""
    p, odd = divmod(u.degree, 2)
    if odd:
        raise ValueError(f"degree {u.degree} is odd")
    items = ((c, [(s, l) for s, l in f if s < p], [(s - p, l) for s, l in f if s >= p]) for c, f in u.terms)
    return _glue(u.spec, p, items)


def tensor_eval(u: TensorPoly, pts: Sequence[str]) -> Scalar:
    """Evaluate a function-backend tensor at one tuple of points: a term
    counts when the 0/1 pattern of each slot is 1 at its point (the unit's
    is 1 everywhere)."""
    if len(pts) != u.degree:
        raise ValueError(f"expected {u.degree} points, got {len(pts)}")
    idx = [u.spec.point_index(p) for p in pts]
    total = ZERO
    for c, key in u.terms:
        if all(label[idx[slot]] for slot, label in key):
            total = total + c
    return total


def _common_denominator(terms: Sequence[Term]) -> tuple[int, Callable[[Union[int, Fraction]], int]]:
    """d, the least common multiple of every coefficient part's denominator,
    and the map of a part p to the integer p * d."""
    d = math.lcm(*(p.denominator for c, _ in terms for p in (c.re, c.im)))
    return d, lambda p: p.numerator * (d // p.denominator)


#: a realization table (d, re, im): cell k is (re[k] + im[k]·i) / d, and im is None when every cell is real
Table = tuple[int, list[int], Union[list[int], None]]


def _table_cells(table: Table, make: Callable[[int, int, int, int], T]) -> Iterator[T]:
    """Every cell of a realization table, in order.  Each distinct value
    (re + im·i)/d, keyed by its integers, is brought to lowest terms, one gcd
    per part, and made once, as make(re_n, re_d, im_n, im_d): a table of
    thousands of cells makes a few values."""
    d, re, im = table

    def cell(x: int, y: int = 0) -> T:
        g, h = math.gcd(x, d), math.gcd(y, d)
        return make(x // g, d // g, y // h, d // h)

    if im is None:
        made = {x: cell(x) for x in set(re)}
        return map(made.__getitem__, re)
    made = {x: cell(*x) for x in set(zip(re, im))}
    return map(made.__getitem__, zip(re, im))


def _scalar_cell(re_n: int, re_d: int, im_n: int, im_d: int) -> Scalar:
    """The Scalar re_n/re_d + (im_n/im_d)·i of parts in lowest terms: the ``ZERO``
    singleton for zero, and an ``int`` part wherever its denominator is 1."""
    if not re_n and not im_n:
        return ZERO
    return Scalar(re_n if re_d == 1 else Fraction(re_n, re_d), im_n if im_d == 1 else Fraction(im_n, im_d))


def _eval_table(u: TensorPoly, den: int) -> Table:
    """The table of u / den at every tuple of points, listed in
    ``itertools.product(points, repeat=degree)`` order.

    Coefficients are scaled to integers over one common denominator, and
    each part's table is folded densely, slot by slot: slot s is the digit
    of weight n^(degree-1-s), so a label that is 1 at point i adds the
    table of the remaining slots into block i, and the unit (every point)
    tiles it.
    """
    n, degree = len(u.spec.point_names()), u.degree
    ones = Memo(lambda label: [i for i, b in enumerate(label) if b])

    def fold(terms: list[tuple[int, Key]], slot: int) -> list[int]:
        """The table over slots slot.. of terms whose keys start at slot or later."""
        if not any(key for _, key in terms):
            return [sum(c for c, _ in terms)] * n ** (degree - slot)
        here: dict[Label, list] = {}
        rest = []
        for c, key in terms:
            if key and key[0][0] == slot:
                here.setdefault(key[0][1], []).append((c, key[1:]))
            else:
                rest.append((c, key))
        block = n ** (degree - slot - 1)
        out = fold(rest, slot + 1) * n if rest else [0] * (block * n)
        for label, group in here.items():
            sub = fold(group, slot + 1)
            for i in ones[label]:
                at = slice(i * block, (i + 1) * block)
                out[at] = map(add, out[at], sub)
        return out

    d, scaled = _common_denominator(u.terms)
    re = [(scaled(c.re), key) for c, key in u.terms if c.re]
    im = [(scaled(c.im), key) for c, key in u.terms if c.im]
    return den * d, fold(re, 0), fold(im, 0) if im else None


def tensor_eval_all(u: TensorPoly) -> list[Scalar]:
    """Evaluate a function-backend tensor at every tuple of points, listed
    in ``itertools.product(points, repeat=degree)`` order: ``_eval_table``,
    one Scalar per distinct value.  Values agree with ``tensor_eval``."""
    return list(_table_cells(_eval_table(u, 1), _scalar_cell))


def _matrix_table(u: TensorPoly, den: int) -> Table:
    """The table of the dense matrix of u / den, its rows concatenated.

    Slot 0 indexes the fastest-varying digit, so the last tensor factor
    forms the outermost Kronecker block; this matches the convention of
    representing 1 (x) f as the block-scaled identity.  Basis matrices are
    0/1, so a term adds its coefficient, scaled to an integer over one
    common denominator, at each cell built from one cell of each slot's
    ``support``: cell (r, s) of slot k moves the row-major index by
    (r * size + s) * dim^k.  The unit's cells over the slots a key leaves
    free are expanded once per pattern of occupied slots, and each term
    expands only its occupied slots.
    """
    dim, degree = u.spec.dim, u.degree
    size = dim**degree
    unit = u.spec.unit_label()
    offsets = Memo(lambda at: [(r * size + s) * dim ** at[0] for r, s in u.spec.support(at[1])])

    def unit_cells(occupied: tuple[int, ...]) -> list[int]:
        """The cells of the unit in every slot a key leaves unoccupied."""
        at = [0]
        for slot in range(degree):
            if slot not in occupied:
                at = [a + b for a in at for b in offsets[slot, unit]]
        return at

    units = Memo(unit_cells)
    d, scaled = _common_denominator(u.terms)
    re, im = [0] * (size * size), [0] * (size * size)
    for c, key in u.terms:
        moves = [0]
        for slot_label in key:
            moves = [a + b for a in moves for b in offsets[slot_label]]
        base = units[tuple([slot for slot, _ in key])]
        at = [a + m for m in moves for a in base]
        for part, out in ((c.re, re), (c.im, im)):
            if part:
                part = scaled(part)
                for i in at:
                    out[i] += part
    return den * d, re, im if any(im) else None


def tensor_to_matrix(u: TensorPoly) -> list[list[Scalar]]:
    """Dense matrix realization of the iterated Kronecker products:
    ``_matrix_table`` split into rows, one Scalar per distinct value."""
    size = u.spec.dim**u.degree
    cells = _table_cells(_matrix_table(u, 1), _scalar_cell)
    return [list(itertools.islice(cells, size)) for _ in range(size)]


# -- universal forms ----------------------------------------------------


class OmegaMonomial(Record):
    """Universal-form monomial a0 d a1 d a2 ... d aq.

    Chain letters are tensors of one width, the first letter's degree, so
    the same machinery serves the base algebra (width 1) and any level of
    the frame tower (width a power of two).
    """

    __slots__ = _fields = ("chain",)
    def __init__(self, chain: tuple[TensorPoly, ...]):
        if not chain:
            raise ValueError("chain must be nonempty")
        for letter in chain[1:]:
            chain[0]._check_compatible(letter)
        self.chain = chain

    @property
    def spec(self) -> AlgebraSpec:
        return self.chain[0].spec

    @property
    def width(self) -> int:
        return self.chain[0].degree

    @property
    def degree(self) -> int:
        return len(self.chain) - 1

    def scale(self, c: Scalar) -> OmegaMonomial:
        return OmegaMonomial((self.chain[0].scale(c),) + self.chain[1:])

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
    return OmegaMonomial((TensorPoly.unit(m.spec, m.width),) + m.chain)


def omega_to_tensor(m: OmegaMonomial) -> TensorPoly:
    """Expand with d b = 1 (x) b - b (x) 1 (``tensor_d``) in every differentiated slot."""
    acc = m.chain[0]
    for letter in m.chain[1:]:
        acc = t_algebra_product(acc, tensor_d(letter), block=m.width)
    return acc


def omega_product(u: OmegaMonomial, v: OmegaMonomial) -> tuple[OmegaMonomial, ...]:
    """Product of universal-form monomials as a sum of monomials.

    The head b0 of the right factor moves left through every differential
    in one pass, by d(a) b = d(ab) - a d(b):

        (a0 da1 ... daq) b0 = Σ_{i=0}^{q} (-1)^{q-i} a0 da1 ... d(a_i a_{i+1}) ... daq db0,

    with a_{q+1} = b0 (the i = 0 term is a0a1 da2 ... db0), and v's
    db1 ... dbr follow every term.  Trivially zero monomials are dropped.
    The first product checks that u and v share an algebra and a width.
    """
    chain, out = u.chain + v.chain[:1], []
    for i in range(u.degree, -1, -1):
        glued = componentwise_product(chain[i], chain[i + 1])
        m = OmegaMonomial(chain[:i] + (glued,) + chain[i + 2 :] + v.chain[1:])
        if not m.is_trivially_zero():
            out.append(m.scale(MINUS_ONE) if (u.degree - i) % 2 else m)
    return tuple(out)
