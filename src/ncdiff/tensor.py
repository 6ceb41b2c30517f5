"""Formal tensor polynomials and universal differential forms.

A :class:`TensorPoly` of degree p is a finite linear combination of
p-fold elementary tensors of backend elements, each term keyed by its
non-unit slots alone.  The same vector space
carries two different products: the slotwise one (the product algebra)
and the glued graded one (last slot of the left factor multiplies the
first slot of the right factor).  A universal form a0 d a1 ... d aq over
letters of width w is its image, a tensor of q + 1 blocks (``omega_to_tensor``,
from d b = 1 (x) b - b (x) 1, written once as ``tensor_d``, which is also
the frame tower's level differential); on images the product of forms is
the glued product and the universal differential is ``coboundary``.
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
from .scalars import MINUS_ONE, ONE, ZERO, Scalar

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
        if not factors:
            raise ValueError("tensor degree must be at least 1")
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
    the unit itself, ((ONE, unit),), is left out, and the spec's own unit element is
    not decomposed at all; a unit multiple such as 2·1 stays."""
    unit_elem, unit = spec.unit(), spec.unit_label()
    one = ((ONE, unit),)
    for coeff, factors in terms:
        factors = tuple(factors)
        if len(factors) != degree:
            raise ValueError(f"term has {len(factors)} slots, expected {degree}")
        for f in factors:
            if f.spec is not spec and f.spec != spec:
                raise AlgebraMismatchError("tensor slot from a different algebra")
        if not coeff.is_zero():
            decompositions = ((slot, f.basis_decomposition()) for slot, f in enumerate(factors) if f is not unit_elem)
            slots = [(slot, d) for slot, d in decompositions if d != one]
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
    """The table label -> g·label over the basis, a ``Memo`` filled on demand
    with g's own rows (``AlgElem.left_row``), each coefficient read through part:
    by default the ``Scalar`` itself, and ``attrgetter("re")`` gives a real
    table's ``int`` view."""
    row = g.left_row
    return Memo(lambda label: tuple([(part(c), lp) for c, lp in row(label)]))


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
    """Bilinear concatenation: the glued product of u and v with v's keys moved
    past u's slots, so that no slot is held by both and no labels multiply."""
    return _glue(u.spec, u.degree + v.degree, _pairs(u, v, u.degree))


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


def _pairs(u: TensorPoly, v: TensorPoly, by: int) -> Iterator[tuple]:
    """The ``_glue`` items of u times v, v's keys moved up by ``by`` slots."""
    if u.spec != v.spec:
        raise AlgebraMismatchError("tensors over different algebras")
    moved = [(cv, _shift(fv, by)) for cv, fv in v.terms]
    return ((cu * cv, fu, fv) for cu, fu in u.terms for cv, fv in moved)


def componentwise_product(u: TensorPoly, v: TensorPoly) -> TensorPoly:
    """Slotwise product: the multiplication of the p-fold product algebra."""
    u._check_compatible(v)
    return _glue(u.spec, u.degree, _pairs(u, v, 0))


def t_algebra_product(u: TensorPoly, v: TensorPoly, block: int = 1) -> TensorPoly:
    """Graded product gluing the last block of u to the first block of v.

    With block width w the operands are read as chains over the w-fold
    product algebra; the glue multiplies the adjacent blocks slotwise.
    """
    if block < 1:
        raise ValueError(f"block width {block} is below 1")
    if u.degree % block or v.degree % block:
        raise ValueError("degrees must be multiples of the block width")
    return _glue(u.spec, u.degree + v.degree - block, _pairs(u, v, u.degree - block))


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
    counts when each slot's label has its point in its ``spec.support``
    (the unit's is every point); ``_tuples_table`` of one tuple."""
    if len(pts) != u.degree:
        raise ValueError(f"expected {u.degree} points, got {len(pts)}")
    return next(_table_cells(_tuples_table(u.spec, *_integer_terms(u), [pts]), _scalar_cell))


def _common_denominator(terms: Sequence[Term]) -> tuple[int, Callable[[Union[int, Fraction]], int]]:
    """d, the least common multiple of every coefficient part's denominator,
    and the map of a part p to the integer p * d."""
    d = math.lcm(*(p.denominator for c, _ in terms for p in (c.re, c.im)))
    return d, lambda p: p.numerator * (d // p.denominator)


#: a term of a realization kernel: its coefficient is a Gaussian integer, an ``int`` or a ``Scalar`` of two
IntTerm = tuple[Union[int, Scalar], Key]


def _integer_terms(u: TensorPoly) -> tuple[list[IntTerm], int]:
    """(terms, d): u's terms with every coefficient times d, the common
    denominator of ``_common_denominator``, an ``int`` where it is real."""
    d, scaled = _common_denominator(u.terms)
    return [(Scalar(scaled(c.re), scaled(c.im)) if c.im else scaled(c.re), key) for c, key in u.terms], d


def _parts(terms: Iterable[IntTerm]) -> tuple[list[tuple[int, Key]], list[tuple[int, Key]]]:
    """The real and the imaginary (integer, key) terms of Gaussian-integer
    terms, zero parts left out: an ``int`` coefficient is its own real part."""
    re, im = [], []
    for c, key in terms:
        if type(c) is int:
            re.append((c, key))
        else:
            if c.re:
                re.append((c.re, key))
            if c.im:
                im.append((c.im, key))
    return re, im


#: a realization table (d, re, im): cell k is (re[k] + im[k]·i) / d, and im is None when no term has an
#: imaginary part (basis tensors realize independently, so a full table then has an imaginary cell)
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


def _tuples_table(spec: AlgebraSpec, terms: Iterable[IntTerm], den: int, tuples: Sequence[Sequence[str]]) -> Table:
    """The table of the terms / den at each of tuples, one point name per
    slot: a term adds its integer parts at a tuple when each slot's label
    has the tuple's point in its ``spec.support`` (the unit's is every
    point).  Each label's points are read once for all the tuples."""
    points = Memo(lambda label: {i for i, _ in spec.support(label)})  # a function label's cells are (i, i)
    rows = [[spec.point_index(p) for p in pts] for pts in tuples]

    def sums(part: list[tuple[int, Key]]) -> list[int]:
        return [sum([c for c, key in part if all(idx[slot] in points[label] for slot, label in key)]) for idx in rows]

    re, im = _parts(terms)
    return den, sums(re), sums(im) if im else None


def _eval_table(spec: AlgebraSpec, degree: int, terms: Iterable[IntTerm], den: int) -> Table:
    """The table of the terms / den at every tuple of ``degree`` points,
    listed in ``itertools.product(points, repeat=degree)`` order.

    Each integer part's table is folded densely, slot by slot: slot s is
    the digit of weight n^(degree-1-s), so a label whose ``spec.support``
    holds point i adds the table of the remaining slots into block i, and
    the unit (every point) tiles it.
    """
    n = len(spec.point_names())
    ones = Memo(lambda label: [i for i, _ in spec.support(label)])

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

    re, im = _parts(terms)
    return den, fold(re, 0), fold(im, 0) if im else None


def tensor_eval_all(u: TensorPoly) -> list[Scalar]:
    """Evaluate a function-backend tensor at every tuple of points, listed
    in ``itertools.product(points, repeat=degree)`` order: ``_eval_table``
    of its ``_integer_terms``, one Scalar per distinct value.  Values agree
    with ``tensor_eval``."""
    return list(_table_cells(_eval_table(u.spec, u.degree, *_integer_terms(u)), _scalar_cell))


def _matrix_table(spec: AlgebraSpec, degree: int, terms: Iterable[IntTerm], den: int) -> Table:
    """The table of the dense matrix of the terms / den, over ``degree``
    slots, its rows concatenated.

    Slot 0 indexes the fastest-varying digit, so the last tensor factor
    forms the outermost Kronecker block; this matches the convention of
    representing 1 (x) f as the block-scaled identity.  Basis matrices are
    0/1, so a term adds each integer part at each cell built from one cell
    of each slot's ``support``: cell (r, s) of slot k moves the row-major
    index by (r * size + s) * dim^k.  The unit's cells over the slots a key
    leaves free are expanded once per pattern of occupied slots, and each
    term expands only its occupied slots and adds at every sum of the two.
    """
    dim, unit = spec.dim, spec.unit_label()
    size = dim**degree
    offsets = Memo(lambda at: [(r * size + s) * dim ** at[0] for r, s in spec.support(at[1])])

    def unit_cells(occupied: tuple[int, ...]) -> list[int]:
        """The cells of the unit in every slot a key leaves unoccupied."""
        at = [0]
        for slot in range(degree):
            if slot not in occupied:
                at = [a + b for a in at for b in offsets[slot, unit]]
        return at

    units = Memo(unit_cells)

    def cells(part: list[tuple[int, Key]]) -> list[int]:
        out = [0] * (size * size)
        for c, key in part:
            moves = [0]
            for slot_label in key:
                moves = [a + b for a in moves for b in offsets[slot_label]]
            base = units[tuple([slot for slot, _ in key])]
            for m in moves:
                for a in base:
                    out[a + m] += c
        return out

    re, im = _parts(terms)
    return den, cells(re), cells(im) if im else None


def tensor_to_matrix(u: TensorPoly) -> list[list[Scalar]]:
    """Dense matrix realization of the iterated Kronecker products:
    ``_matrix_table`` of its ``_integer_terms`` split into rows, one Scalar
    per distinct value."""
    size = u.spec.dim**u.degree
    cells = _table_cells(_matrix_table(u.spec, u.degree, *_integer_terms(u)), _scalar_cell)
    return [list(itertools.islice(cells, size)) for _ in range(size)]


# -- universal forms: each is its image, a tensor of blocks of one width ----


def omega_to_tensor(letters: Sequence[TensorPoly]) -> TensorPoly:
    """The image of a0 da1 ... daq over letters of one algebra and width w (the base
    algebra at w = 1, frame level p at w = 2^p), q + 1 blocks of w slots: d b =
    1 (x) b - b (x) 1 (``tensor_d``) in every differentiated slot, glued block by block."""
    if not letters:
        raise ValueError("a universal form needs at least one letter")
    acc, width = letters[0], letters[0].degree
    for letter in letters[1:]:
        letters[0]._check_compatible(letter)
        acc = t_algebra_product(acc, tensor_d(letter), block=width)
    return acc


#: the product of universal forms, on their images: the glued product
omega_product = t_algebra_product


def coboundary(u: TensorPoly, width: int) -> TensorPoly:
    """The universal differential on images: b(u) = Σ_i (-1)^i u with a unit block
    inserted before block i, for i from 0 to the block count; a key shift plus one
    merge.  One block is ``tensor_d``, the case that needs no merge."""
    if width < 1:
        raise ValueError(f"width {width} is below 1")
    blocks, rest = divmod(u.degree, width)
    if rest:
        raise ValueError(f"degree {u.degree} is not a multiple of the width {width}")
    if blocks == 1:
        return tensor_d(u)
    terms = (
        (-c if i % 2 else c, tuple([(slot + width if slot >= at else slot, label) for slot, label in key]))
        for i, at in enumerate(range(0, u.degree + 1, width))
        for c, key in u.terms
    )
    return tensor_collect(u.spec, u.degree + width, terms)
