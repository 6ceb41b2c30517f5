"""Pluggable exact backend algebras.

Three backends share one element interface: free (possibly commutative)
polynomials over declared symbols, functions on a declared finite point
set with pointwise operations, and square matrices.  All scalars are
Gaussian rationals; every element is immutable and stores a canonical
normal form, so equality is plain ``==``.  Each backend is one spec class
(``FreeSpec``, ``FunctionSpec``, ``MatrixSpec``) that owns its validation,
symbols, basis labels, dense support and JSON form, so the tensor, frame
and Leibniz layers never ask which backend they have.
"""

from __future__ import annotations

import functools
import json
from typing import ClassVar, Iterable, Mapping, Optional, Sequence, Union

from .scalars import MINUS_ONE, ONE, ZERO, Record, Scalar

Word = tuple[str, ...]
#: a basis element of a backend: a word, or a 0/1 value or entry pattern
Label = tuple
Decomposition = tuple[tuple[Scalar, Label], ...]
#: the most dense cells, dim², a matrix spec read from JSON may declare (dim 256):
#: using a spec builds lists of dim² cells (its cells, the unit's label), so a
#: spec of a few bytes must not ask for millions of them
MATRIX_SPEC_CELL_CAP = 65536


class AlgebraMismatchError(ValueError):
    """Raised when operands belong to different backends or specs."""


def _scalar(v) -> Scalar:
    return v if isinstance(v, Scalar) else Scalar.of(v)


class AlgebraSpec(Record):
    """The declared symbols of one backend algebra.  A subclass per backend
    adds ``unit_label`` and ``basis_elem`` (the unit's label, and the basis
    element a label names; see ``basis_decomposition``), the dense ``dim``
    and ``support``, and ``read_json``/``to_json``."""

    backend: ClassVar[str]
    _fields = ("symbols",)
    def __init__(self, symbols: tuple[str, ...]):
        if len(set(symbols)) != len(symbols):
            raise ValueError("symbol names must be unique")
        self.symbols = symbols

    # -- constructors -------------------------------------------------

    @staticmethod
    def free(symbols: Sequence[str], commutative: bool = False) -> FreeSpec:
        return FreeSpec(tuple(symbols), commutative)

    @staticmethod
    def function(points: Sequence[str], values: Mapping[str, Sequence] = ()) -> FunctionSpec:
        values = dict(values)
        tables = tuple(tuple(map(_scalar, vals)) for vals in values.values())
        return FunctionSpec(tuple(values), tuple(points), tables)

    @staticmethod
    def matrix(dim: int, matrices: Mapping[str, Sequence[Sequence]] = ()) -> MatrixSpec:
        matrices = dict(matrices)
        tables = tuple(tuple(tuple(map(_scalar, row)) for row in m) for m in matrices.values())
        return MatrixSpec(tuple(matrices), dim, tables)

    # -- element factories --------------------------------------------

    def symbol(self, name: str) -> AlgElem:
        if name not in self.symbols:
            raise KeyError(f"unknown symbol {name!r}")
        return self._symbol(name)

    def unit(self) -> AlgElem:
        """The unit: one element per spec, since elements are immutable."""
        return self._unit

    @functools.cached_property
    def _unit(self) -> AlgElem:
        return self.basis_elem(self.unit_label())

    def zero(self) -> AlgElem:
        return self.unit().scale(ZERO)

    def scalar(self, c: Union[Scalar, int]) -> AlgElem:
        return self.unit().scale(_scalar(c))

    def point_names(self) -> tuple[str, ...]:
        """The points that function-backend elements are evaluated at."""
        raise AlgebraMismatchError("evaluation at points needs the function backend")

    def point_index(self, point: str) -> int:
        """The index of a point in every value vector and label."""
        names = self.point_names()  # outside the try: AlgebraMismatchError is a ValueError
        try:
            return names.index(point)
        except ValueError:
            raise KeyError(f"unknown point {point!r}") from None

    # -- serialization ------------------------------------------------

    @staticmethod
    def from_json(doc: Union[str, dict]) -> AlgebraSpec:
        if isinstance(doc, str):
            doc = json.loads(doc)
        if not isinstance(doc, dict):
            raise ValueError("algebra spec must be a JSON object")
        backend = doc.get("backend")
        for cls in (FreeSpec, FunctionSpec, MatrixSpec):
            if backend == cls.backend:
                return cls.read_json(doc)
        raise ValueError(f"unknown backend {backend!r}")


def _json_names(doc: dict, key: str) -> list[str]:
    names = doc.get(key, [])
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ValueError(f"{key} must be a list of names, not {names!r}")
    return names


def _json_object(doc: dict, key: str) -> dict:
    obj = doc.get(key, {})
    if not isinstance(obj, dict):
        raise ValueError(f"{key} must be a JSON object, not {obj!r}")
    return obj


class FreeSpec(AlgebraSpec):
    """Words in the symbols, letter-sorted if ``commutative``; a label is a
    word, and there is no dense form."""

    backend: ClassVar[str] = "free"
    _fields = ("symbols", "commutative")
    def __init__(self, symbols: tuple[str, ...], commutative: bool = False):
        super().__init__(symbols)
        self.commutative = commutative

    def _symbol(self, name: str) -> FreePoly:
        return self.basis_elem((name,))

    def unit_label(self) -> Label:
        return ()

    def basis_elem(self, label: Label) -> FreePoly:
        return FreePoly(self, ((label, ONE),))

    @property
    def dim(self) -> int:
        raise AlgebraMismatchError("dense realization needs the matrix or function backend")

    def support(self, label: Label) -> list[tuple[int, int]]:
        raise AlgebraMismatchError("dense realization needs the matrix or function backend")

    @staticmethod
    def read_json(doc: dict) -> FreeSpec:
        symbols = _json_names(doc, "symbols")
        commutative = doc.get("commutative", False)
        if not isinstance(commutative, bool):
            raise ValueError(f"commutative must be true or false, not {commutative!r}")
        return AlgebraSpec.free(symbols, commutative)

    def to_json(self) -> dict:
        return {"backend": self.backend, "symbols": list(self.symbols), "commutative": self.commutative}


class _DenseSpec(AlgebraSpec):
    """Function and matrix specs: an element is an array of entries over
    the dense cells ``_cells`` ((i, i) for the i-th point of a function,
    divmod(p, dim) for the p-th row-major matrix entry), and a label is a
    basis element's 0/1 pattern over the cells."""

    def unit_label(self) -> Label:
        return self._unit_label

    @functools.cached_property
    def _unit_label(self) -> Label:
        return tuple(int(r == c) for r, c in self._cells)

    def support(self, label: Label) -> list[tuple[int, int]]:
        """The cells where the label's 0/1 dense matrix is 1."""
        return [cell for cell, b in zip(self._cells, label) if b]


class FunctionSpec(_DenseSpec):
    """Functions on the named points; a symbol's table is its values."""

    backend: ClassVar[str] = "function"
    _fields = ("symbols", "points", "tables")
    def __init__(self, symbols: tuple[str, ...], points: tuple[str, ...], tables: tuple[tuple[Scalar, ...], ...]):
        super().__init__(symbols)
        if not points:
            raise ValueError("function backend needs a point list")
        if len(set(points)) != len(points):
            raise ValueError("point names must be unique")
        for name, vals in zip(symbols, tables):
            if len(vals) != len(points):
                raise ValueError(f"value table for {name!r} does not cover every point")
        self.points, self.tables = points, tables

    @property
    def dim(self) -> int:
        return len(self.points)

    @functools.cached_property
    def _cells(self) -> list[tuple[int, int]]:
        return [(i, i) for i in range(self.dim)]

    def _symbol(self, name: str) -> FuncElem:
        return FuncElem(self, self.tables[self.symbols.index(name)])

    def basis_elem(self, label: Label) -> FuncElem:
        return FuncElem(self, tuple(ONE if b else ZERO for b in label))

    def point_names(self) -> tuple[str, ...]:
        return self.points

    @staticmethod
    def read_json(doc: dict) -> FunctionSpec:
        points = _json_names(doc, "points")
        known, values = set(points), {}
        for sym, table in _json_object(doc, "values").items():
            if not isinstance(table, dict):
                raise ValueError(f"value table for {sym!r} must map each point to a scalar")
            for pt in table:
                if pt not in known:
                    raise ValueError(f"value table for {sym!r} names unknown point {pt!r}")
            for pt in points:
                if pt not in table:
                    raise ValueError(f"value table for {sym!r} has no value at point {pt!r}")
            values[sym] = [Scalar.from_json(table[pt]) for pt in points]
        return AlgebraSpec.function(points, values)

    def to_json(self) -> dict:
        values = {s: dict(zip(self.points, _json_list(t))) for s, t in zip(self.symbols, self.tables)}
        return {"backend": self.backend, "points": list(self.points), "values": values}


class MatrixSpec(_DenseSpec):
    """dim x dim matrices; a symbol's table is its rows."""

    backend: ClassVar[str] = "matrix"
    _fields = ("symbols", "dim", "tables")
    def __init__(self, symbols: tuple[str, ...], dim: int, tables: tuple[tuple[tuple[Scalar, ...], ...], ...]):
        super().__init__(symbols)
        if dim <= 0:
            raise ValueError("matrix backend needs a positive dimension")
        for name, rows in zip(symbols, tables):
            if len(rows) != dim or any(len(r) != dim for r in rows):
                raise ValueError(f"matrix for {name!r} is not {dim}x{dim}")
        self.dim, self.tables = dim, tables

    @functools.cached_property
    def _cells(self) -> list[tuple[int, int]]:
        return [divmod(p, self.dim) for p in range(self.dim * self.dim)]

    def _symbol(self, name: str) -> MatElem:
        return MatElem(self, sum(self.tables[self.symbols.index(name)], ()))

    def basis_elem(self, label: Label) -> MatElem:
        return MatElem(self, tuple(ONE if b else ZERO for b in label))

    @staticmethod
    def read_json(doc: dict) -> MatrixSpec:
        matrices = {}
        for sym, rows in _json_object(doc, "matrices").items():
            if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
                raise ValueError(f"matrix for {sym!r} must be a list of rows")
            matrices[sym] = [[Scalar.from_json(e) for e in row] for row in rows]
        if "dim" not in doc:
            raise ValueError("matrix spec has no dim")
        dim = doc["dim"]
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise ValueError(f"dim must be an integer, not {dim!r}")
        if dim > 0 and dim * dim > MATRIX_SPEC_CELL_CAP:
            raise ValueError(f"dim {dim} has {dim}² cells, which exceeds the cap {MATRIX_SPEC_CELL_CAP}")
        return AlgebraSpec.matrix(dim, matrices)

    def to_json(self) -> dict:
        matrices = {s: list(map(_json_list, t)) for s, t in zip(self.symbols, self.tables)}
        return {"backend": self.backend, "dim": self.dim, "matrices": matrices}


def _json_list(entries: Iterable[Scalar]) -> list:
    return [e.to_json() for e in entries]


def _check_same_spec(a: AlgElem, *others: AlgElem) -> None:
    for b in others:
        if b.spec is not a.spec and b.spec != a.spec:
            raise AlgebraMismatchError("operands come from different algebras")


class AlgElem(Record):
    """Common interface of backend elements (always in canonical form)."""

    __slots__ = ()
    spec: AlgebraSpec

    def mul(self, other: AlgElem) -> AlgElem:
        raise NotImplementedError

    def add(self, *others: AlgElem) -> AlgElem:
        """The sum of this element and any number of others, merged once."""
        raise NotImplementedError

    def scale(self, c: Scalar) -> AlgElem:
        raise NotImplementedError

    def is_zero(self) -> bool:
        raise NotImplementedError

    def sort_key(self):
        raise NotImplementedError

    def unit_multiple(self) -> Optional[Scalar]:
        """The scalar c when the element equals c times the unit, else None."""
        raise NotImplementedError

    def content(self) -> tuple[Scalar, AlgElem]:
        """Split into (scalar, primitive) with a 1-normalized leading part; a
        monic element is its own primitive part, ``(ONE, self)``."""
        raise NotImplementedError

    def to_json(self):
        raise NotImplementedError

    def basis_decomposition(self) -> Decomposition:
        """Expand over the backend's canonical spanning family, as
        (coefficient, label) pairs; ``spec.basis_elem`` rebuilds the element.

        The family contains the unit, so tensor slots padded with units
        stay single components; multilinear expansion over it makes
        tensor equality complete, not just sound.  Labels (see the spec
        classes) sort exactly as the basis elements' ``sort_key``s do.
        """
        raise NotImplementedError

    def neg(self) -> AlgElem:
        return self.scale(MINUS_ONE)

    def sub(self, other: AlgElem) -> AlgElem:
        return self.add(other.neg())


class FreePoly(AlgElem):
    """Polynomial in noncommuting (or letter-sorted commuting) symbols.

    Terms are canonical, kept so by this module alone: distinct words with
    nonzero coefficients, sorted by (length, word).  ``FreePoly.of`` is the
    single merge, fed raw terms by ``mul`` and by ``add`` (all its summands
    at once); ``scale`` (hence ``neg`` and ``content``) and the spec's
    ``symbol`` and ``unit`` build canonical terms directly."""

    __slots__ = _fields = ("spec", "terms")
    def __init__(self, spec: FreeSpec, terms: tuple[tuple[Word, Scalar], ...]):
        self.spec, self.terms = spec, terms

    @staticmethod
    def of(spec: AlgebraSpec, terms: Iterable[tuple[Word, Scalar]]) -> FreePoly:
        acc: dict[Word, Scalar] = {}
        for word, coeff in terms:
            word = tuple(sorted(word)) if spec.commutative else tuple(word)
            acc[word] = acc[word] + coeff if word in acc else coeff
        kept = (t for t in acc.items() if not t[1].is_zero())
        return FreePoly(spec, tuple(sorted(kept, key=lambda t: (len(t[0]), t[0]))))

    def mul(self, other: AlgElem) -> FreePoly:
        _check_same_spec(self, other)
        return FreePoly.of(
            self.spec, ((w1 + w2, c1 * c2) for w1, c1 in self.terms for w2, c2 in other.terms)
        )

    def add(self, *others: AlgElem) -> FreePoly:
        _check_same_spec(self, *others)
        return FreePoly.of(self.spec, (t for b in (self, *others) for t in b.terms))

    def scale(self, c: Scalar) -> FreePoly:
        # Gaussian rationals have no zero divisors: a nonzero c keeps every term
        if c.is_zero():
            return FreePoly(self.spec, ())
        return FreePoly(self.spec, tuple((w, coeff * c) for w, coeff in self.terms))

    def is_zero(self) -> bool:
        return not self.terms

    def sort_key(self):
        return tuple((w, c.key()) for w, c in self.terms)

    def unit_multiple(self) -> Optional[Scalar]:
        if not self.terms:
            return ZERO
        if len(self.terms) == 1 and self.terms[0][0] == ():
            return self.terms[0][1]
        return None

    def content(self) -> tuple[Scalar, FreePoly]:
        if not self.terms:
            return ZERO, self
        lead = self.terms[0][1]
        return (ONE, self) if lead.is_one() else (lead, self.scale(lead.inverse()))

    def to_json(self) -> dict:
        return {"words": [[list(w), c.to_json()] for w, c in self.terms]}

    def basis_decomposition(self) -> Decomposition:
        return tuple((c, w) for w, c in self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w, c in self.terms:
            word = "1" if not w else ("".join(w) if all(len(s) == 1 for s in w) else "*".join(w))
            if c.is_one():
                parts.append(word)
            elif word == "1":
                parts.append(str(c))
            else:
                parts.append(f"{c}{word}")
        return " + ".join(parts)


class _DenseElem(AlgElem):
    """Shared by ``FuncElem`` and ``MatElem``: ``entries`` lists the entries
    over the spec's dense cells (a function's values, or a matrix's entries
    in row-major order), so all entrywise code lives here once."""

    __slots__ = _fields = ("spec", "entries")
    def __init__(self, spec: _DenseSpec, entries: tuple[Scalar, ...]):
        self.spec, self.entries = spec, entries

    def add(self, *others: AlgElem) -> _DenseElem:
        _check_same_spec(self, *others)
        columns = zip(self.entries, *(b.entries for b in others))
        return type(self)(self.spec, tuple(sum(rest, a) for a, *rest in columns))

    def scale(self, c: Scalar) -> _DenseElem:
        return type(self)(self.spec, tuple(e * c for e in self.entries))

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def sort_key(self):
        # rows of equal length compare as their concatenation does
        return tuple(e.key() for e in self.entries)

    def unit_multiple(self) -> Optional[Scalar]:
        c = self.entries[0]
        unit = self.spec.unit_label()
        return c if all(e == (c if u else ZERO) for e, u in zip(self.entries, unit)) else None

    def content(self) -> tuple[Scalar, _DenseElem]:
        for e in self.entries:
            if not e.is_zero():
                return (ONE, self) if e.is_one() else (e, self.scale(e.inverse()))
        return ZERO, self

    def basis_decomposition(self) -> Decomposition:
        # the unit pattern plus the one-hot pattern of every cell but the
        # last, which the unit covers: a function's point indicators, or
        # the identity and all matrix units but the bottom-right one
        entries, unit = self.entries, self.spec.unit_label()
        m, base = len(entries), entries[-1]
        out = [] if base.is_zero() else [(base, unit)]
        for p in range(m - 1):
            c = entries[p] - base if unit[p] else entries[p]
            if not c.is_zero():
                out.append((c, (0,) * p + (1,) + (0,) * (m - p - 1)))
        return tuple(out)

    def grid(self) -> tuple[tuple[Scalar, ...], ...]:
        """Rows of ``spec.dim`` entries: one for a function, dim for a matrix."""
        n = self.spec.dim
        return tuple(self.entries[i : i + n] for i in range(0, len(self.entries), n))

    def __str__(self) -> str:
        c = self.unit_multiple()
        if c is not None:
            return str(c)
        for name in self.spec.symbols:
            if self.spec.symbol(name) == self:
                return name
        return "[" + "; ".join(", ".join(str(e) for e in row) for row in self.grid()) + "]"


class FuncElem(_DenseElem):
    """Function on the spec's finite point set; ``entries`` are its values."""

    __slots__ = ()
    spec: FunctionSpec
    # perfbench/tracing.py wraps members of the class's own body, so bind the shared ones here
    add, scale, content = _DenseElem.add, _DenseElem.scale, _DenseElem.content
    sort_key, basis_decomposition = _DenseElem.sort_key, _DenseElem.basis_decomposition

    @property
    def values(self) -> tuple[Scalar, ...]:
        return self.entries

    def mul(self, other: AlgElem) -> FuncElem:
        _check_same_spec(self, other)
        return FuncElem(self.spec, tuple(a * b for a, b in zip(self.entries, other.entries)))

    def to_json(self) -> dict:
        return {"values": _json_list(self.entries)}


class MatElem(_DenseElem):
    """dim x dim matrix; ``entries`` are its entries in row-major order."""

    __slots__ = ()
    spec: MatrixSpec
    # perfbench/tracing.py wraps members of the class's own body, so bind the shared ones here
    add, scale, content = _DenseElem.add, _DenseElem.scale, _DenseElem.content
    sort_key, basis_decomposition = _DenseElem.sort_key, _DenseElem.basis_decomposition
    rows = property(_DenseElem.grid)

    def mul(self, other: AlgElem) -> MatElem:
        """The row-by-column product over the nonzero entries alone: the
        embedding multiplies dense matrices by one-hot basis matrices."""
        _check_same_spec(self, other)
        n, a, b = self.spec.dim, self.entries, other.entries
        b_rows = [[(j, y) for j, y in enumerate(b[k : k + n]) if not y.is_zero()] for k in range(0, n * n, n)]
        out = [ZERO] * (n * n)
        for i in range(0, n * n, n):
            for x, row in zip(a[i : i + n], b_rows):
                if not x.is_zero():
                    for j, y in row:
                        out[i + j] = out[i + j] + x * y
        return MatElem(self.spec, tuple(out))

    def to_json(self) -> dict:
        return {"rows": list(map(_json_list, self.rows))}


def func_as_diagonal(a: FuncElem) -> MatElem:
    """Represent a finite function as the diagonal matrix of its values."""
    if not isinstance(a, FuncElem):
        raise AlgebraMismatchError("func_as_diagonal needs a function-backend element")
    spec = MatrixSpec((), len(a.entries), ())
    return MatElem(spec, tuple(a.entries[i] if i == j else ZERO for i, j in spec._cells))
