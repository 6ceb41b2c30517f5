"""Pluggable exact backend algebras.

Three backends share one element interface: free (possibly commutative)
polynomials over declared symbols, functions on a declared finite point
set with pointwise operations, and square matrices.  All scalars are
Gaussian rationals; every element is immutable and stores a canonical
normal form, so equality is plain ``==``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from .scalars import ONE, ZERO, Scalar

Word = tuple[str, ...]


class AlgebraMismatchError(ValueError):
    """Raised when operands belong to different backends or specs."""


@dataclass(frozen=True)
class AlgebraSpec:
    backend: str
    symbols: tuple[str, ...] = ()
    commutative: bool = False
    points: tuple[str, ...] = ()
    values: tuple[tuple[str, tuple[Scalar, ...]], ...] = ()
    dim: int = 0
    matrices: tuple[tuple[str, tuple[tuple[Scalar, ...], ...]], ...] = ()

    def __post_init__(self):
        if self.backend not in ("free", "function", "matrix"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("symbol names must be unique")
        if self.backend == "function":
            if not self.points:
                raise ValueError("function backend needs a point list")
            for name, vals in self.values:
                if len(vals) != len(self.points):
                    raise ValueError(f"value table for {name!r} does not cover every point")
        if self.backend == "matrix":
            if self.dim <= 0:
                raise ValueError("matrix backend needs a positive dimension")
            for name, rows in self.matrices:
                if len(rows) != self.dim or any(len(r) != self.dim for r in rows):
                    raise ValueError(f"matrix for {name!r} is not {self.dim}x{self.dim}")

    # -- constructors -------------------------------------------------

    @staticmethod
    def free(symbols: Sequence[str], commutative: bool = False) -> AlgebraSpec:
        return AlgebraSpec(backend="free", symbols=tuple(symbols), commutative=commutative)

    @staticmethod
    def function(points: Sequence[str], values: Mapping[str, Sequence] = ()) -> AlgebraSpec:
        values = dict(values)
        tables = tuple(
            (name, tuple(v if isinstance(v, Scalar) else Scalar.of(v) for v in vals))
            for name, vals in values.items()
        )
        return AlgebraSpec(
            backend="function",
            symbols=tuple(values.keys()),
            commutative=True,
            points=tuple(points),
            values=tables,
        )

    @staticmethod
    def matrix(dim: int, matrices: Mapping[str, Sequence[Sequence]] = ()) -> AlgebraSpec:
        matrices = dict(matrices)
        mats = tuple(
            (
                name,
                tuple(
                    tuple(e if isinstance(e, Scalar) else Scalar.of(e) for e in row)
                    for row in rows
                ),
            )
            for name, rows in matrices.items()
        )
        return AlgebraSpec(backend="matrix", symbols=tuple(matrices.keys()), dim=dim, matrices=mats)

    # -- element factories --------------------------------------------

    def symbol(self, name: str) -> AlgElem:
        if self.backend == "free":
            if name not in self.symbols:
                raise KeyError(f"unknown symbol {name!r}")
            return FreePoly.of(self, {(name,): ONE})
        if self.backend == "function":
            for sym, vals in self.values:
                if sym == name:
                    return FuncElem(self, vals)
            raise KeyError(f"unknown symbol {name!r}")
        for sym, rows in self.matrices:
            if sym == name:
                return MatElem(self, rows)
        raise KeyError(f"unknown symbol {name!r}")

    def unit(self) -> AlgElem:
        if self.backend == "free":
            return FreePoly.of(self, {(): ONE})
        if self.backend == "function":
            return FuncElem(self, tuple(ONE for _ in self.points))
        return MatElem(
            self,
            tuple(
                tuple(ONE if i == j else ZERO for j in range(self.dim))
                for i in range(self.dim)
            ),
        )

    def zero(self) -> AlgElem:
        if self.backend == "free":
            return FreePoly.of(self, {})
        if self.backend == "function":
            return FuncElem(self, tuple(ZERO for _ in self.points))
        return MatElem(self, tuple(tuple(ZERO for _ in range(self.dim)) for _ in range(self.dim)))

    def scalar(self, c: Union[Scalar, int]) -> AlgElem:
        c = c if isinstance(c, Scalar) else Scalar.of(c)
        return self.unit().scale(c)

    def point_index(self, point: str) -> int:
        try:
            return self.points.index(point)
        except ValueError:
            raise KeyError(f"unknown point {point!r}") from None

    def name_of(self, elem: AlgElem) -> Optional[str]:
        """Declared symbol name of an element, when it matches one exactly."""
        for name in self.symbols:
            if self.symbol(name) == elem:
                return name
        return None

    # -- serialization ------------------------------------------------

    @staticmethod
    def from_json(doc: Union[str, dict]) -> AlgebraSpec:
        if isinstance(doc, str):
            doc = json.loads(doc)
        if not isinstance(doc, dict):
            raise ValueError("algebra spec must be a JSON object")
        backend = doc.get("backend")
        if backend == "free":
            return AlgebraSpec.free(doc.get("symbols", []), bool(doc.get("commutative", False)))
        if backend == "function":
            values = {}
            for sym, table in doc.get("values", {}).items():
                if not isinstance(table, dict):
                    raise ValueError(f"value table for {sym!r} must map each point to a scalar")
                values[sym] = [Scalar.from_json(table[pt]) for pt in doc["points"]]
            return AlgebraSpec.function(doc["points"], values)
        if backend == "matrix":
            matrices = {
                sym: [[Scalar.from_json(e) for e in row] for row in rows]
                for sym, rows in doc.get("matrices", {}).items()
            }
            if not isinstance(doc["dim"], int):
                raise ValueError(f"dim must be an integer, not {doc['dim']!r}")
            return AlgebraSpec.matrix(doc["dim"], matrices)
        raise ValueError(f"unknown backend {backend!r}")

    def to_json(self) -> dict:
        doc: dict = {"backend": self.backend}
        if self.backend == "free":
            doc["symbols"] = list(self.symbols)
            doc["commutative"] = self.commutative
        elif self.backend == "function":
            doc["points"] = list(self.points)
            doc["values"] = {
                sym: {pt: v.to_json() for pt, v in zip(self.points, vals)}
                for sym, vals in self.values
            }
        else:
            doc["dim"] = self.dim
            doc["matrices"] = {
                sym: [[e.to_json() for e in row] for row in rows] for sym, rows in self.matrices
            }
        return doc


def _check_same_spec(a: AlgElem, b: AlgElem) -> None:
    if a.spec != b.spec:
        raise AlgebraMismatchError("operands come from different algebras")


class AlgElem:
    """Common interface of backend elements (always in canonical form)."""

    spec: AlgebraSpec

    def mul(self, other: AlgElem) -> AlgElem:
        raise NotImplementedError

    def add(self, other: AlgElem) -> AlgElem:
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
        """Split into (scalar, primitive) with a 1-normalized leading part."""
        raise NotImplementedError

    def basis_decomposition(self) -> tuple[tuple[Scalar, AlgElem], ...]:
        """Expand over the backend's canonical spanning family.

        The family contains the unit, so tensor slots padded with units
        stay single components; multilinear expansion over it makes
        tensor equality complete, not just sound.
        """
        raise NotImplementedError

    def neg(self) -> AlgElem:
        return self.scale(Scalar.of(-1))

    def sub(self, other: AlgElem) -> AlgElem:
        return self.add(other.neg())

    def __mul__(self, other: AlgElem) -> AlgElem:
        return self.mul(other)

    def __add__(self, other: AlgElem) -> AlgElem:
        return self.add(other)

    def __sub__(self, other: AlgElem) -> AlgElem:
        return self.sub(other)

    def __neg__(self) -> AlgElem:
        return self.neg()


@dataclass(frozen=True)
class FreePoly(AlgElem):
    """Polynomial in noncommuting (or letter-sorted commuting) symbols."""

    spec: AlgebraSpec
    terms: tuple[tuple[Word, Scalar], ...]  # sorted by word, no zero coefficients

    @staticmethod
    def of(spec: AlgebraSpec, terms: Mapping[Word, Scalar]) -> FreePoly:
        acc: dict[Word, Scalar] = {}
        for word, coeff in terms.items():
            word = tuple(sorted(word)) if spec.commutative else tuple(word)
            c = acc.get(word, ZERO) + coeff
            if c.is_zero():
                acc.pop(word, None)
            else:
                acc[word] = c
        return FreePoly(spec, tuple(sorted(acc.items(), key=lambda t: (len(t[0]), t[0]))))

    def as_dict(self) -> dict[Word, Scalar]:
        return dict(self.terms)

    def mul(self, other: AlgElem) -> FreePoly:
        _check_same_spec(self, other)
        acc: dict[Word, Scalar] = {}
        for w1, c1 in self.terms:
            for w2, c2 in other.terms:
                w = w1 + w2
                if self.spec.commutative:
                    w = tuple(sorted(w))
                acc[w] = acc.get(w, ZERO) + c1 * c2
        return FreePoly.of(self.spec, acc)

    def add(self, other: AlgElem) -> FreePoly:
        _check_same_spec(self, other)
        acc = self.as_dict()
        for w, c in other.terms:
            acc[w] = acc.get(w, ZERO) + c
        return FreePoly.of(self.spec, acc)

    def scale(self, c: Scalar) -> FreePoly:
        return FreePoly.of(self.spec, {w: coeff * c for w, coeff in self.terms})

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
        return lead, self.scale(lead.inverse())

    def basis_decomposition(self) -> tuple[tuple[Scalar, FreePoly], ...]:
        return tuple((c, FreePoly(self.spec, ((w, ONE),))) for w, c in self.terms)

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


@dataclass(frozen=True)
class FuncElem(AlgElem):
    """Function on the spec's finite point set, stored as a value vector."""

    spec: AlgebraSpec
    values: tuple[Scalar, ...]

    def value_at(self, point: str) -> Scalar:
        return self.values[self.spec.point_index(point)]

    def mul(self, other: AlgElem) -> FuncElem:
        _check_same_spec(self, other)
        return FuncElem(self.spec, tuple(a * b for a, b in zip(self.values, other.values)))

    def add(self, other: AlgElem) -> FuncElem:
        _check_same_spec(self, other)
        return FuncElem(self.spec, tuple(a + b for a, b in zip(self.values, other.values)))

    def scale(self, c: Scalar) -> FuncElem:
        return FuncElem(self.spec, tuple(v * c for v in self.values))

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values)

    def sort_key(self):
        return tuple(v.key() for v in self.values)

    def unit_multiple(self) -> Optional[Scalar]:
        first = self.values[0]
        return first if all(v == first for v in self.values) else None

    def content(self) -> tuple[Scalar, FuncElem]:
        for v in self.values:
            if not v.is_zero():
                return v, self.scale(v.inverse())
        return ZERO, self

    def basis_decomposition(self) -> tuple[tuple[Scalar, FuncElem], ...]:
        # spanning family: the unit plus the indicators of all points but
        # the last (the last indicator is the unit minus the others)
        n = len(self.values)
        base = self.values[-1]
        out = []
        if not base.is_zero():
            out.append((base, FuncElem(self.spec, tuple(ONE for _ in range(n)))))
        for i in range(n - 1):
            c = self.values[i] - base
            if not c.is_zero():
                indicator = FuncElem(self.spec, tuple(ONE if j == i else ZERO for j in range(n)))
                out.append((c, indicator))
        return tuple(out)

    def __str__(self) -> str:
        c = self.unit_multiple()
        if c is not None:
            return str(c)
        name = self.spec.name_of(self)
        if name is not None:
            return name
        return "[" + ", ".join(str(v) for v in self.values) + "]"


@dataclass(frozen=True)
class MatElem(AlgElem):
    spec: AlgebraSpec
    rows: tuple[tuple[Scalar, ...], ...]

    def mul(self, other: AlgElem) -> MatElem:
        _check_same_spec(self, other)
        n = self.spec.dim
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = ZERO
                for k in range(n):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            out.append(tuple(row))
        return MatElem(self.spec, tuple(out))

    def add(self, other: AlgElem) -> MatElem:
        _check_same_spec(self, other)
        return MatElem(
            self.spec,
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows)),
        )

    def scale(self, c: Scalar) -> MatElem:
        return MatElem(self.spec, tuple(tuple(e * c for e in row) for row in self.rows))

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.rows for e in row)

    def sort_key(self):
        return tuple(tuple(e.key() for e in row) for row in self.rows)

    def unit_multiple(self) -> Optional[Scalar]:
        c = self.rows[0][0]
        for i, row in enumerate(self.rows):
            for j, e in enumerate(row):
                if e != (c if i == j else ZERO):
                    return None
        return c

    def content(self) -> tuple[Scalar, MatElem]:
        for row in self.rows:
            for e in row:
                if not e.is_zero():
                    return e, self.scale(e.inverse())
        return ZERO, self

    def basis_decomposition(self) -> tuple[tuple[Scalar, MatElem], ...]:
        # spanning family: the identity plus all matrix units except the
        # bottom-right one
        n = self.spec.dim
        base = self.rows[-1][-1]
        out = []
        if not base.is_zero():
            out.append((base, self.spec.unit()))
        for i in range(n):
            for j in range(n):
                if i == n - 1 and j == n - 1:
                    continue
                c = self.rows[i][j] - (base if i == j else ZERO)
                if not c.is_zero():
                    unit_mat = MatElem(
                        self.spec,
                        tuple(
                            tuple(ONE if (r, s) == (i, j) else ZERO for s in range(n))
                            for r in range(n)
                        ),
                    )
                    out.append((c, unit_mat))
        return tuple(out)

    def __str__(self) -> str:
        c = self.unit_multiple()
        if c is not None:
            return str(c)
        name = self.spec.name_of(self)
        if name is not None:
            return name
        return "[" + "; ".join(", ".join(str(e) for e in row) for row in self.rows) + "]"


def func_as_diagonal(a: FuncElem) -> MatElem:
    """Represent a finite function as the diagonal matrix of its values."""
    if not isinstance(a, FuncElem):
        raise AlgebraMismatchError("func_as_diagonal needs a function-backend element")
    n = len(a.values)
    mat_spec = AlgebraSpec(backend="matrix", dim=n)
    return MatElem(
        mat_spec,
        tuple(tuple(a.values[i] if i == j else ZERO for j in range(n)) for i in range(n)),
    )
