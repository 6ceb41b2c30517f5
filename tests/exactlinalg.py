"""Exact linear algebra over Gaussian rationals, for rank witnesses and
independent Kronecker products, the dense view of tensor terms, and the
coboundary of tensors read as chains of blocks."""

from __future__ import annotations

from ncdiff.scalars import ZERO, Scalar
from ncdiff.tensor import TensorPoly


def dense_labels(body: TensorPoly, key: tuple) -> tuple:
    """A label for every slot of a term: the unit where its key names none."""
    labels = [body.spec.unit_label()] * body.degree
    for slot, label in key:
        labels[slot] = label
    return tuple(labels)


def dense_terms(body: TensorPoly) -> list[tuple[Scalar, tuple]]:
    """The terms with a label in every slot, sorted by label tuple."""
    return sorted(((c, dense_labels(body, key)) for c, key in body.terms), key=lambda term: term[1])


def coboundary(t: TensorPoly, width: int) -> TensorPoly:
    """b(T) = Σ_i (-1)^i T with a unit block inserted before block i, T read as
    blocks of ``width`` slots (i runs to the block count): a pure key shift,
    moving every slot of block i and later up by one block."""
    acc = {}
    for i in range(t.degree // width + 1):
        for c, key in t.terms:
            moved = tuple((slot + width if slot >= i * width else slot, label) for slot, label in key)
            acc[moved] = acc.get(moved, ZERO) + (-c if i % 2 else c)
    terms = sorted(((c, key) for key, c in acc.items() if not c.is_zero()), key=lambda term: term[1])
    return TensorPoly(t.spec, t.degree + width, tuple(terms))


def flatten(body: TensorPoly) -> dict:
    """Coefficient vector of a tensor over its canonical term basis."""
    return {key: c for c, key in body.terms}


def rank(vectors: list[dict]) -> int:
    """Row rank by Gaussian elimination with exact scalars."""
    basis = sorted({k for v in vectors for k in v})
    rows = [[v.get(k, ZERO) for k in basis] for v in vectors]
    r = 0
    for col in range(len(basis)):
        pivot = next((i for i in range(r, len(rows)) if not rows[i][col].is_zero()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [e * inv for e in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][col].is_zero():
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def in_span(vectors: list[dict], candidate: dict) -> bool:
    return rank(vectors) == rank(vectors + [candidate])


def kron(a: list[list[Scalar]], b: list[list[Scalar]]) -> list[list[Scalar]]:
    """Kronecker product of square matrices, entry by entry."""
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
