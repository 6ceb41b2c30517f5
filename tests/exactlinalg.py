"""Exact linear algebra over Gaussian rationals, for rank witnesses."""

from __future__ import annotations

from ncdiff.scalars import ZERO
from ncdiff.tensor import TensorPoly


def flatten(body: TensorPoly) -> dict:
    """Coefficient vector of a tensor over its canonical term basis."""
    return {labels: c for c, labels in body.terms}


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
