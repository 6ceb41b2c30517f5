"""Expected outputs computed without the library.

The ⊙ monomials the workloads evaluate are written over the generator
family by the paper's expansion tables.  A generator monomial is
evaluated here from the definitions alone: at level s the factor that
owns the level is differentiated (left lift minus right lift), factors
to its left are right-lifted and factors to its right are left-lifted.
On a function algebra a right lift reads the first half of the point
tuple and a left lift the second half, so ``d^k(g)`` at a tuple is the
recursive difference of its right and left halves.  On a matrix algebra
an elementary tensor is the Kronecker product with slot 0 as the
fastest-varying index.  Jets are checked against the composite
polynomial differentiated directly.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction
from typing import Mapping, Optional, Sequence

# ⊙ type -> [(sign, [levels owned by factor 0, by factor 1, ...])]
GENERATOR_FORMULAS: dict[tuple[int, ...], list[tuple[int, list[tuple[int, ...]]]]] = {
    (1,): [(1, [(0,)])],
    (2,): [(1, [(1, 0)])],
    (1, 1): [(1, [(1,), (0,)])],
    (3,): [(1, [(2, 1, 0)])],
    (1, 2): [(1, [(2,), (1, 0)])],
    (2, 1): [(1, [(2, 1), (0,)]), (1, [(1,), (2, 0)]), (-1, [(2,), (1, 0)])],
    (1, 1, 1): [(1, [(2,), (1,), (0,)])],
}

# slot word: the symbols multiplied together in one tensor slot, in order
SlotTerm = tuple[int, tuple[tuple[str, ...], ...]]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli_text(doc) -> str:
    """A document exactly as ``ncdiff`` prints it in JSON mode."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def scalar_json(q: Fraction) -> list:
    return [[q.numerator, q.denominator], [0, 1]]


def expr_text(coeff: Optional[str], factors: Sequence[tuple[int, str]]) -> str:
    body = "@".join(f"d({g})" if k == 1 else f"d{k}({g})" for k, g in factors)
    return f"{coeff}*{body}" if coeff else body


def _lifted(pos: int, owners: Mapping[int, int], n: int, sym: str) -> list[SlotTerm]:
    terms: list[SlotTerm] = [(1, ((sym,),))]
    for s in range(n):
        pad = ((),) * 2**s
        owner = owners.get(s)
        if owner == pos:
            terms = [(c, pad + t) for c, t in terms] + [(-c, t + pad) for c, t in terms]
        elif owner is None or pos < owner:
            terms = [(c, t + pad) for c, t in terms]
        else:
            terms = [(c, pad + t) for c, t in terms]
    return terms


def slot_expansion(coeff: Optional[str], factors: Sequence[tuple[int, str]]) -> list[SlotTerm]:
    """Signed elementary tensors of ``coeff * d^k1(g1) ⊙ ... ⊙ d^kr(gr)``."""
    composition = tuple(k for k, _ in factors)
    n = sum(composition)
    width = 2**n
    out: list[SlotTerm] = []
    for sign, owned in GENERATOR_FORMULAS[composition]:
        owners = {s: pos for pos, levels in enumerate(owned) for s in levels}
        product: list[SlotTerm] = [(sign, ((coeff,) if coeff else (),) + ((),) * (width - 1))]
        for pos, (_, sym) in enumerate(factors):
            product = [
                (c1 * c2, tuple(a + b for a, b in zip(t1, t2)))
                for c1, t1 in product
                for c2, t2 in _lifted(pos, owners, n, sym)
            ]
        out.extend(product)
    return out


# -- function backend ------------------------------------------------------


def function_value(
    terms: Sequence[SlotTerm], values: Mapping[str, Mapping[str, Fraction]], pts: Sequence[str]
) -> Fraction:
    total = Fraction(0)
    for sign, slots in terms:
        prod = Fraction(sign)
        for word, p in zip(slots, pts):
            for sym in word:
                prod *= values[sym][p]
        total += prod
    return total


def eval_text(
    coeff: Optional[str],
    factors: Sequence[tuple[int, str]],
    values: Mapping[str, Mapping[str, Fraction]],
    tuples: Sequence[Sequence[str]],
) -> str:
    """Expected stdout of ``ncdiff eval`` over the given point tuples."""
    terms = slot_expansion(coeff, factors)
    n = sum(k for k, _ in factors)
    rows = [
        {"args": list(t), "value": scalar_json(function_value(terms, values, t))} for t in tuples
    ]
    return cli_text({"arity": 2**n, "order": n, "values": rows})


def all_tuples(points: Sequence[str], arity: int) -> list[tuple[str, ...]]:
    return list(itertools.product(points, repeat=arity))


# -- matrix backend --------------------------------------------------------

Matrix = list[list[Fraction]]


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n)] for i in range(n)]


def _identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _kron(a: Matrix, b: Matrix) -> Matrix:
    n, m = len(a), len(b)
    out = [[Fraction(0)] * (n * m) for _ in range(n * m)]
    for i in range(n):
        for j in range(n):
            if a[i][j]:
                for k in range(m):
                    for l in range(m):
                        out[i * m + k][j * m + l] = a[i][j] * b[k][l]
    return out


def matrix_text(
    coeff: Optional[str], factors: Sequence[tuple[int, str]], matrices: Mapping[str, Matrix], dim: int
) -> str:
    """Expected stdout of ``ncdiff matrix``."""
    terms = slot_expansion(coeff, factors)
    n = sum(k for k, _ in factors)
    size = dim ** (2**n)
    total = [[Fraction(0)] * size for _ in range(size)]
    for sign, slots in terms:
        acc = None
        for word in slots:
            m = _identity(dim)
            for sym in word:
                m = _matmul(m, matrices[sym])
            acc = m if acc is None else _kron(m, acc)
        for i in range(size):
            for j in range(size):
                if acc[i][j]:
                    total[i][j] += sign * acc[i][j]
    doc = {"dim": size, "matrix": [[scalar_json(e) for e in row] for row in total], "order": n}
    return cli_text(doc)


# -- jets ------------------------------------------------------------------

Poly = dict[tuple[int, int], Fraction]


def poly_text(poly: Poly, names: tuple[str, str]) -> str:
    """Render with integer coefficients in the syntax ``ncdiff jet`` reads."""
    parts = []
    for (i, j), c in sorted(poly.items()):
        factors = [str(abs(c))] if abs(c) != 1 or (i, j) == (0, 0) else []
        factors += [names[0] + (f"^{i}" if i > 1 else "")] if i else []
        factors += [names[1] + (f"^{j}" if j > 1 else "")] if j else []
        term = "*".join(factors)
        parts.append(("-" if c < 0 else "+", term))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, term in parts[1:]:
        text += f" {sign} {term}"
    return text


def _poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, Fraction(0)) + c1 * c2
    return out


def _poly_diff(p: Poly, var: int) -> Poly:
    out: Poly = {}
    for (i, j), c in p.items():
        e = (i, j)[var]
        if e:
            k = (i - 1, j) if var == 0 else (i, j - 1)
            out[k] = out.get(k, Fraction(0)) + c * e
    return out


def _poly_eval(p: Poly, at: tuple[Fraction, Fraction]) -> Fraction:
    return sum((c * at[0] ** i * at[1] ** j for (i, j), c in p.items()), Fraction(0))


def jet_text(f: Poly, x: Poly, y: Poly, at: tuple[Fraction, Fraction]) -> str:
    """Expected stdout of ``ncdiff jet``: the 2-jet of f(x(u,v), y(u,v))."""
    composite: Poly = {}
    for (i, j), c in f.items():
        term: Poly = {(0, 0): c}
        for _ in range(i):
            term = _poly_mul(term, x)
        for _ in range(j):
            term = _poly_mul(term, y)
        for k, v in term.items():
            composite[k] = composite.get(k, Fraction(0)) + v
    du, dv = _poly_diff(composite, 0), _poly_diff(composite, 1)
    rat = lambda q: [q.numerator, q.denominator]
    jet = {
        "f": _poly_eval(composite, at),
        "fu": _poly_eval(du, at),
        "fv": _poly_eval(dv, at),
        "fuu": _poly_eval(_poly_diff(du, 0), at),
        "fuv": _poly_eval(_poly_diff(du, 1), at),
        "fvv": _poly_eval(_poly_diff(dv, 1), at),
    }
    doc = {"at": [rat(at[0]), rat(at[1])], "invariant": True, "jet": {k: rat(v) for k, v in jet.items()}}
    return cli_text(doc)
