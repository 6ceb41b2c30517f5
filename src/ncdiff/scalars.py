"""Exact Gaussian-rational scalars.

Every coefficient in this package is a complex number whose real and
imaginary parts are exact rationals, so algebraic identities can be
checked with ``==`` instead of tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


@dataclass(frozen=True)
class Scalar:
    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(re=0, im=0) -> Scalar:
        return Scalar(_frac(re), _frac(im))

    def __add__(self, other: Scalar) -> Scalar:
        return Scalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other: Scalar) -> Scalar:
        return Scalar(self.re - other.re, self.im - other.im)

    def __neg__(self) -> Scalar:
        return Scalar(-self.re, -self.im)

    def __mul__(self, other: Scalar) -> Scalar:
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: Scalar) -> Scalar:
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero scalar")
        return Scalar(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def inverse(self) -> Scalar:
        return ONE / self

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_one(self) -> bool:
        return self.re == 1 and self.im == 0

    def key(self) -> tuple[int, int, int, int]:
        """Total-order key used for canonical term ordering."""
        return (
            self.re.numerator,
            self.re.denominator,
            self.im.numerator,
            self.im.denominator,
        )

    @staticmethod
    def from_json(doc) -> Scalar:
        """Parse ``[re, im]`` where each part is an int or a ``[num, den]`` pair."""

        def part(p) -> Fraction:
            if isinstance(p, int):
                return Fraction(p)
            if isinstance(p, (list, tuple)) and [type(x) for x in p] == [int, int] and p[1]:
                return Fraction(p[0], p[1])
            raise ValueError(f"bad rational: {p!r}")

        if isinstance(doc, int):
            return Scalar(Fraction(doc))
        if not isinstance(doc, (list, tuple)) or len(doc) != 2:
            raise ValueError(f"bad scalar: {doc!r}")
        return Scalar(part(doc[0]), part(doc[1]))

    def to_json(self) -> list:
        return [
            [self.re.numerator, self.re.denominator],
            [self.im.numerator, self.im.denominator],
        ]

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"


ZERO = Scalar()
ONE = Scalar(Fraction(1))
MINUS_ONE = Scalar(Fraction(-1))


def integer(n: int) -> Scalar:
    return Scalar(Fraction(n))
