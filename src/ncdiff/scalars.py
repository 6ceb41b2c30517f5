"""Exact Gaussian-rational scalars.

Every coefficient in this package is a complex number whose real and
imaginary parts are exact rationals, so algebraic identities can be
checked with ``==`` instead of tolerances.  A part is an ``int`` when
it is integral and a ``Fraction`` otherwise, never a ``float``: most
coefficients are small integers, and ``int`` arithmetic is far cheaper.
Equality and hashing do not see the difference (``2 == Fraction(2)``).
``rational`` owns that normal form: every constructor and every sum,
difference, product and quotient passes its parts through it, so an
integral result (1/3 + 2/3, or 3 * 1/3 in content normalization) is an
``int`` again and every later operation stays on the fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def rational(x) -> int | Fraction:
    """The normal form of an ``int``, ``Fraction`` or string like "3/4": an
    ``int`` when integral; anything else, a ``float`` too, raises ``TypeError``."""
    if type(x) is int:
        return x
    if isinstance(x, (int, str)):
        x = Fraction(x)
    elif not isinstance(x, Fraction):
        raise TypeError(f"not an exact rational: {x!r}")
    return x.numerator if x.denominator == 1 else x


@dataclass(frozen=True)
class Scalar:
    re: int | Fraction = 0
    im: int | Fraction = 0

    @staticmethod
    def of(re=0, im=0) -> Scalar:
        return Scalar(rational(re), rational(im))

    def __add__(self, other: Scalar) -> Scalar:
        if not self.im and not other.im:
            return Scalar(rational(self.re + other.re), self.im)
        return Scalar(rational(self.re + other.re), rational(self.im + other.im))

    def __sub__(self, other: Scalar) -> Scalar:
        if not self.im and not other.im:
            return Scalar(rational(self.re - other.re), self.im)
        return Scalar(rational(self.re - other.re), rational(self.im - other.im))

    def __neg__(self) -> Scalar:
        return Scalar(-self.re, -self.im)

    def __mul__(self, other: Scalar) -> Scalar:
        if not self.im and not other.im:
            return Scalar(rational(self.re * other.re), self.im)
        return Scalar(
            rational(self.re * other.re - self.im * other.im),
            rational(self.re * other.im + self.im * other.re),
        )

    def __truediv__(self, other: Scalar) -> Scalar:
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero scalar")
        if not self.im and not other.im:
            return Scalar(rational(Fraction(self.re, other.re)), self.im)
        re, im = self.re * other.re + self.im * other.im, self.im * other.re - self.re * other.im
        return Scalar(rational(Fraction(re, norm)), rational(Fraction(im, norm)))

    def inverse(self) -> Scalar:
        return ONE / self

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_one(self) -> bool:
        return self.re == 1 and not self.im

    def key(self) -> tuple[int, int, int, int]:
        """Total-order key used for canonical term ordering."""
        return (self.re.numerator, self.re.denominator, self.im.numerator, self.im.denominator)

    @staticmethod
    def from_json(doc) -> Scalar:
        """Parse ``[re, im]`` where each part is an int or a ``[num, den]`` pair."""

        def part(p) -> int | Fraction:
            if isinstance(p, int):
                return int(p)
            if isinstance(p, (list, tuple)) and [type(x) for x in p] == [int, int] and p[1]:
                return rational(Fraction(p[0], p[1]))
            raise ValueError(f"bad rational: {p!r}")

        if isinstance(doc, int):
            return Scalar(int(doc))
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
ONE = Scalar(1)
MINUS_ONE = Scalar(-1)


def integer(n: int) -> Scalar:
    return Scalar.of(n)
