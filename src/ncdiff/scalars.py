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

``Record``, the base of the package's value types, lives here because every
other module imports this one.  A record names its fields in ``_fields``
(and in ``__slots__`` unless it needs a ``__dict__``) and sets each one
once, in its ``__init__``; nothing else assigns them.  Records compare,
hash and print as frozen dataclasses do, without their generated code.
"""

from __future__ import annotations

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


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Scalar(Record):
    __slots__ = _fields = ("re", "im")
    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        self.re, self.im = re, im

    def __eq__(self, other):
        if other.__class__ is not Scalar:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

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
            if type(p) is int:  # a JSON boolean is no number
                return p
            if isinstance(p, (list, tuple)) and len(p) == 2 and type(p[0]) is int and type(p[1]) is int and p[1]:
                return p[0] if p[1] == 1 else rational(Fraction(p[0], p[1]))
            raise ValueError(f"bad rational: {p!r}")

        if type(doc) is int:
            return Scalar(doc)
        if not isinstance(doc, (list, tuple)) or len(doc) != 2:
            raise ValueError(f"bad scalar: {doc!r}")
        return Scalar(part(doc[0]), part(doc[1]))

    def to_json(self) -> list:
        return [
            [self.re.numerator, self.re.denominator],
            [self.im.numerator, self.im.denominator],
        ]

    def __str__(self) -> str:
        return _complex_str(str(self.re), str(self.im))


def _complex_str(re: str, im: str) -> str:
    """The text of a scalar from its parts' texts, "0" for a zero part: the
    real part alone, ``bi`` when the real part is 0, else ``(a+bi)`` or
    ``(a-bi)``; the one set of printing rules, which ``Scalar`` and the CLI's
    realization cells, made from integers, both follow."""
    if im == "0":
        return re
    if re == "0":
        return f"{im}i"
    return f"({re}{im}i)" if im[0] == "-" else f"({re}+{im}i)"


def _ratio_str(n: int, d: int) -> str:
    return str(n) if d == 1 else f"{n}/{d}"


def scalar_str(re_n: int, re_d: int, im_n: int, im_d: int) -> str:
    """``str`` of the scalar re_n/re_d + (im_n/im_d)i, each part in lowest terms
    with a positive denominator."""
    return _complex_str(_ratio_str(re_n, re_d), _ratio_str(im_n, im_d))


def scalar_json(re_n: int, re_d: int, im_n: int, im_d: int) -> str:
    """The compact JSON text of that scalar's ``to_json()``."""
    return f"[[{re_n},{re_d}],[{im_n},{im_d}]]"


ZERO = Scalar()
ONE = Scalar(1)
MINUS_ONE = Scalar(-1)
