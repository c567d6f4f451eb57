"""Exact coefficient field: Gaussian rationals.

Every public series value of this package is over :class:`GaussianRational`,
exact arithmetic in Q(i): chord-diagram weights, character polynomials, the
spin expansions, coupling coefficients and the braid sums.  Real jets are
computed on the integer jets of :mod:`lorentzknots.series` and converted at
that boundary.  The one
irrational ingredient, the square root of a classical Clebsch-Gordan
radicand, is carried symbolically (see :mod:`lorentzknots.cg`), and
:func:`rational_sqrt` takes the exact square roots that the rescaled bases
make rational.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from math import isqrt

import mpmath

__all__ = [
    "GaussianRational",
    "GR_ZERO",
    "GR_ONE",
    "GR_I",
    "precision",
    "rational_sqrt",
]


def _as_fraction(x) -> Fraction:
    # type() first: isinstance against Fraction goes through the numbers
    # ABCs, which is slow on the hot paths below.
    if type(x) is Fraction or isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


_ZERO = Fraction(0)
_new = object.__new__
_set = object.__setattr__


def _make(re: Fraction, im: Fraction = _ZERO) -> "GaussianRational":
    """A GaussianRational from two Fractions, without checks."""
    z = _new(GaussianRational)
    _set(z, "re", re)
    _set(z, "im", im)
    return z


class GaussianRational:
    """An exact element re + im*i of Q(i)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        _set(self, "re", _as_fraction(re))
        _set(self, "im", _as_fraction(im) if im else _ZERO)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- coercion -----------------------------------------------------

    @staticmethod
    def coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, int):
            return _make(Fraction(x))
        if isinstance(x, Fraction):
            return _make(x)
        raise TypeError(f"cannot coerce {x!r} to GaussianRational")

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            try:
                other = GaussianRational.coerce(other)
            except TypeError:
                return NotImplemented
        if not self.im and not other.im:
            return _make(self.re + other.re)
        return _make(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            try:
                other = GaussianRational.coerce(other)
            except TypeError:
                return NotImplemented
        if not self.im and not other.im:
            return _make(self.re - other.re)
        return _make(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            try:
                other = GaussianRational.coerce(other)
            except TypeError:
                return NotImplemented
        if not self.im and not other.im:
            return _make(self.re * other.re)
        return _make(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero in Q(i)")
        if not self.im and not other.im:
            return GaussianRational(self.re / other.re)
        norm = other.re * other.re + other.im * other.im
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return other / self

    def __neg__(self):
        return _make(-self.re, -self.im if self.im else _ZERO)

    def __pos__(self):
        return self

    # -- predicates / protocol ----------------------------------------

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def is_real(self) -> bool:
        return not self.im

    @property
    def real(self) -> Fraction:
        return self.re

    @property
    def imag(self) -> Fraction:
        return self.im

    def __eq__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # A real value hashes like the equal int or Fraction, so memo keys
        # holding p = 2 and p = GaussianRational(2) are one key.
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __repr__(self):
        if not self.im:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"

    # -- serialization ------------------------------------------------

    def to_json(self) -> list:
        """Encode as [re_num, re_den, im_num, im_den]."""
        return [
            self.re.numerator,
            self.re.denominator,
            self.im.numerator,
            self.im.denominator,
        ]

    @staticmethod
    def from_json(data) -> "GaussianRational":
        rn, rd, im_n, im_d = data
        return GaussianRational(Fraction(rn, rd), Fraction(im_n, im_d))


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


def rational_sqrt(x) -> Fraction:
    """The nonnegative exact square root of a nonnegative rational ``x``.

    Raises ValueError when ``x`` is negative or not the square of a rational.
    """
    x = _as_fraction(x)
    if x >= 0:
        num, den = isqrt(x.numerator), isqrt(x.denominator)
        if num * num == x.numerator and den * den == x.denominator:
            return Fraction(num, den)
    raise ValueError(f"{x} is not the square of a rational")


@contextmanager
def precision(digits: int = 60):
    """Run a block at ``digits`` decimal digits of mpmath working precision.

    Nothing in the package reads the precision any more: every value is
    exact.  The context stays for callers that still set it.
    """
    if digits < 1:
        raise ValueError("precision must be at least one digit")
    with mpmath.workdps(digits):
        yield
