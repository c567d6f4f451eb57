"""Coefficient fields: exact Gaussian rationals and arbitrary-precision complexes.

Two backends back every series computation in this package:

* :class:`GaussianRational` -- exact arithmetic in Q(i), used wherever the
  mathematics stays rational (chord-diagram weights, the quantum sl2 engine,
  character polynomials).
* ``BigComplex`` -- arbitrary-precision complex floats (mpmath), used where
  square roots of quantum factorials force irrational values.  Working
  precision is controlled with :func:`precision`.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction

import mpmath
from mpmath import mpc, mpf

__all__ = [
    "GaussianRational",
    "BigComplex",
    "GR_ZERO",
    "GR_ONE",
    "GR_I",
    "precision",
    "to_big",
    "upper_half_sqrt",
    "big_to_str",
]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class GaussianRational:
    """An exact element re + im*i of Q(i)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- coercion -----------------------------------------------------

    @staticmethod
    def coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        raise TypeError(f"cannot coerce {x!r} to GaussianRational")

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return GaussianRational(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        if not self.im and not other.im:
            return GaussianRational(self.re * other.re)
        return GaussianRational(
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
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    # -- predicates / protocol ----------------------------------------

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def is_real(self) -> bool:
        return not self.im

    def __eq__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

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


# ---------------------------------------------------------------------------
# Arbitrary-precision complex backend (mpmath)
# ---------------------------------------------------------------------------

BigComplex = mpc


def _mpc_to_json(z):
    """An mpc as its two mpf (sign, mantissa, exponent, bits) tuples, exactly."""
    # mantissas may be gmpy integers; json needs plain ints
    return [[int(x) for x in z.real._mpf_], [int(x) for x in z.imag._mpf_]]


def _mpc_from_json(data):
    """Inverse of :func:`_mpc_to_json`, exact at any working precision."""
    re, im = data
    # mpf() rounds to the working precision; decode at the stored bit count.
    with mpmath.workprec(max(re[3], im[3], 1)):
        return mpmath.mpc(mpmath.mpf(tuple(re)), mpmath.mpf(tuple(im)))


DEFAULT_DIGITS = 60
# mpmath works with a few guard digits beyond the requested precision so that
# rounding never eats into the advertised tolerance.
GUARD_DIGITS = 20


@contextmanager
def precision(digits: int = DEFAULT_DIGITS):
    """Run a block at ``digits`` decimal digits of working precision."""
    if digits < 1:
        raise ValueError("precision must be at least one digit")
    with mpmath.workdps(digits + GUARD_DIGITS):
        yield


def to_big(x) -> BigComplex:
    """Convert an exact scalar (int, Fraction, GaussianRational) to mpc."""
    if isinstance(x, GaussianRational):
        re = mpf(x.re.numerator) / x.re.denominator
        im = mpf(x.im.numerator) / x.im.denominator
        return mpc(re, im)
    if isinstance(x, Fraction):
        return mpc(mpf(x.numerator) / x.denominator)
    if isinstance(x, (int, float, mpf)):
        return mpc(x)
    if isinstance(x, mpc):
        return x
    raise TypeError(f"cannot convert {x!r} to BigComplex")


def upper_half_sqrt(z: BigComplex) -> BigComplex:
    """Square root with the argument taken in [0, 2*pi).

    For arg(z) = theta in [0, 2*pi) the root is sqrt(|z|) e^{i theta/2}, so
    the result always lies in the closed upper half plane.  This differs from
    the principal branch only for numbers with negative imaginary part.
    """
    w = mpmath.sqrt(z)
    if w.imag < 0:
        return -w
    return w


def big_to_str(z: BigComplex, digits: int = DEFAULT_DIGITS) -> list:
    """Encode an mpc value as a pair of decimal strings."""
    return [mpmath.nstr(z.real, digits), mpmath.nstr(z.imag, digits)]
