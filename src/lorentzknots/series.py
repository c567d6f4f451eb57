"""Truncated power series in the deformation parameter h.

A :class:`TruncatedSeries` is a degree-N jet: coefficients c_0..c_N of
h^0..h^N over a pluggable coefficient ring.  Ring operations truncate at
order N, so products of order-N jets are again order-N jets.  Everything is
immutable and safe to share.

The deformation parameter q never exists as its own symbol: q = e^{h/2}, and
every power q^r is expanded immediately via :func:`q_power`.  With that
convention the q-integers, q-factorials and quantum dimensions used by the
braid engines all have exact Gaussian-rational jets.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .scalars import BigComplex, GaussianRational, GR_ONE, GR_ZERO, upper_half_sqrt, to_big

__all__ = [
    "TruncatedSeries",
    "constant_series",
    "exp_scaled",
    "q_power",
    "q_integer",
    "q_factorial",
    "q_dim",
    "sqrt_series",
    "series_to_big",
    "memoized",
    "register_memo",
    "clear_caches",
]


class TruncatedSeries:
    """A jet c_0 + c_1 h + ... + c_N h^N over a commutative coefficient ring.

    The coefficient ring is duck-typed: anything supporting +, -, * (and,
    for :meth:`inverse`, division) works -- GaussianRational, mpmath ``mpc``,
    :class:`~lorentzknots.polynomials.ParamPolynomial`.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        coeffs = tuple(coeffs)
        if order < 0:
            raise ValueError("series order must be nonnegative")
        if len(coeffs) != order + 1:
            raise ValueError(f"expected {order + 1} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- helpers --------------------------------------------------------

    def _zero_coeff(self):
        return self.coeffs[0] * 0

    def _check_compatible(self, other: "TruncatedSeries"):
        if self.order != other.order:
            raise ValueError(
                f"series order mismatch: {self.order} vs {other.order}"
            )

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_compatible(other)
            return TruncatedSeries(
                self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)]
            )
        return TruncatedSeries(
            self.order, (self.coeffs[0] + other,) + self.coeffs[1:]
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncatedSeries) else -1 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return TruncatedSeries(self.order, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_compatible(other)
            n = self.order
            a, b = self.coeffs, other.coeffs
            out = []
            for k in range(n + 1):
                acc = a[0] * b[k]
                for j in range(1, k + 1):
                    acc = acc + a[j] * b[k - j]
                out.append(acc)
            return TruncatedSeries(n, out)
        return TruncatedSeries(self.order, [c * other for c in self.coeffs])

    __rmul__ = __mul__

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires an invertible constant term."""
        c0 = self.coeffs[0]
        if not c0:
            raise ValueError("series with zero constant term has no inverse")
        inv0 = 1 / c0
        out = [inv0]
        for k in range(1, self.order + 1):
            acc = self._zero_coeff()
            for j in range(1, k + 1):
                acc = acc + self.coeffs[j] * out[k - j]
            out.append(-inv0 * acc)
        return TruncatedSeries(self.order, out)

    def __truediv__(self, other):
        if isinstance(other, TruncatedSeries):
            return self * other.inverse()
        return self * (Fraction(1, 1) / other)

    # -- structure -------------------------------------------------------

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("cannot extend a jet; recompute at higher order")
        return TruncatedSeries(order, self.coeffs[: order + 1])

    def shift_down(self, k: int = 1) -> "TruncatedSeries":
        """Divide by h^k, requiring the low coefficients to vanish."""
        for c in self.coeffs[:k]:
            if c:
                raise ValueError("cannot divide by h: low-order coefficient nonzero")
        zero = self._zero_coeff()
        return TruncatedSeries(
            self.order, self.coeffs[k:] + (zero,) * k
        )

    def negate_h(self) -> "TruncatedSeries":
        """The substitution h -> -h (equivalently q -> 1/q)."""
        return TruncatedSeries(
            self.order,
            [c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs)],
        )

    def map_coeffs(self, fn) -> "TruncatedSeries":
        return TruncatedSeries(self.order, [fn(c) for c in self.coeffs])

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.order == other.order and all(
                a == b for a, b in zip(self.coeffs, other.coeffs)
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"TruncatedSeries(order={self.order}, coeffs={list(self.coeffs)})"

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c and k > 0:
                continue
            term = str(c)
            if k == 1:
                term += "*h"
            elif k > 1:
                term += f"*h^{k}"
            parts.append(term)
        return " + ".join(parts) if parts else "0"

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        from .scalars import big_to_str

        coeffs = []
        for c in self.coeffs:
            if isinstance(c, GaussianRational):
                coeffs.append(c.to_json())
            elif isinstance(c, BigComplex):
                coeffs.append(big_to_str(c))
            elif isinstance(c, Fraction):
                coeffs.append(GaussianRational(c).to_json())
            else:
                coeffs.append(c.to_json())
        return {"order": self.order, "coeffs": coeffs}


def constant_series(value, order: int) -> TruncatedSeries:
    """The constant jet of ``value`` (a GaussianRational-coercible scalar)."""
    value = GaussianRational.coerce(value)
    return TruncatedSeries(order, [value] + [GR_ZERO] * order)


def exp_scaled(rate, order: int) -> TruncatedSeries:
    """The jet of e^{rate*h}: coefficient of h^k is rate^k / k!."""
    rate = GaussianRational.coerce(rate)
    coeffs = [GR_ONE]
    power = GR_ONE
    for k in range(1, order + 1):
        power = power * rate
        coeffs.append(power / factorial(k))
    return TruncatedSeries(order, coeffs)


# ---------------------------------------------------------------------------
# Memo tables
# ---------------------------------------------------------------------------

_MEMO_CLEARERS = []


def register_memo(clear):
    """Add a memo table's clear function to those :func:`clear_caches` runs."""
    _MEMO_CLEARERS.append(clear)


def memoized(fn):
    """An unbounded ``lru_cache`` whose table :func:`clear_caches` empties."""
    cached = lru_cache(maxsize=None)(fn)
    register_memo(cached.cache_clear)
    return cached


def clear_caches():
    """Empty every memo table of every imported ``lorentzknots`` module."""
    for clear in _MEMO_CLEARERS:
        clear()


# ---------------------------------------------------------------------------
# The q-jet kernel.  Jets are exact and do not depend on the mpmath precision,
# so each is computed once per (argument, order) and shared (TruncatedSeries
# and GaussianRational are immutable).  The public functions normalize and
# validate their arguments; the recursion stays inside the memoized jets.
# ---------------------------------------------------------------------------


@memoized
def _q_power_jet(r: GaussianRational, order: int) -> TruncatedSeries:
    return exp_scaled(r / 2, order)


@memoized
def _q_integer_jet(n: int, order: int) -> TruncatedSeries:
    if n < 0:
        return -_q_integer_jet(-n, order)
    total = constant_series(0, order)
    for j in range(n):
        total = total + _q_power_jet(GaussianRational(n - 1 - 2 * j), order)
    return total


@memoized
def _q_factorial_jet(n: int, order: int) -> TruncatedSeries:
    if n == 0:
        return constant_series(1, order)
    return _q_factorial_jet(n - 1, order) * _q_integer_jet(n, order)


def q_power(r, order: int) -> TruncatedSeries:
    """q^r with q = e^{h/2}, i.e. the jet of e^{r h / 2}."""
    return _q_power_jet(GaussianRational.coerce(r), order)


def q_integer(n: int, order: int) -> TruncatedSeries:
    """The balanced q-integer [n] = (q^n - q^-n)/(q - q^-1).

    Computed through the exact geometric form [n] = q^{n-1} + q^{n-3} +
    ... + q^{1-n}, which avoids dividing jets with vanishing constant term.
    """
    return _q_integer_jet(n, order)


def q_factorial(n: int, order: int) -> TruncatedSeries:
    """[n]! = [1][2]...[n], built as [n-1]! [n]; the empty product for n = 0."""
    if n < 0:
        raise ValueError("q-factorial needs n >= 0")
    return _q_factorial_jet(n, order)


def q_dim(two_alpha: int, order: int) -> TruncatedSeries:
    """Quantum dimension [2*alpha + 1] of the spin-alpha module."""
    if two_alpha < 0:
        raise ValueError("spin label must be nonnegative")
    return q_integer(two_alpha + 1, order)


def sqrt_series(s: TruncatedSeries) -> TruncatedSeries:
    """Square root of a BigComplex-coefficient jet with c_0 != 0.

    The branch of sqrt(c_0) takes the argument in [0, 2*pi) and halves it;
    the remaining coefficients follow from the exact recursion
    t_k = (s_k - sum_{0<j<k} t_j t_{k-j}) / (2 t_0).
    """
    c0 = s.coeffs[0]
    if not c0:
        raise ValueError(
            "sqrt of a series with zero constant term; extract the exact "
            "radical upstream instead"
        )
    t0 = upper_half_sqrt(to_big(c0))
    out = [t0]
    half = 1 / (2 * t0)
    for k in range(1, s.order + 1):
        acc = to_big(s.coeffs[k])
        for j in range(1, k):
            acc = acc - out[j] * out[k - j]
        out.append(acc * half)
    return TruncatedSeries(s.order, out)


def series_to_big(s: TruncatedSeries) -> TruncatedSeries:
    """Convert an exact jet to the BigComplex backend at current precision."""
    return s.map_coeffs(to_big)
