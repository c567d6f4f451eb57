"""Polynomials in one formal parameter, and series whose coefficients are such.

The formal parameter stands for a spin label z or the balanced-representation
parameter p, depending on context; the arithmetic never cares.  A PolySeries
is simply a :class:`~lorentzknots.series.TruncatedSeries` whose coefficients
are :class:`ParamPolynomial` values -- the two-variable object behind the
interpolated spin expansions.

Exact Lagrange interpolation over Q(i) lives here too: it reconstructs each
h-order's degree-bounded polynomial from sampled half-integer spins with no
conditioning concerns.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import BigComplex, GaussianRational, GR_ONE, GR_ZERO, to_big
from .scalars import _mpc_from_json, _mpc_to_json
from .series import TruncatedSeries

__all__ = [
    "ParamPolynomial",
    "PolySeries",
    "poly_constant",
    "poly_variable",
    "constant_poly_series",
    "specialize",
    "lagrange_interpolate",
]


def _coerce_coeff(c):
    # GaussianRational and mpc are tested first: isinstance against Fraction
    # goes through the numbers ABCs and is slow on this hot path.
    if isinstance(c, (GaussianRational, BigComplex)):
        return c
    return GaussianRational.coerce(c)


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


class ParamPolynomial:
    """Polynomial in one formal parameter over an exact or float field.

    Coefficients are GaussianRationals (ints and Fractions are coerced) or
    mpmath ``mpc`` values; one polynomial keeps to one of the two.  Exact
    evaluation, division and substitution need GaussianRational
    coefficients (on ``mpc`` ones they raise TypeError); :meth:`evaluate_big`
    works for both.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _trim(_coerce_coeff(c) for c in coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("ParamPolynomial is immutable")

    # -- basics ---------------------------------------------------------

    def degree(self) -> int:
        """Largest exponent with nonzero coefficient; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def _require_exact(self, operation: str):
        # One polynomial keeps to one coefficient kind, so the leading
        # coefficient tells which.
        if self.coeffs and isinstance(self.coeffs[-1], BigComplex):
            raise TypeError(
                f"ParamPolynomial.{operation} needs Gaussian-rational "
                "coefficients; read a polynomial with mpc coefficients "
                "with evaluate_big"
            )

    def constant(self) -> GaussianRational:
        self._require_exact("constant")
        return self.coeffs[0] if self.coeffs else GR_ZERO

    def is_even(self) -> bool:
        """True when only even powers of the parameter appear."""
        return all(not c for c in self.coeffs[1::2])

    def coefficient(self, k: int) -> GaussianRational:
        self._require_exact("coefficient")
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else GR_ZERO

    # -- ring operations --------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, ParamPolynomial):
            return x
        if isinstance(x, (GaussianRational, BigComplex, int, Fraction)):
            return ParamPolynomial([x])
        return None

    def __add__(self, other):
        other = ParamPolynomial._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return ParamPolynomial([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    __radd__ = __add__

    def __sub__(self, other):
        other = ParamPolynomial._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return ParamPolynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        other = ParamPolynomial._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ParamPolynomial()
        out = [None] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                cur = out[i + j]
                out[i + j] = x * y if cur is None else cur + x * y
        # A slot that only zero coefficients of self reach (the constant
        # slot of x * q, say) gets the field's zero, made once if needed.
        zero = None
        for k, c in enumerate(out):
            if c is None:
                if zero is None:
                    zero = a[-1] - a[-1]
                out[k] = zero
        return ParamPolynomial(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        self._require_exact("__truediv__")
        if isinstance(other, (int, Fraction, GaussianRational)):
            inv = GR_ONE / GaussianRational.coerce(other)
            return self * inv
        if isinstance(other, ParamPolynomial) and other.is_constant():
            return self / other.constant()
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers of a polynomial are not defined")
        self._require_exact("__pow__")
        result = ParamPolynomial([GR_ONE])
        for _ in range(n):
            result = result * self
        return result

    # -- evaluation / substitution ----------------------------------------

    def evaluate(self, point) -> GaussianRational:
        """Exact evaluation at a Gaussian-rational point (Horner)."""
        self._require_exact("evaluate")
        point = GaussianRational.coerce(point)
        acc = GR_ZERO
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def evaluate_big(self, point):
        """Evaluation at an mpc point at current working precision."""
        acc = to_big(0)
        point = to_big(point)
        for c in reversed(self.coeffs):
            acc = acc * point + to_big(c)
        return acc

    def compose_affine(self, a, b) -> "ParamPolynomial":
        """Substitute x -> a*y + b, returning the polynomial in y."""
        self._require_exact("compose_affine")
        a = GaussianRational.coerce(a)
        b = GaussianRational.coerce(b)
        lin = ParamPolynomial([b, a])
        acc = ParamPolynomial()
        for c in reversed(self.coeffs):
            acc = acc * lin + c
        return acc

    # -- protocol -----------------------------------------------------------

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        other = ParamPolynomial._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"ParamPolynomial({[str(c) for c in self.coeffs]})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"({c})*x")
            else:
                parts.append(f"({c})*x^{k}")
        return " + ".join(parts)

    def to_json(self) -> list:
        """Coefficients in ascending degree, each encoded exactly.

        A GaussianRational is [re_num, re_den, im_num, im_den]; an mpc is the
        pair of its mpf (sign, mantissa, exponent, bits) tuples.
        """
        return [
            _mpc_to_json(c) if isinstance(c, BigComplex) else c.to_json()
            for c in self.coeffs
        ]

    @staticmethod
    def from_json(data) -> "ParamPolynomial":
        return ParamPolynomial(
            _mpc_from_json(c) if isinstance(c[0], list) else GaussianRational.from_json(c)
            for c in data
        )


# A PolySeries is a TruncatedSeries whose coefficients are ParamPolynomials.
PolySeries = TruncatedSeries

POLY_ZERO = ParamPolynomial()
POLY_ONE = ParamPolynomial([GR_ONE])


def poly_constant(value) -> ParamPolynomial:
    return ParamPolynomial([GaussianRational.coerce(value)])


def poly_variable() -> ParamPolynomial:
    """The polynomial x itself."""
    return ParamPolynomial([GR_ZERO, GR_ONE])


def constant_poly_series(value, order: int) -> PolySeries:
    return TruncatedSeries(order, [poly_constant(value)] + [POLY_ZERO] * order)


def specialize(series: PolySeries, point) -> TruncatedSeries:
    """Evaluate every polynomial coefficient at a Gaussian-rational point.

    Specialization commutes with all ring operations, which is what makes
    sampling at half-integer spins and interpolating legitimate.
    """
    point = GaussianRational.coerce(point)
    return TruncatedSeries(
        series.order, [c.evaluate(point) for c in series.coeffs]
    )


def lagrange_interpolate(nodes, values) -> ParamPolynomial:
    """Exact Lagrange interpolation through (node, value) pairs over Q(i).

    ``nodes`` must be pairwise distinct Gaussian-rational points.  The result
    has degree at most len(nodes) - 1.
    """
    nodes = [GaussianRational.coerce(x) for x in nodes]
    values = [GaussianRational.coerce(v) for v in values]
    if len(nodes) != len(values):
        raise ValueError("node/value count mismatch")
    if len(set(nodes)) != len(nodes):
        raise ValueError("interpolation nodes must be distinct")
    total = ParamPolynomial()
    for i, (xi, yi) in enumerate(zip(nodes, values)):
        if not yi:
            continue
        basis = poly_constant(yi)
        for j, xj in enumerate(nodes):
            if j == i:
                continue
            basis = basis * ParamPolynomial([-xj, GR_ONE]) / (xi - xj)
        total = total + basis
    return total
