"""Polynomials in one formal parameter, and series whose coefficients are such.

The formal parameter stands for a spin label z or the balanced-representation
parameter p, depending on context; the arithmetic never cares.  A PolySeries
is simply a :class:`~lorentzknots.series.TruncatedSeries` whose coefficients
are :class:`ParamPolynomial` values -- the two-variable object behind the
interpolated spin expansions.

Exact Lagrange interpolation over Q(i) lives here too, with the one fit of
a series from samples at more nodes than the fit needs
(:func:`interpolate_series`): the spin expansions fit half-integer spins,
the symbolic braid sums integer p.  Exact arithmetic leaves no conditioning
concerns.

Real polynomials have an integer kernel here, as real jets have in
:mod:`lorentzknots.series`: Python-int coefficients over one positive
denominator, with sum, product and affine substitution.  The weight-system
characters compute on it; :func:`int_poly_param` turns a value into the
ParamPolynomial that crosses the public boundary.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

from .errors import InternalConsistencyError
from .scalars import GaussianRational, GR_ONE, GR_ZERO
from .series import TruncatedSeries

__all__ = [
    "ParamPolynomial",
    "PolySeries",
    "poly_constant",
    "poly_variable",
    "constant_poly_series",
    "specialize",
    "lagrange_interpolate",
    "interpolate_series",
    "int_coeffs_add",
    "int_coeffs_mul",
    "int_poly_add",
    "int_poly_mul",
    "int_poly_compose_affine",
    "int_poly_param",
]


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


class ParamPolynomial:
    """Polynomial in one formal parameter over Q(i).

    Coefficients are GaussianRationals; ints and Fractions are coerced.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _trim(GaussianRational.coerce(c) for c in coeffs))

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

    def constant(self) -> GaussianRational:
        return self.coeffs[0] if self.coeffs else GR_ZERO

    def is_even(self) -> bool:
        """True when only even powers of the parameter appear."""
        return all(not c for c in self.coeffs[1::2])

    def coefficient(self, k: int) -> GaussianRational:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else GR_ZERO

    # -- ring operations --------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, ParamPolynomial):
            return x
        if isinstance(x, (GaussianRational, int, Fraction)):
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
        # a slot that only zero coefficients of self reach is zero
        return ParamPolynomial(GR_ZERO if c is None else c for c in out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            inv = GR_ONE / GaussianRational.coerce(other)
            return self * inv
        if isinstance(other, ParamPolynomial) and other.is_constant():
            return self / other.constant()
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers of a polynomial are not defined")
        result = ParamPolynomial([GR_ONE])
        for _ in range(n):
            result = result * self
        return result

    # -- evaluation / substitution ----------------------------------------

    def evaluate(self, point) -> GaussianRational:
        """Exact evaluation at a Gaussian-rational point (Horner)."""
        point = GaussianRational.coerce(point)
        acc = GR_ZERO
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def compose_affine(self, a, b) -> "ParamPolynomial":
        """Substitute x -> a*y + b, returning the polynomial in y."""
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
        """Coefficients in ascending degree, each [re_num, re_den, im_num, im_den]."""
        return [c.to_json() for c in self.coeffs]

    @staticmethod
    def from_json(data) -> "ParamPolynomial":
        return ParamPolynomial(GaussianRational.from_json(c) for c in data)


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


def interpolate_series(nodes, samples, context: str, node: str, bound: str) -> PolySeries:
    """Fit the h^n coefficient of the jets ``samples`` (sample k taken at
    ``nodes[k]``) at degree <= n through the first n+1 nodes, and require
    every later sample to lie on the fit.

    Raises InternalConsistencyError naming ``context``, the order, h^n and
    the first node off the fit, whose name is ``node``; ``bound`` says why
    the degree is at most n.
    """
    order = samples[0].order
    coeffs = []
    for n in range(order + 1):
        values = [s.coeffs[n] for s in samples]
        poly = lagrange_interpolate(nodes[: n + 1], values[: n + 1])
        for x, v in zip(nodes[n + 1 :], values[n + 1 :]):
            if poly.evaluate(x) != v:
                raise InternalConsistencyError(
                    f"{context} at order {order}: the h^{n} coefficient at "
                    f"{node} {x} is off the degree-{n} fit through {node} "
                    f"{nodes[0]}..{nodes[n]} ({bound})"
                )
        coeffs.append(poly)
    return TruncatedSeries(order, coeffs)


# ---------------------------------------------------------------------------
# Integer polynomials: the exact kernel of real polynomial arithmetic.
#
# An integer polynomial is the pair (nums, den): Python-int coefficients
# n_0..n_d in ascending degree, without trailing zeros, over one positive
# denominator, the polynomial (n_0 + n_1 x + ... + n_d x^d) / den.  The zero
# polynomial has nums == ().  The pair is not reduced, so one polynomial has
# many pairs; compare values after int_poly_param.
# ---------------------------------------------------------------------------


def int_coeffs_add(a, b) -> tuple:
    """The sum of two integer coefficient tuples, trailing zeros dropped."""
    if len(a) < len(b):
        a, b = b, a
    return _trim([x + y for x, y in zip(a, b)] + list(a[len(b):]))


def int_poly_add(p, q):
    pn, pd = p
    qn, qd = q
    if pd != qd:
        g = gcd(pd, qd)
        fp, fq = qd // g, pd // g
        pn, qn, pd = tuple(x * fp for x in pn), tuple(y * fq for y in qn), pd * fp
    return int_coeffs_add(pn, qn), pd


def int_coeffs_mul(a, b) -> tuple:
    """The product of two integer coefficient tuples without trailing zeros;
    the shorter factor drives the outer loop."""
    if not a or not b:
        return ()
    if len(a) > len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            out[j] += x * y
    return tuple(out)


def int_poly_mul(p, q):
    return int_coeffs_mul(p[0], q[0]), p[1] * q[1]


def int_poly_compose_affine(p, a: Fraction, b: Fraction):
    """Substitute x -> a*y + b (a != 0), returning the integer polynomial in y.

    With a = A/C and b = B/C over one denominator C, Horner's rule on
    sum_k n_k (A y + B)^k C^(d-k) stays in integers; the denominator gains
    C^d.
    """
    nums, den = p
    if not nums:
        return p
    c = lcm(a.denominator, b.denominator)
    big_a, big_b = a.numerator * (c // a.denominator), b.numerator * (c // b.denominator)
    acc, power = (nums[-1],), 1
    for coeff in reversed(nums[:-1]):
        power *= c
        acc = int_coeffs_add(int_coeffs_mul(acc, (big_b, big_a)), (coeff * power,))
    return acc, den * power


def int_poly_param(p, q=((), 1)) -> ParamPolynomial:
    """The integer polynomial ``p``, plus i times ``q``, as a ParamPolynomial
    over Q(i)."""
    (pn, pd), (qn, qd) = p, q
    return ParamPolynomial(
        GaussianRational(Fraction(a, pd), Fraction(b, qd))
        for a, b in zip_longest(pn, qn, fillvalue=0)
    )
