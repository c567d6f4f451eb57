"""Truncated power series in the deformation parameter h.

A :class:`TruncatedSeries` is a degree-N jet: coefficients c_0..c_N of
h^0..h^N over a pluggable coefficient ring.  Ring operations truncate at
order N, so products of order-N jets are again order-N jets.  Everything is
immutable and safe to share.

Real jets have one exact kernel here, the integer jet: Python-int
numerators over one positive denominator, kept canonical (gcd 1), with its
product, sum, inverse and square root.  The q-jets, the coupling
coefficients, the braid tables of the coloured Jones engine and the braid
walk at real p all compute on it; a :class:`TruncatedSeries` over
Gaussian rationals is what crosses the public boundary (``jet_series``).

The deformation parameter q never exists as its own symbol: q = e^{h/2}, and
every power q^r is expanded immediately via :func:`q_power`.  With that
convention the q-integers, q-factorials and quantum dimensions used by the
braid engines all have exact rational jets.  Square roots are exact too:
:func:`jet_sqrt` roots a real jet whose constant term is a rational square,
which is how the coupling coefficients take theirs, and :func:`sqrt_series`
roots a jet over Q(i) whose constant term is a square there.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import wraps
from math import factorial, gcd, lcm

from .errors import InternalConsistencyError
from .scalars import GaussianRational, GR_ZERO, rational_sqrt

__all__ = [
    "TruncatedSeries",
    "conv",
    "accumulate",
    "constant_series",
    "exp_scaled",
    "q_power",
    "q_integer",
    "q_factorial",
    "q_dim",
    "sqrt_series",
    "real_jet",
    "jet_constant",
    "jet_fractions",
    "jet_series",
    "jet_neg",
    "jet_scale",
    "jet_add",
    "jet_mul",
    "jet_accumulate",
    "jet_lead",
    "jet_inverse",
    "jet_sqrt",
    "memoized",
    "clear_caches",
]


class TruncatedSeries:
    """A jet c_0 + c_1 h + ... + c_N h^N over a commutative coefficient ring.

    The coefficient ring is duck-typed: anything supporting +, -, * (and,
    for :meth:`inverse`, division) works -- Fraction, GaussianRational,
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
            return TruncatedSeries(
                self.order, conv(self.coeffs, other.coeffs, self.order)
            )
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
        coeffs = []
        for c in self.coeffs:
            if isinstance(c, Fraction):
                coeffs.append(GaussianRational(c).to_json())
            else:  # GaussianRational or ParamPolynomial
                coeffs.append(c.to_json())
        return {"order": self.order, "coeffs": coeffs}


# ---------------------------------------------------------------------------
# Coefficient-tuple kernels shared by every jet computation
# ---------------------------------------------------------------------------


def conv(a, b, order: int) -> tuple:
    """Truncated Cauchy product: c_k = sum_{j <= k} a_j b_{k-j}, k = 0..order.

    Each sum starts from a_0 b_k, so no ring-specific zero is needed and any
    coefficient ring works (ints, Fraction, GaussianRational,
    ParamPolynomial).
    """
    out = []
    for k in range(order + 1):
        acc = a[0] * b[k]
        for j in range(1, k + 1):
            acc += a[j] * b[k - j]
        out.append(acc)
    return tuple(out)


def accumulate(store: dict, key, coeffs: tuple):
    """Add the coefficient tuple ``coeffs`` into ``store[key]``."""
    cur = store.get(key)
    if cur is None:
        store[key] = coeffs
    else:
        store[key] = tuple(x + y for x, y in zip(cur, coeffs))


def constant_series(value, order: int) -> TruncatedSeries:
    """The constant jet of ``value`` (a GaussianRational-coercible scalar)."""
    value = GaussianRational.coerce(value)
    return TruncatedSeries(order, [value] + [GR_ZERO] * order)


def exp_scaled(rate, order: int) -> TruncatedSeries:
    """The jet of e^{rate*h}: coefficient of h^k is rate^k / k!.

    An int or Fraction rate is coerced to a Gaussian rational; any other
    rate (a Gaussian rational, a ParamPolynomial) is taken as it is, and
    every coefficient lies in its ring.
    """
    if isinstance(rate, (int, Fraction)):
        rate = GaussianRational.coerce(rate)
    power = rate * 0 + 1
    coeffs = [power]
    for k in range(1, order + 1):
        power = power * rate
        coeffs.append(power / factorial(k))
    return TruncatedSeries(order, coeffs)


# ---------------------------------------------------------------------------
# Memo tables
# ---------------------------------------------------------------------------

CacheInfo = namedtuple("CacheInfo", "hits misses currsize")

_MEMO_TABLES = []
_MISSING = object()


def memoized(fn):
    """Memoize ``fn`` on its positional arguments in a table that
    :func:`clear_caches` empties.

    The wrapper has ``cache_info()`` (hits, misses, currsize) and
    ``cache_clear()`` (which also resets the counts), and ``table``, the dict
    from argument tuple to value, which the tests read to see which
    arguments were computed.  Each argument tuple is served from its own
    entry only; arguments equal as keys (``2.0 == 2``) share one, so an
    entry point that checks its arguments does so before the lookup.
    """
    table = {}
    counts = [0, 0]  # hits, misses

    @wraps(fn)
    def wrapper(*args):
        value = table.get(args, _MISSING)
        if value is _MISSING:
            counts[1] += 1
            value = table[args] = fn(*args)
        else:
            counts[0] += 1
        return value

    def cache_clear():
        table.clear()
        counts[:] = [0, 0]

    wrapper.table = table
    wrapper.cache_info = lambda: CacheInfo(counts[0], counts[1], len(table))
    wrapper.cache_clear = cache_clear
    _MEMO_TABLES.append(wrapper)
    return wrapper


def clear_caches():
    """Empty every memo table of every imported ``lorentzknots`` module."""
    for memo in _MEMO_TABLES:
        memo.cache_clear()


def _require_order(order, name="order"):
    """ValueError naming ``name`` unless ``order`` is a nonnegative int."""
    if not isinstance(order, int) or order < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {order!r}")


# ---------------------------------------------------------------------------
# Integer jets: the exact real jet kernel.
#
# An integer jet is the pair (nums, den): Python-int numerators n_0..n_N over
# one positive denominator, the jet (n_0 + n_1 h + ... + n_N h^N) / den.
# Every function below returns it canonical, gcd(den, n_0, ..., n_N) = 1, so
# equal jets are equal tuples (and hash alike); the zero jet is
# ((0, ..., 0), 1).  Real jets (the q-jets, the coupling coefficients, the
# braid walk at real p) run here; TruncatedSeries over Q(i) is the boundary.
# ---------------------------------------------------------------------------


def _canonical(nums, den: int):
    g = gcd(den, *nums)
    if g == 1:
        return tuple(nums), den
    return tuple(n // g for n in nums), den // g


def real_jet(coeffs):
    """The integer jet of rational coefficients (ints, Fractions or real
    Gaussian rationals)."""
    fracs = []
    for c in coeffs:
        if isinstance(c, GaussianRational):
            if c.im:
                raise InternalConsistencyError(
                    f"an integer jet has real coefficients, not {c}"
                )
            c = c.re
        fracs.append(Fraction(c))
    den = lcm(*(f.denominator for f in fracs))
    return _canonical([f.numerator * (den // f.denominator) for f in fracs], den)


def jet_constant(value, order: int):
    """The constant integer jet of an int or Fraction."""
    value = Fraction(value)
    return _canonical((value.numerator,) + (0,) * order, value.denominator)


def jet_fractions(jet) -> tuple:
    nums, den = jet
    return tuple(Fraction(n, den) for n in nums)


@memoized
def jet_series(jet) -> TruncatedSeries:
    """The integer jet as a TruncatedSeries over Q(i); memoized, so a value
    crossing the boundary more than once is converted once."""
    return TruncatedSeries(
        len(jet[0]) - 1, [GaussianRational(c) for c in jet_fractions(jet)]
    )


def jet_neg(a):
    nums, den = a
    return tuple(-n for n in nums), den


def jet_scale(a, c):
    """The integer jet ``a`` times an int or Fraction ``c``."""
    nums, den = a
    k = c.numerator
    return _canonical([n * k for n in nums], den * c.denominator)


def jet_add(a, b):
    an, ad = a
    bn, bd = b
    if ad == bd:
        return _canonical([x + y for x, y in zip(an, bn)], ad)
    g = gcd(ad, bd)
    fa, fb = bd // g, ad // g
    return _canonical([x * fa + y * fb for x, y in zip(an, bn)], ad * fa)


def jet_mul(a, b):
    """Truncated product of two integer jets of one order."""
    an, ad = a
    bn, bd = b
    return _canonical(conv(an, bn, len(an) - 1), ad * bd)


def jet_accumulate(store: dict, key, jet):
    """Add the integer jet ``jet`` into ``store[key]``."""
    cur = store.get(key)
    store[key] = jet if cur is None else jet_add(cur, jet)


def jet_lead(jet):
    """Index of the first nonzero coefficient; None for the zero jet."""
    for k, n in enumerate(jet[0]):
        if n:
            return k
    return None


def jet_inverse(a):
    """Multiplicative inverse; requires a nonzero constant term.

    With N = sum n_k h^k, 1/N = sum u_k h^k / n_0^{k+1}, where u_0 = 1 and
    u_k = -sum_{j=1..k} n_j u_{k-j} n_0^{j-1} are integers.
    """
    nums, den = a
    n0 = nums[0]
    if not n0:
        raise ValueError("series with zero constant term has no inverse")
    order = len(nums) - 1
    u = [1]
    for k in range(1, order + 1):
        acc, power = 0, 1
        for j in range(1, k + 1):
            acc += nums[j] * u[k - j] * power
            power *= n0
        u.append(-acc)
    top = n0 ** (order + 1)
    out = [den * u[k] * n0 ** (order - k) for k in range(order + 1)]
    if top < 0:
        top, out = -top, [-x for x in out]
    return _canonical(out, top)


def _sqrt_coeffs(coeffs, t0) -> list:
    """Root coefficients t_k = (s_k - sum_{0<j<k} t_j t_{k-j}) / (2 t_0)
    of a jet s with t_0^2 = s_0, over any field."""
    out = [t0]
    half = 1 / (2 * t0)
    for k in range(1, len(coeffs)):
        acc = coeffs[k]
        for j in range(1, k):
            acc = acc - out[j] * out[k - j]
        out.append(acc * half)
    return out


def jet_sqrt(a):
    """Exact square root of an integer jet whose constant term is the square
    of a nonzero rational; the root's constant term is positive.  Raises
    ValueError otherwise."""
    fracs = jet_fractions(a)
    if not fracs[0]:
        raise ValueError(
            "sqrt of a series with zero constant term; extract the exact "
            "radical upstream instead"
        )
    return real_jet(_sqrt_coeffs(fracs, rational_sqrt(fracs[0])))


# ---------------------------------------------------------------------------
# The q-jets, on the integer-jet kernel.  Jets are exact, so each is computed
# once per (argument, order) and shared.  The public functions validate their
# arguments and return TruncatedSeries over Q(i); the other modules use the
# memoized integer jets directly.
# ---------------------------------------------------------------------------


@memoized
def _q_power_jet(r, order: int):
    """q^r = e^{r h/2} for rational r: the h^k coefficient is (r/2)^k / k!."""
    a, b = r.numerator, 2 * r.denominator
    top = factorial(order)
    return _canonical(
        [a**k * b ** (order - k) * (top // factorial(k)) for k in range(order + 1)],
        b**order * top,
    )


@memoized
def _q_integer_jet(n: int, order: int):
    """[n] = q^{n-1} + q^{n-3} + ... + q^{1-n}: the h^k coefficient is
    sum_j (n-1-2j)^k / (2^k k!)."""
    if n < 0:
        return jet_neg(_q_integer_jet(-n, order))
    den = 2**order * factorial(order)
    return _canonical(
        [
            sum((n - 1 - 2 * j) ** k for j in range(n)) * (den // (2**k * factorial(k)))
            for k in range(order + 1)
        ],
        den,
    )


@memoized
def _q_factorial_jet(n: int, order: int):
    if n == 0:
        return jet_constant(1, order)
    return jet_mul(_q_factorial_jet(n - 1, order), _q_integer_jet(n, order))


@memoized
def _q_inverse_factorial_jet(n: int, order: int):
    """1 / [n]!, the coupling coefficients' denominators as factors."""
    return jet_inverse(_q_factorial_jet(n, order))


def q_power(r, order: int) -> TruncatedSeries:
    """q^r with q = e^{h/2}, i.e. the jet of e^{r h / 2}; r may be complex."""
    r = GaussianRational.coerce(r)
    if r.im:
        return exp_scaled(r / 2, order)
    return jet_series(_q_power_jet(r.re, order))


def q_integer(n: int, order: int) -> TruncatedSeries:
    """The balanced q-integer [n] = (q^n - q^-n)/(q - q^-1).

    Computed through the exact geometric form [n] = q^{n-1} + q^{n-3} +
    ... + q^{1-n}, which avoids dividing jets with vanishing constant term.
    """
    return jet_series(_q_integer_jet(n, order))


def q_factorial(n: int, order: int) -> TruncatedSeries:
    """[n]! = [1][2]...[n], built as [n-1]! [n]; the empty product for n = 0."""
    if n < 0:
        raise ValueError("q-factorial needs n >= 0")
    return jet_series(_q_factorial_jet(n, order))


def q_dim(two_alpha: int, order: int) -> TruncatedSeries:
    """Quantum dimension [2*alpha + 1] of the spin-alpha module."""
    if two_alpha < 0:
        raise ValueError("spin label must be nonnegative")
    return q_integer(two_alpha + 1, order)


def _gaussian_sqrt(z) -> GaussianRational:
    """The exact square root of a Gaussian rational in the closed upper half
    plane (argument in [0, 2*pi), halved); ValueError if it is not in Q(i)."""
    z = GaussianRational.coerce(z)
    norm = rational_sqrt(z.re * z.re + z.im * z.im)
    x = rational_sqrt((norm + z.re) / 2)
    y = rational_sqrt((norm - z.re) / 2)
    return GaussianRational(x if z.im >= 0 else -x, y)


def sqrt_series(s: TruncatedSeries) -> TruncatedSeries:
    """Exact square root of a jet over Q(i) whose constant term is a square.

    The root of c_0 lies in the closed upper half plane (its argument in
    [0, 2*pi) is halved); the remaining coefficients follow from the exact
    recursion t_k = (s_k - sum_{0<j<k} t_j t_{k-j}) / (2 t_0).  Raises
    ValueError when c_0 is zero or has no square root in Q(i).
    """
    c0 = s.coeffs[0]
    if not c0:
        raise ValueError(
            "sqrt of a series with zero constant term; extract the exact "
            "radical upstream instead"
        )
    return TruncatedSeries(s.order, _sqrt_coeffs(s.coeffs, _gaussian_sqrt(c0)))
