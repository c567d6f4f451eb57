"""Alexander polynomial of a braid closure, from the reduced Burau matrix.

For a braid b on n strands whose closure is a knot,
det(I - rho(b)) = Delta(t) (1 + t + ... + t^{n-1}) up to a unit +-t^k, where
rho is the reduced Burau representation.  The determinant is taken by the
Faddeev-LeVerrier recursion, whose divisions by integers are exact on
integer matrices, so the whole computation runs on integer coefficient
tuples of polynomials in t (ascending, no trailing zeros; the zero
polynomial is ()).  Negative crossings carry t^{-1}; each is scaled by t to
keep the matrix polynomial, which only shifts the determinant by a unit.

The spin expansion asserts the Melvin-Morton-Rozansky diagonal against
1/Delta(e^x), an integer jet (:func:`inverse_alexander_exp` is its series).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .braids import BraidWord
from .errors import InternalConsistencyError
from .polynomials import int_coeffs_add, int_coeffs_mul
from .series import TruncatedSeries, jet_inverse, jet_series, real_jet

__all__ = ["alexander_polynomial", "inverse_alexander_exp"]


def _times_letter(mat, index: int, sign: int):
    """``mat`` times t^{[sign < 0]} rho(sigma_index^sign): t^{[sign < 0]}
    times the identity but for column c = index - 1, which is (t, -t, 1) in
    rows c-1, c, c+1 for sigma_index and t (1, -1/t, 1/t) for its inverse;
    rows outside the matrix are dropped."""
    c = index - 1
    column = ((0, 1), (0, -1) if sign > 0 else (-1,), (1,))
    out = []
    for row in mat:
        new = row if sign > 0 else [(0,) + e if e else e for e in row]
        entry = ()
        for k, x in zip((c - 1, c, c + 1), column):
            if 0 <= k < len(row):
                entry = int_coeffs_add(entry, int_coeffs_mul(row[k], x))
        out.append(new[:c] + [entry] + new[c + 1 :])
    return out


def _dot(u, v):
    acc = ()
    for x, y in zip(u, v):
        acc = int_coeffs_add(acc, int_coeffs_mul(x, y))
    return acc


def _characteristic_coefficients(a):
    """c_0..c_m with det(lambda I - a) = sum c_k lambda^k (Faddeev-LeVerrier);
    each trace divides exactly by its k, or InternalConsistencyError."""
    size = len(a)
    coeffs = [()] * size + [(1,)]
    m = [[()] * size for _ in range(size)]
    for k in range(1, size + 1):
        columns = list(zip(*m))
        m = [[_dot(row, col) for col in columns] for row in a]
        for i in range(size):
            m[i][i] = int_coeffs_add(m[i][i], coeffs[size - k + 1])
        trace = ()
        for i in range(size):
            trace = int_coeffs_add(trace, _dot(a[i], [m[j][i] for j in range(size)]))
        quotient = [divmod(-x, k) for x in trace]
        if any(rem for _, rem in quotient):
            raise InternalConsistencyError(
                f"Faddeev-LeVerrier trace {trace} of a Burau matrix is not divisible by {k}"
            )
        coeffs[size - k] = tuple(q for q, _ in quotient)
    return coeffs


def _divide_exactly(num, den):
    """Quotient of integer coefficient lists (ascending), remainder zero."""
    num = list(num)
    quotient = [0] * (len(num) - len(den) + 1)
    for k in range(len(quotient) - 1, -1, -1):
        q, rem = divmod(num[k + len(den) - 1], den[-1])
        if rem:
            raise InternalConsistencyError("Burau determinant not divisible by [n]_t")
        quotient[k] = q
        for j, d in enumerate(den):
            num[k + j] -= q * d
    if any(num):
        raise InternalConsistencyError("Burau determinant not divisible by [n]_t")
    return quotient


def alexander_polynomial(b: BraidWord) -> dict:
    """Alexander polynomial of the closure of ``b``, a knot, as the
    symmetric Laurent polynomial {exponent: coefficient} with Delta(1) = 1.
    """
    if not b.is_knot():
        raise ValueError("closure of the braid is not a knot")
    size = b.strands - 1
    scaled = [[(1,) if r == c else () for c in range(size)] for r in range(size)]
    for index, sign in b.letters:
        scaled = _times_letter(scaled, index, sign)
    # scaled = t^s rho(b), so det(t^s I - scaled) = t^{s size} det(I - rho(b)).
    shift = (0,) * sum(1 for _, sign in b.letters if sign < 0)
    det = ()
    for c in reversed(_characteristic_coefficients(scaled)):
        det = int_coeffs_add(shift + det if det else (), c)
    coeffs = _divide_exactly(det, [1] * b.strands)
    low = next(k for k, c in enumerate(coeffs) if c)
    coeffs = coeffs[low:]
    span = len(coeffs) - 1
    sign = sum(coeffs)
    if span % 2 or sign not in (1, -1):
        raise InternalConsistencyError(
            f"Burau determinant of {b} gives {coeffs}, not the Alexander "
            "polynomial of a knot"
        )
    delta = {k - span // 2: sign * c for k, c in enumerate(coeffs) if c}
    if any(delta.get(-e) != c for e, c in delta.items()):
        raise InternalConsistencyError(
            f"Alexander polynomial {delta} of {b} is not symmetric"
        )
    return delta


def _inverse_alexander_jet(delta: dict, order: int):
    """1/Delta(e^h) through h^order as an integer jet; the h^k coefficient of
    Delta(e^h) is sum_e c_e e^k / k!."""
    return jet_inverse(real_jet(
        Fraction(sum(c * e**k for e, c in delta.items()), factorial(k))
        for k in range(order + 1)
    ))


def inverse_alexander_exp(delta: dict, order: int) -> TruncatedSeries:
    """The jet of 1/Delta(e^h) through h^order."""
    return jet_series(_inverse_alexander_jet(delta, order))
