"""Alexander polynomial of a braid closure, from the reduced Burau matrix.

For a braid b on n strands whose closure is a knot,
det(I - rho(b)) = Delta(t) (1 + t + ... + t^{n-1}) up to a unit +-t^k, where
rho is the reduced Burau representation.  The determinant is taken by the
Faddeev-LeVerrier recursion, which divides only by integers, so the whole
computation stays in exact polynomials in t.  Negative crossings carry
t^{-1}; each is scaled by t to keep the matrix polynomial, which only shifts
the determinant by a unit.

The spin expansion asserts the Melvin-Morton-Rozansky diagonal against
1/Delta(e^x) (:func:`inverse_alexander_exp`).
"""

from __future__ import annotations

from .braids import BraidWord
from .errors import InternalConsistencyError
from .polynomials import POLY_ONE, POLY_ZERO, poly_variable
from .series import TruncatedSeries, constant_series, exp_scaled

__all__ = ["alexander_polynomial", "inverse_alexander_exp"]


def _scaled_burau_letter(size: int, index: int, sign: int):
    """t^{[sign < 0]} times the reduced Burau matrix of sigma_index^sign.

    The matrix is the identity but for column c = index - 1, which is
    (t, -t, 1) in rows c-1, c, c+1 for sigma_index and (1, -1/t, 1/t) for its
    inverse; rows outside 0..size-1 are dropped.
    """
    t = poly_variable()
    diagonal = POLY_ONE if sign > 0 else t
    column = (t, -t, POLY_ONE) if sign > 0 else (t, -POLY_ONE, POLY_ONE)
    mat = [[diagonal if r == c else POLY_ZERO for c in range(size)] for r in range(size)]
    c = index - 1
    for r, entry in zip((c - 1, c, c + 1), column):
        if 0 <= r < size:
            mat[r][c] = entry
    return mat


def _matmul(a, b):
    size = len(a)
    return [
        [sum((a[r][k] * b[k][c] for k in range(size)), POLY_ZERO) for c in range(size)]
        for r in range(size)
    ]


def _characteristic_coefficients(a):
    """c_0..c_m with det(lambda I - a) = sum c_k lambda^k (Faddeev-LeVerrier)."""
    size = len(a)
    coeffs = [POLY_ZERO] * size + [POLY_ONE]
    m = [[POLY_ZERO] * size for _ in range(size)]
    for k in range(1, size + 1):
        m = _matmul(a, m)
        for i in range(size):
            m[i][i] = m[i][i] + coeffs[size - k + 1]
        trace = sum(
            (a[i][j] * m[j][i] for i in range(size) for j in range(size)), POLY_ZERO
        )
        coeffs[size - k] = -trace / k
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
    t = poly_variable()
    scaled = [[POLY_ONE if r == c else POLY_ZERO for c in range(size)] for r in range(size)]
    for index, sign in b.letters:
        scaled = _matmul(scaled, _scaled_burau_letter(size, index, sign))
    # scaled = t^s rho(b), so det(t^s I - scaled) = t^{s size} det(I - rho(b)).
    shift = t ** sum(1 for _, sign in b.letters if sign < 0)
    det = POLY_ZERO
    for c in reversed(_characteristic_coefficients(scaled)):
        det = det * shift + c
    coeffs = []
    for c in det.coeffs:
        if c.im or c.re.denominator != 1:
            raise InternalConsistencyError(
                f"Burau determinant of {b} has a non-integer coefficient {c}"
            )
        coeffs.append(c.re.numerator)
    coeffs = _divide_exactly(coeffs, [1] * b.strands)
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


def inverse_alexander_exp(delta: dict, order: int) -> TruncatedSeries:
    """The jet of 1/Delta(e^h) through h^order."""
    value = constant_series(0, order)
    for e, c in delta.items():
        value = value + exp_scaled(e, order) * c
    return value.inverse()
