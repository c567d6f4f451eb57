"""Quantum Clebsch-Gordan coefficients and the balanced structure constants.

All spin labels are passed as doubled integers so that half-integer spins
stay exact.  A coupling coefficient splits into three exactly-computed
parts: a sign from the e^{i pi (I - m)} and (-1)^V phases (doubled-integer
parity, never floating trig), an exact rational jet (the q-power prefactor
and the alternating V-sum), and the square root of an exact rational jet of
quantum factorials -- the only irrational ingredient, taken at the working
float precision.

The structure constants Lambda^{ABC}_D(p) of the balanced representation
combine a decoupling and a coupling coefficient with q^{2 sigma p} weights;
``p`` may be an exact numeric value (Gaussian rational) or symbolic, in
which case coefficients are polynomials in p.  The decoupling symbol is the
coupling symbol with rotated arguments (orthonormality of the coupling
matrices, verified in the tests, makes transpose = inverse); the closed
forms for spin-1/2 columns certify the convention end to end.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

from .errors import InternalConsistencyError
from .polynomials import ParamPolynomial
from .scalars import GaussianRational, to_big
from .series import (
    TruncatedSeries,
    clear_caches,
    constant_series,
    exp_scaled,
    jet_matrix_inverse,
    memoized,
    q_dim,
    q_factorial,
    q_integer,
    q_power,
    series_to_big,
    sqrt_series,
)

__all__ = [
    "SYMBOLIC",
    "quantum_cg",
    "quantum_cg_decoupling",
    "lambda_coeff",
    "lambda_coeff_symbolic",
    "clear_caches",
    "cache_state",
]


def _is_spin_index(dj: int, dm: int) -> bool:
    """Y(j, m): m runs through -j..j in integer steps."""
    return abs(dm) <= dj and (dj - dm) % 2 == 0


def _triangle(da: int, db: int, dc: int) -> bool:
    """Y(a, b, c): a appears in the decomposition of b (x) c."""
    return abs(db - dc) <= da <= db + dc and (da + db + dc) % 2 == 0


# The value of ``p`` that leaves it symbolic.
SYMBOLIC = "symbolic"


def _p_key(p):
    """``p`` as a memo key: SYMBOLIC, or its exact Gaussian-rational value."""
    return p if p is SYMBOLIC else GaussianRational.coerce(p)


def cache_state():
    """(coupling entries, structure-constant entries) currently memoized."""
    return _quantum_cg.cache_info().currsize, _lambda_coeff.cache_info().currsize


def _cg_exact_parts(dI, dJ, dK, dm, dn, dp, order):
    """(sign, exact rational jet, radicand jet) of the coupling coefficient."""
    I_m = (dI - dm) // 2
    sign = -1 if I_m % 2 else 1

    exponent = (
        Fraction(dm, 2) * (Fraction(dp, 2) + 1)
        + Fraction(dJ, 4) * (Fraction(dJ, 2) + 1)
        - Fraction(dI, 4) * (Fraction(dI, 2) + 1)
        - Fraction(dK, 4) * (Fraction(dK, 2) + 1)
    )
    prefactor = q_power(exponent, order)

    radicand = q_dim(dK, order)
    for arg in (
        (dI + dJ - dK) // 2,
        (dI - dm) // 2,
        (dJ - dn) // 2,
        (dK - dp) // 2,
        (dK + dp) // 2,
    ):
        radicand = radicand * q_factorial(arg, order)
    denom = constant_series(1, order)
    for arg in (
        (dK + dJ - dI) // 2,
        (dI + dK - dJ) // 2,
        (dI + dJ + dK) // 2 + 1,
        (dI + dm) // 2,
        (dJ + dn) // 2,
    ):
        denom = denom * q_factorial(arg, order)
    radicand = radicand * denom.inverse()

    v_lo = max(0, (dK - dJ - dm) // 2)
    v_hi = min((dK - dp) // 2, (dI - dm) // 2)
    total = constant_series(0, order)
    for V in range(v_lo, v_hi + 1):
        term = q_power(V * ((dK + dp) // 2 + 1), order)
        if V % 2:
            term = -term
        num_args = ((dI + dm) // 2 + V, (dJ + dK - dm) // 2 - V)
        den_args = (V, (dK - dp) // 2 - V, (dI - dm) // 2 - V, (dJ - dK + dm) // 2 + V)
        for arg in num_args:
            term = term * q_factorial(arg, order)
        dd = constant_series(1, order)
        for arg in den_args:
            dd = dd * q_factorial(arg, order)
        term = term * dd.inverse()
        total = total + term
    return sign, prefactor * total, radicand


def quantum_cg(dI, dJ, dK, dm, dn, dp, order) -> TruncatedSeries:
    """Coupling coefficient of (I, m) (x) (J, n) -> (K, p), doubled labels.

    Zero unless m + n = p, each index is in range, and the triangle
    condition holds.  Returns a BigComplex jet at the current precision.
    """
    return _quantum_cg(dI, dJ, dK, dm, dn, dp, order, mpmath.mp.dps)


@memoized
def _quantum_cg(dI, dJ, dK, dm, dn, dp, order, dps):
    if not (
        _is_spin_index(dI, dm)
        and _is_spin_index(dJ, dn)
        and _is_spin_index(dK, dp)
        and dm + dn == dp
        and _triangle(dI, dJ, dK)
    ):
        return series_to_big(constant_series(0, order))
    sign, exact, radicand = _cg_exact_parts(dI, dJ, dK, dm, dn, dp, order)
    root = sqrt_series(series_to_big(radicand))
    return series_to_big(exact) * root * sign


@memoized
def _decoupling_block(dJ, dK, dx, order, dps):
    """Inverse of the coupling block at total weight x for J (x) K.

    Rows of the coupling block are weight pairs (n, p) with n + p = x, the
    columns are the admissible total spins I; representation theory makes
    the block square, and its classical limit is an orthogonal matrix, so
    the jet inverse exists.  Keyed off (J, K, x); returns (pairs, spins,
    inverse rows) with inverse[(I-row)][(n,p)-column] jets.
    """
    pairs = [
        (dn, dx - dn)
        for dn in range(-dJ, dJ + 1, 2)
        if _is_spin_index(dK, dx - dn)
    ]
    spins = [
        dI
        for dI in range(abs(dJ - dK), dJ + dK + 1, 2)
        if _is_spin_index(dI, dx)
    ]
    if len(pairs) != len(spins):
        raise InternalConsistencyError(
            "coupling block is not square; label bookkeeping is wrong"
        )
    if not pairs:
        return (), (), ()
    M = [
        [quantum_cg(dJ, dK, dI, dn, dp, dx, order) for dI in spins]
        for (dn, dp) in pairs
    ]
    inv = jet_matrix_inverse(M, order)
    return tuple(pairs), tuple(spins), tuple(tuple(row) for row in inv)


def quantum_cg_decoupling(dI, dJ, dK, dm, dn, dp, order) -> TruncatedSeries:
    """Decoupling coefficient of (I, m) -> (J, n) (x) (K, p): zero unless
    n + p = m.  The exact inverse of the coupling matrix for J (x) K, so
    the completeness relations hold by construction (the classical limit
    is the transpose, but beyond order zero the coupling block is no
    longer orthogonal)."""
    if not (
        _is_spin_index(dI, dm)
        and _is_spin_index(dJ, dn)
        and _is_spin_index(dK, dp)
        and dn + dp == dm
        and _triangle(dI, dJ, dK)
    ):
        return series_to_big(constant_series(0, order))
    pairs, spins, inv = _decoupling_block(dJ, dK, dm, order, mpmath.mp.dps)
    return inv[spins.index(dI)][pairs.index((dn, dp))]


# ---------------------------------------------------------------------------
# Symbolic p: jets of polynomials in p with mpc coefficients
# ---------------------------------------------------------------------------


def _q_power_p_symbolic(d_sigma: int, order: int) -> TruncatedSeries:
    """q^{2 sigma p} = e^{sigma p h} as a jet of polynomials in p."""
    sigma = Fraction(d_sigma, 2)
    zero = to_big(0)
    coeffs = []
    fact = 1
    for k in range(order + 1):
        if k:
            fact *= k
        coeffs.append(ParamPolynomial([zero] * k + [to_big(sigma**k) / fact]))
    return TruncatedSeries(order, coeffs)


def _lambda_terms(dA, dB, dC, dD, order):
    """The sigma-sum skeleton: [(d_sigma, decoupling * coupling jet), ...]."""
    out = []
    lo = -min(dB, dC)
    for d_sigma in range(lo, min(dB, dC) + 1):
        if (d_sigma - dC) % 2 or (d_sigma - dB) % 2:
            continue
        left = quantum_cg_decoupling(dA, dC, dB, 0, d_sigma, -d_sigma, order)
        if left.is_zero():
            continue
        right = quantum_cg(dB, dC, dD, -d_sigma, d_sigma, 0, order)
        if right.is_zero():
            continue
        out.append((d_sigma, left * right))
    return out


def lambda_coeff(dA, dB, dC, dD, p, order) -> TruncatedSeries:
    """Structure constant Lambda^{A B C}_D(p).

    Sum over sigma of decoupling(A -> C, B) q^{2 sigma p} coupling(B, C -> D)
    column weights.  ``p`` is any Gaussian-rational (complex values allowed),
    giving a BigComplex jet, or SYMBOLIC, giving a jet of polynomials in p
    with mpc coefficients.
    """
    return _lambda_coeff(dA, dB, dC, dD, _p_key(p), order, mpmath.mp.dps)


def lambda_coeff_symbolic(dA, dB, dC, dD, order) -> TruncatedSeries:
    """Lambda^{A B C}_D with p left symbolic: a jet of polynomials in p."""
    return lambda_coeff(dA, dB, dC, dD, SYMBOLIC, order)


@memoized
def _lambda_coeff(dA, dB, dC, dD, p, order, dps):
    symbolic = p is SYMBOLIC
    zero = ParamPolynomial() if symbolic else to_big(0)
    total = TruncatedSeries(order, [zero] * (order + 1))
    for d_sigma, pair in _lambda_terms(dA, dB, dC, dD, order):
        if symbolic:
            pair = pair.map_coeffs(lambda c: ParamPolynomial([c]))
            weight = _q_power_p_symbolic(d_sigma, order)
        else:
            weight = series_to_big(exp_scaled(Fraction(d_sigma, 2) * p, order))
        total = total + pair * weight
    return total
