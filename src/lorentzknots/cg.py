"""Quantum Clebsch-Gordan coefficients and the balanced structure constants.

All spin labels are passed as doubled integers so that half-integer spins
stay exact, and every value is exact.  A coupling coefficient splits into a
sign from the e^{i pi (I - m)} and (-1)^V phases (doubled-integer parity,
never floating trig), an exact rational jet (the q-power prefactor and the
alternating V-sum), and the square root of an exact rational jet R(h) of
quantum factorials.  R's constant term c0, the classical radicand, is a
positive rational and R/c0 has constant term 1, so sqrt(R/c0) is a rational
jet: the coefficient is a :class:`RootJet`, sqrt(c0) times a rational jet.

For real q the coupling matrices are orthogonal (Kirillov-Reshetikhin), so
the decoupling coefficient is the transposed coupling coefficient; the
tests check both completeness relations exactly.  Products of root jets
multiply radicands; sums (over sigma in Lambda, over the internal spin in
the dual-generator action) only ever add terms whose radicands differ by a
rational square, which :meth:`RootJet.rational` checks exactly.

The structure constants Lambda^{ABC}_D(p) of the balanced representation
combine a decoupling and a coupling coefficient with q^{2 sigma p} weights;
``p`` may be an exact numeric value (Gaussian rational) or symbolic, in
which case coefficients are polynomials in p.  The closed forms for
spin-1/2 columns certify the convention end to end.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalConsistencyError
from .polynomials import poly_variable
from .scalars import rational_sqrt
from .series import (
    TruncatedSeries,
    clear_caches,
    constant_series,
    exp_scaled,
    memoized,
    q_dim,
    q_factorial,
    q_power,
    sqrt_series,
)

__all__ = [
    "SYMBOLIC",
    "RootJet",
    "quantum_cg",
    "quantum_cg_decoupling",
    "lambda_coeff",
    "lambda_coeff_symbolic",
    "clear_caches",
    "cache_state",
]


class RootJet:
    """The exact jet sqrt(radicand) * jet.

    ``radicand`` is a positive rational; ``jet`` has Gaussian-rational
    coefficients, or polynomials in p over them.
    """

    __slots__ = ("radicand", "jet")

    def __init__(self, radicand, jet: TruncatedSeries):
        self.radicand = Fraction(radicand)
        self.jet = jet

    def __mul__(self, other: "RootJet") -> "RootJet":
        return RootJet(self.radicand * other.radicand, self.jet * other.jet)

    def is_zero(self) -> bool:
        return self.jet.is_zero()

    def rational(self, square=1, labels=()) -> TruncatedSeries:
        """sqrt(square) times the value, a jet that must be rational.

        Raises InternalConsistencyError naming ``labels`` when
        radicand * square is not the square of a rational.
        """
        if self.jet.is_zero():
            return self.jet
        try:
            root = rational_sqrt(self.radicand * square)
        except ValueError:
            raise InternalConsistencyError(
                f"radicand {self.radicand * square} at labels {labels} is not "
                "the square of a rational"
            ) from None
        return self.jet * root

    def __eq__(self, other):
        if not isinstance(other, RootJet):
            return NotImplemented
        try:
            ratio = rational_sqrt(self.radicand / other.radicand)
        except ValueError:
            return self.is_zero() and other.is_zero()
        return other.jet == self.jet * ratio

    __hash__ = None

    def __repr__(self):
        return f"RootJet(radicand={self.radicand}, jet={self.jet!r})"


def _root_sum(terms, zero: TruncatedSeries, labels) -> RootJet:
    """Sum of root jets whose radicands differ by rational squares."""
    terms = [t for t in terms if not t.is_zero()]
    if not terms:
        return RootJet(1, zero)
    radicand = terms[0].radicand
    total = terms[0].jet
    for term in terms[1:]:
        total = total + term.rational(1 / radicand, labels)
    return RootJet(radicand, total)


def _is_spin_index(dj: int, dm: int) -> bool:
    """Y(j, m): m runs through -j..j in integer steps."""
    return abs(dm) <= dj and (dj - dm) % 2 == 0


def _triangle(da: int, db: int, dc: int) -> bool:
    """Y(a, b, c): a appears in the decomposition of b (x) c."""
    return abs(db - dc) <= da <= db + dc and (da + db + dc) % 2 == 0


# The value of ``p`` that leaves it symbolic.
SYMBOLIC = "symbolic"


def cache_state():
    """(coupling entries, structure-constant entries) currently memoized."""
    return quantum_cg.cache_info().currsize, lambda_coeff.cache_info().currsize


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


@memoized
def quantum_cg(dI, dJ, dK, dm, dn, dp, order) -> RootJet:
    """Coupling coefficient of (I, m) (x) (J, n) -> (K, p), doubled labels.

    Zero unless m + n = p, each index is in range, and the triangle
    condition holds.  Returns sign * sqrt(c0) * (rational jet) as a RootJet
    with radicand c0, the classical radicand.
    """
    if not (
        _is_spin_index(dI, dm)
        and _is_spin_index(dJ, dn)
        and _is_spin_index(dK, dp)
        and dm + dn == dp
        and _triangle(dI, dJ, dK)
    ):
        return RootJet(1, constant_series(0, order))
    sign, exact, radicand = _cg_exact_parts(dI, dJ, dK, dm, dn, dp, order)
    c0 = radicand.coeffs[0]
    root = sqrt_series(radicand * (1 / c0))
    return RootJet(c0.re, exact * root * sign)


def quantum_cg_decoupling(dI, dJ, dK, dm, dn, dp, order) -> RootJet:
    """Decoupling coefficient of (I, m) -> (J, n) (x) (K, p): zero unless
    n + p = m.  The coupling matrices are orthogonal, so this is the
    transposed coupling coefficient of (J, n) (x) (K, p) -> (I, m); the
    tests check both completeness relations."""
    return quantum_cg(dJ, dK, dI, dn, dp, dm, order)


# ---------------------------------------------------------------------------
# Symbolic p: jets of polynomials in p
# ---------------------------------------------------------------------------


@memoized
def lambda_coeff(dA, dB, dC, dD, p, order) -> RootJet:
    """Structure constant Lambda^{A B C}_D(p).

    Sum over sigma of q^{2 sigma p} decoupling(A -> C, B) coupling(B, C ->
    D) column weights, as a RootJet: every sigma term has the same radical.
    ``p`` is any Gaussian rational (complex values allowed), giving a jet
    over Q(i), or SYMBOLIC, giving a jet of polynomials in p.
    """
    rate = poly_variable() if p == SYMBOLIC else p
    terms = []
    for d_sigma in range(-min(dB, dC), min(dB, dC) + 1):
        if (d_sigma - dC) % 2 or (d_sigma - dB) % 2:
            continue
        left = quantum_cg_decoupling(dA, dC, dB, 0, d_sigma, -d_sigma, order)
        if left.is_zero():
            continue
        right = quantum_cg(dB, dC, dD, -d_sigma, d_sigma, 0, order)
        if right.is_zero():
            continue
        weight = exp_scaled(Fraction(d_sigma, 2) * rate, order)
        terms.append(RootJet(1, weight) * left * right)
    return _root_sum(terms, constant_series(0, order), ("Lambda", dA, dB, dC, dD))


def lambda_coeff_symbolic(dA, dB, dC, dD, order) -> RootJet:
    """Lambda^{A B C}_D with p left symbolic: a jet of polynomials in p."""
    return lambda_coeff(dA, dB, dC, dD, SYMBOLIC, order)
