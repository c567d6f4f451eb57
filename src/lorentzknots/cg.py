"""Quantum Clebsch-Gordan coefficients and the balanced structure constants.

All spin labels are passed as doubled integers so that half-integer spins
stay exact, and every value is exact.  A coupling coefficient splits into a
sign from the e^{i pi (I - m)} and (-1)^V phases (doubled-integer parity,
never floating trig), an exact rational jet (the q-power prefactor and the
alternating V-sum), and the square root of an exact rational jet R(h) of
quantum factorials.  R's constant term c0, the classical radicand, is a
positive rational and R/c0 has constant term 1, so sqrt(R/c0) is a rational
jet: the coefficient is a :class:`RootJet`, sqrt(c0) times a rational jet.
Coupling coefficients do not depend on p and are real, so all of this runs
on the integer jets of :mod:`lorentzknots.series`, the denominators as
memoized inverse q-factorial jets.  The swap symmetry C(I, J, K; m, n, p)(q)
= (-1)^{I+J-K} C(J, I, K; n, m, p)(1/q) (Kirillov-Reshetikhin) serves the
coefficients with (J, n) < (I, m) from their partner: same radicand, h -> -h.

For real q the coupling matrices are orthogonal (Kirillov-Reshetikhin), so
the decoupling coefficient is the transposed coupling coefficient; the
tests check both completeness relations exactly.  Products of root jets
multiply radicands; sums (over sigma in Lambda, over the internal spin in
the dual-generator action) only ever add terms whose radicands differ by a
rational square, which :meth:`RootJet.scaled` checks exactly.

The structure constants Lambda^{ABC}_D(p) of the balanced representation
combine a decoupling and a coupling coefficient with q^{2 sigma p} weights.
They are computed at real p only, as integer jets too, and they are all
the braid walk of :mod:`lorentzknots.qlorentz` uses.  p enters only
through those weights, e^{sigma p h}: the sigma terms are kept once, over
one radicand, and each p only weights and adds them.  So the h^k
coefficient of a structure constant, or of a braid sum, has degree <= k in p;
:func:`series_at` turns a computation at real p into one at any p by
fitting it through real nodes.  The symbolic structure constants, and the
braid sums and the closed trefoil sum at complex or symbolic p, are all
such fits.  The closed forms for spin-1/2 columns certify the convention
end to end.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalConsistencyError
from .polynomials import interpolate_series, specialize
from .scalars import GaussianRational, rational_sqrt
from .series import (
    TruncatedSeries,
    _q_factorial_jet,
    _q_integer_jet,
    _q_inverse_factorial_jet,
    _q_power_jet,
    _require_order,
    clear_caches,
    jet_add,
    jet_constant,
    jet_mul,
    jet_neg,
    jet_scale,
    jet_series,
    jet_sqrt,
    memoized,
)

__all__ = [
    "SYMBOLIC",
    "RootJet",
    "series_at",
    "quantum_cg",
    "quantum_cg_decoupling",
    "lambda_coeff",
    "lambda_coeff_symbolic",
    "clear_caches",
    "cache_state",
]


class RootJet:
    """The exact jet sqrt(radicand) * value: ``radicand`` is a positive
    rational, ``value`` an integer jet and ``jet`` the value as a
    TruncatedSeries."""

    __slots__ = ("radicand", "value")

    def __init__(self, radicand, value):
        self.radicand = Fraction(radicand)
        self.value = value

    @property
    def jet(self) -> TruncatedSeries:
        return jet_series(self.value)

    def __mul__(self, other: "RootJet") -> "RootJet":
        return RootJet(self.radicand * other.radicand, jet_mul(self.value, other.value))

    def is_zero(self) -> bool:
        return not any(self.value[0])

    def scaled(self, square=1, labels=()):
        """sqrt(square) times the value, which must be rational, as an
        integer jet; InternalConsistencyError naming ``labels`` otherwise."""
        if self.is_zero():
            return self.value
        try:
            root = rational_sqrt(self.radicand * square)
        except ValueError:
            raise InternalConsistencyError(
                f"radicand {self.radicand * square} at labels {labels} is not "
                "the square of a rational"
            ) from None
        return jet_scale(self.value, root)

    def rational(self, square=1, labels=()) -> TruncatedSeries:
        """sqrt(square) times the value, a jet that must be rational
        (see :meth:`scaled`), as a TruncatedSeries."""
        return jet_series(self.scaled(square, labels))

    def __eq__(self, other):
        if not isinstance(other, RootJet):
            return NotImplemented
        try:
            ratio = rational_sqrt(self.radicand / other.radicand)
        except ValueError:
            return self.is_zero() and other.is_zero()
        return other.value == jet_scale(self.value, ratio)

    __hash__ = None

    def __repr__(self):
        return f"RootJet(radicand={self.radicand}, jet={self.jet!r})"


def _is_spin_index(dj: int, dm: int) -> bool:
    """Y(j, m): m runs through -j..j in integer steps."""
    return abs(dm) <= dj and (dj - dm) % 2 == 0


def _triangle(da: int, db: int, dc: int) -> bool:
    """Y(a, b, c): a appears in the decomposition of b (x) c."""
    return abs(db - dc) <= da <= db + dc and (da + db + dc) % 2 == 0


def _require_labels(**labels):
    """TypeError naming a label that is not an int: 2.0 shares the memo key
    of 2."""
    for name, value in labels.items():
        if not isinstance(value, int):
            raise TypeError(f"doubled label {name} must be an int, got {value!r}")


# The value of ``p`` that leaves it symbolic.
SYMBOLIC = "symbolic"


def cache_state():
    """(coupling entries, structure-constant entries) currently memoized."""
    return _quantum_cg.cache_info().currsize, _lambda_coeff.cache_info().currsize


def real_point(p):
    """``p`` as a Fraction when it is a real number; None when it is complex
    or SYMBOLIC."""
    if p == SYMBOLIC:
        return None
    p = GaussianRational.coerce(p)
    return None if p.im else p.re


def series_at(p, order, jet_at, context):
    """The value at ``p`` of a jet whose h^k coefficient has degree <= k in
    p, from ``jet_at(x)``, its integer jet at a real x: at real p that jet,
    else the exact fit of the jets at p = 1..order+3 (``interpolate_series``,
    whose error names ``context``), specialised unless p is SYMBOLIC."""
    real = real_point(p)
    if real is not None:
        return jet_series(jet_at(real))
    nodes = range(1, order + 4)
    samples = [jet_series(jet_at(x)) for x in nodes]
    fit = interpolate_series(
        nodes, samples, context, "p =", "p enters only through e^{sigma p h}"
    )
    return fit if p == SYMBOLIC else specialize(fit, p)


def _cg_exact_parts(dI, dJ, dK, dm, dn, dp, order):
    """(signed exact rational jet, radicand jet) of the coupling
    coefficient, as integer jets."""
    # 8 (m (p + 1) + J (J + 1)/2 - I (I + 1)/2 - K (K + 1)/2), the q-power
    e8 = 2 * dm * (dp + 2) + dJ * (dJ + 2) - dI * (dI + 2) - dK * (dK + 2)
    prefactor = _q_power_jet(Fraction(e8, 8), order)
    if ((dI - dm) // 2) % 2:
        prefactor = jet_neg(prefactor)

    radicand = _q_integer_jet(dK + 1, order)
    for arg in (
        (dI + dJ - dK) // 2,
        (dI - dm) // 2,
        (dJ - dn) // 2,
        (dK - dp) // 2,
        (dK + dp) // 2,
    ):
        radicand = jet_mul(radicand, _q_factorial_jet(arg, order))
    for arg in (
        (dK + dJ - dI) // 2,
        (dI + dK - dJ) // 2,
        (dI + dJ + dK) // 2 + 1,
        (dI + dm) // 2,
        (dJ + dn) // 2,
    ):
        radicand = jet_mul(radicand, _q_inverse_factorial_jet(arg, order))

    v_lo = max(0, (dK - dJ - dm) // 2)
    v_hi = min((dK - dp) // 2, (dI - dm) // 2)
    total = jet_constant(0, order)
    for V in range(v_lo, v_hi + 1):
        term = _q_power_jet(V * ((dK + dp) // 2 + 1), order)
        if V % 2:
            term = jet_neg(term)
        for arg in ((dI + dm) // 2 + V, (dJ + dK - dm) // 2 - V):
            term = jet_mul(term, _q_factorial_jet(arg, order))
        for arg in (V, (dK - dp) // 2 - V, (dI - dm) // 2 - V, (dJ - dK + dm) // 2 + V):
            term = jet_mul(term, _q_inverse_factorial_jet(arg, order))
        total = jet_add(total, term)
    return jet_mul(prefactor, total), radicand


def quantum_cg(dI, dJ, dK, dm, dn, dp, order) -> RootJet:
    """Coupling coefficient of (I, m) (x) (J, n) -> (K, p), doubled labels.

    Zero unless m + n = p, each index is in range, and the triangle
    condition holds.  Returns sign * sqrt(c0) * (rational jet) as a RootJet
    with radicand c0, the classical radicand, and an integer-jet value.
    ``order`` (ValueError) and labels (TypeError) are checked before lookup.
    """
    _require_order(order)
    _require_labels(dI=dI, dJ=dJ, dK=dK, dm=dm, dn=dn, dp=dp)
    return _quantum_cg(dI, dJ, dK, dm, dn, dp, order)


@memoized
def _quantum_cg(dI, dJ, dK, dm, dn, dp, order) -> RootJet:
    if not (
        _is_spin_index(dI, dm)
        and _is_spin_index(dJ, dn)
        and _is_spin_index(dK, dp)
        and dm + dn == dp
        and _triangle(dI, dJ, dK)
    ):
        return RootJet(1, jet_constant(0, order))
    if (dJ, dn) < (dI, dm):
        # the swap symmetry (module docstring); q -> 1/q is h -> -h
        partner = _quantum_cg(dJ, dI, dK, dn, dm, dp, order)
        (nums, den), sign = partner.value, (-1) ** ((dI + dJ - dK) // 2)
        nums = tuple(c * sign * (-1) ** k for k, c in enumerate(nums))
        return RootJet(partner.radicand, (nums, den))
    exact, radicand = _cg_exact_parts(dI, dJ, dK, dm, dn, dp, order)
    nums, den = radicand
    c0 = Fraction(nums[0], den)
    root = jet_sqrt(jet_scale(radicand, 1 / c0))
    return RootJet(c0, jet_mul(exact, root))


def quantum_cg_decoupling(dI, dJ, dK, dm, dn, dp, order) -> RootJet:
    """Decoupling coefficient of (I, m) -> (J, n) (x) (K, p): zero unless
    n + p = m.  The coupling matrices are orthogonal, so this is the
    transposed coupling coefficient of (J, n) (x) (K, p) -> (I, m); the
    tests check both completeness relations."""
    _require_labels(dI=dI, dJ=dJ, dK=dK, dm=dm, dn=dn, dp=dp)
    return quantum_cg(dJ, dK, dI, dn, dp, dm, order)


# ---------------------------------------------------------------------------
# Structure constants
# ---------------------------------------------------------------------------


@memoized
def _lambda_terms(dA, dB, dC, dD, order):
    """The p-free part of Lambda^{A B C}_D: (radicand, ((d_sigma, jet), ...)),
    the products decoupling(A -> C, B) coupling(B, C -> D) that do not
    truncate to zero, as integer jets over the first one's radicand."""
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
        term = left * right
        if not term.is_zero():
            terms.append((d_sigma, term))
    radicand = terms[0][1].radicand if terms else Fraction(1)
    labels = ("Lambda", dA, dB, dC, dD)
    return radicand, tuple((ds, t.scaled(1 / radicand, labels)) for ds, t in terms)


def lambda_coeff(dA, dB, dC, dD, p, order) -> RootJet:
    """Structure constant Lambda^{A B C}_D(p) at real p (ValueError
    otherwise; see :func:`lambda_coeff_symbolic`).

    Sum over sigma of q^{2 sigma p} decoupling(A -> C, B) coupling(B, C ->
    D) column weights, as a RootJet: every sigma term has the same radical,
    so only the weights are computed per p (see :func:`_lambda_terms`).
    ``order`` (ValueError) and labels (TypeError) are checked before lookup.
    """
    _require_order(order)
    _require_labels(dA=dA, dB=dB, dC=dC, dD=dD)
    return _lambda_coeff(dA, dB, dC, dD, p, order)


@memoized
def _lambda_coeff(dA, dB, dC, dD, p, order) -> RootJet:
    real = real_point(p)
    if real is None:
        raise ValueError(f"lambda_coeff needs a real p, not {p}")
    radicand, terms = _lambda_terms(dA, dB, dC, dD, order)
    total = jet_constant(0, order)
    for d_sigma, term in terms:
        total = jet_add(total, jet_mul(_q_power_jet(d_sigma * real, order), term))
    return RootJet(radicand, total)


def lambda_coeff_symbolic(dA, dB, dC, dD, order):
    """Lambda^{A B C}_D with p left symbolic, as (radicand, PolySeries): the
    radicand of its p-free sigma terms (:func:`_lambda_terms`), which every
    real-p value shares, and the fit (``series_at``) of its real-p values."""
    _require_order(order)
    _require_labels(dA=dA, dB=dB, dC=dC, dD=dD)
    radicand, _ = _lambda_terms(dA, dB, dC, dD, order)
    fit = series_at(
        SYMBOLIC,
        order,
        lambda x: lambda_coeff(dA, dB, dC, dD, x, order).value,
        f"structure constant {('Lambda', dA, dB, dC, dD)}",
    )
    return radicand, fit
