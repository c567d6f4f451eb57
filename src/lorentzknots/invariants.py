"""Two-parameter knot invariants from paired spin expansions.

The invariant X(m, p, K) is assembled from the interpolated spin expansion:
substitute z = (p-1+m)/2 into the mirror knot's expansion and
w = (p-1-m)/2 into the knot's own, and multiply.  The mirror's expansion is
the knot's own at -h, J_{K*}(q) = J_K(1/q), so only the knot is walked.  For
m = 0 every h-order is an even polynomial in p of degree at most twice the
order, vanishing at p = 1 beyond order zero.

The cross-pipeline comparison divides out the square of the quantum
dimension at spin (p-1)/2 against the ordinary dimension squared and
checks the braid-sum side for exact equality, at an integer p or with p
symbolic.
"""

from __future__ import annotations

from fractions import Fraction

from .braids import BraidWord, _Record, mirror
from .errors import InternalConsistencyError
from .jones import jones_z_interpolated, jones_zero_framed
from .polynomials import PolySeries, specialize
from .qlorentz import SYMBOLIC, braid_sum
from .series import TruncatedSeries, q_dim

__all__ = [
    "LorentzInvariant",
    "x_invariant",
    "equivalence_check",
    "jones_relation_check",
]


class LorentzInvariant(_Record):
    """PolySeries in p for fixed minimal spin m, at zero framing."""

    __slots__ = ("m", "series")

    def __init__(self, m: int, series: PolySeries):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "series", series)

    def check_structure(self):
        """Degree, parity and trivial-representation constraints.

        Raises InternalConsistencyError if an h^n coefficient exceeds
        degree 2n in p, if an m = 0 coefficient is not even in p, or if a
        positive-order coefficient fails to vanish at p = 1 when m = 0.
        """
        for n, poly in enumerate(self.series.coeffs):
            if poly.degree() > 2 * n:
                raise InternalConsistencyError(
                    f"h^{n} coefficient has p-degree {poly.degree()} > {2 * n}"
                )
            if self.m == 0:
                if not poly.is_even():
                    raise InternalConsistencyError(
                        f"h^{n} coefficient not even in p at minimal spin 0"
                    )
                if n > 0 and poly.evaluate(1) != 0:
                    raise InternalConsistencyError(
                        f"h^{n} coefficient nonzero at p = 1"
                    )
        return self


def _at_spin(coeffs, shift: int, order: int) -> PolySeries:
    """A spin expansion's h-coefficients at z = (p + shift)/2."""
    half = Fraction(1, 2)
    return TruncatedSeries(order, [c.compose_affine(half, half * shift) for c in coeffs])


def x_invariant(b: BraidWord, m: int, order: int) -> LorentzInvariant:
    """X(m, p, .) of the braid closure at zero framing, exact in p.

    The mirror factor is the knot's expansion at -h.  Criterion 5,
    ``jones_relation_check`` and ``test_jones.py::test_mirror_is_the_reflection*``
    check that identity against the mirror braid's own crossings.
    """
    if not isinstance(m, int):
        raise ValueError("minimal spin must be an integer here")
    plain = jones_z_interpolated(b, order).coeffs
    star = [-poly if n % 2 else poly for n, poly in enumerate(plain)]
    return LorentzInvariant(m, _at_spin(star, m - 1, order) * _at_spin(plain, -m - 1, order))


def _unknot_at_w(order: int) -> PolySeries:
    """U(p), the unknot's spin expansion at z = (p-1)/2; it equals [p]/p."""
    return _at_spin(jones_z_interpolated(BraidWord(1), order).coeffs, -1, order)


def equivalence_check(b: BraidWord, p, order: int) -> dict:
    """Compare the braid sum with the rescaled m = 0 invariant.

    At an integer p >= 1 the braid-sum side is S_b; the invariant side is
    X(0, p) times (2*alpha+1)^2 / [2*alpha+1]^2 with alpha = (p-1)/2, and
    the coefficients are reported as [re_num, re_den, im_num, im_den].  At
    ``p = SYMBOLIC`` the same identity is checked as one identity of jets of
    polynomials in p: S_b(p) U(p)^2 = X(0, p), with U(p) = [p]/p the
    unknot's expansion at z = (p-1)/2; the coefficients are reported as
    polynomials.  Both sides are exact, and the check passes iff they are
    equal.  Any other p (below 1, not an int, complex) raises ValueError.
    """
    if p == SYMBOLIC:
        unknot = _unknot_at_w(order)
        lhs = braid_sum(b, SYMBOLIC, order) * unknot * unknot
        rhs = x_invariant(b, 0, order).series
    else:
        if not isinstance(p, int) or p < 1:
            raise ValueError("the comparison needs integer p >= 1 or p = SYMBOLIC")
        lhs = braid_sum(b, p, order)
        qd = q_dim(p - 1, order)
        rhs = specialize(x_invariant(b, 0, order).series, p) * (p * p) / (qd * qd)
    return {
        "braid": b.text() or "empty",
        "p": p,
        "order": order,
        "lhs": [c.to_json() for c in lhs.coeffs],
        "rhs": [c.to_json() for c in rhs.coeffs],
        "pass": lhs == rhs,
    }


def jones_relation_check(b: BraidWord, two_z: int, two_w: int, order: int) -> dict:
    """Verify the product identity at a concrete half-integer spin pair.

    The invariant specialized at (m, p) = (z - w, z + w + 1) must equal the
    product of the mirror expansion at spin z with the plain expansion at
    spin w, both sampled directly (no interpolation), the mirror's from its
    own crossings: the pointwise check of the reflection in ``x_invariant``.
    """
    if (two_z - two_w) % 2:
        raise ValueError("z - w must be an integer")
    m = (two_z - two_w) // 2
    p = Fraction(two_z + two_w + 2, 2)
    direct = jones_zero_framed(mirror(b), two_z, order) * jones_zero_framed(
        b, two_w, order
    )
    if m >= 0:
        inv = x_invariant(b, m, order)
        via_x = specialize(inv.series, p)
    else:
        # X(m, p) = X(-m, -p): the representations coincide
        inv = x_invariant(b, -m, order)
        via_x = specialize(inv.series, -p)
    matches = via_x == direct
    return {
        "braid": b.text() or "empty",
        "two_z": two_z,
        "two_w": two_w,
        "m": m,
        "pass": bool(matches),
        "via_product": [c.to_json() for c in direct.coeffs],
        "via_invariant": [c.to_json() for c in via_x.coeffs],
    }
