"""Coloured Jones engine: braid action on quantum spin modules, h-adically.

The spin-alpha module of the q-deformed sl2 (q = e^{h/2}) carries the
standard braiding; a braid whose closure is a knot is evaluated as a
(1,1)-tangle: apply the braid operator on the tensor power, weight every
strand but the first with the group-like element q^{2 J_z}, take the partial
trace over those strands, and read off the scalar multiple of the identity.
Only the columns of diagonal entries 0 and 1 are walked, and the two entries
are asserted equal order by order; the tests compare the full diagonal.
Against the plain swap, a braiding term that moves n lowering steps moves
the state by L1 distance 2n and carries h-valuation >= n, so a column c
whose distance sum_i |c_i - c_{pi(i)}| from its image under the braid's
permutation pi exceeds 2*order has a zero diagonal entry through h^order
and is not walked (``_closable``); the tests walk it.  The
returned normalization is the framed invariant divided by the ordinary
dimension 2*alpha + 1, at blackboard (writhe) framing.

The two-variable expansion in (spin z, h) at zero framing comes from the
samples at the smallest half-integer spins.  f kinks multiply the invariant
by the closed-form q-power q^{f 2z(2z+2)/2} = e^{f z(z+1) h} (the tests tie
z(z+1) to twice the one-chord weight eigenvalue of the Jones tensor), and
the unknot's value is [2z+1]/(2z+1), so the zero-framed invariant divided
by the unknot's is the tangle scalar times that q-power at f = -writhe: one
integer-jet product per spin.  Its h^n coefficient has degree at most n in
z (Melvin-Morton), so each order-n expansion samples two_alpha = 0..n+2
only: the h^n coefficient of the quotient is fitted by exact Lagrange
reconstruction through the first n+1 spins, and the remaining samples (at
least two) must lie on the fit.  The top coefficients are asserted against
1/Delta(e^x), an integer jet from the Alexander polynomial
(Melvin-Morton-Rozansky), and the quotient is
multiplied back by the unknot's expansion, fitted the same way from its own
samples.

The braiding tables, both signs by one recurrence, are built from the
integer jets of :mod:`lorentzknots.series` (the q-jets) and stored over one
shared denominator per table, so the tangle walk multiplies Python-int tuples; the
group-like weights, the tangle scalar and each spin sample are integer jets
as well, converted to Gaussian-rational series only for the fit.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm

from .alexander import _inverse_alexander_jet, alexander_polynomial
from .braids import BraidWord
from .errors import InternalConsistencyError
from .polynomials import PolySeries, interpolate_series
from .series import (
    TruncatedSeries,
    _q_integer_jet,
    _q_power_jet,
    _require_order,
    accumulate,
    constant_series,
    conv,
    jet_accumulate,
    jet_add,
    jet_constant,
    jet_inverse,
    jet_mul,
    jet_neg,
    jet_scale,
    jet_series,
    memoized,
)

__all__ = [
    "SeriesOperator",
    "r_matrix",
    "jones_framed",
    "jones_zero_framed",
    "jones_z_interpolated",
]

_UNKNOT = BraidWord(1)


# ---------------------------------------------------------------------------
# Braiding tables: integer jets over a shared denominator
# ---------------------------------------------------------------------------


@memoized
def _braiding_table(two_alpha: int, order: int, sign: int):
    """Sparse braiding matrix on V (x) V as integer jets over a common den.

    Returns (table, den) with table[(r1, r2)] = ((r1', r2', coeffs), ...),
    each cell in ascending output state.  Basis index r = 0..two_alpha
    counts lowering steps from the highest weight, of doubled weight
    w(r) = two_alpha - 2r.  One loop serves both signs (Kassel, *Quantum
    Groups*, ch. VII): c = flip o q^{H(x)H/2} Theta and c^{-1} = Theta^{-1}
    q^{-H(x)H/2} o flip.  Theta^{sign} acts on (x, y) = (r1, r2), or (r2, r1)
    after the flip; its term n lands on (x - n, y + n) and is term n-1 times
    sign q^{sign(n-1)} (q - q^{-1}) [2alpha-x+n] [y+n] / [n].  The factor
    (q - q^{-1})^n makes it O(h^n), so n stops at ``order`` and no cell
    holds a zero jet; the tests check R R^{-1} = R^{-1} R = 1.
    """
    dim = two_alpha + 1
    step = jet_add(_q_power_jet(1, order), jet_neg(_q_power_jet(-1, order)))
    ratio = [None] + [
        jet_mul(
            jet_scale(jet_mul(step, _q_power_jet(sign * (n - 1), order)), sign),
            jet_inverse(_q_integer_jet(n, order)),
        )
        for n in range(1, order + 1)
    ]
    entries = {}
    for r1, r2 in product(range(dim), repeat=2):
        x, y = (r1, r2) if sign > 0 else (r2, r1)
        term = jet_constant(1, order)
        cell = []
        for n in range(min(x, two_alpha - y, order) + 1):
            if n:
                grow = jet_mul(
                    _q_integer_jet(two_alpha - x + n, order), _q_integer_jet(y + n, order)
                )
                term = jet_mul(jet_mul(term, ratio[n]), grow)
            a, b = x - n, y + n
            # the weight factor q^{sign w w'/2}: at the output (b, a) of the
            # positive crossing, at the input (x, y) of Theta^{-1}
            u, v, out = (a, b, (b, a)) if sign > 0 else (x, y, (a, b))
            w = Fraction(sign * (two_alpha - 2 * u) * (two_alpha - 2 * v), 2)
            cell.append((*out, jet_mul(term, _q_power_jet(w, order))))
        entries[(r1, r2)] = sorted(cell)
    den = lcm(*(jet[1] for cell in entries.values() for _, _, jet in cell))
    table = {
        key: tuple(
            (a, b, tuple(n * (den // jet[1]) for n in jet[0])) for a, b, jet in cell
        )
        for key, cell in entries.items()
    }
    return table, den


# ---------------------------------------------------------------------------
# Public operator surface
# ---------------------------------------------------------------------------


class SeriesOperator:
    """A square matrix of exact jets on a tensor-power weight basis."""

    __slots__ = ("dim", "order", "entries")

    def __init__(self, dim: int, order: int, entries):
        self.dim = dim
        self.order = order
        self.entries = {
            key: val for key, val in entries.items() if not val.is_zero()
        }

    @staticmethod
    def identity(dim: int, order: int) -> "SeriesOperator":
        one = constant_series(1, order)
        return SeriesOperator(dim, order, {(i, i): one for i in range(dim)})

    def compose(self, other: "SeriesOperator") -> "SeriesOperator":
        """self after other, truncated at the common order."""
        if self.dim != other.dim or self.order != other.order:
            raise ValueError("operator shape mismatch")
        by_col = {}
        for (row, col), val in self.entries.items():
            by_col.setdefault(col, []).append((row, val))
        out = {}
        for (mid, col), val in other.entries.items():
            for row, left in by_col.get(mid, ()):
                key = (row, col)
                term = left * val
                out[key] = out[key] + term if key in out else term
        return SeriesOperator(self.dim, self.order, out)

    def __eq__(self, other):
        if not isinstance(other, SeriesOperator):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.order == other.order
            and self.entries == other.entries
        )

    def is_identity(self) -> bool:
        return self == SeriesOperator.identity(self.dim, self.order)


def r_matrix(two_alpha: int, order: int, sign: int = 1) -> SeriesOperator:
    """The braiding on V_alpha (x) V_alpha as a SeriesOperator.

    The constant term is the flip of the classical limit: a permutation
    matrix.  ``sign=-1`` gives the inverse braiding; ``two_alpha`` and
    ``order`` must be nonnegative ints and ``sign`` must be +1 or -1.
    """
    _require_order(two_alpha, "two_alpha")
    _require_order(order)
    if not isinstance(sign, int) or sign not in (1, -1):
        raise ValueError(f"sign must be 1 or -1, got {sign!r}")
    table, den = _braiding_table(two_alpha, order, sign)
    dim = two_alpha + 1
    entries = {}
    for (r1, r2), cell in table.items():
        col = r1 * dim + r2
        for a, b, coeffs in cell:
            row = a * dim + b
            entries[(row, col)] = jet_series((coeffs, den))
    return SeriesOperator(dim * dim, order, entries)


# ---------------------------------------------------------------------------
# Tangle evaluation
# ---------------------------------------------------------------------------


def _require_inputs(b: BraidWord, order: int, two_alpha: int = 0):
    _require_order(two_alpha, "two_alpha")
    _require_order(order)
    if not b.is_knot():
        raise ValueError("closure of the braid is not a knot")


def _closable(column: tuple, perm: tuple, order: int) -> bool:
    """False when ``column`` lies farther than 2 * order in L1 from its image
    under ``perm``, so that its diagonal entry is zero through h^order."""
    return sum(abs(x - column[p]) for x, p in zip(column, perm)) <= 2 * order


def _column_entry(column: tuple, letters: tuple, tables: dict, order: int):
    """The diagonal entry of the braid operator at basis state ``column``:
    integer coefficients over the product of the table denominators, or None
    for the empty braid's unit and for an entry that no branch reaches.

    A branch whose product truncates to the zero jet is dropped, since it
    can never reach the diagonal.
    """
    vec = {column: None}  # None stands for the unit coefficient
    for idx, sign in letters:
        table, _ = tables[sign]
        out = {}
        for state, coeffs in vec.items():
            r1, r2 = state[idx - 1], state[idx]
            for a, b, entry in table[(r1, r2)]:
                new_state = state[: idx - 1] + (a, b) + state[idx + 1 :]
                if coeffs is None:
                    accumulate(out, new_state, entry)
                else:
                    term = conv(coeffs, entry, order)
                    if any(term):
                        accumulate(out, new_state, term)
        vec = out
    return vec.get(column)


@memoized
def _tangle_scalar(strands: int, letters: tuple, two_alpha: int, order: int):
    """Scalar of the (1,1)-tangle closure, as an integer jet.

    Weight conservation makes the partial trace diagonal.  The scalar is
    diagonal entry 0, summed over the columns whose first strand is in
    state 0; when two_alpha >= 1, entry 1 is summed from the columns of row
    1 and asserted equal to it, order by order.

    Columns that ``_closable`` rejects are skipped, exactly: a term with n
    lowering steps carries the factor (q - q^{-1})^n, so h-valuation >= n,
    for both signs (``_braiding_table``), and moves the state by L1 distance
    2n from the plain swap; swaps are L1 isometries, so a branch back at
    column c has valuation >= sum_i |c_i - c_{pi(i)}| / 2.  The tests compare every
    diagonal entry and see every skipped column's entry is zero.
    """
    tables = {}
    den_braid = 1
    for _, sign in letters:
        if sign not in tables:
            tables[sign] = _braiding_table(two_alpha, order, sign)
        den_braid *= tables[sign][1]

    perm = BraidWord(strands, letters).permutation()
    diag = {}
    for row in range(min(two_alpha, 1) + 1):
        for rest in product(range(two_alpha + 1), repeat=strands - 1):
            column = (row,) + rest
            if not _closable(column, perm, order):
                continue
            coeffs = _column_entry(column, letters, tables, order)
            if letters and coeffs is None:
                continue
            weight = _q_power_jet(sum(two_alpha - 2 * r for r in rest), order)
            if coeffs is not None:
                weight = jet_mul((coeffs, den_braid), weight)
            jet_accumulate(diag, row, weight)

    zero = jet_constant(0, order)
    first = diag.get(0, zero)
    if two_alpha >= 1 and diag.get(1, zero) != first:
        raise InternalConsistencyError(
            f"partial trace of the braid operator of {BraidWord(strands, letters).text()} "
            f"at 2alpha = {two_alpha}, order {order} is not a scalar: diagonal entry "
            f"1 differs from entry 0; braiding/enhancement conventions are inconsistent"
        )
    return first


def _framing_jet(two_alpha: int, order: int, framing: int):
    """The factor of ``framing`` positive kinks at spin z = two_alpha/2, as an
    integer jet: q^{framing * 2z(2z+2)/2} = e^{framing * z(z+1) h}."""
    return _q_power_jet(Fraction(framing * two_alpha * (two_alpha + 2), 2), order)


def _quotient(b: BraidWord, two_alpha: int, order: int, framing: int):
    """The invariant over the unknot's at spin two_alpha/2, at blackboard
    framing changed by ``framing`` kinks: the (1,1)-tangle scalar times the
    framing q-power, as an integer jet."""
    _require_inputs(b, order, two_alpha)
    scalar = _tangle_scalar(b.strands, b.letters, two_alpha, order)
    return jet_mul(scalar, _framing_jet(two_alpha, order, framing))


def _sample(b: BraidWord, two_alpha: int, order: int, framing: int) -> TruncatedSeries:
    """The quotient times the unknot's value [2*alpha+1]/(2*alpha+1)."""
    quotient = _quotient(b, two_alpha, order, framing)
    dim = two_alpha + 1
    value = jet_mul(quotient, _q_integer_jet(dim, order))
    return jet_series(jet_scale(value, Fraction(1, dim)))


def jones_framed(b: BraidWord, two_alpha: int, order: int) -> TruncatedSeries:
    """Framed invariant / (2*alpha+1) at blackboard framing, as an exact jet.

    The (1,1)-tangle scalar is multiplied by [2*alpha+1]/(2*alpha+1), so the
    zero-framed unknot value is the quantum dimension over the dimension.
    """
    return _sample(b, two_alpha, order, 0)


def jones_zero_framed(b: BraidWord, two_alpha: int, order: int) -> TruncatedSeries:
    """The framed invariant corrected to zero framing."""
    return _sample(b, two_alpha, order, -b.writhe())


def _fit_spins(b: BraidWord, samples) -> PolySeries:
    """Fit the h^n coefficient of ``samples`` (sample k at spin k/2) at
    degree <= n in the spin through the first n+1 spins, and require every
    later sample to lie on the fit."""
    return interpolate_series(
        [Fraction(k, 2) for k in range(len(samples))], samples,
        f"spin expansion of {b}", "spin", "Melvin-Morton bound",
    )


@memoized
def _unknot_expansion(order: int) -> PolySeries:
    """The unknot's spin expansion, from its own samples at two_alpha =
    0..2*order+2.

    Its h^n coefficient, that of sinh(Nh/2)/(N sinh(h/2)), has degree n in
    N = 2z+1 as well, so the same fit applies; the samples cost next to
    nothing, so it keeps the 2*order+3 of a degree-2n fit, which leaves
    order+2 surplus spins at the top power.
    """
    samples = [jones_zero_framed(_UNKNOT, k, order) for k in range(2 * order + 3)]
    return _fit_spins(_UNKNOT, samples)


def _check_mmr_diagonal(b: BraidWord, normalized: PolySeries, order: int):
    """The N^n coefficient of the h^n term of J/J(unknot), N = 2z+1, is the
    h^n coefficient of 1/Delta(e^h) (Melvin-Morton-Rozansky).

    The fit bounds the h^n term at degree n in z = (N-1)/2, so its N^n
    coefficient is its z^n coefficient over 2^n; 1/Delta(e^h) is an integer
    jet.
    """
    nums, den = _inverse_alexander_jet(alexander_polynomial(b), order)
    for n, poly in enumerate(normalized.coeffs):
        top = poly.coefficient(n)
        expected = Fraction(nums[n], den)
        if top.im or top.re / 2**n != expected:
            raise InternalConsistencyError(
                f"spin expansion of {b} at order {order}: the N^{n} h^{n} "
                f"coefficient of J/J(unknot) is ({top})/2^{n}, but 1/Delta(e^x) "
                f"has x^{n} coefficient {expected} (Melvin-Morton-Rozansky)"
            )


@memoized
def _interpolated(strands: int, letters: tuple, order: int) -> PolySeries:
    b = BraidWord(strands, letters)
    quotients = [
        jet_series(_quotient(b, k, order, -b.writhe())) for k in range(order + 3)
    ]
    normalized = _fit_spins(b, quotients)
    _check_mmr_diagonal(b, normalized, order)
    return normalized * _unknot_expansion(order)


def jones_z_interpolated(b: BraidWord, order: int) -> PolySeries:
    """Zero-framing spin expansion, a polynomial in the spin z per h-order,
    fitted from the samples at two_alpha = 0..order+2 and checked against
    1/Delta(e^x) as the module docstring describes.

    Each order is fitted from its own samples and memoized on its own; the
    tests check that order k is order k+1 cut at h^k.
    """
    _require_inputs(b, order)
    return _interpolated(b.strands, b.letters, order)
