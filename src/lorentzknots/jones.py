"""Coloured Jones engine: braid action on quantum spin modules, h-adically.

The spin-alpha module of the q-deformed sl2 (q = e^{h/2}) carries the
standard braiding; a braid whose closure is a knot is evaluated as a
(1,1)-tangle: apply the braid operator on the tensor power, weight every
strand but the first with the group-like element q^{2 J_z}, take the partial
trace over those strands, and read off the scalar multiple of the identity
(scalarness is asserted order by order).  The returned normalization is the
framed invariant divided by the ordinary dimension 2*alpha + 1, at
blackboard (writhe) framing.

Sampling the smallest half-integer spins and interpolating each h-order by
exact Lagrange reconstruction (degree at most 2n in the spin at order n,
with surplus samples re-checked) produces the two-variable expansion in
(spin, h) at zero framing.

Hot-path arithmetic uses integer coefficient tuples over a shared
denominator; Fractions appear only at the boundaries.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm

from .braids import BraidWord
from .errors import InternalConsistencyError
from .polynomials import (
    ParamPolynomial,
    PolySeries,
    lagrange_interpolate,
    poly_constant,
)
from .scalars import GaussianRational
from .series import (
    TruncatedSeries,
    constant_series,
    memoized,
    q_dim,
    q_factorial,
    q_integer,
    q_power,
    register_memo,
)
from .weights import T_JONES_SL2, sl2_quadratic_eigenvalue

__all__ = [
    "SeriesOperator",
    "r_matrix",
    "framing_factor",
    "framing_factor_numeric",
    "jones_framed",
    "jones_zero_framed",
    "jones_z_interpolated",
]

# The spin interpolation and the braid sums must use one and the same
# framing normalization; a positive stabilization multiplies the framed
# invariant by exp(2 * w(z) * h), where w(z) is the one-chord weight-system
# eigenvalue (z(z+1)/2 for the tensor behind the Jones normalization).
_KINK_EXPONENT_FACTOR = 2


# ---------------------------------------------------------------------------
# Internal integer-series helpers (coefficients over a shared denominator)
# ---------------------------------------------------------------------------


def _conv(a, b, order):
    return tuple(
        sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(order + 1)
    )


def _acc(target, key, coeffs):
    cur = target.get(key)
    if cur is None:
        target[key] = coeffs
    else:
        target[key] = tuple(x + y for x, y in zip(cur, coeffs))


def _series_fractions(series: TruncatedSeries):
    """Real Fraction coefficients of an exact series."""
    out = []
    for c in series.coeffs:
        if isinstance(c, GaussianRational):
            if c.im:
                raise InternalConsistencyError("quantum sl2 entries must be real")
            out.append(c.re)
        else:
            out.append(Fraction(c))
    return out


def _mat_inv(matrix):
    """Exact inverse of a small Fraction matrix (Gauss-Jordan)."""
    n = len(matrix)
    aug = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise InternalConsistencyError("braiding block not invertible at h=0")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _invert_cells(pos, dim, order):
    """Exact inverse of the braiding, block by block of conserved weight."""
    out = {}
    for s in range(2 * dim - 1):
        states = [(r1, s - r1) for r1 in range(dim) if 0 <= s - r1 < dim]
        index = {st: i for i, st in enumerate(states)}
        nblk = len(states)
        M = [[[Fraction(0)] * (order + 1) for _ in range(nblk)] for _ in range(nblk)]
        for j, st in enumerate(states):
            for a, b, coeffs in pos[st]:
                i = index[(a, b)]
                for k, c in enumerate(coeffs):
                    M[i][j][k] = c
        X0 = _mat_inv([[M[i][j][0] for j in range(nblk)] for i in range(nblk)])
        X = [X0]
        for k in range(1, order + 1):
            S = [[Fraction(0)] * nblk for _ in range(nblk)]
            for j in range(1, k + 1):
                Xprev = X[k - j]
                for i in range(nblk):
                    for l in range(nblk):
                        mv = M[i][l][j]
                        if mv:
                            row = Xprev[l]
                            for c in range(nblk):
                                if row[c]:
                                    S[i][c] += mv * row[c]
            X.append(
                [
                    [
                        -sum(X0[i][l] * S[l][c] for l in range(nblk))
                        for c in range(nblk)
                    ]
                    for i in range(nblk)
                ]
            )
        for j, st in enumerate(states):
            cell = []
            for i, (a, b) in enumerate(states):
                coeffs = [X[k][i][j] for k in range(order + 1)]
                if any(coeffs):
                    cell.append((a, b, coeffs))
            out[st] = cell
    return out


@memoized
def _braiding_table(two_alpha: int, order: int, sign: int):
    """Sparse braiding matrix on V (x) V as integer jets over a common den.

    Returns (table, den) with table[(r1, r2)] = ((r1', r2', coeffs), ...).
    Basis index r = 0..two_alpha counts lowering steps from the highest
    weight; the doubled weight of r is two_alpha - 2r.  The negative
    crossing is the exact blockwise inverse of the positive one (total
    weight is conserved, so blocks stay small).
    """
    dim = two_alpha + 1
    entries = {}
    for r1 in range(dim):
        for r2 in range(dim):
            cell = []
            for n in range(0, min(r1, two_alpha - r2) + 1):
                coeff = constant_series(1, order)
                if n:
                    coeff = q_power(Fraction(n * (n - 1), 2), order)
                    step = q_power(1, order) - q_power(-1, order)
                    for _ in range(n):
                        coeff = coeff * step
                    coeff = coeff * q_factorial(n, order).inverse()
                    for j in range(1, n + 1):
                        coeff = coeff * q_integer(two_alpha - r1 + j, order)
                        coeff = coeff * q_integer(r2 + j, order)
                w_out1 = two_alpha - 2 * (r2 + n)
                w_out2 = two_alpha - 2 * (r1 - n)
                coeff = coeff * q_power(Fraction(w_out1 * w_out2, 2), order)
                cell.append((r2 + n, r1 - n, _series_fractions(coeff)))
            entries[(r1, r2)] = cell
    if sign < 0:
        entries = _invert_cells(entries, dim, order)
    den = 1
    for cell in entries.values():
        for _, _, coeffs in cell:
            for c in coeffs:
                den = lcm(den, c.denominator)
    table = {
        key: tuple(
            (a, b, tuple(int(c * den) for c in coeffs)) for a, b, coeffs in cell
        )
        for key, cell in entries.items()
    }
    return table, den


@memoized
def _group_like_table(order: int):
    """Integer jets of q^{S} for integer S, over the shared denominator 2^N N!."""
    den = 1
    for k in range(1, order + 1):
        den *= 2 * k
    return den


@memoized
def _group_like_coeffs(s_exponent: int, order: int):
    den = _group_like_table(order)
    series = _series_fractions(q_power(Fraction(s_exponent), order))
    return tuple(int(c * den) for c in series)


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
    matrix.  ``sign=-1`` gives the inverse braiding.
    """
    table, den = _braiding_table(two_alpha, order, sign)
    dim = two_alpha + 1
    entries = {}
    for (r1, r2), cell in table.items():
        col = r1 * dim + r2
        for a, b, coeffs in cell:
            row = a * dim + b
            entries[(row, col)] = TruncatedSeries(
                order, [GaussianRational(Fraction(c, den)) for c in coeffs]
            )
    return SeriesOperator(dim * dim, order, entries)


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def kink_exponent_polynomial() -> ParamPolynomial:
    """Exponent polynomial c(z) with positive-kink factor e^{c(z) h}.

    Derived from the weight-system one-chord eigenvalue, scaled by the
    bridge factor 2 that matches the braiding's twist at q = e^{h/2}.
    """
    return _KINK_EXPONENT_FACTOR * sl2_quadratic_eigenvalue(T_JONES_SL2)


def framing_factor(order: int, framing: int = 1) -> PolySeries:
    """Spin-polynomial jet of the framing-change factor e^{framing*c(z)*h}."""
    exponent = framing * kink_exponent_polynomial()
    coeffs = [poly_constant(1)]
    power = poly_constant(1)
    fact = 1
    for k in range(1, order + 1):
        power = power * exponent
        fact *= k
        coeffs.append(power * Fraction(1, fact))
    return TruncatedSeries(order, coeffs)


def framing_factor_numeric(two_alpha: int, order: int, framing: int = 1):
    """The same factor evaluated at spin alpha = two_alpha/2, as an exact jet."""
    c = kink_exponent_polynomial().evaluate(Fraction(two_alpha, 2))
    from .series import exp_scaled

    return exp_scaled(framing * c, order)


# ---------------------------------------------------------------------------
# Tangle evaluation
# ---------------------------------------------------------------------------


def _require_knot(b: BraidWord):
    if not b.is_knot():
        raise ValueError("closure of the braid is not a knot")


@memoized
def _tangle_scalar(strands: int, letters: tuple, two_alpha: int, order: int):
    """Scalar of the (1,1)-tangle closure, as a tuple of Fractions.

    Sums over basis columns; weight conservation makes the partial trace
    diagonal, and all diagonal entries are asserted equal.
    """
    dim = two_alpha + 1
    tables = {}
    den_total = 1
    for _, sign in letters:
        if sign not in tables:
            tables[sign] = _braiding_table(two_alpha, order, sign)
        den_total *= tables[sign][1]
    den_total *= _group_like_table(order)

    diag = [None] * dim
    zero = (0,) * (order + 1)
    for column in product(range(dim), repeat=strands):
        vec = {column: None}  # None stands for the unit coefficient
        for idx, sign in letters:
            table, _ = tables[sign]
            out = {}
            for state, coeffs in vec.items():
                r1, r2 = state[idx - 1], state[idx]
                for a, b, entry in table[(r1, r2)]:
                    new_state = state[: idx - 1] + (a, b) + state[idx + 1 :]
                    if coeffs is None:
                        _acc(out, new_state, entry)
                    else:
                        _acc(out, new_state, _conv(coeffs, entry, order))
            vec = out
        coeffs = vec.get(column)
        if letters and coeffs is None:
            continue
        s_exp = sum(two_alpha - 2 * r for r in column[1:])
        weight = _group_like_coeffs(s_exp, order)
        if coeffs is None:
            contrib = weight
        else:
            contrib = _conv(coeffs, weight, order)
        r1 = column[0]
        diag[r1] = contrib if diag[r1] is None else tuple(
            x + y for x, y in zip(diag[r1], contrib)
        )

    first = diag[0] if diag[0] is not None else zero
    for entry in diag[1:]:
        if (entry if entry is not None else zero) != first:
            raise InternalConsistencyError(
                "partial trace of the braid operator is not a scalar: "
                "braiding/enhancement conventions are inconsistent"
            )
    return tuple(Fraction(c, den_total) for c in first)


def jones_framed(b: BraidWord, two_alpha: int, order: int) -> TruncatedSeries:
    """Framed invariant / (2*alpha+1) at blackboard framing, as an exact jet.

    The (1,1)-tangle scalar is multiplied by [2*alpha+1]/(2*alpha+1), so the
    zero-framed unknot value is the quantum dimension over the dimension.
    """
    _require_knot(b)
    scalar = _tangle_scalar(b.strands, b.letters, two_alpha, order)
    series = TruncatedSeries(order, [GaussianRational(c) for c in scalar])
    return series * q_dim(two_alpha, order) * Fraction(1, two_alpha + 1)


def jones_zero_framed(b: BraidWord, two_alpha: int, order: int) -> TruncatedSeries:
    """The framed invariant corrected to zero framing."""
    framed = jones_framed(b, two_alpha, order)
    return framed * framing_factor_numeric(two_alpha, order, -b.writhe())


def _assemble_interpolation(nodes, samples, order: int) -> PolySeries:
    coeffs = []
    for n in range(order + 1):
        values = [s.coeffs[n] for s in samples]
        need = 2 * n + 1
        poly = lagrange_interpolate(nodes[:need], values[:need])
        if poly.degree() > 2 * n:
            raise InternalConsistencyError(
                f"h^{n} coefficient exceeded spin degree {2 * n}"
            )
        for x, v in zip(nodes[need:], values[need:]):
            if poly.evaluate(x) != v:
                raise InternalConsistencyError(
                    f"h^{n} coefficient violates the degree-{2 * n} bound at "
                    f"spin {x}: interpolation inconsistent"
                )
        coeffs.append(poly)
    return TruncatedSeries(order, coeffs)


def _sample_task(task):
    strands, letters, two_alpha, order = task
    series = jones_zero_framed(BraidWord(strands, letters), two_alpha, order)
    return [(c.re.numerator, c.re.denominator) for c in series.coeffs]


# (strands, letters, order) -> expansion; ``workers`` only changes how the
# samples are computed, never the result, so it is not part of the key.
_INTERPOLATED = {}
register_memo(_INTERPOLATED.clear)


def _interpolate(strands: int, letters: tuple, order: int, workers: int) -> PolySeries:
    b = BraidWord(strands, letters)
    sample_count = 2 * order + 3
    nodes = [Fraction(k, 2) for k in range(sample_count)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        tasks = [(strands, letters, k, order) for k in range(sample_count)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_sample_task, tasks))
        samples = [
            TruncatedSeries(
                order, [GaussianRational(Fraction(n, d)) for n, d in coeffs]
            )
            for coeffs in raw
        ]
    else:
        samples = [jones_zero_framed(b, k, order) for k in range(sample_count)]
    return _assemble_interpolation(nodes, samples, order)


def jones_z_interpolated(b: BraidWord, order: int, workers: int = 1) -> PolySeries:
    """Zero-framing spin expansion: h^n coefficients are polynomials in the
    spin of degree at most 2n, reconstructed exactly from sampled
    half-integer spins with surplus samples verified.  Spin samples are
    independent jobs; ``workers`` > 1 computes them in parallel and joins
    deterministically."""
    _require_knot(b)
    key = (b.strands, b.letters, order)
    hit = _INTERPOLATED.get(key)
    if hit is None:
        hit = _INTERPOLATED[key] = _interpolate(*key, max(1, int(workers)))
    return hit
