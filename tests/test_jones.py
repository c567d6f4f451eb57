"""Quantum sl2 braid engine: braiding identities, framing, interpolation."""

from fractions import Fraction
from math import factorial

import pytest

from lorentzknots.braids import BraidWord, markov_variants, mirror, parse_braid, reverse
from lorentzknots.jones import (
    SeriesOperator,
    framing_factor,
    framing_factor_numeric,
    jones_framed,
    jones_z_interpolated,
    jones_zero_framed,
    kink_exponent_polynomial,
    r_matrix,
)
from lorentzknots.polynomials import ParamPolynomial, poly_variable, specialize
from lorentzknots.series import clear_caches, constant_series, q_dim

F = Fraction

TREFOIL = parse_braid("s1 s1 s1", 2)
UNKNOT = BraidWord(1)
FIG8 = parse_braid("s1 -s2 s1 -s2", 3)


def _lift(op, dim, slot):
    entries = {}
    for (row, col), val in op.entries.items():
        a, b = divmod(row, dim)
        c, d = divmod(col, dim)
        for e in range(dim):
            if slot == 0:
                r, cc = (a * dim + b) * dim + e, (c * dim + d) * dim + e
            else:
                r, cc = e * dim * dim + a * dim + b, e * dim * dim + c * dim + d
            entries[(r, cc)] = val
    return SeriesOperator(dim**3, op.order, entries)


# ---------------------------------------------------------------------------
# Braiding matrix
# ---------------------------------------------------------------------------


def test_r_matrix_trivial_colour():
    op = r_matrix(0, 4)
    assert op.dim == 1 and op.is_identity()


@pytest.mark.parametrize("two_alpha", [1, 2, 3])
def test_r_matrix_invertible(two_alpha):
    R = r_matrix(two_alpha, 4, +1)
    Rinv = r_matrix(two_alpha, 4, -1)
    assert R.compose(Rinv).is_identity()
    assert Rinv.compose(R).is_identity()


@pytest.mark.parametrize("two_alpha", [1, 2])
def test_yang_baxter(two_alpha):
    dim = two_alpha + 1
    R = r_matrix(two_alpha, 4)
    R12, R23 = _lift(R, dim, 0), _lift(R, dim, 1)
    assert R12.compose(R23).compose(R12) == R23.compose(R12).compose(R23)


def test_classical_limit_is_permutation():
    R = r_matrix(2, 3)
    dim = 3
    for (row, col), val in R.entries.items():
        a, b = divmod(row, dim)
        c, d = divmod(col, dim)
        expected = 1 if (a, b) == (d, c) else 0
        assert val.coeffs[0] == expected or (row, col) not in R.entries or (
            val.coeffs[0] == 0 and (a, b) != (d, c)
        )
    # and the squared braiding deviates from the identity only at order >= 1
    sq = R.compose(R)
    for (row, col), val in sq.entries.items():
        assert val.coeffs[0] == (1 if row == col else 0)


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def test_kink_exponent_is_z_z_plus_one():
    z = poly_variable()
    assert kink_exponent_polynomial() == z * z + z


def test_framing_factor_trivial_spin():
    assert framing_factor_numeric(0, 5) == constant_series(1, 5)


def test_framing_factor_parity_product():
    for ta in (1, 2, 3):
        prod = framing_factor_numeric(ta, 5, +1) * framing_factor_numeric(ta, 5, -1)
        assert prod == constant_series(1, 5)


def test_framing_factor_polynomial_matches_numeric():
    ff = framing_factor(4)
    for ta in (0, 1, 2, 3):
        assert specialize(ff, F(ta, 2)) == framing_factor_numeric(ta, 4)


@pytest.mark.parametrize("two_alpha", [1, 2, 3])
@pytest.mark.parametrize("sign", [1, -1])
def test_stabilization_matches_framing_factor(two_alpha, sign):
    stab = BraidWord(3, TREFOIL.letters + ((2, sign),))
    lhs = jones_framed(stab, two_alpha, 4)
    rhs = jones_framed(TREFOIL, two_alpha, 4) * framing_factor_numeric(
        two_alpha, 4, sign
    )
    assert lhs == rhs


# ---------------------------------------------------------------------------
# Tangle evaluation
# ---------------------------------------------------------------------------


def test_unknot_framed_value():
    for ta in (0, 1, 2, 3):
        assert jones_framed(UNKNOT, ta, 5) == q_dim(ta, 5) * F(1, ta + 1)


def test_stabilized_unknot_zero_framed():
    b = parse_braid("s1", 2)
    for ta in (0, 1, 2, 3):
        assert jones_zero_framed(b, ta, 5) == q_dim(ta, 5) * F(1, ta + 1)


def test_rejects_links():
    with pytest.raises(ValueError):
        jones_framed(parse_braid("s1", 3), 1, 3)


def test_trefoil_order_zero_is_one():
    s = jones_framed(TREFOIL, 1, 4)
    assert s.coeffs[0] == 1


# ---------------------------------------------------------------------------
# Interpolated spin expansion
# ---------------------------------------------------------------------------


def _sinh_ratio_expansion(order):
    """Oracle: expand sinh((2z+1)h/2) / ((2z+1) sinh(h/2)) directly."""
    zz = poly_variable()
    w = (2 * zz + 1) * (2 * zz + 1)
    num, den = [], []
    for k in range(order + 1):
        if k % 2:
            num.append(ParamPolynomial([0]))
            den.append(F(0))
        else:
            num.append(w ** (k // 2) * F(1, 2**k * factorial(k + 1)))
            den.append(F(1, 2**k * factorial(k + 1)))
    out = []
    for k in range(order + 1):
        acc = num[k] - sum(ParamPolynomial([den[j]]) * out[k - j] for j in range(1, k + 1))
        out.append(acc)
    return out


def test_unknot_interpolation_matches_sinh_ratio():
    expansion = _sinh_ratio_expansion(6)
    U = jones_z_interpolated(UNKNOT, 6)
    for n in range(7):
        assert U.coeffs[n] == expansion[n]
    z = poly_variable()
    assert U.coeffs[2] == (z * z + z) * F(1, 6)


def test_order_zero_polynomial_is_one():
    for b in (TREFOIL, FIG8):
        assert jones_z_interpolated(b, 3).coeffs[0] == ParamPolynomial([1])


def test_degree_bound_all_orders():
    P = jones_z_interpolated(TREFOIL, 4)
    for n, poly in enumerate(P.coeffs):
        assert poly.degree() <= 2 * n


def test_mirror_parity():
    P = jones_z_interpolated(TREFOIL, 4)
    Pm = jones_z_interpolated(mirror(TREFOIL), 4)
    for n in range(5):
        assert Pm.coeffs[n] == (P.coeffs[n] if n % 2 == 0 else -1 * P.coeffs[n])


def test_reverse_orientation_invariance():
    P = jones_z_interpolated(FIG8, 3)
    assert jones_z_interpolated(reverse(FIG8), 3) == P


def test_markov_invariance_exact():
    base = jones_z_interpolated(TREFOIL, 3)
    for v in markov_variants(TREFOIL)[:7]:
        assert jones_z_interpolated(v, 3) == base


def test_repeated_interpolation_is_a_memo_hit():
    from lorentzknots import jones

    clear_caches()
    first = jones_z_interpolated(TREFOIL, 1)
    assert jones_z_interpolated(parse_braid("s1 s1 s1", 2), 1) is first
    info = jones._interpolated.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_trefoil_second_order_frozen():
    # Frozen from this engine after it passed the independent pins above
    # (unknot closed form, framing factor, mirror parity); re-derivations
    # must keep reproducing it.
    z = poly_variable()
    P = jones_z_interpolated(TREFOIL, 2)
    assert P.coeffs[1] == ParamPolynomial([0])
    assert P.coeffs[2] == (z * z + z) * F(-23, 6)
