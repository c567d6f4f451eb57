"""Scalar and series layer: exact backends, q-helpers, square roots."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentzknots.scalars import (
    GaussianRational,
    GR_I,
    GR_ONE,
    upper_half_sqrt,
    precision,
    to_big,
)
from lorentzknots import series
from lorentzknots.series import (
    TruncatedSeries,
    clear_caches,
    constant_series,
    exp_scaled,
    q_dim,
    q_factorial,
    q_integer,
    q_power,
    series_to_big,
    sqrt_series,
)

F = Fraction
G = GaussianRational


def gr(n, d=1):
    return G(F(n, d))


# ---------------------------------------------------------------------------
# GaussianRational
# ---------------------------------------------------------------------------


def test_gaussian_field_ops():
    a = G(F(1, 2), F(3, 4))
    b = G(F(-2, 3), F(1, 5))
    assert a + b == G(F(-1, 6), F(19, 20))
    assert a * b == G(F(1, 2) * F(-2, 3) - F(3, 4) * F(1, 5),
                      F(1, 2) * F(1, 5) + F(3, 4) * F(-2, 3))
    assert (a / b) * b == a
    assert GR_I * GR_I == -1


def test_gaussian_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GR_ONE / G(0)


def test_gaussian_json_roundtrip():
    a = G(F(22, 7), F(-5, 3))
    assert GaussianRational.from_json(a.to_json()) == a


# ---------------------------------------------------------------------------
# TruncatedSeries ring structure
# ---------------------------------------------------------------------------

small_rationals = st.builds(
    F, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=9)
)
gaussians = st.builds(G, small_rationals, small_rationals)


def series_strategy(order=8):
    return st.builds(
        lambda cs: TruncatedSeries(order, cs),
        st.lists(gaussians, min_size=order + 1, max_size=order + 1),
    )


@settings(max_examples=60, deadline=None)
@given(series_strategy(), series_strategy(), series_strategy())
def test_ring_axioms_exact_backend(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    one = constant_series(1, a.order)
    assert a * one == a


@settings(max_examples=40, deadline=None)
@given(series_strategy(order=6))
def test_inverse_roundtrip(a):
    if not a.coeffs[0]:
        a = a + 1
    assert a * a.inverse() == constant_series(1, a.order)


def test_mul_truncates_at_order():
    a = exp_scaled(1, 3)
    b = exp_scaled(2, 3)
    prod = a * b
    assert prod.order == 3
    assert prod == exp_scaled(3, 3)


# ---------------------------------------------------------------------------
# exp_scaled examples
# ---------------------------------------------------------------------------


def test_exp_scaled_identity():
    assert exp_scaled(0, 4) == constant_series(1, 4)


def test_exp_scaled_half():
    s = exp_scaled(F(1, 2), 2)
    assert list(s.coeffs) == [gr(1), gr(1, 2), gr(1, 8)]


def test_exp_scaled_group_law():
    s = exp_scaled(F(-1, 2), 2) * exp_scaled(F(1, 2), 2)
    assert s == constant_series(1, 2)


# ---------------------------------------------------------------------------
# q-helpers.  Frozen expected values come from expanding the defining
# ratios by direct Taylor division, done independently in _oracle_q_integer.
# ---------------------------------------------------------------------------


def _oracle_q_integer(n, order):
    """(q^n - q^-n)/(q - q^-1) by explicit Taylor division, q = e^{h/2}."""
    from math import factorial

    def expc(r, k):
        return F(r, 2) ** k / factorial(k)

    num = [expc(n, k) - expc(-n, k) for k in range(order + 2)]
    den = [expc(1, k) - expc(-1, k) for k in range(order + 2)]
    # both start at h^1; shift down once, then divide
    num, den = num[1:], den[1:]
    out = []
    for k in range(order + 1):
        acc = num[k] - sum(den[j] * out[k - j] for j in range(1, k + 1))
        out.append(acc / den[0])
    return out


def test_q_integer_one_is_unit():
    assert q_integer(1, 4) == constant_series(1, 4)


def test_q_integer_two_matches_division_oracle():
    s = q_integer(2, 2)
    expected = _oracle_q_integer(2, 2)
    assert [c.re for c in s.coeffs] == expected
    # frozen value: [2] = 2 cosh(h/2) = 2 + h^2/4 + O(h^4)
    assert list(s.coeffs) == [gr(2), gr(0), gr(1, 4)]


@pytest.mark.parametrize("n", range(1, 11))
def test_q_integer_constant_term(n):
    assert q_integer(n, 3).coeffs[0] == n


@pytest.mark.parametrize("n", range(-5, 6))
def test_q_integer_defining_identity(n):
    # [n](q - q^-1) = q^n - q^-n, exactly as jets
    order = 6
    lhs = q_integer(n, order) * (q_power(1, order) - q_power(-1, order))
    rhs = q_power(n, order) - q_power(-n, order)
    assert lhs == rhs


def test_q_factorial_empty_product():
    assert q_factorial(0, 5) == constant_series(1, 5)


def test_q_dim_trivial_and_spin_one():
    assert q_dim(0, 4) == constant_series(1, 4)
    s = q_dim(2, 4)
    assert s.coeffs[0] == 3
    # frozen from the division oracle for [3]
    assert [c.re for c in s.coeffs] == _oracle_q_integer(3, 4)


def test_q_integer_product_symmetry():
    assert q_integer(2, 5) * q_integer(3, 5) == q_integer(3, 5) * q_integer(2, 5)


# ---------------------------------------------------------------------------
# The memoized q-jet kernel against an uncached reference built directly from
# exp_scaled products.
# ---------------------------------------------------------------------------


def _reference_q_integer(n, order):
    total = constant_series(0, order)
    for j in range(abs(n)):
        total = total + exp_scaled(F(abs(n) - 1 - 2 * j, 2), order)
    return total if n >= 0 else -total


def _reference_q_factorial(n, order):
    total = constant_series(1, order)
    for k in range(1, n + 1):
        total = total * _reference_q_integer(k, order)
    return total


@pytest.mark.parametrize("order", range(7))
def test_memoized_jets_match_uncached_reference(order):
    for n in range(-12, 13):
        assert q_power(n, order) == exp_scaled(F(n, 2), order)
        assert q_power(F(n, 3), order) == exp_scaled(F(n, 6), order)
        assert q_integer(n, order) == _reference_q_integer(n, order)
    for n in range(13):
        assert q_factorial(n, order) == _reference_q_factorial(n, order)
        assert q_dim(n, order) == _reference_q_integer(n + 1, order)


def test_q_power_exponent_types_share_one_entry():
    clear_caches()
    jets = [q_power(r, 5) for r in (1, F(1), G(1))]
    info = series._q_power_jet.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    assert jets[0] is jets[1] is jets[2]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=15), st.integers(min_value=0, max_value=6))
def test_q_factorial_recursion_and_q_dim(n, order):
    assert q_factorial(n, order) == q_integer(n, order) * q_factorial(n - 1, order)
    if n % 2 == 0:
        assert q_dim(n, order) == q_integer(n + 1, order)
        assert [c.re for c in q_dim(n, order).coeffs] == _oracle_q_integer(n + 1, order)


def test_clear_caches_makes_next_call_a_miss():
    q_factorial(7, 3)
    clear_caches()
    assert series._q_factorial_jet.cache_info().currsize == 0
    q_factorial(7, 3)
    info = series._q_factorial_jet.cache_info()
    assert info.hits == 0 and info.misses == 8


def test_jets_do_not_depend_on_precision():
    with precision(15):
        low = q_factorial(6, 4)
    with precision(60):
        assert q_factorial(6, 4) is low


# ---------------------------------------------------------------------------
# sqrt_series (float backend)
# ---------------------------------------------------------------------------


def test_sqrt_of_one():
    with precision(60):
        s = series_to_big(constant_series(1, 4))
        r = sqrt_series(s)
        assert abs(r.coeffs[0] - 1) < mpmath.mpf(10) ** -50
        assert all(abs(c) < mpmath.mpf(10) ** -50 for c in r.coeffs[1:])


def test_sqrt_self_consistency():
    with precision(60):
        s = series_to_big(q_integer(2, 6))
        r = sqrt_series(s)
        prod = r * r
        for a, b in zip(prod.coeffs, series_to_big(q_integer(2, 6)).coeffs):
            assert abs(a - b) < mpmath.mpf(10) ** -50


def test_sqrt_negative_constant_takes_upper_half_plane():
    with precision(60):
        s = series_to_big(constant_series(-1, 2))
        r = sqrt_series(s)
        assert abs(r.coeffs[0] - mpmath.mpc(0, 1)) < mpmath.mpf(10) ** -50


def test_sqrt_zero_constant_rejected():
    with precision(40):
        s = series_to_big(q_power(1, 3) - q_power(-1, 3))
        with pytest.raises(ValueError):
            sqrt_series(s)


def test_upper_half_sqrt_branch():
    with precision(40):
        w = upper_half_sqrt(to_big(GaussianRational(0, -1)))
        # arg(-i) = 3*pi/2 in [0, 2*pi), so the root has arg 3*pi/4
        assert w.real < 0 < w.imag


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_series_json_exact():
    s = q_integer(2, 2)
    doc = s.to_json()
    assert doc["order"] == 2
    assert doc["coeffs"][0] == [2, 1, 0, 1]
    assert doc["coeffs"][2] == [1, 4, 0, 1]
