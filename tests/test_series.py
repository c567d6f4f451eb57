"""Scalar and series layer: exact backends, q-helpers, square roots."""

from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentzknots.errors import InternalConsistencyError
from lorentzknots.polynomials import ParamPolynomial, poly_variable
from lorentzknots.scalars import (
    GaussianRational,
    GR_I,
    GR_ONE,
    precision,
    rational_sqrt,
)
from lorentzknots import series
from lorentzknots.series import (
    TruncatedSeries,
    clear_caches,
    constant_series,
    conv,
    exp_scaled,
    jet_accumulate,
    jet_add,
    jet_constant,
    jet_fractions,
    jet_inverse,
    jet_lead,
    jet_mul,
    jet_neg,
    jet_scale,
    jet_series,
    jet_sqrt,
    q_dim,
    q_factorial,
    q_integer,
    q_power,
    real_jet,
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
# The shared kernel: conv
# ---------------------------------------------------------------------------


def schoolbook(a, b, order):
    """Full product by the double loop, then truncated."""
    full = {}
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            full[i + j] = full[i + j] + x * y if i + j in full else x * y
    return tuple(full[k] for k in range(order + 1))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-50, 50), min_size=5, max_size=5),
    st.lists(st.integers(-50, 50), min_size=5, max_size=5),
    st.lists(small_rationals, min_size=5, max_size=5),
    st.lists(small_rationals, min_size=5, max_size=5),
)
def test_conv_matches_schoolbook_exact(ia, ib, fa, fb):
    for order in range(5):
        assert conv(ia, ib, order) == schoolbook(ia, ib, order)
        assert conv(fa, fb, order) == schoolbook(fa, fb, order)


def test_conv_matches_schoolbook_gaussian():
    a = [G(F(k + 1, 3), F(-k, 3)) for k in range(4)]
    b = [G(F(2 - k, 7), F(k * k, 7)) for k in range(4)]
    for order in range(4):
        assert conv(a, b, order) == schoolbook(a, b, order)


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
    # a ParamPolynomial rate gives a jet of polynomials in p
    p = poly_variable()
    s = exp_scaled(F(3, 2) * p, 4) * exp_scaled(-1 * p, 4)
    assert s == exp_scaled(F(1, 2) * p, 4)
    assert s.coeffs[3] == ParamPolynomial([0, 0, 0, F(1, 48)])


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
# The integer-jet kernel: (nums, den) with gcd(den, nums) = 1
# ---------------------------------------------------------------------------


def _is_canonical(jet):
    nums, den = jet
    return (
        type(nums) is tuple
        and all(type(n) is int for n in nums)
        and type(den) is int
        and den > 0
        and gcd(den, *nums) == 1
    )


def _closed_q_power(r, order):
    """e^{r h/2}: the h^k coefficient is (r/2)^k / k!."""
    return [(F(r) / 2) ** k / factorial(k) for k in range(order + 1)]


def _closed_q_factorial(n, order):
    total = [F(1)] + [F(0)] * order
    for k in range(1, n + 1):
        total = list(conv(total, _oracle_q_integer(k, order), order))
    return total


@pytest.mark.parametrize("order", range(6))
def test_integer_q_jets_equal_closed_forms_and_gaussian_jets(order):
    for twice_r in range(-12, 13):
        r = F(twice_r, 2)
        jet = series._q_power_jet(r, order)
        assert _is_canonical(jet)
        assert jet_fractions(jet) == tuple(_closed_q_power(r, order))
        assert jet_series(jet) == exp_scaled(r / 2, order) == q_power(r, order)
    for n in range(-6, 9):
        jet = series._q_integer_jet(n, order)
        assert _is_canonical(jet)
        closed = _oracle_q_integer(abs(n), order)
        assert list(jet_fractions(jet)) == (closed if n >= 0 else [-c for c in closed])
        assert jet_series(jet) == _reference_q_integer(n, order) == q_integer(n, order)
    for n in range(9):
        jet = series._q_factorial_jet(n, order)
        assert _is_canonical(jet)
        assert list(jet_fractions(jet)) == _closed_q_factorial(n, order)
        assert jet_series(jet) == _reference_q_factorial(n, order) == q_factorial(n, order)


def real_jets(order=4):
    return st.lists(small_rationals, min_size=order + 1, max_size=order + 1).map(real_jet)


@settings(max_examples=60, deadline=None)
@given(real_jets(), real_jets(), st.sampled_from([F(0), F(3), F(-2, 9), F(7, 4)]))
def test_kernel_results_are_canonical_and_match_gaussian_arithmetic(a, b, c):
    sa, sb = jet_series(a), jet_series(b)
    results = [
        (a, sa),
        (jet_add(a, b), sa + sb),
        (jet_neg(a), -sa),
        (jet_mul(a, b), sa * sb),
        (jet_scale(a, c), sa * c),
        (jet_constant(c, 4), constant_series(c, 4)),
    ]
    if sa.coeffs[0]:
        results.append((jet_inverse(a), sa.inverse()))
        results.append((jet_sqrt(jet_mul(a, a)), sqrt_series(sa * sa)))
    for jet, expected in results:
        assert _is_canonical(jet)
        assert jet_series(jet) == expected
    # equal jets are equal tuples: a sum that cancels to zero is the zero jet
    assert jet_add(a, jet_neg(a)) == jet_constant(0, 4) == ((0,) * 5, 1)
    assert jet_lead(jet_constant(0, 4)) is None


def test_kernel_leading_order_and_accumulate():
    store = {}
    jet_accumulate(store, "k", real_jet([0, 0, F(1, 2), 1, 0]))
    jet_accumulate(store, "k", real_jet([0, 0, F(-1, 2), F(1, 3), 0]))
    assert store["k"] == ((0, 0, 0, 4, 0), 3)
    assert jet_lead(store["k"]) == 3


def test_integer_sqrt_equals_gaussian_sqrt_on_coupling_radicands():
    from lorentzknots.cg import _cg_exact_parts, _is_spin_index, _triangle

    order, count = 4, 0
    for dI in range(5):
        for dJ in range(5):
            for dK in range(abs(dI - dJ), dI + dJ + 1, 2):
                if not _triangle(dI, dJ, dK):
                    continue
                for dm in range(-dI, dI + 1, 2):
                    for dn in range(-dJ, dJ + 1, 2):
                        if not _is_spin_index(dK, dm + dn):
                            continue
                        _, radicand = _cg_exact_parts(dI, dJ, dK, dm, dn, dm + dn, order)
                        assert _is_canonical(radicand)
                        c0 = jet_fractions(radicand)[0]
                        normalized = jet_scale(radicand, 1 / c0)
                        root = jet_sqrt(normalized)
                        assert _is_canonical(root)
                        assert jet_series(root) == sqrt_series(jet_series(normalized))
                        count += 1
    assert count > 200


def test_conversion_round_trip_is_the_identity():
    jets = [series._q_factorial_jet(n, 5) for n in range(8)] + [
        series._q_power_jet(F(r, 3), 5) for r in range(-7, 8)
    ]
    for jet in jets:
        assert real_jet(jet_series(jet).coeffs) == jet
        assert real_jet(jet_fractions(jet)) == jet
    for s in (q_integer(5, 4), exp_scaled(F(-3, 7), 4), constant_series(0, 4)):
        assert jet_series(real_jet(s.coeffs)) == s
    with pytest.raises(InternalConsistencyError, match="real coefficients"):
        real_jet([G(1, 1)])


# ---------------------------------------------------------------------------
# sqrt_series (exact)
# ---------------------------------------------------------------------------


def test_sqrt_of_one():
    assert sqrt_series(constant_series(1, 4)) == constant_series(1, 4)


def test_sqrt_self_consistency():
    s = q_integer(4, 6)  # constant term 4
    r = sqrt_series(s)
    assert r.coeffs[0] == 2
    assert r * r == s


def test_sqrt_negative_constant_takes_upper_half_plane():
    r = sqrt_series(constant_series(-1, 2))
    assert r.coeffs[0] == GR_I


def test_sqrt_zero_constant_rejected():
    s = q_power(1, 3) - q_power(-1, 3)
    with pytest.raises(ValueError):
        sqrt_series(s)


def test_sqrt_of_a_non_square_constant_rejected():
    with pytest.raises(ValueError, match="square of a rational"):
        sqrt_series(q_integer(2, 3))
    with pytest.raises(ValueError):
        rational_sqrt(F(-4))
    assert rational_sqrt(F(9, 49)) == F(3, 7)


def test_upper_half_sqrt_branch():
    w = sqrt_series(constant_series(G(0, -2), 1)).coeffs[0]
    # arg(-2i) = 3*pi/2 in [0, 2*pi), so the root -1 + i has arg 3*pi/4
    assert w == G(-1, 1)
    assert sqrt_series(constant_series(G(0, 2), 1)).coeffs[0] == G(1, 1)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_series_json_exact():
    s = q_integer(2, 2)
    doc = s.to_json()
    assert doc["order"] == 2
    assert doc["coeffs"][0] == [2, 1, 0, 1]
    assert doc["coeffs"][2] == [1, 4, 0, 1]


def test_series_json_of_irrational_constant_exact():
    import json

    from lorentzknots.cg import clear_caches as clear_cg_caches
    from lorentzknots.cg import lambda_coeff

    clear_cg_caches()
    s = lambda_coeff(2, 2, 2, 0, 3, 2)
    # Lambda^{222}_0 = sqrt(radicand) * jet with an irrational square root
    # and a nonzero h^1 coefficient; the jet's JSON keeps it exactly.
    with pytest.raises(InternalConsistencyError):
        s.rational()
    assert s.jet.coeffs[1] != 0
    doc = json.loads(json.dumps(s.jet.to_json()))
    assert doc["order"] == 2
    assert [G.from_json(c) for c in doc["coeffs"]] == list(s.jet.coeffs)
    clear_cg_caches()
