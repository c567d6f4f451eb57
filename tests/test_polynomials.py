"""Parameter polynomials, PolySeries specialization, exact interpolation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentzknots.polynomials import (
    ParamPolynomial,
    constant_poly_series,
    int_poly_add,
    int_poly_compose_affine,
    int_poly_mul,
    int_poly_param,
    lagrange_interpolate,
    poly_constant,
    poly_variable,
    specialize,
)
from lorentzknots.scalars import GaussianRational
from lorentzknots.series import TruncatedSeries

F = Fraction
G = GaussianRational
X = poly_variable()


def test_degree_and_trim():
    p = ParamPolynomial([1, 2, 0])
    assert p.degree() == 1
    assert ParamPolynomial([0, 0]).is_zero()
    assert ParamPolynomial().degree() == -1


def test_evaluate_exact():
    p = (X + 1) * (X - 1)
    assert p.evaluate(F(3, 2)) == F(5, 4)
    assert p.evaluate(G(0, 1)) == -2  # (i)^2 - 1


def test_compose_affine():
    p = X * X
    q = p.compose_affine(F(1, 2), F(-1, 2))  # x -> (y-1)/2
    assert q.evaluate(3) == 1
    assert q.evaluate(1) == 0
    assert q.degree() == 2


def test_even_detection():
    assert (X * X + 4).is_even()
    assert not (X * X + X).is_even()


small_rationals = st.builds(
    F, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=6)
)
polys = st.builds(
    lambda cs: ParamPolynomial(cs), st.lists(small_rationals, max_size=4)
)


def poly_series(order=4):
    return st.builds(
        lambda cs: TruncatedSeries(order, cs),
        st.lists(polys, min_size=order + 1, max_size=order + 1),
    )


@settings(max_examples=50, deadline=None)
@given(poly_series(), poly_series(), small_rationals)
def test_specialize_commutes_with_ring_ops(a, b, point):
    assert specialize(a * b, point) == specialize(a, point) * specialize(b, point)
    assert specialize(a + b, point) == specialize(a, point) + specialize(b, point)


def test_poly_series_constant():
    s = constant_poly_series(1, 3)
    assert specialize(s, F(7, 3)).coeffs[0] == 1


# ---------------------------------------------------------------------------
# Lagrange interpolation: oracle is direct evaluation of a known polynomial.
# ---------------------------------------------------------------------------


def test_interpolation_recovers_polynomial():
    p = 3 * X * X * X - X + F(1, 2)
    nodes = [F(k, 2) for k in range(4)]
    values = [p.evaluate(x) for x in nodes]
    assert lagrange_interpolate(nodes, values) == p


def test_interpolation_extra_nodes_consistent():
    p = X * X - 1
    nodes = [F(k, 2) for k in range(7)]
    values = [p.evaluate(x) for x in nodes]
    q = lagrange_interpolate(nodes[:3], values[:3])
    assert q == p
    for x, v in zip(nodes[3:], values[3:]):
        assert q.evaluate(x) == v


def test_interpolation_rejects_duplicate_nodes():
    with pytest.raises(ValueError):
        lagrange_interpolate([1, 1], [2, 3])


@settings(max_examples=40, deadline=None)
@given(st.lists(small_rationals, min_size=1, max_size=5))
def test_interpolation_roundtrip_random(coeffs):
    p = ParamPolynomial(coeffs)
    nodes = [F(k) for k in range(max(p.degree() + 1, 1))]
    values = [p.evaluate(x) for x in nodes]
    assert lagrange_interpolate(nodes, values) == p


def _int_poly(nums, den):
    """An integer polynomial (nums, den), trailing zero numerators dropped."""
    while nums and not nums[-1]:
        nums = nums[:-1]
    return tuple(nums), den


int_polys = st.builds(
    _int_poly,
    st.lists(st.integers(min_value=-9, max_value=9), max_size=4),
    st.integers(min_value=1, max_value=12),
)


@settings(max_examples=60, deadline=None)
@given(int_polys, int_polys, small_rationals.filter(bool), small_rationals)
def test_integer_polynomials_match_param_polynomials(p, q, a, b):
    # ParamPolynomial arithmetic is the oracle of the integer kernel.
    pp, qq = int_poly_param(p), int_poly_param(q)
    assert int_poly_param(int_poly_add(p, q)) == pp + qq
    assert int_poly_param(int_poly_mul(p, q)) == pp * qq
    assert int_poly_param(int_poly_compose_affine(p, a, b)) == pp.compose_affine(a, b)


# ---------------------------------------------------------------------------
# One polynomial type over Gaussian-rational coefficients
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.lists(polys, min_size=4, max_size=4), st.lists(polys, min_size=4, max_size=4))
def test_conv_of_polynomial_tuples_matches_schoolbook(a, b):
    from lorentzknots.series import conv

    for order in range(4):
        want = tuple(
            sum((a[j] * b[k - j] for j in range(k + 1)), ParamPolynomial())
            for k in range(order + 1)
        )
        assert conv(a, b, order) == want


def test_coefficients_kept_or_coerced():
    exact = ParamPolynomial([1, F(1, 2), G(0, 1)])
    assert all(type(c) is GaussianRational for c in exact.coeffs)
    with pytest.raises(TypeError):
        ParamPolynomial([0.5])


def test_gaussian_polynomial_ring_ops_match_evaluation():
    a = ParamPolynomial([G(1, 1), 0, 3])
    b = ParamPolynomial([0, G(-2, 1)])
    for point in (F(1, 3), G(2, -1)):
        pa, pb = a.evaluate(point), b.evaluate(point)
        assert (a * b).evaluate(point) == pa * pb
        assert (a + b).evaluate(point) == pa + pb
        assert (b - a).evaluate(point) == pb - pa
    assert (a - a).is_zero()
    assert all(type(c) is GaussianRational for c in (a * b).coeffs)


def test_symbolic_braid_sum_coefficients_are_exact_polynomials():
    from lorentzknots.braids import parse_braid
    from lorentzknots.qlorentz import SYMBOLIC, braid_sum

    sym = braid_sum(parse_braid("-s1 -s1 -s1", 2), SYMBOLIC, 2)
    assert all(isinstance(poly, ParamPolynomial) for poly in sym.coeffs)
    assert all(type(c) is GaussianRational for poly in sym.coeffs for c in poly.coeffs)
    assert sym.coeffs[2] == ParamPolynomial([2, 0, -2])


def _symbolic_structure_constant():
    from lorentzknots.cg import lambda_coeff_symbolic

    _, fit = lambda_coeff_symbolic(2, 2, 2, 0, 2)
    return fit


@pytest.mark.parametrize(
    "operation, oracle",
    [
        (lambda p: p.evaluate(2), lambda p: p.evaluate(2)),
        (lambda p: p.coefficient(0), lambda p: p.evaluate(0)),
        (lambda p: p.constant(), lambda p: p.evaluate(0)),
        (lambda p: p.compose_affine(F(1, 2), 0).evaluate(4), lambda p: p.evaluate(2)),
        (lambda p: (p / 2).evaluate(3), lambda p: p.evaluate(3) / 2),
        (lambda p: (p**2).evaluate(3), lambda p: p.evaluate(3) * p.evaluate(3)),
    ],
    ids=["evaluate", "coefficient", "constant", "compose_affine", "truediv", "pow"],
)
def test_exact_operations_on_symbolic_structure_constants(operation, oracle):
    from lorentzknots.cg import lambda_coeff

    poly = _symbolic_structure_constant().coeffs[1]
    assert not poly.is_zero()
    assert type(operation(poly)) is GaussianRational
    assert operation(poly) == oracle(poly)
    # the symbolic constant specializes to the numeric one
    assert poly.evaluate(2) == lambda_coeff(2, 2, 2, 0, 2, 2).jet.coeffs[1]


def test_symbolic_series_json_round_trip():
    import json

    sym = _symbolic_structure_constant()
    doc = json.loads(json.dumps(sym.to_json()))
    assert doc["order"] == sym.order
    back = [ParamPolynomial.from_json(c) for c in doc["coeffs"]]
    assert back == list(sym.coeffs)
    assert any(p.degree() >= 1 for p in back)
    exact = ParamPolynomial([F(1, 3), G(0, -2)])
    assert ParamPolynomial.from_json(exact.to_json()) == exact
