"""Quantum coupling coefficients and balanced structure constants, exactly."""

import itertools
import math
from fractions import Fraction

import mpmath
import pytest

from lorentzknots import cg
from lorentzknots.cg import (
    RootJet,
    _root_sum,
    cache_state,
    clear_caches,
    lambda_coeff,
    lambda_coeff_symbolic,
    quantum_cg,
    quantum_cg_decoupling,
)
from lorentzknots.errors import InternalConsistencyError
from lorentzknots.polynomials import ParamPolynomial, specialize
from lorentzknots.scalars import GaussianRational, rational_sqrt
from lorentzknots.series import (
    TruncatedSeries,
    constant_series,
    jet_constant,
    jet_fractions,
    q_power,
    real_jet,
)


def is_value(value, constant):
    """The root jet equals the constant ``constant`` exactly."""
    return value.scaled() == jet_constant(constant, value.jet.order)


def at_point(sym, p):
    """A symbolic structure constant (radicand, fit) specialized at the
    real point p, as a root jet."""
    radicand, fit = sym
    return RootJet(radicand, real_jet(specialize(fit, p).coeffs))


def h0(value):
    """The classical (h^0) part of a root jet."""
    return RootJet(value.radicand, real_jet(jet_fractions(value.value)[:1]))


# ---------------------------------------------------------------------------
# Coupling coefficients
# ---------------------------------------------------------------------------


def test_trivial_coupling():
    assert is_value(quantum_cg(0, 0, 0, 0, 0, 0, 4), 1)


def test_selection_rules():
    assert quantum_cg(1, 1, 2, 1, 1, 0, 3).is_zero()  # m + n != p
    assert quantum_cg(1, 1, 6, 1, 1, 2, 3).is_zero()  # triangle fails
    assert quantum_cg(1, 1, 2, 3, -1, 2, 3).is_zero()  # index out of range


def _classical_cg(j1, j2, j, m1, m2, m):
    """Racah's closed form for classical coefficients; test oracle.

    Returns (radicand, rational) with the coefficient sqrt(radicand) *
    rational, both exact.
    """
    if m1 + m2 != m:
        return Fraction(1), Fraction(0)
    if not (abs(j1 - j2) <= j <= j1 + j2):
        return Fraction(1), Fraction(0)
    if abs(m1) > j1 or abs(m2) > j2 or abs(m) > j:
        return Fraction(1), Fraction(0)

    def f(x):
        return math.factorial(int(x))

    pref = Fraction(
        (2 * j + 1) * f(j1 + j2 - j) * f(j1 - j2 + j) * f(-j1 + j2 + j),
        f(j1 + j2 + j + 1),
    )
    pref *= f(j + m) * f(j - m) * f(j1 - m1) * f(j1 + m1) * f(j2 - m2) * f(j2 + m2)
    total = Fraction(0)
    for k in range(int(2 * (j1 + j2 + j)) + 3):
        args = [
            j1 + j2 - j - k,
            j1 - m1 - k,
            j2 + m2 - k,
            j - j2 + m1 + k,
            j - j1 - m2 + k,
        ]
        if all(a >= 0 for a in args):
            denom = f(k)
            for a in args:
                denom *= f(a)
            total += Fraction((-1) ** k, denom)
    return pref, total


@pytest.mark.parametrize(
    "labels",
    [
        (1, 1, 2, 1, 1, 2),
        (1, 1, 2, 1, -1, 0),
        (1, 1, 0, 1, -1, 0),
        (2, 1, 1, 0, 1, 1),
        (2, 2, 2, 2, -2, 0),
        (2, 1, 3, 0, 1, 1),
    ],
)
def test_classical_limit_matches_racah(labels):
    value = quantum_cg(*labels, 4)
    radicand, rational = _classical_cg(*(Fraction(x, 2) for x in labels))
    assert h0(value) == RootJet(radicand, jet_constant(rational, 0))
    assert value.jet.coeffs[0].is_real()


def _coupling_block(dJ, dK, dx, order):
    """The coupling block of J (x) K at total weight x: rows are the weight
    pairs (n, p) with n + p = x, columns the total spins I."""
    pairs = [(dn, dx - dn) for dn in range(-dJ, dJ + 1, 2) if abs(dx - dn) <= dK]
    spins = [dI for dI in range(abs(dJ - dK), dJ + dK + 1, 2) if abs(dx) <= dI]
    block = [[quantum_cg(dJ, dK, dI, dn, dp, dx, order) for dI in spins]
             for dn, dp in pairs]
    return pairs, spins, block


def test_coupling_orthogonality():
    """C C^T = 1 and C^T C = 1 for every coupling block with J, K <= 2, to
    order 4: the decoupling coefficient is the transposed coupling one."""
    order = 4
    count = 0
    for dJ in range(5):
        for dK in range(5):
            for dx in range(-dJ - dK, dJ + dK + 1, 2):
                pairs, spins, C = _coupling_block(dJ, dK, dx, order)
                assert len(pairs) == len(spins)
                for gram in (C, [list(col) for col in zip(*C)]):
                    for r, row in enumerate(gram):
                        for s, other in enumerate(gram):
                            acc = _root_sum(
                                [x * y for x, y in zip(row, other)],
                                order,
                                ("orthogonality", dJ, dK, dx, r, s),
                            )
                            assert is_value(acc, int(r == s))
                            count += 1
    assert count == 1034


def test_decoupling_classical_limit_is_transpose():
    d = quantum_cg_decoupling(2, 1, 1, 0, 1, -1, 3)
    c = quantum_cg(1, 1, 2, 1, -1, 0, 3)
    assert h0(d) == h0(c)
    assert d == c  # to every order, not only the classical limit
    assert quantum_cg_decoupling(2, 1, 1, 0, 1, 1, 3).is_zero()  # n + p != m


def test_coupling_radicands_factor_by_row_and_column():
    # Every 2x2 minor of a block's radicands is a rational square: the
    # block's surds are a row part times a column part.
    from lorentzknots.scalars import rational_sqrt

    for dJ in range(5):
        for dK in range(5):
            for dx in range(-dJ - dK, dJ + dK + 1, 2):
                pairs, spins, block = _coupling_block(dJ, dK, dx, 1)
                c0 = [[cell.radicand for cell in row] for row in block]
                for r in range(len(pairs)):
                    for c in range(len(spins)):
                        rational_sqrt(c0[r][c] * c0[0][0] / (c0[r][0] * c0[0][c]))


def test_irrational_combination_names_its_labels():
    value = RootJet(2, jet_constant(1, 1))
    with pytest.raises(InternalConsistencyError, match=r"radicand 6 at labels \('demo', 3\)"):
        value.rational(3, ("demo", 3))
    assert value.rational(2) == constant_series(2, 1)
    assert RootJet(2, jet_constant(0, 1)).rational() == constant_series(0, 1)


# ---------------------------------------------------------------------------
# Structure constants
# ---------------------------------------------------------------------------


def test_lambda_alpha_zero_alpha_is_one():
    for da in (0, 2, 4, 6):
        assert is_value(lambda_coeff(da, 0, da, da, 1, 4), 1)
        assert is_value(lambda_coeff(da, 0, da, da, 3, 4), 1)


def test_lambda_triple_alpha_zero_for_half_integer():
    for da in (1, 3):
        assert lambda_coeff(da, da, da, 0, 2, 3).is_zero()
    for da in (2, 4):
        assert not lambda_coeff(da, da, da, 0, 5, 3).is_zero()
    # At spin 2 every h-order carries the factor (p - 1)(p - 2), so the
    # constant vanishes exactly at p = 2 (floats left a 10^-81 residue).
    # Its h^2 coefficient is sqrt(504/5) (p - 1)(p - 2)/12.
    radicand, fit = lambda_coeff_symbolic(4, 4, 4, 0, 3)
    ratio = rational_sqrt(radicand / Fraction(504, 5))
    assert fit.coeffs[2] * ratio == ParamPolynomial([2, -3, 1]) * Fraction(1, 12)
    assert lambda_coeff(4, 4, 4, 0, 2, 3).is_zero()


@pytest.mark.parametrize("C", [0, 1, 2, 3])
@pytest.mark.parametrize("p", [2, 3])
def test_lambda_spin_half_closed_forms(C, p):
    """The four explicit formulas for spin-1/2 columns, exactly."""
    order = 4
    qp, qmp = q_power(p, order), q_power(-p, order)
    one = constant_series(1, order)
    q2C2 = q_power(2 * C + 2, order)
    if C >= 1:
        rhs = q_power(C, order) * (qp + qmp) / (q_power(2 * C, order) + one)
        assert lambda_coeff(2 * C, 1, 2 * C - 1, 2 * C, p, order).rational() == rhs
    rhs = -1 * q_power(C + 1, order) * (qp + qmp) / (q2C2 + one)
    assert lambda_coeff(2 * C, 1, 2 * C + 1, 2 * C, p, order).rational() == rhs
    rhs = (q2C2 * qp - qmp) / (q2C2 + one)
    assert lambda_coeff(2 * C, 1, 2 * C + 1, 2 * C + 2, p, order).rational() == rhs
    rhs = (q2C2 * qmp - qp) / (q2C2 + one)
    assert lambda_coeff(2 * C + 2, 1, 2 * C + 1, 2 * C, p, order).rational() == rhs


def test_lambda_closed_form_at_gaussian_point():
    """Symbolic-mode polynomials evaluated at a complex rational point equal
    the closed form with exact complex exponentials; the real-p constant
    refuses that point."""
    order = 3
    C = 1
    p = GaussianRational(Fraction(1, 2), Fraction(3, 2))  # complex point
    radicand, fit = lambda_coeff_symbolic(2 * C, 1, 2 * C + 1, 2 * C + 2, order)
    q2C2 = q_power(2 * C + 2, order)
    one = constant_series(1, order)
    rhs = (q2C2 * q_power(p, order) - q_power(-1 * p, order)) / (q2C2 + one)
    assert specialize(fit, p) * rational_sqrt(radicand) == rhs
    with pytest.raises(ValueError, match="real p"):
        lambda_coeff(2 * C, 1, 2 * C + 1, 2 * C + 2, p, order)


def test_symbolic_matches_numeric():
    """The fit through p = 1..order+3 specialized off its nodes, at
    p = 1/2, 5/2, -3 and order+4, equals the structure constant computed at
    that real p, for every label set with doubled spins <= 4 at orders 2-4."""
    for order in (2, 3, 4):
        for labels in itertools.product(range(5), repeat=4):
            sym = lambda_coeff_symbolic(*labels, order)
            for p in (Fraction(1, 2), Fraction(5, 2), -3, order + 4):
                assert at_point(sym, p) == lambda_coeff(*labels, p, order), (labels, order, p)
    sym = lambda_coeff_symbolic(2, 2, 2, 0, 3)
    with pytest.raises(ValueError, match="lambda_coeff needs a real p"):
        lambda_coeff(2, 2, 2, 0, "symbolic", 3)
    for p in (1, 2, 5):
        assert at_point(sym, p) == lambda_coeff(2, 2, 2, 0, p, 3)


def _lambda_reference(dA, dB, dC, dD, p, order):
    """Lambda^{A B C}_D(p) by its per-p formula: the root-jet sum over
    sigma of weight * left * right."""
    from lorentzknots.series import _q_power_jet

    terms = []
    for d_sigma in range(-min(dB, dC), min(dB, dC) + 1):
        if (d_sigma - dB) % 2 == 0 and (d_sigma - dC) % 2 == 0:
            left = quantum_cg_decoupling(dA, dC, dB, 0, d_sigma, -d_sigma, order)
            right = quantum_cg(dB, dC, dD, -d_sigma, d_sigma, 0, order)
            weight = RootJet(1, _q_power_jet(d_sigma * Fraction(p), order))
            terms.append(weight * (left * right))
    return _root_sum(terms, order, ("reference",))


def test_lambda_matches_its_per_p_formula():
    # The p-free sigma terms weighted at p give the radicand and the jet
    # of the per-p root-jet sum exactly.
    for order in (2, 3, 4):
        for labels in itertools.product(range(5), repeat=4):
            for p in (1, 2, 3, Fraction(5, 2)):
                value = lambda_coeff(*labels, p, order)
                expect = _lambda_reference(*labels, p, order)
                assert (value.radicand, value.value) == (expect.radicand, expect.value), (
                    labels, order, p
                )


@pytest.mark.parametrize("order", [-1, -2, 2.0, "2"], ids=repr)
def test_quantum_cg_rejects_a_bad_order(order):
    clear_caches()  # cold; test_a_warm_table_refuses_a_bad_order is the warm case
    with pytest.raises(ValueError, match="order"):
        quantum_cg(2, 1, 3, 0, 1, 1, order)


@pytest.mark.parametrize("order", [-1, -2, 2.0, "2"], ids=repr)
def test_lambda_coeff_rejects_a_bad_order(order):
    clear_caches()
    with pytest.raises(ValueError, match="order"):
        lambda_coeff(2, 2, 2, 0, 2, order)


@pytest.mark.parametrize("order", [-1, -2, 2.0, "2"], ids=repr)
def test_lambda_coeff_symbolic_rejects_a_bad_order(order):
    with pytest.raises(ValueError, match="order"):
        lambda_coeff_symbolic(2, 2, 2, 0, order)


@pytest.mark.parametrize("order", [2.0, Fraction(2)], ids=repr)
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize(
    "compute",
    [
        lambda order: quantum_cg(2, 1, 3, 0, 1, 1, order),
        lambda order: lambda_coeff(2, 2, 2, 0, 2, order),
        lambda order: _g_action_jets(2, 0, 0, 0, 0, 2, order),
    ],
    ids=["quantum_cg", "lambda_coeff", "g_action"],
)
def test_a_warm_table_refuses_a_bad_order(compute, warm, order):
    # 2.0 and Fraction(2) are equal to 2 as memo keys: the check runs
    # before the lookup, so an order-2 entry is never served for them.
    clear_caches()
    if warm:
        compute(2)
    with pytest.raises(ValueError, match="order"):
        compute(order)
    clear_caches()


def test_symbolic_degree_bound():
    _, fit = lambda_coeff_symbolic(2, 2, 2, 0, 4)
    for n, poly in enumerate(fit.coeffs):
        assert poly.degree() <= n


def test_symbolic_radicands_must_agree_across_nodes():
    # The symbolic constant's radicand is that of every real-p value: at
    # the fit's nodes p = 1..order+3 and off them.
    order = 2
    for labels in itertools.product(range(5), repeat=4):
        radicand, _ = lambda_coeff_symbolic(*labels, order)
        for p in [*range(1, order + 4), Fraction(5, 2)]:
            assert lambda_coeff(*labels, p, order).radicand == radicand, (labels, p)


def test_structure_constants_compute_on_integer_jets_only(monkeypatch):
    # Cold structure constants at real p and the closed trefoil sum run on
    # the integer jets of the series kernel: no Gaussian-rational,
    # polynomial or TruncatedSeries product happens anywhere in them.
    from lorentzknots.braids import parse_braid
    from lorentzknots.qlorentz import braid_sum, trefoil_closed_sum

    def refuse(self, other):
        raise AssertionError(f"{type(self).__name__} product in a structure constant")

    order = 3
    clear_caches()
    for kind in (GaussianRational, ParamPolynomial, TruncatedSeries):
        monkeypatch.setattr(kind, "__mul__", refuse)
        monkeypatch.setattr(kind, "__rmul__", refuse)
    columns = {
        (C, p): lambda_coeff(2 * C, 1, 2 * C + 1, 2 * C + 2, p, order)
        for C in range(3)
        for p in (2, 3)
    }
    closed = trefoil_closed_sum(2, order)
    monkeypatch.undo()
    one = constant_series(1, order)
    for (C, p), value in columns.items():
        nums, den = value.value
        assert type(den) is int and all(type(n) is int for n in nums)
        q2C2 = q_power(2 * C + 2, order)
        rhs = (q2C2 * q_power(p, order) - q_power(-p, order)) / (q2C2 + one)
        assert value.rational() == rhs
    clear_caches()
    assert closed == braid_sum(parse_braid("-s1 -s1 -s1", 2), 2, order)


def test_clear_caches_empties_every_memo_table():
    from lorentzknots import jones, qlorentz, series
    from lorentzknots.braids import parse_braid

    trefoil = parse_braid("s1 s1 s1", 2)
    qlorentz.braid_sum(parse_braid("-s1 -s1 -s1", 2), 2, 1)
    jones.jones_z_interpolated(trefoil, 1)
    tables = [
        series._q_power_jet,
        series._q_integer_jet,
        series._q_factorial_jet,
        cg._quantum_cg,
        cg._lambda_terms,
        cg._lambda_coeff,
        qlorentz._g_terms,
        qlorentz._g_action,
        qlorentz._walk,
        qlorentz._antipode_factor,
        jones._braiding_table,
        jones._tangle_scalar,
        jones._interpolated,
        jones._unknot_expansion,
    ]
    assert all(t.cache_info().currsize for t in tables)
    assert all(t.table for t in tables) and all(cache_state())
    clear_caches()
    assert not any(t.cache_info().currsize for t in tables)
    assert not any(t.table for t in tables)
    assert cache_state() == (0, 0)


def _g_action_jets(*args):
    from lorentzknots.qlorentz import g_action

    return g_action(*args)


def _trefoil_sum(p):
    from lorentzknots.braids import parse_braid
    from lorentzknots.qlorentz import braid_sum

    return braid_sum(parse_braid("-s1 -s1 -s1", 2), p, 2)


@pytest.mark.parametrize(
    "name, compute",
    [
        ("quantum_cg", lambda: quantum_cg(2, 1, 3, 0, 1, 1, 3)),
        ("lambda_coeff", lambda: lambda_coeff(2, 2, 2, 0, 2, 3)),
        ("lambda_coeff_symbolic", lambda: lambda_coeff_symbolic(2, 2, 2, 0, 3)),
        ("g_action", lambda: _g_action_jets(2, 0, 0, 0, 0, 2, 3)),
        ("braid_sum", lambda: _trefoil_sum(2)),
        ("braid_sum_symbolic", lambda: _trefoil_sum("symbolic")),
    ],
)
def test_values_do_not_depend_on_the_working_precision(name, compute):
    import inspect

    from lorentzknots import qlorentz

    tables = [cg._quantum_cg, cg._lambda_coeff, qlorentz._g_action, qlorentz._antipode_factor]
    clear_caches()
    with mpmath.workdps(15):
        low = compute()
    sizes = [len(t.table) for t in tables]
    with mpmath.workdps(80):
        served = compute()
        # no memo key carries a precision: nothing new was computed
        assert [len(t.table) for t in tables] == sizes
        clear_caches()
        fresh = compute()
    assert _exact(low) == _exact(served) == _exact(fresh)
    for table in tables:
        arity = len(inspect.signature(table).parameters)
        assert all(len(key) <= arity for key in table.table)
    clear_caches()


def _exact(value):
    """The value's exact data: radicand and coefficients, or coefficients."""
    if isinstance(value, RootJet):
        return value.radicand, value.jet.coeffs
    if isinstance(value, tuple):
        return value
    return value.coeffs
