"""Quantum coupling coefficients and balanced structure constants."""

import math
from fractions import Fraction

import mpmath
import pytest

from lorentzknots.cg import (
    _decoupling_block,
    cache_state,
    clear_caches,
    lambda_coeff,
    lambda_coeff_symbolic,
    quantum_cg,
    quantum_cg_decoupling,
)
from lorentzknots.scalars import GaussianRational, precision
from lorentzknots.series import constant_series, q_power, series_to_big

TOL = mpmath.mpf(10) ** -45


def close(a, b, tol=TOL):
    return max(abs(x - y) for x, y in zip(a.coeffs, b.coeffs)) < tol


def is_value(series, constant, tol=TOL):
    return all(
        abs(c - (constant if k == 0 else 0)) < tol
        for k, c in enumerate(series.coeffs)
    )


# ---------------------------------------------------------------------------
# Coupling coefficients
# ---------------------------------------------------------------------------


def test_trivial_coupling():
    with precision(60):
        assert is_value(quantum_cg(0, 0, 0, 0, 0, 0, 4), 1)


def test_selection_rules():
    with precision(60):
        assert quantum_cg(1, 1, 2, 1, 1, 0, 3).is_zero()  # m + n != p
        assert quantum_cg(1, 1, 6, 1, 1, 2, 3).is_zero()  # triangle fails
        assert quantum_cg(1, 1, 2, 3, -1, 2, 3).is_zero()  # index out of range


def _classical_cg(j1, j2, j, m1, m2, m):
    """Racah's closed form for classical coefficients (floats); test oracle."""
    if m1 + m2 != m:
        return 0.0
    if not (abs(j1 - j2) <= j <= j1 + j2):
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(m) > j:
        return 0.0

    def f(x):
        return math.factorial(int(round(x)))

    pref = (2 * j + 1) * f(j1 + j2 - j) * f(j1 - j2 + j) * f(-j1 + j2 + j) / f(
        j1 + j2 + j + 1
    )
    pref *= (
        f(j + m) * f(j - m) * f(j1 - m1) * f(j1 + m1) * f(j2 - m2) * f(j2 + m2)
    )
    total = 0.0
    k = 0
    while True:
        args = [
            j1 + j2 - j - k,
            j1 - m1 - k,
            j2 + m2 - k,
            j - j2 + m1 + k,
            j - j1 - m2 + k,
        ]
        if min(args[:3]) < -1e-9 and k > j1 + j2:
            break
        if all(a >= -1e-9 for a in args):
            total += (-1) ** k / (
                f(k) * f(args[0]) * f(args[1]) * f(args[2]) * f(args[3]) * f(args[4])
            )
        k += 1
        if k > int(2 * (j1 + j2 + j)) + 2:
            break
    return math.sqrt(pref) * total


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
    with precision(60):
        series = quantum_cg(*labels, 4)
        classical = _classical_cg(*(Fraction(x, 2) for x in labels))
        assert abs(series.coeffs[0] - classical) < mpmath.mpf(10) ** -12
        assert abs(series.coeffs[0].imag) < TOL


def test_coupling_orthogonality():
    """Rows of the coupling block pair to the identity against decoupling."""
    with precision(60):
        order = 3
        for dJ, dK in ((1, 1), (1, 2), (2, 2)):
            spins = range(abs(dJ - dK), dJ + dK + 1, 2)
            for dI in spins:
                for dIp in spins:
                    for dm in range(-min(dI, dIp), min(dI, dIp) + 1, 2):
                        acc = series_to_big(constant_series(0, order))
                        for dn in range(-dJ, dJ + 1, 2):
                            dp = dm - dn
                            acc = acc + quantum_cg_decoupling(
                                dI, dJ, dK, dm, dn, dp, order
                            ) * quantum_cg(dJ, dK, dIp, dn, dp, dm, order)
                        assert is_value(acc, 1 if dI == dIp else 0)


def test_decoupling_classical_limit_is_transpose():
    with precision(60):
        d = quantum_cg_decoupling(2, 1, 1, 0, 1, -1, 3)
        c = quantum_cg(1, 1, 2, 1, -1, 0, 3)
        assert abs(d.coeffs[0] - c.coeffs[0]) < mpmath.mpf(10) ** -12


# ---------------------------------------------------------------------------
# Structure constants
# ---------------------------------------------------------------------------


def test_lambda_alpha_zero_alpha_is_one():
    with precision(60):
        for da in (0, 2, 4, 6):
            assert is_value(lambda_coeff(da, 0, da, da, 1, 4), 1)
            assert is_value(lambda_coeff(da, 0, da, da, 3, 4), 1)


def test_lambda_triple_alpha_zero_for_half_integer():
    with precision(60):
        for da in (1, 3):
            assert lambda_coeff(da, da, da, 0, 2, 3).is_zero()
        for da in (2, 4):
            assert not lambda_coeff(da, da, da, 0, 2, 3).is_zero()


@pytest.mark.parametrize("C", [0, 1, 2, 3])
@pytest.mark.parametrize("p", [2, 3])
def test_lambda_spin_half_closed_forms(C, p):
    """The four explicit formulas for spin-1/2 columns, at tolerance 1e-45."""
    with precision(60):
        order = 4
        qp = series_to_big(q_power(p, order))
        qmp = series_to_big(q_power(-p, order))
        one = series_to_big(constant_series(1, order))
        q2C2 = series_to_big(q_power(2 * C + 2, order))
        if C >= 1:
            q2C = series_to_big(q_power(2 * C, order))
            rhs = (
                series_to_big(q_power(C, order)) * (qp + qmp) * (q2C + one).inverse()
            )
            assert close(lambda_coeff(2 * C, 1, 2 * C - 1, 2 * C, p, order), rhs)
        rhs = (
            -1
            * series_to_big(q_power(C + 1, order))
            * (qp + qmp)
            * (q2C2 + one).inverse()
        )
        assert close(lambda_coeff(2 * C, 1, 2 * C + 1, 2 * C, p, order), rhs)
        rhs = (q2C2 * qp - qmp) * (q2C2 + one).inverse()
        assert close(lambda_coeff(2 * C, 1, 2 * C + 1, 2 * C + 2, p, order), rhs)
        rhs = (q2C2 * qmp - qp) * (q2C2 + one).inverse()
        assert close(lambda_coeff(2 * C + 2, 1, 2 * C + 1, 2 * C, p, order), rhs)


def test_lambda_closed_form_at_gaussian_point():
    """Symbolic-mode polynomials evaluated at a complex rational point match
    the closed form with exact complex exponentials."""
    with precision(60):
        order = 3
        C = 1
        p = GaussianRational(Fraction(1, 2), Fraction(3, 2))  # complex point
        sym = lambda_coeff_symbolic(2 * C, 1, 2 * C + 1, 2 * C + 2, order)
        at_p = [poly.evaluate_big(p) for poly in sym.coeffs]
        q2C2 = series_to_big(q_power(2 * C + 2, order))
        one = series_to_big(constant_series(1, order))
        qp = series_to_big(q_power(p, order))
        qmp = series_to_big(q_power(-1 * p, order))
        rhs = (q2C2 * qp - qmp) * (q2C2 + one).inverse()
        assert max(abs(a - b) for a, b in zip(at_p, rhs.coeffs)) < TOL


def test_symbolic_matches_numeric():
    with precision(60):
        order = 3
        sym = lambda_coeff_symbolic(2, 2, 2, 0, order)
        for p in (1, 2, 5):
            num = lambda_coeff(2, 2, 2, 0, p, order)
            diff = max(
                abs(poly.evaluate_big(p) - c) for poly, c in zip(sym.coeffs, num.coeffs)
            )
            assert diff < TOL


def test_symbolic_degree_bound():
    with precision(60):
        sym = lambda_coeff_symbolic(2, 2, 2, 0, 4)
        for n, poly in enumerate(sym.coeffs):
            assert poly.degree() <= n


def test_cache_round_trip(tmp_path):
    from lorentzknots.qlorentz import load_lambda_cache, save_lambda_cache

    with precision(60):
        clear_caches()
        expected = lambda_coeff(2, 1, 3, 2, 2, 3)
        path = tmp_path / "lambda.cache"
        count = save_lambda_cache(path)
        assert count >= 1
        clear_caches()
        loaded = load_lambda_cache(path)
        assert loaded == count
        again = lambda_coeff(2, 1, 3, 2, 2, 3)
        assert all(a == b for a, b in zip(expected.coeffs, again.coeffs))


def test_cache_file_of_format_2_still_loads():
    # Saved by the format-2 writer at 30 digits (dps 50): Lambda^{222}_0 and
    # Lambda^{213}_2 at p = 3, order 2.  Loaded at the default precision,
    # the entries keep every bit (the first is irrational).
    from pathlib import Path

    from lorentzknots.qlorentz import load_lambda_cache

    path = Path(__file__).parent / "data" / "lambda_cache_v2.json"
    clear_caches()
    assert load_lambda_cache(path) == 2
    with mpmath.workdps(50):
        cached = [lambda_coeff(2, 2, 2, 0, 3, 2), lambda_coeff(2, 1, 3, 2, 3, 2)]
        clear_caches()
        fresh = [lambda_coeff(2, 2, 2, 0, 3, 2), lambda_coeff(2, 1, 3, 2, 3, 2)]
    assert [s.coeffs for s in cached] == [s.coeffs for s in fresh]
    clear_caches()


def _tripled_constant_terms(path, resign):
    import json

    from lorentzknots.qlorentz import _entries_digest

    doc = json.loads(path.read_text())
    for entry in doc["entries"]:
        entry["coeffs"][0][0][1] *= 3  # real mantissa of the h^0 coefficient
    if resign:
        doc["manifest"]["sha256"] = _entries_digest(doc["entries"])
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize(
    "resign, message", [(False, "SHA-256"), (True, r"labels \[2, 1, 3, 2\]")]
)
def test_cache_load_rejects_altered_entries(tmp_path, resign, message):
    from lorentzknots.qlorentz import load_lambda_cache, save_lambda_cache

    path = tmp_path / "lambda.cache"
    with precision(60):
        clear_caches()
        lambda_coeff(2, 1, 3, 2, 2, 3)
        save_lambda_cache(path)
        _tripled_constant_terms(path, resign)
        clear_caches()
        with pytest.raises(ValueError, match=message) as info:
            load_lambda_cache(path)
        assert str(path) in str(info.value)
        # nothing from the file was kept; only the recomputation is cached
        assert cache_state()[1] == (1 if resign else 0)


@pytest.mark.parametrize("text", ["[]", '{"manifest": 2}', "{}"])
def test_cache_load_rejects_other_documents(tmp_path, text):
    from lorentzknots.qlorentz import load_lambda_cache

    path = tmp_path / "other.cache"
    path.write_text(text)
    with pytest.raises(ValueError, match="format version"):
        load_lambda_cache(path)


def test_clear_caches_empties_every_memo_table():
    from lorentzknots import cg, jones, qlorentz, series
    from lorentzknots.braids import parse_braid

    trefoil = parse_braid("s1 s1 s1", 2)
    with precision(60):
        qlorentz.braid_sum(parse_braid("-s1 -s1 -s1", 2), 2, 1)
        jones.jones_z_interpolated(trefoil, 1)
    tables = [
        series._q_power_jet,
        series._q_integer_jet,
        series._q_factorial_jet,
        cg._quantum_cg,
        _decoupling_block,
        cg._lambda_coeff,
        qlorentz._g_action,
        qlorentz._group_like_weight,
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


def test_cache_file_of_format_2_is_reproduced_byte_for_byte(tmp_path):
    # Recomputing the two entries of the stored file at dps 50, in its order,
    # and saving them gives the same bytes the format-2 writer wrote.
    from pathlib import Path

    from lorentzknots.qlorentz import save_lambda_cache

    stored = Path(__file__).parent / "data" / "lambda_cache_v2.json"
    clear_caches()
    with mpmath.workdps(50):
        lambda_coeff(2, 2, 2, 0, 3, 2)
        lambda_coeff(2, 1, 3, 2, 3, 2)
    path = tmp_path / "again.json"
    assert save_lambda_cache(path) == 2
    clear_caches()
    assert path.read_bytes().strip() == stored.read_bytes().strip()


def test_symbolic_entries_are_memoized_but_not_saved(tmp_path):
    from lorentzknots.qlorentz import save_lambda_cache

    clear_caches()
    with precision(30):
        lambda_coeff_symbolic(2, 2, 2, 0, 2)
        assert lambda_coeff(2, 2, 2, 0, "symbolic", 2) is lambda_coeff_symbolic(
            2, 2, 2, 0, 2
        )
        lambda_coeff(2, 2, 2, 0, 3, 2)
        assert cache_state()[1] == 2
        assert save_lambda_cache(tmp_path / "c.json") == 1
    clear_caches()


@pytest.mark.parametrize(
    "name, compute",
    [
        ("quantum_cg", lambda: quantum_cg(2, 1, 3, 0, 1, 1, 3)),
        ("lambda_coeff", lambda: lambda_coeff(2, 2, 2, 0, 2, 3)),
        ("lambda_coeff_symbolic", lambda: lambda_coeff_symbolic(2, 2, 2, 0, 3)),
        ("g_action", lambda: _g_action_jets(2, 0, 0, 0, 0, 2, 3)),
        ("g_action_symbolic", lambda: _g_action_jets(2, 0, 0, 0, 0, "symbolic", 3)),
    ],
)
def test_value_built_at_15_digits_is_not_served_at_80(name, compute):
    clear_caches()
    with mpmath.workdps(15):
        low = compute()
    with mpmath.workdps(80):
        served = compute()
        clear_caches()
        fresh = compute()
    assert _flat(served) == _flat(fresh)
    assert _flat(low) != _flat(fresh)
    clear_caches()


def _g_action_jets(*args):
    from lorentzknots.qlorentz import g_action

    return [jet for _, jet in g_action(*args)]


def _flat(value):
    """Every mpc of a jet, a list of jets or a symbolic jet, in order."""
    if isinstance(value, list):
        return [x for jet in value for x in _flat(jet)]
    coeffs = value.coeffs if hasattr(value, "coeffs") else value
    out = []
    for c in coeffs:
        out.extend(c.coeffs if hasattr(c, "coeffs") else [c])
    return out
