"""Balanced-representation actions and truncated braid sums."""

import mpmath
import pytest

from lorentzknots.braids import BraidWord, markov_variants, mirror, parse_braid
from lorentzknots.errors import ResourceGuardError
from lorentzknots.qlorentz import (
    SYMBOLIC,
    braid_sum,
    g_action,
    group_like_action,
    tangle_word,
    trefoil_closed_sum,
    x_action,
)
from lorentzknots.scalars import precision

TOL = mpmath.mpf(10) ** -45

TREFOIL_R = parse_braid("s1 s1 s1", 2)
TREFOIL_L = parse_braid("-s1 -s1 -s1", 2)


def series_close(a, b, tol=TOL):
    return max(abs(x - y) for x, y in zip(a.coeffs, b.coeffs)) < tol


def series_is(series, constant, tol=TOL):
    return all(
        abs(c - (constant if k == 0 else 0)) < tol
        for k, c in enumerate(series.coeffs)
    )


# ---------------------------------------------------------------------------
# Word construction
# ---------------------------------------------------------------------------


def test_tangle_word_right_trefoil_pattern():
    # One full walk along the closure: X g X G g X g, crossings 0 1 2 0 1 2.
    ops, signs = tangle_word(TREFOIL_R)
    assert ops == [
        ("X", 0), ("g", 1), ("X", 2), ("G",), ("g", 0), ("X", 1), ("g", 2),
    ]
    assert signs == [1, 1, 1]


def test_tangle_word_left_trefoil_pattern():
    ops, signs = tangle_word(TREFOIL_L)
    assert ops == [
        ("g", 0), ("X", 1), ("g", 2), ("G",), ("X", 0), ("g", 1), ("X", 2),
    ]
    assert signs == [-1, -1, -1]


def test_tangle_word_length():
    f8 = parse_braid("s1 -s2 s1 -s2", 3)
    ops, _ = tangle_word(f8)
    assert len(ops) == 2 * 4 + 2
    assert sum(1 for op in ops if op[0] == "G") == 2


def test_tangle_word_rejects_links():
    with pytest.raises(ValueError):
        tangle_word(parse_braid("s1", 3))


# ---------------------------------------------------------------------------
# Elementary actions
# ---------------------------------------------------------------------------


def test_x_action_matrix_elements():
    assert x_action(0, 0, 0, 0, 0) == ((0, 0),)
    assert x_action(2, 0, 2, 2, 0) == ((2, 2),)
    assert x_action(2, 0, 2, 4, 0) == ()  # spin mismatch
    assert x_action(2, 2, 0, 2, 0) == ()  # index mismatch


def test_group_like_is_exponential_weight():
    with precision(60):
        w = group_like_action(2, 4)  # q^{2i} with i = 1: e^{h}
        expect = [1, 1, mpmath.mpf(1) / 2, mpmath.mpf(1) / 6, mpmath.mpf(1) / 24]
        assert max(abs(a - b) for a, b in zip(w, expect)) < TOL


def test_group_like_weight_follows_working_precision():
    # A weight first built at 15 digits must not be served at 60.
    with precision(15):
        group_like_action(1, 3)
    with precision(60):
        w = group_like_action(1, 3)  # e^{h/2}: h^3 coefficient 1/48
        assert abs(w[3] - mpmath.mpf(1) / 48) < TOL


def test_trivial_dual_generator_is_identity():
    with precision(60):
        for state in ((0, 0), (2, 2), (4, -2)):
            cols = g_action(0, 0, 0, state[0], state[1], 2, 3)
            assert len(cols) == 1
            ((s, entry),) = cols
            assert s == state
            assert abs(entry[0] - 1) < TOL
            assert all(abs(c) < TOL for c in entry[1:])


def test_g_action_matrix_element_order_bound():
    # order of <gamma| g^alpha |beta> is at least |beta - gamma| in h
    with precision(60):
        for da in (1, 2):
            for dbeta in (0, 2):
                for di in range(-da, da + 1, 2):
                    for dj in range(-da, da + 1, 2):
                        for (dg, _), entry in g_action(
                            da, di, dj, dbeta, 0, 2, 4
                        ):
                            gap = abs(dbeta - dg) // 2
                            for k in range(min(gap, 4)):
                                assert abs(entry[k]) < TOL


def test_vacuum_row_factorizes_into_cg_and_lambda():
    # The (0,0)-row of the dual generator's action is a single decoupling
    # coefficient times a structure constant with trivial first label.
    from lorentzknots.cg import lambda_coeff, quantum_cg_decoupling

    with precision(60):
        p, order = 2, 3
        for da in (1, 2):
            for d_i in range(-da, da + 1, 2):
                for d_j in range(-da, da + 1, 2):
                    for dbeta in (0, 2):
                        for dib in range(-dbeta, dbeta + 1, 2):
                            cols = dict(
                                g_action(da, d_i, d_j, dbeta, dib, p, order, True)
                            )
                            got = cols.get((0, 0))
                            dx = d_j + dib
                            if dx != d_i:
                                assert got is None
                                continue
                            expect = quantum_cg_decoupling(
                                da, da, dbeta, d_i, d_j, dib, order
                            ) * lambda_coeff(0, da, da, dbeta, p, order)
                            if got is None:
                                assert expect.is_zero() or max(
                                    abs(c) for c in expect.coeffs
                                ) < TOL
                            else:
                                assert max(
                                    abs(a - b)
                                    for a, b in zip(got, expect.coeffs)
                                ) < TOL


def test_g_action_transpose_consistency():
    with precision(50):
        da, p, order = 1, 2, 2
        for d_i in (-1, 1):
            for d_j in (-1, 1):
                for dbeta, dib in ((0, 0), (2, 0), (2, 2)):
                    fwd = dict(g_action(da, d_i, d_j, dbeta, dib, p, order, True))
                    for (dg, dig), entry in fwd.items():
                        bwd = dict(
                            g_action(da, d_i, d_j, dg, dig, p, order, False)
                        )
                        back = bwd.get((dbeta, dib))
                        assert back is not None
                        assert max(abs(a - b) for a, b in zip(entry, back)) < TOL


# ---------------------------------------------------------------------------
# Braid sums
# ---------------------------------------------------------------------------


def test_unknot_sum_is_one():
    with precision(60):
        assert series_is(braid_sum(BraidWord(1), 2, 3), 1)


@pytest.mark.parametrize("word", ["s1 s1 -s1", "-s1 -s1 s1", "s1 -s1 s1", "-s1 s1 -s1"])
def test_mixed_sign_unknot_words(word):
    # These closures are unknots; positive and negative crossing data must
    # compose to the identity for the sums to collapse to 1.
    with precision(60):
        assert series_is(braid_sum(parse_braid(word, 2), 2, 2), 1)


@pytest.mark.parametrize("p", [2, 3])
def test_left_trefoil_matches_closed_reduction(p):
    with precision(60):
        lhs = braid_sum(TREFOIL_L, p, 3)
        rhs = trefoil_closed_sum(p, 3)
        assert series_close(lhs, rhs)


def test_trefoil_mirror_sums_equal():
    with precision(60):
        assert series_close(braid_sum(TREFOIL_R, 2, 3), braid_sum(TREFOIL_L, 2, 3))


def test_closed_sum_order_zero_is_one():
    with precision(60):
        s = trefoil_closed_sum(2, 3)
        assert abs(s.coeffs[0] - 1) < TOL


def test_truncation_soundness():
    with precision(60):
        a = braid_sum(TREFOIL_L, 2, 3, label_cutoff=3)
        b = braid_sum(TREFOIL_L, 2, 3, label_cutoff=4)
        assert series_close(a, b)


def test_markov_invariance_small_order():
    with precision(60):
        base = braid_sum(TREFOIL_R, 2, 2)
        for v in markov_variants(TREFOIL_R)[:6]:
            assert series_close(braid_sum(v, 2, 2), base)


def test_symbolic_mode_matches_numeric():
    with precision(60):
        sym = braid_sum(TREFOIL_L, SYMBOLIC, 2)
        for p in (2, 3):
            num = braid_sum(TREFOIL_L, p, 2)
            diff = max(
                abs(poly.evaluate(p) - c)
                for poly, c in zip(sym.coeffs, num.coeffs)
            )
            assert diff < TOL
        for n, poly in enumerate(sym.coeffs):
            assert poly.degree() <= 2 * n


def test_branch_guard():
    with pytest.raises(ResourceGuardError):
        with precision(40):
            braid_sum(TREFOIL_L, 2, 2, max_branches=1)
