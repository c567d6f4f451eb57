"""Assembled two-parameter invariants and the cross-pipeline comparison."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings

from lorentzknots import jones
from lorentzknots.braids import CATALOG, BraidWord, mirror, parse_braid, reverse
from lorentzknots.invariants import (
    equivalence_check,
    jones_relation_check,
    x_invariant,
)
from lorentzknots.jones import jones_z_interpolated
from lorentzknots.qlorentz import SYMBOLIC
from lorentzknots.scalars import GaussianRational
from lorentzknots.series import clear_caches
from test_jones import _KNOT_BRAIDS  # knot braids, <= 5 crossings, <= 3 strands

F = Fraction
TREFOIL = parse_braid("s1 s1 s1", 2)
FIG8 = parse_braid("s1 -s2 s1 -s2", 3)
UNKNOT = BraidWord(1)


def test_unknot_invariant_is_squared_expansion():
    # Oracle: both factors of X(0, p, unknot) are the closed-form expansion
    # of the unknot at spin (p-1)/2, so X is its square.
    from lorentzknots.series import TruncatedSeries

    inv = x_invariant(UNKNOT, 0, 4)
    U = jones_z_interpolated(UNKNOT, 4)
    sub = [poly.compose_affine(F(1, 2), F(-1, 2)) for poly in U.coeffs]
    factor = TruncatedSeries(4, sub)
    assert inv.series == factor * factor


def test_structure_checks_pass_for_catalog():
    for b in (TREFOIL, mirror(TREFOIL), FIG8):
        x_invariant(b, 0, 3).check_structure()


@pytest.mark.parametrize(
    "b", [k.braid for k in CATALOG.values() if k.braid.letters], ids=str
)
def test_x_invariant_never_walks_the_mirror_braid(b):
    # The mirror factor is the knot's own expansion at -h, so no sample,
    # walk or fit of the mirror braid is made.
    clear_caches()
    for m in (0, 1, 2):
        x_invariant(b, m, 2)
    for memo in (jones._tangle_scalar, jones._interpolated):
        letters = {key[1] for key in memo.table}
        assert b.letters in letters and mirror(b).letters not in letters
    clear_caches()


def test_mirror_insensitive_at_minimal_spin_zero():
    assert x_invariant(TREFOIL, 0, 4).series == x_invariant(mirror(TREFOIL), 0, 4).series


def test_unoriented():
    for b in (TREFOIL, FIG8):
        assert x_invariant(b, 0, 3).series == x_invariant(reverse(b), 0, 3).series
        assert x_invariant(b, 1, 3).series == x_invariant(reverse(b), 1, 3).series


def test_even_in_p_and_vanishing_at_one():
    inv = x_invariant(FIG8, 0, 3)
    for n, poly in enumerate(inv.series.coeffs):
        assert poly.is_even()
        assert poly.degree() <= 2 * n
        if n:
            assert poly.evaluate(1) == 0


def test_framed_sensitivity_only_for_nonzero_m():
    # Per unit framing the two factors of X pick up opposite kink
    # exponents whose net is twice the one-chord weight eigenvalue of the
    # balanced tensor: identically zero iff m = 0, and zero at p = 0.
    from lorentzknots.diagrams import THETA
    from lorentzknots.weights import (
        T_JONES_SL2,
        lambda_mp_factorized,
        sl2_quadratic_eigenvalue,
    )

    cz = 2 * sl2_quadratic_eigenvalue(T_JONES_SL2)
    for m in (0, 1, 2):
        zsub = cz.compose_affine(F(1, 2), F(m - 1, 2))
        wsub = cz.compose_affine(F(1, 2), F(-m - 1, 2))
        net = wsub - zsub  # mirror factor carries the opposite exponent
        assert net == 2 * lambda_mp_factorized(THETA, m)
        if m == 0:
            assert net.is_zero()
        else:
            assert not net.is_zero()
            assert net.evaluate(0) == 0


def test_jones_relation_half_integer_points():
    r = jones_relation_check(TREFOIL, 0, 0, 3)
    assert r["pass"]
    r = jones_relation_check(TREFOIL, 1, 1, 3)
    assert r["pass"]
    r = jones_relation_check(TREFOIL, 2, 0, 3)
    assert r["pass"]
    r = jones_relation_check(FIG8, 1, 1, 2)
    assert r["pass"]


def test_jones_relation_rejects_non_integer_difference():
    with pytest.raises(ValueError):
        jones_relation_check(TREFOIL, 1, 0, 2)


def test_equivalence_check_trivial_point():
    report = equivalence_check(UNKNOT, 1, 3)
    assert report["pass"]
    assert report["lhs"] == report["rhs"] == [[1, 1, 0, 1]] + [[0, 1, 0, 1]] * 3


def test_equivalence_check_trefoil_small():
    report = equivalence_check(mirror(TREFOIL), 2, 2)
    assert report["pass"]


@pytest.mark.parametrize("b", [TREFOIL, mirror(TREFOIL), FIG8], ids=str)
def test_equivalence_check_at_symbolic_p(b):
    # S_b(p) U(p)^2 = X(0, p) as one identity of jets of polynomials in p
    report = equivalence_check(b, SYMBOLIC, 3)
    assert report["pass"] and report["p"] == SYMBOLIC
    assert report["lhs"] == report["rhs"]


def test_symbolic_equivalence_check_fails_on_the_wrong_braid_sum(monkeypatch):
    from lorentzknots import invariants
    from lorentzknots.qlorentz import braid_sum

    fig8_sum = braid_sum(FIG8, SYMBOLIC, 2)
    monkeypatch.setattr(invariants, "braid_sum", lambda b, p, order: fig8_sum)
    assert not equivalence_check(TREFOIL, SYMBOLIC, 2)["pass"]


def test_equivalence_check_rejects_p_below_one():
    with pytest.raises(ValueError, match="p >= 1"):
        equivalence_check(TREFOIL, 0, 2)


@pytest.mark.parametrize("p", [F(5, 2), GaussianRational(2, 1), 2.0], ids=repr)
def test_equivalence_check_rejects_non_integer_p(p):
    with pytest.raises(ValueError, match="integer p >= 1 or p = SYMBOLIC"):
        equivalence_check(TREFOIL, p, 2)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_KNOT_BRAIDS)
def test_random_knot_braid_sums_equal_the_spin_pipeline(b):
    assert equivalence_check(b, 2, 2)["pass"]


def test_x_invariant_rejects_links_and_bad_m():
    with pytest.raises(ValueError):
        x_invariant(parse_braid("s1", 3), 0, 2)
    with pytest.raises(ValueError):
        x_invariant(TREFOIL, F(1, 2), 2)


def _value_lines():
    """Exact values of both pipelines, one line each: the spin expansions
    and X(m, p), the symbolic structure constants and the coproducts."""
    from lorentzknots.cg import lambda_coeff_symbolic
    from lorentzknots.diagrams import coproduct, enumerate_diagrams

    def coeffs(series):
        return ";".join(repr(c) for c in series.coeffs)

    knots = [k.braid for k in CATALOG.values()] + [parse_braid("s1 s1 s1 s2 -s1 s2", 3)]
    lines = []
    for order in range(4, -1, -1):
        clear_caches()
        for b in knots:
            lines.append(f"I|{b}|{order}|{coeffs(jones_z_interpolated(b, order))}")
    for b in knots:
        for m in (0, 1, 2):
            lines.append(f"X{m}|{b}|{coeffs(x_invariant(b, m, 3).series)}")
    for dA in range(5):
        for dC in range(5):
            for dD in range(5):
                radicand, fit = lambda_coeff_symbolic(dA, 1, dC, dD, 3)
                lines.append(f"L|{dA},1,{dC},{dD}|{radicand}|{coeffs(fit)}")
    for n in range(5):
        for d in enumerate_diagrams(n):
            lines.append(f"D|{d.gauss_text()}|{coproduct(d)!r}")
    clear_caches()
    return lines


def test_values_match_the_parent_digest():
    # SHA-256 of the lines above, taken from the code before its memo,
    # radicand and diagram-sum paths were merged: a refactor that keeps
    # behaviour keeps every one of these exact values.
    digest = hashlib.sha256("\n".join(_value_lines()).encode()).hexdigest()
    assert digest == "84d391d8c5319cbf7314b0e4517f80d460e488392082c97a2192e882f4656df8"
