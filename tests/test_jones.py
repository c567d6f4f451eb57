"""Quantum sl2 braid engine: braiding identities, framing, interpolation."""

from fractions import Fraction
from functools import cache
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from lorentzknots import jones, polynomials, scalars
from lorentzknots.braids import (
    CATALOG,
    BraidWord,
    markov_variants,
    mirror,
    parse_braid,
    reverse,
)
from lorentzknots.errors import InternalConsistencyError
from lorentzknots.jones import (
    SeriesOperator,
    _framing_jet,
    jones_framed,
    jones_z_interpolated,
    jones_zero_framed,
    r_matrix,
)
from lorentzknots.polynomials import (
    ParamPolynomial,
    lagrange_interpolate,
    poly_variable,
    specialize,
)
from lorentzknots.series import (
    TruncatedSeries,
    clear_caches,
    exp_scaled,
    jet_add,
    jet_constant,
    jet_fractions,
    jet_mul,
    jet_series,
    q_dim,
)
from lorentzknots.weights import T_JONES_SL2, sl2_quadratic_eigenvalue

F = Fraction

TREFOIL = parse_braid("s1 s1 s1", 2)
UNKNOT = BraidWord(1)
FIG8 = parse_braid("s1 -s2 s1 -s2", 3)
KNOT_5_2 = parse_braid("s1 s1 s1 s2 -s1 s2", 3)
KNOT_6_1 = parse_braid("s1 s1 s2 -s1 -s3 s2 -s3", 4)


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


@pytest.mark.parametrize("two_alpha", range(9))
def test_r_matrix_invertible(two_alpha):
    # The negative braiding is built from the inverse R-matrix, not by
    # inversion; this is the test that ties the two signs together.
    for order in (0, 2, 4):
        R = r_matrix(two_alpha, order, +1)
        Rinv = r_matrix(two_alpha, order, -1)
        assert R.compose(Rinv).is_identity(), (two_alpha, order)
        assert Rinv.compose(R).is_identity(), (two_alpha, order)


@pytest.mark.parametrize(
    "args, name",
    [
        ((2, 3, 0), "sign"),
        ((2, 3, 2), "sign"),
        ((2, 3, -2), "sign"),
        ((2, 3, 1.0), "sign"),
        ((-1, 3, 1), "two_alpha"),
        ((2.0, 3, 1), "two_alpha"),
        ((2, -1, 1), "order"),
    ],
    ids=lambda v: repr(v) if isinstance(v, tuple) else v,
)
def test_r_matrix_rejects_bad_inputs(args, name):
    # The checks run before the memo lookup, where 2.0 and 1.0 would share
    # the keys of 2 and 1; warm that entry first.
    r_matrix(2, 3, 1)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        r_matrix(*args)


@pytest.mark.parametrize("two_alpha", [1, 2])
def test_yang_baxter(two_alpha):
    dim = two_alpha + 1
    R = r_matrix(two_alpha, 4)
    R12, R23 = _lift(R, dim, 0), _lift(R, dim, 1)
    assert R12.compose(R23).compose(R12) == R23.compose(R12).compose(R23)


@pytest.mark.parametrize("sign", [1, -1])
def test_braiding_table_holds_no_zero_jet(sign):
    # A term with n = |a - r2| lowering steps carries (q - q^{-1})^n, and its
    # other factors have nonzero constant terms, so its first nonzero
    # coefficient is at h^n (the fact behind the _closable skip rule); the
    # table stops at n = order.
    for two_alpha in range(9):
        for order in range(5):
            table, _ = jones._braiding_table(two_alpha, order, sign)
            for (_, r2), cell in table.items():
                for a, _, coeffs in cell:
                    assert any(coeffs), (two_alpha, order, sign)
                    lead = next(k for k, c in enumerate(coeffs) if c)
                    assert lead == abs(a - r2), (two_alpha, order, sign, a, r2)


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
    # The positive-kink factor is e^{z(z+1) h}: twice the one-chord weight
    # eigenvalue of the tensor behind the Jones normalization.
    z = poly_variable()
    assert 2 * sl2_quadratic_eigenvalue(T_JONES_SL2) == z * z + z


def test_framing_jet_is_the_exponential_of_the_one_chord_weight():
    kink = 2 * sl2_quadratic_eigenvalue(T_JONES_SL2)
    for two_alpha in range(7):
        for framing in (1, -1, 2, -2):
            rate = framing * kink.evaluate(F(two_alpha, 2))
            assert jet_series(_framing_jet(two_alpha, 5, framing)) == exp_scaled(rate, 5)


def test_framing_factor_trivial_spin():
    for framing in (1, -1, 3):
        assert _framing_jet(0, 5, framing) == jet_constant(1, 5)


def test_framing_factor_parity_product():
    for ta in (1, 2, 3):
        prod = jet_mul(_framing_jet(ta, 5, +1), _framing_jet(ta, 5, -1))
        assert prod == jet_constant(1, 5)


def test_framing_factor_polynomial_matches_numeric():
    z = poly_variable()
    ff = exp_scaled(z * z + z, 4)
    for ta in (0, 1, 2, 3):
        assert specialize(ff, F(ta, 2)) == jet_series(_framing_jet(ta, 4, 1))


@pytest.mark.parametrize("two_alpha", [1, 2, 3])
@pytest.mark.parametrize("sign", [1, -1])
def test_stabilization_matches_framing_factor(two_alpha, sign):
    stab = BraidWord(3, TREFOIL.letters + ((2, sign),))
    lhs = jones_framed(stab, two_alpha, 4)
    rhs = jones_framed(TREFOIL, two_alpha, 4) * jet_series(
        _framing_jet(two_alpha, 4, sign)
    )
    assert lhs == rhs


# ---------------------------------------------------------------------------
# Tangle evaluation
# ---------------------------------------------------------------------------


def _mul(u, v):
    return [sum(u[j] * v[k - j] for j in range(k + 1)) for k in range(len(u))]


@cache
def _column_entries(b, two_alpha, order):
    """The diagonal entry of the braid operator at each of the
    (two_alpha+1)^strands columns as Fractions, walked on the integer
    numerators of the tables with no branch or column skipped."""
    tables = {sign: jones._braiding_table(two_alpha, order, sign) for sign in (1, -1)}
    zero = [0] * (order + 1)
    den = 1
    for _, sign in b.letters:
        den *= tables[sign][1]
    entries = {}
    for column in product(range(two_alpha + 1), repeat=b.strands):
        vec = {column: [1] + zero[1:]}
        for idx, sign in b.letters:
            out = {}
            for state, c in vec.items():
                for x, y, entry in tables[sign][0][(state[idx - 1], state[idx])]:
                    new = state[: idx - 1] + (x, y) + state[idx + 1 :]
                    out[new] = [u + v for u, v in zip(out.get(new, zero), _mul(c, entry))]
            vec = out
        entries[column] = [F(n, den) for n in vec.get(column, zero)]
    return entries


def _full_diagonal(b, two_alpha, order):
    """Every diagonal entry, rows 0..two_alpha, of the partial trace of the
    braid operator weighted by q^{2 J_z} on every strand but the first,
    summed over all (two_alpha+1)^strands columns."""

    def q_power(k):  # q^k = e^{k h / 2}
        return [F(k, 2) ** j / factorial(j) for j in range(order + 1)]

    diag = [[F(0)] * (order + 1)] * (two_alpha + 1)
    for column, entry in _column_entries(b, two_alpha, order).items():
        weighted = _mul(entry, q_power(sum(two_alpha - 2 * r for r in column[1:])))
        diag[column[0]] = [u + v for u, v in zip(diag[column[0]], weighted)]
    return diag


def _assert_every_diagonal_entry_is_the_scalar(b, order):
    for two_alpha in range(5):
        scalar = jet_fractions(jones._tangle_scalar(b.strands, b.letters, two_alpha, order))
        for row, entry in enumerate(_full_diagonal(b, two_alpha, order)):
            assert tuple(entry) == scalar, (str(b), two_alpha, row)


@pytest.mark.parametrize(
    "b", [k.braid for k in CATALOG.values()] + [KNOT_5_2, KNOT_6_1], ids=str
)
def test_every_diagonal_entry_is_the_scalar(b):
    # The runtime check compares rows 0 and 1 only; this walks them all.
    _assert_every_diagonal_entry_is_the_scalar(b, 3)


def _assert_skipped_columns_are_zero(b, order):
    """Every column that ``_closable`` skips has a diagonal entry that is
    zero through h^order; returns how many were skipped at 2alpha <= 4."""
    perm = b.permutation()
    skipped = 0
    for two_alpha in range(5):
        for column, entry in _column_entries(b, two_alpha, order).items():
            if not jones._closable(column, perm, order):
                skipped += 1
                assert not any(entry), (str(b), two_alpha, order, column)
    return skipped


@pytest.mark.parametrize(
    "b", [k.braid for k in CATALOG.values() if k.braid.letters] + [KNOT_5_2, KNOT_6_1],
    ids=str,
)
def test_skipped_columns_have_zero_diagonal_entries(b):
    for order in range(4):
        assert _assert_skipped_columns_are_zero(b, order), order


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


@pytest.mark.parametrize("sample", [jones_framed, jones_zero_framed])
@pytest.mark.parametrize("two_alpha", [-1, -2])
def test_rejects_a_negative_spin(sample, two_alpha):
    with pytest.raises(ValueError, match="two_alpha"):
        sample(TREFOIL, two_alpha, 2)


@pytest.mark.parametrize(
    "expand",
    [
        lambda order: jones_framed(TREFOIL, 1, order),
        lambda order: jones_zero_framed(TREFOIL, 1, order),
        lambda order: jones_z_interpolated(TREFOIL, order),
    ],
    ids=["framed", "zero_framed", "interpolated"],
)
@pytest.mark.parametrize("order", [-1, -4])
def test_rejects_a_negative_order(expand, order):
    with pytest.raises(ValueError, match="order"):
        expand(order)


@pytest.mark.parametrize(
    "expand",
    [
        lambda order: jones_framed(TREFOIL, 2, order),
        lambda order: jones_zero_framed(TREFOIL, 2, order),
        lambda order: jones_z_interpolated(TREFOIL, order),
    ],
    ids=["framed", "zero_framed", "interpolated"],
)
@pytest.mark.parametrize("order", [2.0, "2"], ids=repr)
def test_rejects_a_non_integer_order(expand, order):
    with pytest.raises(ValueError, match="order"):
        expand(order)


@pytest.mark.parametrize("sample", [jones_framed, jones_zero_framed])
@pytest.mark.parametrize("two_alpha", [2.0, "2"], ids=repr)
def test_rejects_a_non_integer_spin(sample, two_alpha):
    with pytest.raises(ValueError, match="two_alpha"):
        sample(TREFOIL, two_alpha, 2)


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


def _degree_2n_fit(b, order, sample=jones_zero_framed):
    """Reference fit: the h^n coefficient of the zero-framed samples at
    degree <= 2n in the spin, through two_alpha = 0..2n, from 2*order+3
    samples, with no normalization by the unknot and no surplus check."""
    nodes = [F(k, 2) for k in range(2 * order + 3)]
    samples = [sample(b, k, order) for k in range(len(nodes))]
    return TruncatedSeries(
        order,
        [
            lagrange_interpolate(
                nodes[: 2 * n + 1], [s.coeffs[n] for s in samples[: 2 * n + 1]]
            )
            for n in range(order + 1)
        ],
    )


@pytest.mark.parametrize(
    "b",
    list(
        dict.fromkeys(
            [k.braid for k in CATALOG.values()] + [KNOT_5_2] + markov_variants(TREFOIL)[:7]
        )
    ),
    ids=str,
)
def test_interpolation_equals_the_degree_2n_fit(b):
    assert jones_z_interpolated(b, 3) == _degree_2n_fit(b, 3)


# Knot braids with at most 5 crossings on 2 or 3 strands.  A 2-strand
# closure is a knot when the crossing number is odd; a 3-strand one needs a
# 3-cycle, hence an even crossing number, so at most 4.
_KNOT_BRAIDS = st.one_of(
    st.lists(
        st.tuples(st.integers(1, 2), st.sampled_from((1, -1))), min_size=2, max_size=4
    )
    .map(lambda letters: BraidWord(3, letters))
    .filter(BraidWord.is_knot),
    st.lists(st.sampled_from((1, -1)), min_size=1, max_size=5)
    .filter(lambda signs: len(signs) % 2)
    .map(lambda signs: BraidWord(2, [(1, sign) for sign in signs])),
)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_KNOT_BRAIDS)
def test_random_knot_interpolation_equals_the_degree_2n_fit(b):
    assert jones_z_interpolated(b, 2) == _degree_2n_fit(b, 2)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_KNOT_BRAIDS)
def test_every_diagonal_entry_is_the_scalar_on_random_knots(b):
    _assert_every_diagonal_entry_is_the_scalar(b, 2)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_KNOT_BRAIDS)
def test_skipped_columns_have_zero_diagonal_entries_on_random_knots(b):
    for order in range(3):
        _assert_skipped_columns_are_zero(b, order)


def _assert_expansion_holds_beyond_its_samples(b, order):
    # The fit samples two_alpha = 0..order+2; check the next four spins.
    expansion = jones_z_interpolated(b, order)
    for two_alpha in range(order + 3, order + 7):
        assert specialize(expansion, F(two_alpha, 2)) == jones_zero_framed(
            b, two_alpha, order
        ), two_alpha


@pytest.mark.parametrize(
    "b",
    list(
        dict.fromkeys(
            [k.braid for k in CATALOG.values()] + [KNOT_5_2, parse_braid("s1 s1 s1 s1 s1", 2)]
        )
    ),
    ids=str,
)
def test_expansion_holds_at_spins_it_never_sampled(b):
    _assert_expansion_holds_beyond_its_samples(b, 3)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_KNOT_BRAIDS)
def test_expansion_holds_at_spins_it_never_sampled_on_random_knots(b):
    _assert_expansion_holds_beyond_its_samples(b, 3)


def test_connected_sum_on_four_strands_is_multiplicative():
    # s1^3 on strands 1-2 and s2 -s3 s2 -s3 on strands 2-4: 3_1 # 4_1.
    # Tangle scalars multiply, and each factor of jones_zero_framed carries
    # one unknot value [N]/N.
    both = parse_braid("s1 s1 s1 s2 -s3 s2 -s3", 4)
    for two_alpha in range(6):
        lhs = jones_zero_framed(both, two_alpha, 3) * jones_zero_framed(UNKNOT, two_alpha, 3)
        rhs = jones_zero_framed(TREFOIL, two_alpha, 3) * jones_zero_framed(FIG8, two_alpha, 3)
        assert lhs == rhs, two_alpha


def _reflect(series):
    """The series at -h: its odd h-coefficients change sign."""
    return TruncatedSeries(
        series.order, [-c if n % 2 else c for n, c in enumerate(series.coeffs)]
    )


def _assert_mirror_is_the_reflection(b):
    # J_{K*}(q) = J_K(1/q), with the mirror computed from its own crossings:
    # x_invariant takes the mirror factor from this identity.
    for two_alpha in range(4):
        assert jones_zero_framed(mirror(b), two_alpha, 3) == _reflect(
            jones_zero_framed(b, two_alpha, 3)
        )
    assert jones_z_interpolated(mirror(b), 3) == _reflect(jones_z_interpolated(b, 3))


@pytest.mark.parametrize("b", [k.braid for k in CATALOG.values()], ids=str)
def test_mirror_is_the_reflection_on_the_catalog(b):
    _assert_mirror_is_the_reflection(b)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(_KNOT_BRAIDS)
def test_mirror_is_the_reflection_on_random_knots(b):
    _assert_mirror_is_the_reflection(b)


def test_surplus_node_catches_what_a_degree_2n_fit_absorbs(monkeypatch):
    # The bump z(z - 1/2)(z - 1)(z - 3/2) vanishes at every spin the
    # order-2 fit samples below its top one (two_alpha = 4) and has degree
    # 4 = 2n on the h^2 coefficient, so the degree-2n fit absorbs it
    # without noticing.  The unknot's value is 1 + O(h^2), so the bump on
    # the h^2 coefficient of the quotient is the bump on the sample.
    def bump(two_alpha):
        z = F(two_alpha, 2)
        return z * (z - F(1, 2)) * (z - 1) * (z - F(3, 2))

    def bumped_sample(b, two_alpha, order):
        series = jones_zero_framed(b, two_alpha, order)
        coeffs = list(series.coeffs)
        coeffs[2] = coeffs[2] + bump(two_alpha)
        return TruncatedSeries(order, coeffs)

    quotient = jones._quotient

    def bumped_quotient(b, two_alpha, order, framing):
        jet = quotient(b, two_alpha, order, framing)
        if b != TREFOIL:
            return jet
        height = bump(two_alpha)
        nums = (0, 0, height.numerator) + (0,) * (order - 2)
        return jet_add(jet, (nums, height.denominator))

    clear_caches()
    absorbed = _degree_2n_fit(TREFOIL, 2, bumped_sample)
    assert absorbed != _degree_2n_fit(TREFOIL, 2)
    monkeypatch.setattr(jones, "_quotient", bumped_quotient)
    with pytest.raises(InternalConsistencyError) as err:
        jones_z_interpolated(TREFOIL, 2)
    message = str(err.value)
    for part in ("s1 s1 s1", "order 2", "h^2", "spin 2", "degree-2"):
        assert part in message


def test_knots_are_sampled_up_to_two_alpha_order_plus_two(monkeypatch):
    sampled = {}

    quotient = jones._quotient

    def recording(b, two_alpha, order, framing):
        sampled.setdefault(b, set()).add(two_alpha)
        return quotient(b, two_alpha, order, framing)

    clear_caches()
    monkeypatch.setattr(jones, "_quotient", recording)
    jones_z_interpolated(FIG8, 3)
    assert sampled[FIG8] == set(range(6))
    assert sampled[UNKNOT] == set(range(9))


def test_mmr_diagonal_is_checked(monkeypatch):
    clear_caches()
    monkeypatch.setattr(jones, "alexander_polynomial", lambda b: {-1: -1, 0: 3, 1: -1})
    with pytest.raises(InternalConsistencyError) as err:
        jones_z_interpolated(TREFOIL, 2)
    message = str(err.value)
    for part in ("s1 s1 s1", "order 2", "1/Delta(e^x)"):
        assert part in message


def test_a_skewed_top_coefficient_fails_the_mmr_check(monkeypatch):
    # Delta is right; the fitted z^2 coefficient of the h^2 term is off.
    fit = jones._fit_spins

    def skewed(b, samples):
        fitted = fit(b, samples)
        if b == UNKNOT:
            return fitted
        coeffs = list(fitted.coeffs)
        coeffs[2] = coeffs[2] + poly_variable() ** 2 * F(1, 7)
        return TruncatedSeries(fitted.order, coeffs)

    clear_caches()
    monkeypatch.setattr(jones, "_fit_spins", skewed)
    with pytest.raises(InternalConsistencyError) as err:
        jones_z_interpolated(TREFOIL, 2)
    message = str(err.value)
    for part in ("s1 s1 s1", "order 2", "N^2 h^2", "1/Delta(e^x)"):
        assert part in message


def test_mmr_check_builds_no_gaussian_rational(monkeypatch):
    # The Burau determinant and 1/Delta(e^h) run on integers; the fitted
    # expansion is only read.
    calls = []
    monkeypatch.setattr(jones, "_check_mmr_diagonal", lambda *args: calls.append(args))
    for b in (TREFOIL, FIG8, KNOT_5_2, KNOT_6_1):
        clear_caches()
        jones_z_interpolated(b, 3)
    clear_caches()
    monkeypatch.undo()

    def refuse(*args, **kwargs):
        raise AssertionError("Q(i) value built")

    monkeypatch.setattr(scalars, "_make", refuse)
    monkeypatch.setattr(scalars.GaussianRational, "__init__", refuse)
    monkeypatch.setattr(polynomials.ParamPolynomial, "__init__", refuse)
    assert len(calls) == 4
    for args in calls:
        jones._check_mmr_diagonal(*args)


def test_repeated_interpolation_is_a_memo_hit():
    clear_caches()
    first = jones_z_interpolated(TREFOIL, 1)
    assert jones_z_interpolated(parse_braid("s1 s1 s1", 2), 1) is first
    info = jones._interpolated.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_lower_order_is_cut_from_a_memoized_higher_order():
    # The expansion is sound under truncation: order k is order k+1 cut at
    # h^k.  Order k is fitted from its own samples even when order k+1 is
    # memoized, and a cold call gives the same expansion.
    for b in (k.braid for k in CATALOG.values()):
        for order in range(4):
            clear_caches()
            higher = jones_z_interpolated(b, order + 1)
            misses = jones._interpolated.cache_info().misses
            lower = jones_z_interpolated(b, order)
            assert jones._interpolated.cache_info().misses == misses + 1
            assert lower.coeffs == higher.coeffs[: order + 1]
            clear_caches()
            assert jones_z_interpolated(b, order) == lower
    clear_caches()


def test_trefoil_second_order_frozen():
    # Frozen from this engine after it passed the independent pins above
    # (unknot closed form, framing factor, mirror parity); re-derivations
    # must keep reproducing it.
    z = poly_variable()
    P = jones_z_interpolated(TREFOIL, 2)
    assert P.coeffs[1] == ParamPolynomial([0])
    assert P.coeffs[2] == (z * z + z) * F(-23, 6)


def test_non_scalar_partial_trace_names_its_inputs(monkeypatch):
    # Skew the diagonal entry of column 1 in the trefoil's partial trace:
    # the error names the braid letters, 2alpha, the order and that column.
    accumulate = jones.jet_accumulate

    def skewed(store, key, jet):
        accumulate(store, key, jet)
        if key == 1:
            accumulate(store, key, jet_constant(1, 2))

    monkeypatch.setattr(jones, "jet_accumulate", skewed)
    message = (
        "partial trace of the braid operator of s1 s1 s1 at 2alpha = 2, order 2 "
        "is not a scalar: diagonal entry 1 differs from entry 0"
    )
    with pytest.raises(InternalConsistencyError, match=message):
        jones._tangle_scalar.__wrapped__(2, TREFOIL.letters, 2, 2)
