"""Balanced-representation actions and truncated braid sums, exactly."""

import itertools
import re
from fractions import Fraction

import pytest

from lorentzknots import qlorentz
from lorentzknots.braids import (
    CATALOG,
    BraidWord,
    markov_variants,
    mirror,
    parse_braid,
)
from lorentzknots.errors import InternalConsistencyError, ResourceGuardError
from lorentzknots.qlorentz import (
    SYMBOLIC,
    _walk_candidates,
    _walk_cost,
    braid_sum,
    cheapest_walk,
    g_action,
    group_like_action,
    tangle_word,
    trefoil_closed_sum,
)
from lorentzknots.polynomials import specialize
from lorentzknots.scalars import GaussianRational, precision
from lorentzknots.series import (
    TruncatedSeries,
    clear_caches,
    constant_series,
    jet_fractions,
    real_jet,
)

TREFOIL_R = parse_braid("s1 s1 s1", 2)
TREFOIL_L = parse_braid("-s1 -s1 -s1", 2)
FIG8 = parse_braid("s1 -s2 s1 -s2", 3)


def series_is(series, constant):
    return series == constant_series(constant, series.order)


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


def test_group_like_is_exponential_weight():
    w = group_like_action(2, 4)  # q^{2i} with i = 1: e^{h}, an integer jet
    assert w == ((24, 24, 12, 4, 1), 24)
    assert jet_fractions(w) == tuple(Fraction(1, d) for d in (1, 1, 2, 6, 24))


def test_group_like_weight_does_not_depend_on_precision():
    # A weight first built at 15 digits is the exact one served at 60.
    with precision(15):
        low = group_like_action(1, 3)
    with precision(60):
        w = group_like_action(1, 3)  # e^{h/2}: h^3 coefficient 1/48
    assert w == low and jet_fractions(w)[3] == Fraction(1, 48)


def test_trivial_dual_generator_is_identity():
    for state in ((0, 0), (2, 2), (4, -2)):
        cols = g_action(0, 0, 0, state[0], state[1], 2, 3)
        assert cols == ((state, ((1, 0, 0, 0), 1)),)


def test_g_action_matrix_element_order_bound():
    # order of <gamma| g^alpha |beta> is at least |beta - gamma| in h
    for da in (1, 2):
        for dbeta in (0, 2):
            for di in range(-da, da + 1, 2):
                for dj in range(-da, da + 1, 2):
                    for (dg, _), (nums, _) in g_action(da, di, dj, dbeta, 0, 2, 4):
                        gap = abs(dbeta - dg) // 2
                        assert not any(nums[: min(gap, 4)])


def test_g_action_entries_are_exact():
    # Canonical integer jets at real p; the walk never runs at another p.
    from math import gcd

    for p in (2, GaussianRational(3)):
        jets = [entry for _, entry in g_action(2, 0, 2, 2, 0, p, 3)]
        assert jets
        for nums, den in jets:
            assert len(nums) == 4 and all(type(n) is int for n in nums)
            assert type(den) is int and den > 0 and gcd(den, *nums) == 1
    for p in (GaussianRational(1, 2), SYMBOLIC):
        with pytest.raises(ValueError, match="real p"):
            g_action(2, 0, 2, 2, 0, p, 3)


def test_vacuum_row_factorizes_into_cg_and_lambda():
    # The (0,0)-row of the dual generator's action is a single decoupling
    # coefficient times a structure constant with trivial first label, in
    # the rescaled basis: times s(beta, i_beta) s(alpha, j) / s(alpha, i).
    from lorentzknots.cg import lambda_coeff, quantum_cg_decoupling

    p, order = 2, 3
    for da in (1, 2):
        for d_i in range(-da, da + 1, 2):
            for d_j in range(-da, da + 1, 2):
                for dbeta in (0, 2):
                    for dib in range(-dbeta, dbeta + 1, 2):
                        cols = dict(g_action(da, d_i, d_j, dbeta, dib, p, order, True))
                        got = cols.get((0, 0))
                        dx = d_j + dib
                        if dx != d_i:
                            assert got is None
                            continue
                        square = Fraction(
                            qlorentz._s_squared(dbeta, dib) * qlorentz._s_squared(da, d_j),
                            qlorentz._s_squared(da, d_i),
                        )
                        expect = (
                            lambda_coeff(0, da, da, dbeta, p, order)
                            * quantum_cg_decoupling(da, da, dbeta, d_i, d_j, dib, order)
                        ).rational(square)
                        if got is None:
                            assert expect.is_zero()
                        else:
                            assert got == real_jet(expect.coeffs)


def test_g_action_transpose_consistency():
    # Column and transposed row are one matrix read both ways: every entry
    # of a column appears in the matching row and vice versa, at p = 2 and
    # 3, for alpha up to 2, every (i, j) and every state of spin <= 2.
    order = 2
    states = [(db, dib) for db in (0, 2, 4) for dib in range(-db, db + 1, 2)]
    for p, da in itertools.product((2, 3), range(0, 5)):
        for d_i in range(-da, da + 1, 2):
            for d_j in range(-da, da + 1, 2):
                for state in states:
                    for forward in (True, False):
                        entries = g_action(da, d_i, d_j, *state, p, order, forward)
                        for other, entry in entries:
                            back = dict(g_action(da, d_i, d_j, *other, p, order, not forward))
                            assert back.get(state) == entry, (da, d_i, d_j, state, other)


def _g_action_reference(da, d_i, d_j, d_beta, d_ibeta, p, order, forward):
    """The dual-generator entry by its per-p formula: sum over D of
    Lambda(p) (cgl cgr), each root-jet product rescaled to an integer jet
    through RootJet.scaled, over every integer spin the selection rules
    of the coupling coefficients admit."""
    from math import factorial

    from lorentzknots.cg import lambda_coeff, quantum_cg, quantum_cg_decoupling
    from lorentzknots.series import jet_accumulate

    def s_squared(d_b, d_ib):
        return (d_b + 1) * factorial((d_b - d_ib) // 2) * factorial((d_b + d_ib) // 2)

    known = (d_beta, d_ibeta)
    dx = d_ibeta + (d_j if forward else d_i)
    d_iother = dx - (d_i if forward else d_j)
    out = {}
    for dD in range(abs(da - d_beta), da + d_beta + 1, 2):
        for d_other in range(0, da + dD + 1, 2):
            if abs(d_iother) > d_other:
                continue
            other = (d_other, d_iother)
            source, target = (known, other) if forward else (other, known)
            cgr = quantum_cg_decoupling(dD, da, source[0], dx, d_j, source[1], order)
            cgl = quantum_cg(target[0], da, dD, target[1], d_i, dx, order)
            term = lambda_coeff(target[0], da, dD, source[0], p, order) * (cgl * cgr)
            if term.is_zero():
                continue
            square = Fraction(
                s_squared(*source) * s_squared(da, d_j), s_squared(*target) * s_squared(da, d_i)
            )
            jet_accumulate(out, other, term.scaled(square, ("reference",)))
    return {state: v for state, v in out.items() if any(v[0])}


def test_g_action_matches_its_per_p_formula():
    # The p-free coupling products weighted by Lambda(p) give each entry
    # exactly as the root-jet product at that p does.
    order = 2
    states = [(db, dib) for db in (0, 2, 4) for dib in range(-db, db + 1, 2)]
    for p, da in itertools.product((1, 2, 3, Fraction(5, 2)), range(0, 5)):
        for d_i, d_j in itertools.product(range(-da, da + 1, 2), repeat=2):
            for state, forward in itertools.product(states, (True, False)):
                args = (da, d_i, d_j, *state, p, order, forward)
                assert dict(g_action(*args)) == _g_action_reference(*args), args


def test_a_walk_at_a_new_p_builds_no_root_jet(monkeypatch):
    # After a walk at p = 2, one at p = 7 only weights the p-free tables:
    # no root-jet product and no square root happens in it.
    from lorentzknots import cg, scalars

    def refuse(*args):
        raise AssertionError("root-jet work at a new p")

    clear_caches()
    braid_sum(FIG8, 2, 2)
    with monkeypatch.context() as inside:
        inside.setattr(cg.RootJet, "__mul__", refuse)
        inside.setattr(scalars, "rational_sqrt", refuse)
        inside.setattr(cg, "rational_sqrt", refuse)
        served = braid_sum(FIG8, 7, 2)
    clear_caches()
    assert braid_sum(FIG8, 7, 2) == served


def test_an_irrational_coupling_product_names_its_labels(monkeypatch):
    # Double every structure constant's radicand: the rescaled coupling
    # product is no longer rational, and the p-free table says where.
    lambda_terms = qlorentz._lambda_terms

    def doubled(*args):
        radicand, terms = lambda_terms(*args)
        return 2 * radicand, terms

    clear_caches()
    monkeypatch.setattr(qlorentz, "_lambda_terms", doubled)
    with pytest.raises(InternalConsistencyError) as err:
        g_action(2, 0, 2, 2, 0, 2, 3)
    assert re.search(
        r"radicand \S+ at labels \('g', 2, 0, 2, \(\d, -?\d\), \(\d, -?\d\)\) "
        r"is not the square of a rational",
        str(err.value),
    )
    monkeypatch.undo()
    clear_caches()


# ---------------------------------------------------------------------------
# Braid sums
# ---------------------------------------------------------------------------


def test_unknot_sum_is_one():
    assert series_is(braid_sum(BraidWord(1), 2, 3), 1)


@pytest.mark.parametrize("word", ["s1 s1 -s1", "-s1 -s1 s1", "s1 -s1 s1", "-s1 s1 -s1"])
def test_mixed_sign_unknot_words(word):
    # These closures are unknots; positive and negative crossing data must
    # compose to the identity for the sums to collapse to 1.
    assert series_is(braid_sum(parse_braid(word, 2), 2, 2), 1)


@pytest.mark.parametrize("p", [2, 3, GaussianRational(Fraction(1, 2), 2)], ids=str)
def test_left_trefoil_matches_closed_reduction(p):
    assert braid_sum(TREFOIL_L, p, 3) == trefoil_closed_sum(p, 3)


def test_trefoil_mirror_sums_equal():
    assert braid_sum(TREFOIL_R, 2, 3) == braid_sum(TREFOIL_L, 2, 3)


def test_closed_sum_order_zero_is_one():
    assert trefoil_closed_sum(2, 3).coeffs[0] == 1


def test_truncation_soundness():
    # the order-3 sum is the order-4 sum cut at h^3: the spin bound and the
    # headroom pruning drop nothing below the order
    for braid in (TREFOIL_L, FIG8):
        high = braid_sum(braid, 2, 4)
        assert braid_sum(braid, 2, 3) == TruncatedSeries(3, high.coeffs[:4])


def test_markov_invariance_small_order():
    base = braid_sum(TREFOIL_R, 2, 2)
    for v in markov_variants(TREFOIL_R)[:6]:
        assert braid_sum(v, 2, 2) == base


def test_symbolic_mode_matches_numeric():
    # p = 1..5 are the interpolation nodes at order 2; 5/2, 1/2 and 6 are not.
    sym = braid_sum(TREFOIL_L, SYMBOLIC, 2)
    for p in (2, 3, Fraction(5, 2), Fraction(1, 2), 6, GaussianRational(Fraction(1, 2), 2)):
        assert specialize(sym, p) == braid_sum(TREFOIL_L, p, 2)
    for n, poly in enumerate(sym.coeffs):
        assert poly.degree() <= n


def test_symbolic_sum_after_real_sums_equals_a_cold_one():
    # The fit reuses the walks at p = 2 and 3 and walks only nodes 1, 4, 5.
    clear_caches()
    for p in (2, 3):
        braid_sum(FIG8, p, 2)
    misses = qlorentz._walk.cache_info().misses
    served = braid_sum(FIG8, SYMBOLIC, 2)
    assert qlorentz._walk.cache_info().misses == misses + 3
    clear_caches()
    cold = braid_sum(FIG8, SYMBOLIC, 2)
    assert served == cold and served.to_json() == cold.to_json()


@pytest.mark.parametrize("order", [-1, -2, 2.0, "2"], ids=repr)
def test_braid_sum_rejects_a_bad_order(order):
    with pytest.raises(ValueError, match="order"):
        braid_sum(TREFOIL_R, 2, order)


@pytest.mark.parametrize("order", [-1, -2, 2.0, "2"], ids=repr)
def test_closed_sum_rejects_a_bad_order(order):
    with pytest.raises(ValueError, match="order"):
        trefoil_closed_sum(2, order)


def test_symbolic_sum_rejects_a_node_off_the_fit(monkeypatch):
    # At order 2 the h^2 coefficient is fitted through p = 1, 2, 3; p = 4
    # and 5 must lie on the fit.  Add 1 to it at p = 5.
    walk = qlorentz._walk

    def corrupted(chosen, p, order):
        nums, den = walk(chosen, p, order)
        if p == 5:
            nums = nums[:2] + (nums[2] + den,) + nums[3:]
        return nums, den

    monkeypatch.setattr(qlorentz, "_walk", corrupted)
    with pytest.raises(InternalConsistencyError) as err:
        braid_sum(TREFOIL_L, SYMBOLIC, 2)
    message = str(err.value)
    for part in ("-s1 -s1 -s1", "order 2", "h^2", "p = 5", "degree-2"):
        assert part in message


def test_symbolic_sum_walks_on_integer_jets_only(monkeypatch):
    # Inside every node walk, each jet product is one of Python ints, and no
    # polynomial or Gaussian-rational product happens at all.
    from lorentzknots import series
    from lorentzknots.polynomials import ParamPolynomial

    conv = series.conv
    products = []

    def int_conv(a, b, order):
        assert all(type(x) is int for x in (*a, *b)), (a, b)
        products.append(order)
        return conv(a, b, order)

    def refuse(self, other):
        raise AssertionError(f"{type(self).__name__} product inside a walk")

    walk = qlorentz._walk
    nodes = []

    def guarded(chosen, p, order):
        nodes.append(p)
        with pytest.MonkeyPatch.context() as inside:
            inside.setattr(series, "conv", int_conv)
            for kind in (ParamPolynomial, GaussianRational):
                inside.setattr(kind, "__mul__", refuse)
                inside.setattr(kind, "__rmul__", refuse)
            return walk(chosen, p, order)

    clear_caches()
    monkeypatch.setattr(qlorentz, "_walk", guarded)
    sym = braid_sum(FIG8, SYMBOLIC, 2)
    assert nodes == [1, 2, 3, 4, 5] and products
    monkeypatch.undo()
    assert specialize(sym, Fraction(5, 2)) == braid_sum(FIG8, Fraction(5, 2), 2)


# ---------------------------------------------------------------------------
# Walk choice: every rotation and direction gives the same sum
# ---------------------------------------------------------------------------

# The catalog knots and the Markov variants that acceptance criterion 6
# compares, without repeats.
WALK_WORDS = list(
    {
        (b.strands, b.letters): b
        for b in [k.braid for k in CATALOG.values()] + markov_variants(TREFOIL_R)[:9]
    }.values()
)


def _forced_sum(monkeypatch, b, walk, p, order):
    """braid_sum of ``b`` along one given candidate walk."""
    rotation, forward, ops = walk
    signs = [sign for _, sign in b.letters]
    monkeypatch.setattr(
        qlorentz, "cheapest_walk", lambda _: (rotation, forward, ops, signs)
    )
    return braid_sum(b, p, order)


def test_walk_candidates_are_rotations_and_transposes():
    b = parse_braid("s1 s1 s1 s1 -s1", 2)
    walks = list(_walk_candidates(b))
    assert [(r, f) for r, f, _ in walks] == [
        (r, f) for r in range(5) for f in (True, False)
    ]
    for r, forward, ops in walks:
        turned = BraidWord(2, b.letters[r:] + b.letters[:r])
        ops_turned, _ = tangle_word(turned)
        if not forward:
            ops_turned = ops_turned[::-1]
        # the same word, with crossings renumbered to b's letters
        assert [op[0] for op in ops] == [op[0] for op in ops_turned]
        assert all(
            op[0] == "G" or op[1] == (op_t[1] + r) % 5
            for op, op_t in zip(ops, ops_turned)
        )


def test_cheapest_walk_picks_the_vacuum_prefix():
    # Rotation 3, s1 -s1 s1 s1 s1 read forward, opens three matrix-element
    # labels at the vacuum (pinned to spin 0) before its one dual label; it
    # is the cheapest walk of this conjugate by two orders of magnitude.
    rotation, forward, ops, signs = cheapest_walk(parse_braid("s1 s1 s1 s1 -s1", 2))
    assert (rotation, forward) == (3, True)
    assert ops[:4] == [("X", 3), ("X", 4), ("X", 0), ("g", 1)]
    assert signs == [1, 1, 1, 1, -1]
    # its rotation reduces to the same walk
    rotation2, forward2, _, _ = cheapest_walk(parse_braid("-s1 s1 s1 s1 s1", 2))
    assert (rotation2, forward2) == (4, True)


def test_walk_cost_key():
    # X0 g1 X2 G g0 X1 g2: crossing 0 is pinned at the vacuum, crossing 1
    # is the one dual-opened label, crossing 2 opens after it.
    ops, _ = tangle_word(TREFOIL_R)
    assert _walk_cost(ops) == (1, 8, 4)
    assert _walk_cost(ops[::-1]) == (2, 12, 8)
    # ties go to the first candidate
    assert cheapest_walk(TREFOIL_R)[:2] == (0, True)
    assert cheapest_walk(TREFOIL_L)[:2] == (0, False)


@pytest.mark.parametrize("b", WALK_WORDS, ids=lambda b: b.text() or "unknot")
def test_every_walk_gives_the_same_sum(monkeypatch, b):
    clear_caches()
    chosen = braid_sum(b, 2, 2)
    walks = list(_walk_candidates(b))
    for walk in walks:
        assert _forced_sum(monkeypatch, b, walk, 2, 2) == chosen, (
            f"rotation {walk[0]}, forward={walk[1]}"
        )
    # the walk memo served no candidate from another's entry
    signs = tuple(sign for _, sign in b.letters)
    distinct = {(rotation, forward, tuple(ops), signs) for rotation, forward, ops in walks}
    assert qlorentz._walk.cache_info().misses == len(distinct)


# Symbolic p on the words whose 2L walks all cost well under a second.
SYMBOLIC_WALK_WORDS = [
    parse_braid("s1 s1 s1", 2),
    parse_braid("-s1 -s1 -s1", 2),
    parse_braid("s1 -s2 s1 -s2", 3),
    parse_braid("s1 s1 s1 -s2", 3),
]


@pytest.mark.parametrize("b", SYMBOLIC_WALK_WORDS, ids=lambda b: b.text())
def test_every_walk_gives_the_same_symbolic_sum(monkeypatch, b):
    numeric = {p: braid_sum(b, p, 2) for p in (2, 3, Fraction(5, 2))}
    for walk in _walk_candidates(b):
        sym = _forced_sum(monkeypatch, b, walk, SYMBOLIC, 2)
        for p, num in numeric.items():
            assert specialize(sym, p) == num, f"rotation {walk[0]}, forward={walk[1]}, p={p}"


def test_branch_guard(monkeypatch):
    clear_caches()
    monkeypatch.setattr(qlorentz, "MAX_BRANCHES", 1)
    with pytest.raises(ResourceGuardError) as info:
        braid_sum(TREFOIL_L, 2, 2)
    message = str(info.value)
    # the count reached, the operator's position and kind, the walk (the
    # left trefoil's cheapest is rotation 0 read transposed) and the limit
    reached = re.search(r"reached (\d+) branches", message)
    assert reached and int(reached.group(1)) > 1
    assert re.search(
        r"at operator [1-7] of 7 \((?:(?:matrix element|dual generator) of "
        r"crossing [123]|group-like element)\) of the walk along rotation 0, "
        r"read transposed,",
        message,
    )
    assert "MAX_BRANCHES=1" in message
