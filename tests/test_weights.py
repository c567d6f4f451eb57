"""Weight maps and central characters, by both routes."""

import hashlib
import json
import re
from fractions import Fraction
from functools import partial
from itertools import permutations, product

import pytest

from lorentzknots import weights
from lorentzknots.diagrams import (
    THETA,
    DiagramSum,
    UNIT_DIAGRAM,
    connected_sum,
    coproduct,
    enumerate_diagrams,
    four_t_generators,
    parse_diagram,
)
from lorentzknots.errors import InternalConsistencyError, ResourceGuardError
from lorentzknots.polynomials import (
    POLY_ONE,
    ParamPolynomial,
    int_poly_param,
    poly_variable,
)
from lorentzknots.scalars import GR_I, GaussianRational
from lorentzknots.series import clear_caches
from lorentzknots.weights import (
    CASIMIR_LEFT_TERMS,
    InfinitesimalRMatrix,
    CASIMIR_RIGHT_TERMS,
    T_CK_SL2,
    T_JONES_SL2,
    T_LEFT,
    T_LORENTZ,
    T_RIGHT,
    casimir_eigenvalues,
    lambda_mp_direct,
    lambda_mp_factorized,
    lambda_z_sl2,
    lorentz_apply_word,
    lorentz_quadratic_eigenvalue,
    lorentz_weight_raw,
    phi_words,
    sl2_quadratic_eigenvalue,
)

F = Fraction
Z = poly_variable()

ALL_SMALL = [d for n in range(4) for d in enumerate_diagrams(n)]


# ---------------------------------------------------------------------------
# Tensors and words
# ---------------------------------------------------------------------------


def test_tensors_symmetric():
    for t in (T_CK_SL2, T_JONES_SL2, T_LORENTZ, T_LEFT, T_RIGHT):
        assert t.is_symmetric()


def test_phi_words_unit_and_theta():
    assert phi_words(T_JONES_SL2, UNIT_DIAGRAM) == [(GaussianRational(1), ())]
    words = phi_words(T_JONES_SL2, THETA)
    assert len(words) == 3
    assert all(len(w) == 2 for _, w in words)


def test_phi_words_three_chord_pattern():
    # Diagram with chords (0,3), (1,5), (2,4): reading the circle yields the
    # letter pattern a1 a2 a3 b1 b3 b2 in application order.
    d = parse_diagram("ABCACB")
    t = T_CK_SL2
    for coeff, word in phi_words(t, d):
        # reconstruct which role each position played
        roles = []
        seen = set()
        for k, pos_label in enumerate("ABCACB"):
            roles.append("a" if pos_label not in seen else "b")
            seen.add(pos_label)
        assert roles == ["a", "a", "a", "b", "b", "b"]
        assert len(word) == 6


# ---------------------------------------------------------------------------
# The transfer walk against the literal word expansion
# ---------------------------------------------------------------------------


def _combine(pairs):
    """Sum of coeff * vector over (coeff, vector) pairs, without zero entries."""
    total = {}
    for coeff, vec in pairs:
        for state, value in vec.items():
            value = value * coeff
            total[state] = total[state] + value if state in total else value
    return {s: v for s, v in total.items() if not v.is_zero()}


def _literal(t, d, start, apply_word):
    """Sum of coeff * (word applied to the corner) over every phi_words word."""
    return _combine((coeff, apply_word(word)) for coeff, word in phi_words(t, d, start))


def _sl2_apply_word(word):
    """A word applied to the corner state of the spin-z module, on
    ParamPolynomials: the literal reference of the integer walk."""
    vec = {0: POLY_ONE}
    for gen in word:
        out = {}
        for j, poly in vec.items():
            if gen == "E":
                if not j:
                    continue
                key, value = j - 1, poly * j
            elif gen == "F":
                key, value = j + 1, poly * (2 * Z - j)
            else:
                key, value = j, poly * (Z - j)
            out[key] = out[key] + value if key in out else value
        vec = {s: v for s, v in out.items() if not v.is_zero()}
    return vec


def _sl2_walk(t, d, start):
    """The integer walk, each component converted to a ParamPolynomial."""
    terms, den = weights._integer_terms(t)
    walk = weights._transfer_walk(terms, d, start, {0: (1,)}, weights._sl2_step)
    return {j: int_poly_param((nums, den**d.n)) for j, nums in walk.items()}


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_sl2_walk_equals_word_expansion_at_every_basepoint(n):
    for d in enumerate_diagrams(n):
        for start in range(max(1, 2 * n)):
            for t in (T_JONES_SL2, T_CK_SL2):
                literal = _literal(t, d, start, _sl2_apply_word)
                assert _sl2_walk(t, d, start) == literal, (d.gauss_text(), start)
                value = int_poly_param(weights._lambda_z_literal(d, t, start))
                assert value == literal.get(0, 0)


def test_sl2_walk_equals_word_expansion_five_chords():
    for d in enumerate_diagrams(5):
        literal = _literal(T_JONES_SL2, d, 0, _sl2_apply_word)
        assert _sl2_walk(T_JONES_SL2, d, 0) == literal, d.gauss_text()


def _i_power(e):
    """i^e as a GaussianRational."""
    return (GR_I if e % 2 else GaussianRational(1)) * (-1 if e % 4 >= 2 else 1)


def _lorentz_walk(t, d, m):
    """The integer walk in the real basis f'(alpha, k) = i^alpha f(alpha, k),
    converted to the basis f of lorentz_apply_word: the tensor's i^{#F} is
    in its integer terms, so component (alpha, k) gains i^(alpha - |m|)."""
    terms, den = weights._integer_terms(t)
    am = abs(m)
    step = partial(weights._lorentz_step, m=m)
    walk = weights._transfer_walk(terms, d, 0, {(am, am): ((1,), den**d.n)}, step)
    return {
        (alpha, k): int_poly_param(value) * _i_power(alpha - am)
        for (alpha, k), value in walk.items()
    }


def _assert_lorentz_walk_matches_words(t, diagrams, m):
    for d in diagrams:
        literal = _literal(t, d, 0, partial(lorentz_apply_word, m=m))
        assert _lorentz_walk(t, d, m) == literal, d.gauss_text()
        assert lorentz_weight_raw(t, d, m) == literal.get((m, m), 0)


@pytest.mark.parametrize("t", [T_LORENTZ, T_LEFT], ids=["balanced", "left"])
@pytest.mark.parametrize("n,m", [(n, m) for n in range(4) for m in (0, 1, 2)])
def test_lorentz_walk_equals_word_expansion(t, n, m):
    _assert_lorentz_walk_matches_words(t, enumerate_diagrams(n), m)


def test_lorentz_walk_equals_word_expansion_four_chords():
    _assert_lorentz_walk_matches_words(T_LORENTZ, enumerate_diagrams(4), 0)
    # The 12-term left tensor has 20736 words per 4-chord diagram (about
    # 10 s each); check the diagram whose four chords are open at once.
    _assert_lorentz_walk_matches_words(T_LEFT, [parse_diagram("ABCDABCD")], 0)


# (the character, its value when the walk gives the corner the vector below,
# the corner, an off-corner state, a walk vector, a cancelled value, the
# module's name): the sl2 walk's values are integer tuples over D^n (D = 4
# here), the Lorentz walk's (nums, den) pairs.
CORNER_CASES = [
    (
        lambda: int_poly_param(
            weights._lambda_z_literal.__wrapped__(THETA, T_JONES_SL2, 0)
        ),
        Z * F(1, 4),
        0,
        2,
        (0, 1),
        (),
        "spin-z module from basepoint 0",
    ),
    (
        lambda: lorentz_weight_raw(T_LORENTZ, THETA, 1),
        Z,
        (1, 1),
        (2, 0),
        ((0, 1), 1),
        ((), 7),
        "Lorentz module of minimal spin m = 1",
    ),
]


@pytest.mark.parametrize(
    "evaluate, value, corner, survivor, vector, zero, module",
    CORNER_CASES,
    ids=["sl2", "lorentz"],
)
def test_surviving_off_corner_component_is_reported(
    monkeypatch, evaluate, value, corner, survivor, vector, zero, module
):
    # Both modules share one corner check; feed it a vector with an
    # off-corner component through each module's character.
    monkeypatch.setattr(
        weights, "_transfer_walk", lambda *args: {corner: vector, survivor: vector}
    )
    message = (
        f"the weight of AA moved the corner state {corner} of the {module} "
        f"(component {survivor} survived): scalar extraction invalid"
    )
    with pytest.raises(InternalConsistencyError, match=re.escape(message)):
        evaluate()


@pytest.mark.parametrize(
    "evaluate, value, corner, survivor, vector, zero, module",
    CORNER_CASES,
    ids=["sl2", "lorentz"],
)
def test_cancelled_off_corner_component_is_not_reported(
    monkeypatch, evaluate, value, corner, survivor, vector, zero, module
):
    # A cancelled component is an empty numerator; as a (nums, den) pair it
    # is truthy, and must still pass the corner check.
    monkeypatch.setattr(
        weights, "_transfer_walk", lambda *args: {corner: vector, survivor: zero}
    )
    assert evaluate() == value
def test_clear_caches_empties_the_character_tables():
    tables = (
        weights._lambda_z_literal,
        weights._sl2_character_in_p,
        weights._lambda_mp_integer,
        weights._coproduct_table,
    )
    lambda_mp_factorized(parse_diagram("ABAB"), 1)
    assert all(table.cache_info().currsize for table in tables)
    clear_caches()
    assert not any(table.cache_info().currsize for table in tables)


def test_coproduct_is_expanded_once_per_diagram():
    # Every m of the factorized route reads one table of integer
    # chord-subset counts per diagram; the counts cover all 2^n subsets and
    # are the coefficients of the coproduct.
    clear_caches()
    for m in (0, 1, 2, F(1, 2)):
        lambda_mp_factorized(parse_diagram("ABCDBADC"), m)
    assert weights._coproduct_table.cache_info().misses == 1
    for n in range(5):
        for d in enumerate_diagrams(n):
            counts = dict(weights._coproduct_table(d))
            assert all(type(c) is int for c in counts.values())
            assert sum(counts.values()) == 2**n
            assert counts == coproduct(d).terms


def test_characters_compute_on_integers_only(monkeypatch):
    # On cold diagrams the sl2 and Lorentz walks, the substitution in p and
    # the coproduct sum run on Python ints: no polynomial or
    # Gaussian-rational product happens anywhere in lambda_z_sl2,
    # lambda_mp_factorized, lambda_mp_direct, lorentz_weight_raw or
    # lorentz_quadratic_eigenvalue, on a diagram or a DiagramSum, and every
    # walk value and coproduct factor is a tuple of ints.
    def refuse(self, other):
        raise AssertionError(f"{type(self).__name__} product in an integer character")

    def ints(p):
        nums, den = p
        assert type(den) is int and all(type(x) is int for x in nums), p
        return p

    sl2_step, lorentz_step = weights._sl2_step, weights._lorentz_step
    mul = weights.int_poly_mul
    steps, products = [], []

    def int_step(vec, gen, coeff, out):
        assert type(coeff) is int
        assert all(type(x) is int for nums in vec.values() for x in nums), vec
        steps.append(gen)
        return sl2_step(vec, gen, coeff, out)

    def int_lorentz_step(vec, gen, coeff, out, m):
        assert type(coeff) is int
        for value in vec.values():
            ints(value)
        steps.append(gen)
        return lorentz_step(vec, gen, coeff, out, m)

    def int_mul(p, q):
        products.append(1)
        return ints(mul(ints(p), ints(q)))

    sums = [
        four_t_generators(3)[0],
        DiagramSum([(parse_diagram("ABAB"), GR_I * F(2, 3)), (THETA, F(-1, 2))]),
    ]
    clear_caches()
    monkeypatch.setattr(weights, "_sl2_step", int_step)
    monkeypatch.setattr(weights, "_lorentz_step", int_lorentz_step)
    monkeypatch.setattr(weights, "int_poly_mul", int_mul)
    for kind in (ParamPolynomial, GaussianRational):
        monkeypatch.setattr(kind, "__mul__", refuse)
        monkeypatch.setattr(kind, "__rmul__", refuse)
    values = []  # each route is checked against the other afterwards
    for text in ("ABCDBADC", "ABCABC"):  # four and three chords
        d = parse_diagram(text)
        values.append(lambda_z_sl2(d))
        values.extend(lambda_mp_factorized(d, m) for m in (0, 1, F(1, 2)))
        values.extend(lambda_mp_direct(d, m) for m in (0, 1))
    raw = [lorentz_weight_raw(T_LEFT, THETA, m) for m in (0, 1, 2)]
    casimirs = [
        lorentz_quadratic_eigenvalue(terms, m)
        for m in (0, 1, 2)
        for terms in (CASIMIR_LEFT_TERMS, CASIMIR_RIGHT_TERMS)
    ]
    linear = [
        [lambda_z_sl2(g), lambda_mp_factorized(g, 1), lambda_mp_direct(g, 1)]
        for g in sums
    ]
    assert steps and products
    monkeypatch.undo()
    clear_caches()
    for text, k in (("ABCDBADC", 0), ("ABCABC", 6)):
        d = parse_diagram(text)
        assert values[k] == lambda_z_sl2(d)
        assert values[k + 1 : k + 6] == [
            lambda_mp_direct(d, 0),
            lambda_mp_direct(d, 1),
            lambda_mp_factorized(d, F(1, 2)),
            lambda_mp_factorized(d, 0),
            lambda_mp_factorized(d, 1),
        ]
    assert raw == [casimir_eigenvalues(m)[0] for m in (0, 1, 2)]
    assert casimirs == [x for m in (0, 1, 2) for x in casimir_eigenvalues(m)]
    for g, row in zip(sums, linear):
        terms = g.terms.items()
        assert row == [
            sum((c * lambda_z_sl2(d) for d, c in terms), ParamPolynomial()),
            sum((c * lambda_mp_factorized(d, 1) for d, c in terms), ParamPolynomial()),
            sum((c * lambda_mp_factorized(d, 1) for d, c in terms), ParamPolynomial()),
        ]
    assert linear[0] == [ParamPolynomial()] * 3
    assert not linear[1][0].is_zero()


def test_sl2_characters_refuse_a_non_real_tensor():
    t = InfinitesimalRMatrix(
        "sl2", ((F(1, 4), "E", "F"), (F(1, 4), "F", "E"), (GR_I * F(1, 2), "H", "H"))
    )
    message = "the coefficient 1/2*i of H (x) H is not real"
    with pytest.raises(ValueError, match=re.escape(message)):
        lambda_z_sl2(THETA, t)


def test_lorentz_characters_refuse_a_tensor_not_real_in_the_real_basis():
    # The walk's generators are F' = -iF, so a term c H3 (x) F3 is
    # c i H3 (x) F3': T_LORENTZ, whose coefficients are i/4 and i/8, is real
    # there, and the same tensor divided by i is not.
    t = InfinitesimalRMatrix("lorentz", tuple((c.im, a, b) for c, a, b in T_LORENTZ.terms))
    message = "the coefficient 1/4 times i^1 of H3 (x) F3 is not real"
    with pytest.raises(ValueError, match=re.escape(message)):
        lorentz_weight_raw(t, THETA, 1)


def test_zero_terms_leave_a_weight_unchanged():
    # A zero coefficient is dropped with the term: kept, its branches would
    # carry all-zero coefficient tuples that the corner check reads as
    # surviving components.
    d = parse_diagram("ABCABC")
    for t, gen, weight in (
        (T_LORENTZ, "F3", lambda t: lorentz_weight_raw(t, d, 1)),
        (T_JONES_SL2, "F", lambda t: lambda_z_sl2(d, t)),
    ):
        padded = InfinitesimalRMatrix(t.alphabet, t.terms + ((0, gen, gen),))
        assert weight(padded) == weight(t)


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _compact(value):
    return json.dumps(value.to_json(), separators=(",", ":"))


def test_lorentz_values_match_the_parent_digest():
    # Golden digests of the Lorentz module's values, taken from the Q(i)
    # walk that the real-basis integer walk replaced: the direct character
    # of every diagram with at most four chords, both Casimir term sets and
    # every word of length <= 3 applied to the corner, states in order.
    direct = [
        f"{d.gauss_text()}|{m}|{_compact(lambda_mp_direct(d, m))}"
        for n in range(5)
        for d in enumerate_diagrams(n)
        for m in range(4)
    ]
    casimir = [
        f"{side}|{m}|{_compact(lorentz_quadratic_eigenvalue(terms, m))}"
        for side, terms in (("L", CASIMIR_LEFT_TERMS), ("R", CASIMIR_RIGHT_TERMS))
        for m in range(4)
    ]
    words = [w for k in range(4) for w in product(weights.LORENTZ_ALPHABET, repeat=k)]
    applied = [
        f"{' '.join(w)}|{m}|{state}|{_compact(value)}"
        for m in range(3)
        for w in words
        for state, value in sorted(lorentz_apply_word(w, m).items())
    ]
    assert (len(direct), len(casimir), len(words), len(applied)) == (108, 8, 259, 924)
    assert _digest(direct) == "a81ae634a286d8b63ddcc3838884d53b84533d26432763cfac0d81aa9d55dfac"
    assert _digest(casimir) == "f9ad4c823d73b57f6f709d7d168ae9f60caeaf93540027e493bd51177084c2fc"
    assert _digest(applied) == "99847f0e374c41fe6a6ac3ca2eecf9d797944b795dff8681f38a96badd2e57ba"


# ---------------------------------------------------------------------------
# sl2 characters
# ---------------------------------------------------------------------------


def test_lambda_z_unit():
    assert lambda_z_sl2(UNIT_DIAGRAM) == ParamPolynomial([1])


def test_lambda_z_theta_is_casimir_value():
    # Hand oracle: the quadratic element of the tensor acts on the corner
    # vector as -(z/2 + z^2/2); with the per-chord sign the one-chord weight
    # is +z(z+1)/2, the Casimir eigenvalue of the underlying bilinear form.
    assert lambda_z_sl2(THETA, T_JONES_SL2) == (Z * Z + Z) * F(1, 2)
    assert lambda_z_sl2(THETA, T_CK_SL2) == -(Z * Z + Z) * F(1, 2)
    assert sl2_quadratic_eigenvalue() == (Z * Z + Z) * F(1, 2)


@pytest.mark.parametrize(
    "d",
    ALL_SMALL + enumerate_diagrams(4),
    ids=lambda d: d.gauss_text() or "unit",
)
def test_lambda_z_degree_bound(d):
    assert lambda_z_sl2(d).degree() <= 2 * d.n


def test_lambda_z_multiplicative_under_connected_sum():
    pool = [d for n in range(3) for d in enumerate_diagrams(n)]
    for d1, d2 in product(pool, pool):
        if d1.n + d2.n > 4:
            continue
        assert lambda_z_sl2(connected_sum(d1, d2)) == lambda_z_sl2(d1) * lambda_z_sl2(d2)


def test_lambda_z_basepoint_independent():
    for d in enumerate_diagrams(3):
        base = lambda_z_sl2(d)
        for start in range(1, 2 * d.n):
            assert lambda_z_sl2(d, start=start) == base


def test_sign_parity_under_tensor_negation():
    for d in ALL_SMALL:
        flipped = lambda_z_sl2(d, T_CK_SL2)
        straight = lambda_z_sl2(d, T_JONES_SL2)
        assert flipped == (straight if d.n % 2 == 0 else -1 * straight)


def test_four_t_vanishing_sl2():
    for n in (2, 3, 4, 5):
        for g in four_t_generators(n):
            assert lambda_z_sl2(g).is_zero()
            assert lambda_z_sl2(g, T_CK_SL2).is_zero()


def test_four_t_vanishing_sl2_six_chords():
    gens = four_t_generators(6)
    assert len(gens) == 4477
    for g in gens:
        assert lambda_z_sl2(g).is_zero()
        assert lambda_z_sl2(g, T_CK_SL2).is_zero()


# ---------------------------------------------------------------------------
# Lorentz characters: direct route, factorized route, Casimirs
# ---------------------------------------------------------------------------


def test_lambda_mp_unit():
    for m in (0, 1, 2):
        assert lambda_mp_direct(UNIT_DIAGRAM, m) == ParamPolynomial([1])
        assert lambda_mp_factorized(UNIT_DIAGRAM, m) == ParamPolynomial([1])


def test_theta_value_and_casimir_difference():
    # The one-chord weight equals minus the quadratic element's eigenvalue;
    # the quadratic element of the balanced tensor is C_left - C_right with
    # eigenvalue difference mp/2.
    P = poly_variable()
    for m in (0, 1, 2):
        left, right = casimir_eigenvalues(m)
        assert left - right == P * F(m, 2)
        assert lambda_mp_direct(THETA, m) == -(left - right)
        assert lambda_mp_factorized(THETA, m) == -(left - right)


# (X, Y, [X, Y] as (coefficient, generator) pairs) for the Lorentz algebra
# in the module's normalization.
LORENTZ_COMMUTATORS = [
    ("H+", "H-", ((2, "H3"),)),
    ("H3", "H+", ((1, "H+"),)),
    ("H3", "H-", ((-1, "H-"),)),
    ("H3", "F+", ((1, "F+"),)),
    ("H3", "F-", ((-1, "F-"),)),
    ("H+", "F-", ((2, "F3"),)),
    ("H-", "F+", ((-2, "F3"),)),
    ("H+", "F3", ((-1, "F+"),)),
    ("H-", "F3", ((1, "F-"),)),
    ("F+", "F-", ((-2, "H3"),)),
    ("F+", "F3", ((1, "H+"),)),
    ("F-", "F3", ((-1, "H-"),)),
    ("H+", "F+", ()),
    ("H-", "F-", ()),
    ("H3", "F3", ()),
]


@pytest.mark.parametrize("m", [0, 1, 2])
def test_lorentz_module_commutation_relations(m):
    # Checks the real-basis matrix elements against the algebra in its
    # original generators: each relation holds exactly on every state with
    # alpha <= 3.  The walk's generators are F' = -iF, so a product of
    # original generators is i^{#F} times the walk's product.
    def act(factors, state):
        """The operator product X Y ... on f'(state); the last factor acts first."""
        vec = {state: ((1,), 1)}
        for gen in reversed(factors):
            vec = weights._lorentz_step(vec, gen, 1, {}, m)
        phase = _i_power(sum(gen[0] == "F" for gen in factors))
        return {s: int_poly_param(value) * phase for s, value in vec.items()}

    states = [(alpha, k) for alpha in range(m, 4) for k in range(-alpha, alpha + 1)]
    for x, y, rhs in LORENTZ_COMMUTATORS:
        for state in states:
            bracket = _combine([(1, act((x, y), state)), (-1, act((y, x), state))])
            expected = _combine((c, act((z,), state)) for c, z in rhs)
            assert bracket == expected, (x, y, state)


def test_casimir_eigenvalues_reproduced_by_module_action():
    for m in (0, 1, 2):
        left, right = casimir_eigenvalues(m)
        assert lorentz_quadratic_eigenvalue(CASIMIR_LEFT_TERMS, m) == left
        assert lorentz_quadratic_eigenvalue(CASIMIR_RIGHT_TERMS, m) == right


def test_casimir_numeric_points():
    assert casimir_eigenvalues(0, 1) == (GaussianRational(0), GaussianRational(0))
    left, right = casimir_eigenvalues(0)
    assert left == right and left.is_even()


@pytest.mark.parametrize("m", [0, 1, 2])
def test_routes_agree_all_small_diagrams(m):
    for d in ALL_SMALL:
        assert lambda_mp_direct(d, m) == lambda_mp_factorized(d, m), d.gauss_text()


def test_balanced_characters_even_in_p():
    for d in ALL_SMALL:
        assert lambda_mp_factorized(d, 0).is_even(), d.gauss_text()


def test_four_t_vanishing_lorentz():
    for n in (2, 3):
        for g in four_t_generators(n):
            for m in (0, 1, 2):
                assert lambda_mp_factorized(g, m).is_zero()
    for n in (4, 5):
        for g in four_t_generators(n):
            for m in (0, 1, 2):
                assert lambda_mp_factorized(g, m).is_zero()


def test_four_t_vanishing_lorentz_six_chords():
    gens = four_t_generators(6)
    assert len(gens) == 4477
    for g in gens:
        for m in (0, 1, 2):
            assert lambda_mp_factorized(g, m).is_zero()


def test_unframed_criterion_on_quadratic_value():
    # The one-chord weight vanishes identically in p iff m = 0, and at p = 0
    # for every m.
    assert lambda_mp_factorized(THETA, 0).is_zero()
    for m in (1, 2, 3):
        poly = lambda_mp_factorized(THETA, m)
        assert not poly.is_zero()
        assert poly.evaluate(0) == 0


def test_half_integer_m_factorized_only():
    val = lambda_mp_factorized(THETA, F(1, 2))
    assert val == lambda_mp_factorized(THETA, F(1, 2))  # deterministic
    with pytest.raises(ValueError):
        lambda_mp_direct(THETA, F(1, 2))


def test_direct_route_guard():
    # All five chords open at once: cost 5 * 6^5 against 4 * 6^4 (ABCDABCD).
    message = r"ABCDEABCDE has estimated cost n\*6\^w = 38880, above the limit 5184"
    with pytest.raises(ResourceGuardError, match=message):
        lambda_mp_direct(parse_diagram("ABCDEABCDE"), 0)
    # every diagram of at most four chords stays within the limit
    for n in range(5):
        for d in enumerate_diagrams(n):
            assert weights._direct_cost(d) <= weights._DIRECT_COST_LIMIT


@pytest.mark.parametrize("m", [0, 1, 2])
def test_direct_route_takes_five_chords_with_few_open(m):
    chain = connected_sum(
        connected_sum(parse_diagram("AABB"), parse_diagram("AABB")),
        parse_diagram("AA"),
    )
    assert chain.gauss_text() == "AABBCCDDEE"
    for d in (chain, parse_diagram("ABACBDCEDE")):
        assert lambda_mp_direct(d, m) == lambda_mp_factorized(d, m)


def test_direct_matches_factorized_on_cross_tensor():
    # Left Casimir through the direct machinery equals the weight of the
    # one-chord diagram under the left tensor, up to the per-chord sign.
    for m in (0, 1, 2):
        left, _ = casimir_eigenvalues(m)
        assert lorentz_weight_raw(T_LEFT, THETA, m) == left


# ---------------------------------------------------------------------------
# Oracle: the characters depend only on the intersection graph
# ---------------------------------------------------------------------------


def _intersection_class(d):
    """A canonical form of the intersection graph of ``d``, built from its
    pairing alone: the least sorted edge list over every vertex labelling.

    Chords are vertices; two chords cross when exactly one endpoint of one
    lies strictly between the endpoints of the other.
    """
    chords = [(i, j) for i, j in enumerate(d.pairing) if i < j]
    edges = [
        (u, v)
        for u, (a, b) in enumerate(chords)
        for v, (c, e) in enumerate(chords)
        if u < v and (a < c < b) != (a < e < b)
    ]
    return min(
        tuple(sorted(tuple(sorted((label[u], label[v]))) for u, v in edges))
        for label in permutations(range(len(chords)))
    )


# (n, number of intersection-graph classes) for n <= 5
GRAPH_CLASS_COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34}


@pytest.mark.parametrize("n", range(6))
def test_characters_depend_only_on_the_intersection_graph(n):
    # Chmutov-Lando: a weight system that cannot tell mutants apart depends
    # only on the intersection graph; sl2 qualifies, and the Lorentz
    # character through the coproduct.  The direct route is checked against
    # each class's value wherever its cost guard admits the diagram.
    classes = {}
    for d in enumerate_diagrams(n):
        classes.setdefault(_intersection_class(d), []).append(d)
    assert len(classes) == GRAPH_CLASS_COUNTS[n]
    direct = 0
    for members in classes.values():
        first = members[0]
        for t in (T_JONES_SL2, T_CK_SL2):
            value = lambda_z_sl2(first, t)
            assert all(lambda_z_sl2(d, t) == value for d in members), members
        for m in (0, 1, 2):
            value = lambda_mp_factorized(first, m)
            assert all(lambda_mp_factorized(d, m) == value for d in members), members
            for d in members:
                if weights._direct_cost(d) <= weights._DIRECT_COST_LIMIT:
                    assert lambda_mp_direct(d, m) == value, (d.gauss_text(), m)
                    direct += 1
    assert direct
