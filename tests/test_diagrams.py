"""Chord diagram combinatorics: canonical forms, products, coproduct, 4T."""

from fractions import Fraction

import pytest

from lorentzknots.diagrams import (
    THETA,
    UNIT_DIAGRAM,
    ChordDiagram,
    DiagramSum,
    TensorDiagramSum,
    connected_sum,
    coproduct,
    enumerate_diagrams,
    exact_rank,
    four_t_generators,
    parse_diagram,
    quotient_dimension,
    reverse_orientation,
)
from lorentzknots.errors import ResourceGuardError

F = Fraction


# ---------------------------------------------------------------------------
# Parsing and canonical forms
# ---------------------------------------------------------------------------


def test_parse_single_chord():
    d = parse_diagram("AA")
    assert d == THETA and d.n == 1


def test_parse_crossing():
    d = parse_diagram("ABAB")
    assert d.n == 2
    assert d != parse_diagram("AABB")


def test_rotation_equivalence_brute_force():
    # Independent oracle: compare the full rotation orbits of the raw words.
    def orbit(word):
        return {tuple(word[k:] + word[:k]) for k in range(len(word))}

    # ABBA is the rotation of AABB by one step, so the diagrams coincide.
    def relabel(word):
        seen = {}
        out = []
        for ch in word:
            seen.setdefault(ch, len(seen))
            out.append(seen[ch])
        return tuple(out)

    orbits_abba = {relabel(w) for w in orbit(tuple("ABBA"))}
    orbits_aabb = {relabel(w) for w in orbit(tuple("AABB"))}
    assert orbits_abba & orbits_aabb
    assert parse_diagram("ABBA") == parse_diagram("AABB")


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_diagram("ABA")
    with pytest.raises(ValueError):
        parse_diagram("AAA A".replace(" ", ""))
    assert parse_diagram("") == UNIT_DIAGRAM


def test_canonicalization_idempotent_and_print_roundtrip():
    for d in enumerate_diagrams(3):
        again = parse_diagram(d.gauss_text())
        assert again == d
        assert ChordDiagram(d.pairing) == d


# ---------------------------------------------------------------------------
# Enumeration.  Oracle: orbit counting of raw involutions under rotation,
# entirely independent of the canonical-form code.
# ---------------------------------------------------------------------------


def _oracle_count(n):
    points = list(range(2 * n))

    def involutions(pts):
        if not pts:
            yield frozenset()
            return
        first, rest = pts[0], pts[1:]
        for i, partner in enumerate(rest):
            for sub in involutions(rest[:i] + rest[i + 1 :]):
                yield sub | {frozenset((first, partner))}

    all_invs = set(involutions(points))

    def rotate(inv, k):
        return frozenset(
            frozenset((p + k) % (2 * n) for p in pair) for pair in inv
        )

    seen = set()
    orbits = 0
    for inv in all_invs:
        if inv in seen:
            continue
        orbits += 1
        for k in range(2 * n):
            seen.add(rotate(inv, k))
    return orbits


@pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (3, 5)])
def test_enumerate_counts(n, count):
    diags = enumerate_diagrams(n)
    assert len(diags) == count
    assert len(set(diags)) == count
    if n:
        assert _oracle_count(n) == count


def test_enumerate_guard():
    with pytest.raises(ResourceGuardError):
        enumerate_diagrams(7)


# ---------------------------------------------------------------------------
# Connected sum and coproduct
# ---------------------------------------------------------------------------


def test_connected_sum_unit():
    for d in enumerate_diagrams(3):
        assert connected_sum(UNIT_DIAGRAM, d) == d
        assert connected_sum(d, UNIT_DIAGRAM) == d


def test_connected_sum_theta_theta():
    assert connected_sum(THETA, THETA) == parse_diagram("AABB")


def test_coproduct_unit_and_theta():
    assert coproduct(UNIT_DIAGRAM) == TensorDiagramSum(
        [((UNIT_DIAGRAM, UNIT_DIAGRAM), 1)]
    )
    expected = TensorDiagramSum(
        [((THETA, UNIT_DIAGRAM), 1), ((UNIT_DIAGRAM, THETA), 1)]
    )
    assert coproduct(THETA) == expected


def _theta_power_sum(k):
    d = UNIT_DIAGRAM
    for _ in range(k):
        d = connected_sum(d, THETA)
    return DiagramSum.of(d, F(1, 1) / _fact(k))


def _fact(k):
    out = 1
    for j in range(2, k + 1):
        out *= j
    return out


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_grouplike_exponential_law(n):
    # Delta(theta^n / n!) = sum_{k+l=n} theta^k/k! (x) theta^l/l!
    lhs = coproduct(_theta_power_sum(n))
    expected_terms = []
    for k in range(n + 1):
        lk = _theta_power_sum(k)
        ll = _theta_power_sum(n - k)
        for dk, ck in lk.terms.items():
            for dl, cl in ll.terms.items():
                expected_terms.append(((dk, dl), ck * cl))
    assert lhs == TensorDiagramSum(expected_terms)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_coproduct_coassociative(n):
    for d in enumerate_diagrams(n):
        left = {}
        right = {}
        for (a, b), c in coproduct(d).terms.items():
            for (a1, a2), c2 in coproduct(a).terms.items():
                key = (a1, a2, b)
                left[key] = left.get(key, 0) + c * c2
            for (b1, b2), c2 in coproduct(b).terms.items():
                key = (a, b1, b2)
                right[key] = right.get(key, 0) + c * c2
        left = {k: v for k, v in left.items() if v}
        right = {k: v for k, v in right.items() if v}
        assert left == right


def test_reverse_orientation_involution():
    for d in enumerate_diagrams(3):
        assert reverse_orientation(reverse_orientation(d)) == d


# ---------------------------------------------------------------------------
# Four-term generators and quotient dimensions
# ---------------------------------------------------------------------------


def test_four_t_shape():
    for n in (3, 4):
        gens = four_t_generators(n)
        assert gens
        for g in gens:
            assert g.grade() == n
            assert sum(c.re for _, c in g.items()) == 0
            assert len(g.terms) <= 4


def test_four_t_degree_two_collapses():
    # With no spectator chords the four placements cancel in pairs after
    # canonical collection, so no nonzero generator survives; the quotient
    # dimension check below confirms the rank really is 0 in degree 2.
    assert four_t_generators(2) == []


def test_four_t_guard():
    with pytest.raises(ResourceGuardError):
        four_t_generators(6)


def _dense_rank(rows, ncols):
    # Independent dense elimination for cross-checking exact_rank.
    mat = [[F(0)] * ncols for _ in rows]
    for i, row in enumerate(rows):
        for c, v in row.items():
            mat[i][c] = F(v)
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("n,dim", [(0, 1), (1, 1), (2, 2), (3, 3), (4, 6), (5, 10)])
def test_quotient_dimension(n, dim):
    # Frozen values come from the exact elimination itself, cross-checked
    # against an independent dense elimination below.
    assert quotient_dimension(n) == dim
    if n >= 2:
        basis = enumerate_diagrams(n)
        index = {d: i for i, d in enumerate(basis)}
        rows = [
            {index[d]: c.re for d, c in g.terms.items()}
            for g in four_t_generators(n)
        ]
        assert len(basis) - _dense_rank(rows, len(basis)) == dim
        assert exact_rank(rows) == _dense_rank(rows, len(basis))


def test_quotient_guard():
    with pytest.raises(ResourceGuardError, match="n <= 5, got 6"):
        quotient_dimension(6)


def test_diagram_sum_json():
    s = DiagramSum([(parse_diagram("ABAB"), F(3, 2))])
    doc = s.to_json()
    assert doc == [{"word": "ABAB", "coeff": [3, 2, 0, 1]}]
