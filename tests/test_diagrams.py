"""Chord diagram combinatorics: canonical forms, products, coproduct, 4T."""

import hashlib
import random
from fractions import Fraction

import pytest

from lorentzknots import diagrams
from lorentzknots.diagrams import (
    THETA,
    UNIT_DIAGRAM,
    ChordDiagram,
    DiagramSum,
    TensorDiagramSum,
    connected_sum,
    coproduct,
    coproduct_counts,
    enumerate_diagrams,
    exact_rank,
    four_t_generators,
    parse_diagram,
    quotient_dimension,
    reverse_orientation,
)
from lorentzknots.errors import ResourceGuardError
from lorentzknots.scalars import GaussianRational
from lorentzknots.series import clear_caches

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


def _pairings(n):
    """Every fixed-point-free involution of 2n points, as a tuple."""
    def matchings(points):
        if not points:
            yield ()
            return
        first, rest = points[0], points[1:]
        for i, partner in enumerate(rest):
            for sub in matchings(rest[:i] + rest[i + 1 :]):
                yield ((first, partner),) + sub

    for pairs in matchings(tuple(range(2 * n))):
        pairing = [0] * (2 * n)
        for a, b in pairs:
            pairing[a], pairing[b] = b, a
        yield tuple(pairing)


def _rotate(pairing, r):
    """The pairing with every point moved r steps round the circle."""
    n2 = len(pairing)
    rotated = [0] * n2
    for k, p in enumerate(pairing):
        rotated[(k + r) % n2] = (p + r) % n2
    return tuple(rotated)


def _first_visit_word(pairing, r):
    """Chord labels in order of first visit, read from point r onwards."""
    n2 = len(pairing)
    labels = {}
    word = []
    for k in range(n2):
        pos = (r + k) % n2
        chord = frozenset((pos, pairing[pos]))
        labels.setdefault(chord, len(labels))
        word.append(labels[chord])
    return tuple(word)


def test_canonical_word_is_the_least_rotation_for_every_pairing():
    # The canonical word is by definition the least first-visit word over
    # all rotations; the stored pairing is the one that word is read from.
    count = 0
    for n in range(6):
        for pairing in _pairings(n):
            d = ChordDiagram(pairing)
            least = min((_first_visit_word(pairing, r) for r in range(2 * n)), default=())
            assert d.word == least, pairing
            assert _first_visit_word(d.pairing, 0) == d.word, pairing
            for r in range(1, 2 * n):
                assert ChordDiagram(_rotate(pairing, r)) == d, (pairing, r)
            count += 1
    assert count == 1070


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
    seen = set()
    orbits = 0
    for pairing in _pairings(n):
        if pairing in seen:
            continue
        orbits += 1
        seen.update(_rotate(pairing, r) for r in range(2 * n))
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


def test_coproduct_is_linear_on_sums():
    a, b = parse_diagram("ABAB"), parse_diagram("ABCACB")
    total = DiagramSum([(a, GaussianRational(F(1, 2), 3)), (b, -2), (THETA, 5)])
    expected = (
        GaussianRational(F(1, 2), 3) * coproduct(a)
        + (-2) * coproduct(b)
        + 5 * coproduct(THETA)
    )
    assert coproduct(total) == expected
    assert coproduct(DiagramSum()) == TensorDiagramSum()


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
    for n in (3, 4, 5):
        gens = four_t_generators(n)
        assert gens
        for g in gens:
            assert g.grade() == n
            assert sum(c.re for _, c in g.items()) == 0
            assert len(g.terms) <= 4
            assert g.items()[0][1].re > 0  # the sign fixed by the leading term
        # duplicates are removed up to sign
        assert len(set(gens) | {-g for g in gens}) == 2 * len(gens)


def test_four_t_degree_two_collapses():
    # With no spectator chords the four placements cancel in pairs after
    # canonical collection, so no nonzero generator survives; the quotient
    # dimension check below confirms the rank really is 0 in degree 2.
    assert four_t_generators(2) == []


def test_four_t_guard():
    with pytest.raises(ResourceGuardError, match="2 <= n <= 6, got 7"):
        four_t_generators(7)


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


@pytest.mark.parametrize(
    "n,dim", [(0, 1), (1, 1), (2, 2), (3, 3), (4, 6), (5, 10), (6, 19)]
)
def test_quotient_dimension(n, dim):
    # The values are Bar-Natan's dimensions of A_n (Topology 1995).  Through
    # n = 5 an independent dense elimination cross-checks the sparse one; at
    # n = 6 (4477 relations on 902 diagrams) the dense one is skipped for
    # its cost.
    assert quotient_dimension(n) == dim
    if 2 <= n <= 5:
        basis = enumerate_diagrams(n)
        index = {d: i for i, d in enumerate(basis)}
        rows = [
            {index[d]: c.re for d, c in g.terms.items()}
            for g in four_t_generators(n)
        ]
        assert len(basis) - _dense_rank(rows, len(basis)) == dim
        assert exact_rank(rows) == _dense_rank(rows, len(basis))


def test_exact_rank_on_rational_rows():
    # Non-unit rational entries: each row is scaled to integers by the lcm
    # of its denominators before the fraction-free elimination.  Row 2 is
    # row 0 + row 1 / 2 and row 4 is 3 row 3 - 2/3 row 0, so the rank is 3.
    rows = [
        {0: F(1, 2), 1: F(-2, 3), 3: 5},
        {1: F(4, 3), 2: F(-1, 6)},
        {0: F(1, 2), 2: F(-1, 12), 3: 5},
        {2: F(7, 5), 3: F(-3, 7), 4: 0},
        {0: F(-1, 3), 1: F(4, 9), 2: F(21, 5), 3: F(-97, 21)},
        {},
    ]
    assert exact_rank(rows) == _dense_rank(rows, 5) == 3
    # Seeded rational matrices with a known rank deficiency.
    rng = random.Random(17)
    for _ in range(40):
        ncols = rng.randint(1, 6)
        base = [
            {c: F(rng.randint(-9, 9), rng.randint(1, 9)) for c in range(ncols)}
            for _ in range(rng.randint(1, 4))
        ]
        combos = [
            {
                c: sum(F(rng.randint(-3, 3), rng.randint(1, 4)) * r[c] for r in base)
                for c in range(ncols)
            }
            for _ in range(rng.randint(0, 3))
        ]
        rows = base + combos
        rng.shuffle(rows)
        assert exact_rank(rows) == _dense_rank(rows, ncols)


def test_quotient_guard():
    with pytest.raises(ResourceGuardError, match="n <= 6, got 7"):
        quotient_dimension(7)


def test_diagram_sum_json():
    s = DiagramSum([(parse_diagram("ABAB"), F(3, 2))])
    doc = s.to_json()
    assert doc == [{"word": "ABAB", "coeff": [3, 2, 0, 1]}]


# ---------------------------------------------------------------------------
# The per-process basis and four-term tables
# ---------------------------------------------------------------------------


def _diagram_lines():
    """The four-term generators with their terms in dict order, the bases
    with their stored pairings, and the quotient dimensions, one per line."""
    lines = []
    for n in range(2, 6):
        for g in four_t_generators(n):
            terms = ";".join(f"{d.gauss_text()}:{c!r}" for d, c in g.terms.items())
            lines.append(f"gen|{n}|{g!r}|{terms}")
    for n in range(7):
        for d in enumerate_diagrams(n):
            lines.append(f"diag|{n}|{d.gauss_text()}|{d.pairing}")
    for n in range(6):
        lines.append(f"qdim|{n}|{quotient_dimension(n)}")
    return lines


def test_diagrams_match_the_golden_digest():
    # SHA-256 of the lines above, taken from the code before the bases and
    # four-term relations were memoized: it pins the generators' term
    # order, which the CLI prints, as well as the values.
    lines = _diagram_lines()
    assert len(lines) == 1433
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "d6586631276af78055738c744f910c98a6136b603d25bb99c341f8f71dc7a973"


@pytest.mark.parametrize(
    "compute,n",
    [(enumerate_diagrams, 4), (four_t_generators, 5), (quotient_dimension, 4)],
    ids=["enumerate_diagrams", "four_t_generators", "quotient_dimension"],
)
@pytest.mark.parametrize("bad", [float, Fraction, str], ids=lambda t: t.__name__)
def test_a_warm_table_refuses_a_non_int_count(compute, n, bad):
    # 4.0 and Fraction(4) are equal to 4 as memo keys: the check runs
    # before the lookup, so a warm entry is never served for them.
    compute(n)
    with pytest.raises(TypeError, match="chord count must be an int"):
        compute(bad(n))


def test_returned_lists_are_fresh():
    basis = enumerate_diagrams(4)
    basis.clear()
    assert len(enumerate_diagrams(4)) == 18
    gens = four_t_generators(4)
    before = list(gens)
    gens.pop()
    again = four_t_generators(4)
    assert again == before and again is not gens
    assert all(a is not b for a, b in zip(again, before))


def test_clear_caches_empties_the_diagram_tables():
    quotient_dimension(4)
    tables = (diagrams._diagrams, diagrams._four_t_counts)
    assert all(t.cache_info().currsize for t in tables)
    clear_caches()
    assert not any(t.cache_info().currsize for t in tables)
    assert not any(t.table for t in tables)
    assert len(four_t_generators(4)) == 25


def test_four_t_counts_are_int_tables_of_the_generators():
    for n in (3, 4, 5):
        counts = diagrams._four_t_counts(n)
        assert isinstance(counts, tuple) and all(isinstance(g, tuple) for g in counts)
        assert all(type(c) is int and c for g in counts for _, c in g)
        assert [DiagramSum(list(g)) for g in counts] == four_t_generators(n)


# ---------------------------------------------------------------------------
# Combinations built from a dict or from a list of pairs
# ---------------------------------------------------------------------------


def test_dict_and_pair_list_give_equal_sums():
    a, b, c = parse_diagram("ABAB"), parse_diagram("AABB"), THETA
    values = {a: F(3, 2), b: -2, c: GaussianRational(1, -1)}
    from_dict = DiagramSum(values)
    from_list = DiagramSum(list(values.items()))
    assert from_dict == from_list
    assert list(from_dict.terms) == list(from_list.terms) == [a, b, c]
    assert all(type(v) is GaussianRational for v in from_dict.terms.values())
    assert from_dict.terms[b] == GaussianRational(-2)


def test_zero_values_are_dropped():
    a, b = parse_diagram("ABAB"), parse_diagram("AABB")
    for terms in ({a: 0, b: 1}, [(a, 0), (b, 1)], {a: GaussianRational(0)}):
        s = DiagramSum(terms)
        assert a not in s.terms
    assert DiagramSum({a: 0}).is_zero()


def test_repeated_keys_in_a_list_add_up():
    a, b = parse_diagram("ABAB"), parse_diagram("AABB")
    s = DiagramSum([(a, 1), (b, F(1, 2)), (a, 2), (b, F(-1, 2))])
    assert s.terms == {a: GaussianRational(3)}
    s = DiagramSum([(b, 1), (a, 1), (b, -1), (b, 5)])
    assert list(s.terms) == [b, a] and s.terms[b] == GaussianRational(5)


def test_tensor_sums_from_coproduct_counts_are_unchanged():
    for n in range(5):
        for d in enumerate_diagrams(n):
            counts = coproduct_counts(d)
            tensor = coproduct(d)
            assert tensor == TensorDiagramSum(list(counts.items()))
            assert list(tensor.terms) == list(counts)
            assert tensor.terms == {k: GaussianRational(v) for k, v in counts.items()}


def test_exact_rank_takes_int_rows_without_fractions(monkeypatch):
    rows = [
        {index: c for index, c in enumerate(row) if c}
        for row in ([1, -1, 0, 2], [0, 3, -3, 0], [1, 2, -3, 2], [0, 0, 0, 0], [2, 0, 4, -6])
    ]
    expected = _dense_rank(rows, 4)
    assert expected == 3

    def refuse(*args):
        raise AssertionError("Fraction built for an int row")

    monkeypatch.setattr(diagrams, "Fraction", refuse)
    assert exact_rank(rows) == expected
    monkeypatch.undo()
    assert exact_rank([{c: F(v) for c, v in row.items()} for row in rows]) == expected
