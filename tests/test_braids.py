"""Braid words, closures, Markov move sampling."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from lorentzknots.braids import (
    BraidWord,
    CATALOG,
    catalog_knot,
    markov_variants,
    mirror,
    parse_braid,
    reverse,
)


def test_parse_trefoil():
    b = parse_braid("s1 s1 s1", 2)
    assert b.letters == ((1, 1), (1, 1), (1, 1))
    assert b.writhe() == 3
    assert b.is_knot()
    assert b == CATALOG["trefoil-right"].braid


def test_parse_empty_is_unknot():
    b = parse_braid("", 1)
    assert b.letters == ()
    assert b.is_knot()


def test_three_cycle_closure_is_knot():
    b = parse_braid("s1 s2", 3)
    # Oracle: the permutation (12)(23) is a 3-cycle, so one component.
    perm = b.permutation()
    k, steps = 0, 0
    while True:
        k = perm[k]
        steps += 1
        if k == 0:
            break
    assert steps == 3
    assert b.is_knot()


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_braid("x1", 2)
    with pytest.raises(ValueError):
        parse_braid("s2", 2)


def test_mirror_and_writhe():
    t = parse_braid("s1 s1 s1", 2)
    assert mirror(t) == parse_braid("-s1 -s1 -s1", 2)
    assert mirror(t).writhe() == -3
    assert mirror(t) == CATALOG["trefoil-left"].braid


def test_not_a_knot():
    assert not parse_braid("s1", 3).is_knot()


def test_reverse():
    b = parse_braid("s1 -s2 s1 -s2", 3)
    assert reverse(b).letters == ((2, -1), (1, 1), (2, -1), (1, 1))
    assert reverse(reverse(b)) == b


def test_markov_variants_structure():
    t = parse_braid("s1 s1 s1", 2)
    variants = markov_variants(t)
    assert len(variants) >= 6
    assert all(v.is_knot() for v in variants)
    for v in variants:
        if v.strands == t.strands:
            # conjugation and cyclic shifts preserve writhe
            assert v.writhe() == t.writhe()
        else:
            # stabilization changes writhe by exactly one
            assert abs(v.writhe() - t.writhe()) == 1


def test_markov_conjugation_preserves_closure_components():
    b = parse_braid("s1 -s2 s1 -s2", 3)
    for v in markov_variants(b):
        assert v.is_knot()


def test_stabilized_unknot():
    u = BraidWord(1)
    stabs = [v for v in markov_variants(u) if v.strands == 2]
    assert parse_braid("s1", 2) in stabs


def test_figure_eight_catalog():
    k = catalog_knot("figure-eight")
    assert k.braid.strands == 3
    assert k.braid.writhe() == 0
    with pytest.raises(ValueError):
        catalog_knot("granny")


def test_knot_presentation_rejects_links():
    with pytest.raises(ValueError):
        from lorentzknots.braids import KnotPresentation

        KnotPresentation(parse_braid("s1", 3))


def test_records_compare_hash_print_and_pickle_by_their_fields():
    from lorentzknots.braids import KnotPresentation

    b = BraidWord(2, [(1, -1)])
    assert b == BraidWord(strands=2, letters=((1, -1),))
    assert hash(b) == hash((2, ((1, -1),)))
    assert repr(b) == "BraidWord(strands=2, letters=((1, -1),))"
    assert b != BraidWord(2, [(1, 1)]) and b != (2, ((1, -1),))
    knot = KnotPresentation(parse_braid("s1 s1 s1", 2), name="trefoil-right")
    assert repr(knot) == (
        "KnotPresentation(braid=BraidWord(strands=2, letters=((1, 1), (1, 1), (1, 1))), "
        "name='trefoil-right')"
    )
    assert hash(knot) == hash((knot.braid, "trefoil-right"))
    for record in (b, knot):
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.copy(record) == record
    with pytest.raises(AttributeError):
        b.strands = 3
    with pytest.raises(AttributeError):
        del knot.name


@pytest.mark.parametrize(
    "strands, letters, field",
    [
        (2, [(1, 1.0)] * 3, "sign"),
        (2, [(1, True)], "sign"),
        (2, [(1.0, 1)], "index"),
        (3, [(1, 1), (F(2), -1)], "index"),
        (2.0, [(1, 1)], "strands"),
        (F(3), [], "strands"),
    ],
    ids=["float-sign", "bool-sign", "float-index", "fraction-index", "float-strands",
         "fraction-strands"],
)
def test_braid_word_refuses_non_int_fields(strands, letters, field):
    # A float sign or index compares equal to the int, so it would make a
    # word equal and hash-equal to an int one that some invariants then
    # cannot take; each field must be an int.
    with pytest.raises(TypeError, match=f"braid {field} must be an int"):
        BraidWord(strands, letters)
