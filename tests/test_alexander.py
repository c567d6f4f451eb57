"""Alexander polynomial from the reduced Burau matrix, against Rolfsen's table."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from lorentzknots import alexander, polynomials, scalars
from lorentzknots.alexander import alexander_polynomial, inverse_alexander_exp
from lorentzknots.braids import BraidWord, markov_variants, mirror, parse_braid, reverse

# Rolfsen-table Alexander polynomials, written symmetric with Delta(1) = 1,
# as {exponent of t: coefficient}.
ROLFSEN = {
    "3_1": {-1: 1, 0: -1, 1: 1},
    "4_1": {-1: -1, 0: 3, 1: -1},
    "5_1": {-2: 1, -1: -1, 0: 1, 1: -1, 2: 1},
    "5_2": {-1: 2, 0: -3, 1: 2},
    "6_1": {-1: -2, 0: 5, 1: -2},
    "7_1": {-3: 1, -2: -1, -1: 1, 0: -1, 1: 1, 2: -1, 3: 1},
    "8_19": {-3: 1, -2: -1, 0: 1, 2: -1, 3: 1},
}

BRAIDS = {
    "3_1": parse_braid("s1 s1 s1", 2),
    "4_1": parse_braid("s1 -s2 s1 -s2", 3),
    "5_1": parse_braid("s1 " * 5, 2),
    "5_2": parse_braid("s1 s1 s1 s2 -s1 s2", 3),
    "6_1": parse_braid("s1 s1 s2 -s1 -s3 s2 -s3", 4),
    "7_1": parse_braid("s1 " * 7, 2),
    "8_19": parse_braid("s1 s2 " * 4, 3),
}


@pytest.mark.parametrize("name", sorted(ROLFSEN))
def test_rolfsen_table(name):
    b = BRAIDS[name]
    assert b.is_knot()
    delta = ROLFSEN[name]
    assert alexander_polynomial(b) == delta
    assert alexander_polynomial(mirror(b)) == delta
    assert alexander_polynomial(reverse(b)) == delta


def test_unknots():
    for b in (BraidWord(1), parse_braid("s1", 2), parse_braid("s1 -s2", 3)):
        assert alexander_polynomial(b) == {0: 1}


def test_markov_invariance():
    for v in markov_variants(BRAIDS["4_1"]):
        assert alexander_polynomial(v) == ROLFSEN["4_1"]


def test_rejects_links():
    with pytest.raises(ValueError):
        alexander_polynomial(parse_braid("s1 s1", 2))


def test_inverse_alexander_exp_of_the_trefoil():
    # Delta(e^x) = 2 cosh x - 1 = 1 + x^2 + x^4/12 + ...
    jet = inverse_alexander_exp(ROLFSEN["3_1"], 4)
    assert list(jet.coeffs) == [1, 0, -1, 0, Fraction(11, 12)]


def test_burau_determinant_builds_no_gaussian_rational(monkeypatch):
    # The Burau product, Faddeev-LeVerrier and 1/Delta(e^h) run on integers.
    def refuse(*args, **kwargs):
        raise AssertionError("Q(i) value built")

    monkeypatch.setattr(scalars, "_make", refuse)
    monkeypatch.setattr(scalars.GaussianRational, "__init__", refuse)
    monkeypatch.setattr(polynomials.ParamPolynomial, "__init__", refuse)
    for name, b in BRAIDS.items():
        assert alexander_polynomial(b) == ROLFSEN[name]
    assert alexander._inverse_alexander_jet(ROLFSEN["3_1"], 4) == ((12, 0, -12, 0, 11), 12)


def _imported_modules(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
    return names


def test_independent_of_the_bench_oracle():
    # The bench checks the spin expansion against its own Burau oracle;
    # neither may lean on the other.
    bench_oracle = Path(__file__).resolve().parent.parent / "bench" / "oracles.py"
    assert not any("lorentzknots" in m for m in _imported_modules(bench_oracle))
    assert not any("oracles" in m for m in _imported_modules(Path(alexander.__file__)))
