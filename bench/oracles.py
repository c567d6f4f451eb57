"""Independent reference computations for the benchmark's checks.

Nothing here imports ``lorentzknots``: the checks must not share code with
either pipeline they judge.  Arithmetic is exact (``fractions.Fraction``).

* Polynomials in one variable are lists of Fractions, index = degree.
* Jets in h are lists of such polynomials, index = power of h.
* Laurent polynomials in t (Alexander polynomials) are dicts exponent -> int.

The oracles:

* the Alexander polynomial from the reduced Burau matrix of a braid,
  normalized symmetric with value 1 at t = 1;
* the jet of 1/Delta(e^x) (the Melvin-Morton-Rozansky diagonal);
* the unknot expansion sinh(N h/2) / (N sinh(h/2)) as polynomials in N;
* the quantum integer [p] = sinh(p h/2) / sinh(h/2) as polynomials in p.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial

# ---------------------------------------------------------------------------
# Polynomials in one variable (lists of Fractions)
# ---------------------------------------------------------------------------


def ptrim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def padd(a, b):
    n = max(len(a), len(b))
    return ptrim(
        (a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(n)
    )


def pscale(a, c):
    return ptrim(x * c for x in a)


def pmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return ptrim(out)


def peval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def pcompose_affine(a, slope, intercept):
    """a(slope * x + intercept)."""
    out = []
    power = [Fraction(1)]
    lin = ptrim([Fraction(intercept), Fraction(slope)])
    for c in a:
        out = padd(out, pscale(power, c))
        power = pmul(power, lin)
    return out


def pdegree(a):
    return len(ptrim(a)) - 1


def pis_even(a):
    return all(c == 0 for k, c in enumerate(a) if k % 2)


# ---------------------------------------------------------------------------
# Jets of polynomials
# ---------------------------------------------------------------------------


def jmul(a, b):
    order = len(a) - 1
    return [
        _sum_polys(pmul(a[j], b[k - j]) for j in range(k + 1)) for k in range(order + 1)
    ]


def jinv(a):
    """Inverse of a jet whose h^0 coefficient is the constant polynomial 1."""
    if ptrim(a[0]) != [1]:
        raise ValueError("jet inverse needs constant term 1")
    out = [[Fraction(1)]]
    for k in range(1, len(a)):
        acc = _sum_polys(pmul(a[j], out[k - j]) for j in range(1, k + 1))
        out.append(pscale(acc, -1))
    return out


def _sum_polys(polys):
    total = []
    for p in polys:
        total = padd(total, p)
    return total


def _even_sinh_ratio(order, poly_in_var):
    """Jet of sinh(v h/2) / (v h/2) with v the variable when ``poly_in_var``
    (coefficients of h^k are polynomials in v), else with v = 1."""
    out = []
    for k in range(order + 1):
        if k % 2:
            out.append([])
            continue
        c = Fraction(1, 2**k * factorial(k + 1))
        out.append([Fraction(0)] * k + [c] if poly_in_var else [c])
    return out


def unknot_jet(order):
    """sinh(N h/2) / (N sinh(h/2)) as a jet of polynomials in N."""
    return jmul(_even_sinh_ratio(order, True), jinv(_even_sinh_ratio(order, False)))


def quantum_integer_jet(order):
    """[p] = sinh(p h/2) / sinh(h/2) as a jet of polynomials in p."""
    return [pmul([Fraction(0), Fraction(1)], c) for c in unknot_jet(order)]


def series_inverse(a):
    """Inverse of a power series with coefficients a[0] != 0 (Fractions)."""
    out = [1 / Fraction(a[0])]
    for k in range(1, len(a)):
        acc = sum(a[j] * out[k - j] for j in range(1, k + 1))
        out.append(-acc / a[0])
    return out


# ---------------------------------------------------------------------------
# Laurent polynomials and the Burau Alexander polynomial
# ---------------------------------------------------------------------------


def _ltrim(a):
    return {e: c for e, c in a.items() if c}


def ladd(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _ltrim(out)


def lmul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return _ltrim(out)


def _burau_generator(strands, index, sign):
    """Reduced Burau matrix of sigma_index^sign, entries Laurent in t."""
    size = strands - 1
    mat = [[({0: 1} if r == c else {}) for c in range(size)] for r in range(size)]
    i = index - 1  # row/column of the generator's own basis vector
    if sign > 0:
        mat[i][i] = {1: -1}
        if i > 0:
            mat[i - 1][i] = {1: 1}
        if i < size - 1:
            mat[i + 1][i] = {0: 1}
    else:
        mat[i][i] = {-1: -1}
        if i > 0:
            mat[i - 1][i] = {0: 1}
        if i < size - 1:
            mat[i + 1][i] = {-1: 1}
    return mat


def _lmatmul(a, b):
    n = len(a)
    out = [[{} for _ in range(n)] for _ in range(n)]
    for r in range(n):
        for k in range(n):
            if not a[r][k]:
                continue
            for c in range(n):
                if b[k][c]:
                    out[r][c] = ladd(out[r][c], lmul(a[r][k], b[k][c]))
    return out


def _ldet(mat):
    """Leibniz determinant; the oracle is for braids on at most 5 strands."""
    n = len(mat)
    total = {}
    for perm in permutations(range(n)):
        inversions = sum(
            1 for x in range(n) for y in range(x + 1, n) if perm[x] > perm[y]
        )
        term = {0: -1 if inversions % 2 else 1}
        for r in range(n):
            term = lmul(term, mat[r][perm[r]])
            if not term:
                break
        total = ladd(total, term)
    return total


def alexander_polynomial(strands, letters):
    """Normalized Alexander polynomial of a knot braid closure.

    ``letters`` is a sequence of (generator index, sign).  Uses
    Delta(t) (1 + t + ... + t^{n-1}) = det(I - rho(b)) up to units, with
    rho the reduced Burau representation; returns the symmetric
    representative with Delta(1) = 1 as a dict exponent -> int.
    """
    if strands < 1 or strands > 5:
        raise ValueError("the Burau oracle handles 1 to 5 strands")
    if strands == 1:
        if letters:
            raise ValueError("a 1-strand braid has no generators")
        return {0: 1}
    size = strands - 1
    mat = [[({0: 1} if r == c else {}) for c in range(size)] for r in range(size)]
    for index, sign in letters:
        mat = _lmatmul(mat, _burau_generator(strands, index, sign))
    minus = [
        [ladd({0: 1} if r == c else {}, {e: -v for e, v in mat[r][c].items()})
         for c in range(size)]
        for r in range(size)
    ]
    det = _ldet(minus)
    if not det:
        raise ValueError("det(I - Burau) vanishes: the closure is not a knot")
    low = min(det)
    num = [0] * (max(det) - low + 1)
    for e, c in det.items():
        num[e - low] = c
    quotient = _divide_by_ones(num, strands)
    return _normalize(quotient)


def _divide_by_ones(num, n):
    """Exact division of an integer polynomial by 1 + t + ... + t^{n-1}."""
    num = list(num)
    if len(num) < n:
        raise ValueError("Burau determinant not divisible by [n]_t")
    quotient = [0] * (len(num) - n + 1)
    for k in range(len(quotient) - 1, -1, -1):
        c = num[k + n - 1]
        quotient[k] = c
        for j in range(n):
            num[k + j] -= c
    if any(num):
        raise ValueError("Burau determinant not divisible by [n]_t")
    return quotient


def _normalize(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    start = next(k for k, c in enumerate(coeffs) if c)
    coeffs = coeffs[start:]
    span = len(coeffs) - 1
    if span % 2:
        raise ValueError("Alexander polynomial of a knot has even span")
    value_at_one = sum(coeffs)
    if value_at_one not in (1, -1):
        raise ValueError(f"Delta(1) = {value_at_one}, expected +-1 for a knot")
    out = {k - span // 2: c * value_at_one for k, c in enumerate(coeffs)}
    if any(out[e] != out.get(-e, 0) for e in out):
        raise ValueError("normalized Alexander polynomial is not symmetric")
    return out


def inverse_alexander_exp_jet(delta, order, power=1):
    """Coefficients of x^0..x^order in 1/Delta(e^x)^power."""
    series = [
        sum(Fraction(c) * Fraction(e) ** n for e, c in delta.items()) / factorial(n)
        for n in range(order + 1)
    ]
    inv = series_inverse(series)
    out = [Fraction(1)] + [Fraction(0)] * order
    for _ in range(power):
        out = [sum(out[j] * inv[k - j] for j in range(k + 1)) for k in range(order + 1)]
    return out


# Textbook Alexander polynomials (Rolfsen table), symmetric, Delta(1) = 1.
TEXTBOOK_ALEXANDER = {
    "unknot": {0: 1},
    "3_1": {-1: 1, 0: -1, 1: 1},
    "4_1": {-1: -1, 0: 3, 1: -1},
    "5_1": {-2: 1, -1: -1, 0: 1, 1: -1, 2: 1},
    "5_2": {-1: 2, 0: -3, 1: 2},
}
