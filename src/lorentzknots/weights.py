"""Weight maps from symmetric invariant 2-tensors, and central characters.

A symmetric tensor t = sum_i a_i (x) b_i in g (x) g that commutes with the
coproduct turns a chord diagram into a central element of U(g): put a term
of t on every chord, read the generators off the circle from the basepoint
(left generator at a chord's first endpoint, right at its second) and sum
over the |t|^n choices of terms (:func:`phi_words` lists them).

The element is never expanded.  One transfer walk goes round the circle
once, acting on the module as it goes: at a chord's first endpoint it
branches over the terms of t and applies the left generator, keeping the
chosen term as a label pending on the open chord; at the second endpoint it
applies that term's right generator and drops the label, so branches that
differ only in closed chords merge.  The cost follows the number of chords
open at once, not |t|^n.  Evaluating the element on a module with a central
character gives a scalar, extracted here from the highest-weight (corner)
state with an explicit cancellation check on every other component.  Each
diagram's exact sl2 character is computed once per tensor and basepoint and
shared by the Lorentz characters' coproduct factors, and each diagram's
factorized Lorentz character once per m (memo tables emptied by
:func:`lorentzknots.series.clear_caches`).

Sign convention: the quadratic element C_t = sum_i a_i b_i is *minus* the
one-chord weight, i.e. the evaluation carries a factor (-1) per chord.  All
routes in this module share the convention, so cross-route equalities are
unaffected; it fixes the absolute sign of odd-degree values.

Two module backends implement the characters:

* the lowered-spin sl2 module with formal spin z.  Its walk runs on the
  integer polynomials of :mod:`lorentzknots.polynomials`: the tensor's
  terms are scaled to integers over their common denominator D (T_CK_SL2 =
  (1/4, 1/4, 1/2) becomes (1, 1, 2) over 4), so a module vector is
  {j: tuple of ints} and an n-chord diagram's character is its corner
  tuple over D^n.  The factorized Lorentz route substitutes
  z = (p - 1 + m)/2 and sums left * right over the coproduct on the same
  integers.  Both routes turn their value into a ParamPolynomial only at
  return (:func:`lambda_z_sl2`, :func:`lambda_mp_factorized`).  The sl2
  route therefore needs a real tensor; a non-real coefficient raises
  ValueError.
* the minimal-spin-m discrete-basis module of the Lorentz algebra with
  formal parameter p (ParamPolynomials in p, since T_LORENTZ and B_alpha
  carry i).  Its states are not the
  orthonormal Gelfand-Naimark vectors e(alpha, k) (alpha >= |m|,
  |k| <= alpha) but the rescaled f(alpha, k) = d(alpha, k) e(alpha, k) with
  d(alpha, k) = g(alpha) sqrt((alpha+k)!/(alpha-k)!), g(|m|) = 1 and
  g(alpha)/g(alpha-1) = c_alpha.  Every matrix element is then an integer
  times 1, c_alpha^2 or B_alpha, all polynomials in p, so no square root
  arises.  The change of basis is diagonal and the corner state is an
  eigenvector of every central element, so the characters are those of the
  orthonormal basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from math import lcm

from .diagrams import ChordDiagram, DiagramSum, THETA, coproduct
from .errors import InternalConsistencyError, ResourceGuardError
from .polynomials import (
    POLY_ONE,
    POLY_ZERO,
    ParamPolynomial,
    int_coeffs_add,
    int_coeffs_times_linear,
    int_poly_add,
    int_poly_compose_affine,
    int_poly_mul,
    int_poly_param,
    poly_variable,
)
from .scalars import GaussianRational, GR_I, GR_ONE
from .series import memoized

__all__ = [
    "InfinitesimalRMatrix",
    "T_CK_SL2",
    "T_JONES_SL2",
    "T_LORENTZ",
    "T_LEFT",
    "T_RIGHT",
    "CASIMIR_LEFT_TERMS",
    "CASIMIR_RIGHT_TERMS",
    "phi_words",
    "lambda_z_sl2",
    "sl2_quadratic_eigenvalue",
    "lambda_mp_direct",
    "lambda_mp_factorized",
    "lorentz_quadratic_eigenvalue",
    "casimir_eigenvalues",
]

SL2_ALPHABET = ("E", "F", "H")
LORENTZ_ALPHABET = ("H+", "H-", "H3", "F+", "F-", "F3")

# One factor of (-1) per chord; see the module docstring.
_SIGN_PER_CHORD = -1


@dataclass(frozen=True)
class InfinitesimalRMatrix:
    """A symmetric 2-tensor as a finite list of (coeff, left, right) terms."""

    alphabet: str
    terms: tuple

    def __post_init__(self):
        gens = SL2_ALPHABET if self.alphabet == "sl2" else LORENTZ_ALPHABET
        norm = []
        for coeff, a, b in self.terms:
            if a not in gens or b not in gens:
                raise ValueError(f"generator outside the {self.alphabet} alphabet")
            norm.append((GaussianRational.coerce(coeff), a, b))
        object.__setattr__(self, "terms", tuple(norm))

    def is_symmetric(self) -> bool:
        totals = {}
        for coeff, a, b in self.terms:
            totals[(a, b)] = totals.get((a, b), GaussianRational(0)) + coeff
        return all(totals.get((a, b)) == totals.get((b, a)) for (a, b) in totals)

    def negated(self) -> "InfinitesimalRMatrix":
        return InfinitesimalRMatrix(
            self.alphabet, tuple((-c, a, b) for c, a, b in self.terms)
        )


F2 = Fraction(1, 2)
F4 = Fraction(1, 4)
F8 = Fraction(1, 8)
F16 = Fraction(1, 16)
_I = GR_I

# Invariant sl2 tensor, normalized so the quadratic element acts on the
# spin-z module as z(z+1)/2 (the Casimir of the bilinear form under which
# <E,F> = 4 and <H,H> = 2 in these module-operator units).  Invariance under
# the module's commutation relations [H,E]=E, [H,F]=-F, [E,F]=2H forces the
# H(x)H coefficient relative to E(x)F; the four-term tests certify it.
T_CK_SL2 = InfinitesimalRMatrix(
    "sl2", ((F4, "E", "F"), (F4, "F", "E"), (F2, "H", "H"))
)

# The tensor behind the coloured Jones normalization: minus the one above.
T_JONES_SL2 = T_CK_SL2.negated()

# The balanced combination on the Lorentz algebra (left minus right copy).
T_LORENTZ = InfinitesimalRMatrix(
    "lorentz",
    (
        (_I * F4, "H3", "F3"),
        (_I * F4, "F3", "H3"),
        (_I * F8, "H-", "F+"),
        (_I * F8, "F-", "H+"),
        (_I * F8, "H+", "F-"),
        (_I * F8, "F+", "H-"),
    ),
)

# Left and right images of the sl2 tensor inside the Lorentz algebra.
T_LEFT = InfinitesimalRMatrix(
    "lorentz",
    (
        (F8, "H3", "H3"),
        (-F8, "F3", "F3"),
        (_I * F8, "H3", "F3"),
        (_I * F8, "F3", "H3"),
        (F16, "H+", "H-"),
        (_I * F16, "H+", "F-"),
        (_I * F16, "F+", "H-"),
        (-F16, "F+", "F-"),
        (F16, "H-", "H+"),
        (_I * F16, "H-", "F+"),
        (_I * F16, "F-", "H+"),
        (-F16, "F-", "F+"),
    ),
)

T_RIGHT = InfinitesimalRMatrix(
    "lorentz",
    tuple(
        (c if a[0] == b[0] else -c, a, b)  # mixed H/F terms flip sign
        for c, a, b in T_LEFT.terms
    ),
)

# Quadratic Casimir elements of the two sl2 copies, written in the ambient
# generators; each tuple (c, X, Y) stands for c * X(Y(.)) as an operator.
CASIMIR_LEFT_TERMS = tuple((c, a, b) for c, a, b in T_LEFT.terms)
CASIMIR_RIGHT_TERMS = tuple((c, a, b) for c, a, b in T_RIGHT.terms)


# ---------------------------------------------------------------------------
# Words from diagrams
# ---------------------------------------------------------------------------


def _slots(d: ChordDiagram, start: int):
    """(chord id, role) per circle position from ``start``; role 1 or 2.

    Chord ids count chords in the order the walk first meets them.
    """
    n2 = 2 * d.n
    first_seen = {}
    slots = []
    for k in range(n2):
        pos = (start + k) % n2
        partner = d.pairing[pos]
        key = (min(pos, partner), max(pos, partner))
        if key in first_seen:
            slots.append((first_seen[key], 2))
        else:
            first_seen[key] = len(first_seen)
            slots.append((first_seen[key], 1))
    return slots


def phi_words(t: InfinitesimalRMatrix, d: ChordDiagram, start: int = 0):
    """All (coefficient, generator word) pairs for a diagram.

    Words are returned in application order: word[0] acts first.  The walk
    begins at circle position ``start`` of the stored pairing, so rotating
    ``start`` probes basepoint independence.  This is the literal
    |t|^n-word expansion; the characters use :func:`_transfer_walk`, which
    the tests check against it.
    """
    slots = _slots(d, start)
    words = []
    for assignment in product(range(len(t.terms)), repeat=d.n):
        coeff = GR_ONE
        for ti in assignment:
            coeff = coeff * t.terms[ti][0]
        word = tuple(t.terms[assignment[cid]][role] for cid, role in slots)
        words.append((coeff, word))
    return words


def _add_into(vec, state, value):
    """vec[state] += value, dropping the entry if it cancels."""
    cur = vec.get(state)
    value = value if cur is None else cur + value
    if value.is_zero():
        vec.pop(state, None)
    else:
        vec[state] = value


def _transfer_walk(terms, d: ChordDiagram, start: int, corner, step):
    """The weight of ``d`` under a tensor applied to the module vector ``corner``.

    ``terms`` are the tensor's (coeff, left, right) triples, with
    coefficients in the ring of the module's values.  One walk round the
    circle from ``start``.  Its state maps the term index pending on each
    chord (-1 before the chord opens and after it closes) to a module vector
    {module state: value}.  A chord's first endpoint branches over the
    terms, applying the term's left generator times its coefficient; the
    second endpoint applies the stored term's right generator and clears the
    label, so branches that differ only in closed chords merge.
    ``step(vec, gen, coeff, out)`` adds coeff * gen(vec) into the vector
    ``out``, dropping components that cancel, and returns ``out``.  The
    result equals the sum of coeff * word over :func:`phi_words`.
    """
    closed = (-1,) * d.n
    branches = {closed: corner}
    for chord, role in _slots(d, start):
        out = {}
        for pending, vec in branches.items():
            head, tail = pending[:chord], pending[chord + 1:]
            if role == 1:
                for index, (coeff, left, _) in enumerate(terms):
                    moved = step(vec, left, coeff, {})
                    if moved:
                        out[head + (index,) + tail] = moved
            else:
                label = head + (-1,) + tail
                merged = step(vec, terms[pending[chord]][2], 1, out.get(label, {}))
                if merged:
                    out[label] = merged
                else:
                    out.pop(label, None)
        branches = out
    return branches.get(closed, {})


def _corner_scalar(total, corner, zero, module: str, element: str):
    """Scalar of an element from ``total``, the vector it makes of ``corner``;
    ``zero`` when the corner component cancelled.

    Every other component must cancel, or InternalConsistencyError names the
    module, the element and the surviving component.
    """
    for state, value in total.items():
        if state != corner and value:
            raise InternalConsistencyError(
                f"{element} moved the corner state {corner} of the {module} "
                f"(component {state} survived): scalar extraction invalid"
            )
    return total.get(corner, zero)


# ---------------------------------------------------------------------------
# sl2 spin-z module (integer polynomials in z)
# ---------------------------------------------------------------------------


def _linear(weight, d: DiagramSum, *args) -> ParamPolynomial:
    """``weight`` extended linearly: the sum of c * weight(diagram, *args)
    over the terms of ``d``."""
    total = POLY_ZERO
    for diagram, c in d.terms.items():
        total = total + c * weight(diagram, *args)
    return total


def _integer_terms(t: InfinitesimalRMatrix):
    """The terms of a real tensor scaled to integers, and the scale D.

    Returns ((D c, left, right), ...), D with D the least common denominator
    of the coefficients c.  A non-real coefficient raises ValueError.
    """
    for c, a, b in t.terms:
        if c.im:
            raise ValueError(
                f"the sl2 characters need a real tensor; the coefficient {c} "
                f"of {a} (x) {b} is not real"
            )
    den = lcm(*(c.re.denominator for c, _, _ in t.terms))
    return tuple(
        (c.re.numerator * (den // c.re.denominator), a, b) for c, a, b in t.terms
    ), den


def _sl2_step(vec, gen, coeff, out):
    """Add coeff * gen(vec) into ``out``.

    States are descent depths j >= 0 and values integer coefficient tuples
    of polynomials in z; E, F and H act with the factors j, 2z - j and
    z - j.
    """
    for j, nums in vec.items():
        if gen == "E":
            if not j:
                continue
            key, value = j - 1, tuple(coeff * j * x for x in nums)
        elif gen == "F":
            key, value = j + 1, int_coeffs_times_linear(nums, -coeff * j, 2 * coeff)
        elif gen == "H":
            key, value = j, int_coeffs_times_linear(nums, -coeff * j, coeff)
        else:
            raise ValueError(f"unknown sl2 generator {gen!r}")
        value = int_coeffs_add(out.get(key, ()), value)
        if value:
            out[key] = value
        else:
            out.pop(key, None)
    return out


@memoized
def _lambda_z_literal(d: ChordDiagram, t: InfinitesimalRMatrix, start: int):
    """The corner value of the walk, before the per-chord sign, as an
    integer polynomial in z over D^n."""
    terms, den = _integer_terms(t)
    total = _transfer_walk(terms, d, start, {0: (1,)}, _sl2_step)
    return _corner_scalar(total, 0, (), "spin-z module", "central element"), den**d.n


def lambda_z_sl2(d, t: InfinitesimalRMatrix = T_JONES_SL2, start: int = 0):
    """Central-character polynomial in z of the weight of ``d`` under ``t``.

    Accepts a diagram or a DiagramSum (linear extension).  The walk runs on
    integers, so ``t`` must be real: a non-real coefficient raises
    ValueError naming it.
    """
    if isinstance(d, DiagramSum):
        return _linear(lambda_z_sl2, d, t, start)
    nums, den = _lambda_z_literal(d, t, start)
    if d.n % 2:
        nums = tuple(_SIGN_PER_CHORD * x for x in nums)
    return int_poly_param((nums, den))


def sl2_quadratic_eigenvalue(t: InfinitesimalRMatrix = T_JONES_SL2):
    """The one-chord weight polynomial: lambda_z of the single-chord diagram."""
    return lambda_z_sl2(THETA, t)


# ---------------------------------------------------------------------------
# Lorentz module with minimal spin m, in the rescaled basis f(alpha, k)
# ---------------------------------------------------------------------------


@memoized
def _c_squared(alpha: int, m: int) -> ParamPolynomial:
    """c_alpha^2 = -(alpha^2 - p^2)(alpha^2 - m^2) / (alpha^2 (4 alpha^2 - 1))."""
    a2 = alpha * alpha
    den = Fraction(1, a2 * (4 * a2 - 1))
    #  -(a2 - p^2)(a2 - m^2) = (m^2 - a2) a2 + (a2 - m^2) p^2
    p2 = ParamPolynomial([0, 0, 1])
    return (p2 - a2) * Fraction(a2 - m * m) * den


def _b_coeff(alpha: int, m: int) -> ParamPolynomial:
    """B_alpha = i p m / (alpha (alpha + 1))."""
    return ParamPolynomial([0, GR_I * Fraction(m, alpha * (alpha + 1))])


@memoized
def _lorentz_targets(gen: str, alpha: int, k: int, m: int):
    """The matrix elements of ``gen`` on f(alpha, k), as ((alpha', k'), coeff) pairs.

    Each coefficient is an integer times 1, c_alpha^2 or B_alpha.  Only
    nonzero coefficients on states with alpha' >= |m| and |k'| <= alpha'
    appear.
    """
    if gen == "H3":
        rows = ((0, 0, k, None),)
    elif gen == "H+":
        rows = ((0, 1, 1, None),)
    elif gen == "H-":
        rows = ((0, -1, (alpha + k) * (alpha - k + 1), None),)
    elif gen == "F+":
        rows = ((-1, 1, 1, _c_squared), (0, 1, -1, _b_coeff), (1, 1, 1, None))
    elif gen == "F-":
        rows = (
            (-1, -1, -(alpha + k) * (alpha + k - 1), _c_squared),
            (0, -1, -(alpha + k) * (alpha - k + 1), _b_coeff),
            (1, -1, -(alpha - k + 1) * (alpha - k + 2), None),
        )
    elif gen == "F3":
        rows = (
            (-1, 0, alpha + k, _c_squared),
            (0, 0, -k, _b_coeff),
            (1, 0, -(alpha + 1 - k), None),
        )
    else:
        raise ValueError(f"unknown Lorentz generator {gen!r}")
    out = []
    for d_alpha, d_k, count, factor in rows:
        a2, k2 = alpha + d_alpha, k + d_k
        if a2 < abs(m) or abs(k2) > a2:
            continue
        if factor is _b_coeff and m == 0:
            continue  # B_alpha is zero for m = 0, and undefined at alpha = 0
        coeff = (POLY_ONE if factor is None else factor(alpha, m)) * count
        if not coeff.is_zero():
            out.append(((a2, k2), coeff))
    return tuple(out)


def _lorentz_step(vec, gen: str, coeff, out, m: int):
    """Add coeff * gen(vec) into ``out``; vectors are {(alpha, k): ParamPolynomial}."""
    scale = coeff != 1
    for (alpha, k), poly in vec.items():
        if scale:
            poly = poly * coeff
        for state, element in _lorentz_targets(gen, alpha, k, m):
            _add_into(out, state, poly * element)
    return out


def _lorentz_corner(m: int):
    am = abs(m)
    return {(am, am): POLY_ONE}


def lorentz_apply_word(word, m: int):
    """Apply a generator word to the corner state f(|m|, |m|).

    States are the rescaled vectors f(alpha, k) = d(alpha, k) e(alpha, k) of
    the module docstring, with d(alpha, k) = g(alpha) sqrt((alpha+k)!/(alpha-k)!).
    """
    vec = _lorentz_corner(m)
    for gen in word:
        vec = _lorentz_step(vec, gen, 1, {}, m)
    return vec


def lorentz_weight_raw(t: InfinitesimalRMatrix, d: ChordDiagram, m: int):
    """Corner value of the weight of ``d`` under ``t``, before the per-chord sign.

    The walk acts on the rescaled states f(alpha, k) = d(alpha, k) e(alpha, k)
    with d(alpha, k) = g(alpha) sqrt((alpha+k)!/(alpha-k)!); the change of
    basis is diagonal, so the corner value is that of the orthonormal basis.
    The off-corner cancellation check of :func:`_corner_scalar` applies.
    """
    step = partial(_lorentz_step, m=m)
    total = _transfer_walk(t.terms, d, 0, _lorentz_corner(m), step)
    corner = (abs(m), abs(m))
    module = f"minimal-spin-{m} Lorentz module"
    return _corner_scalar(total, corner, POLY_ZERO, module, "central element")


# The walk's cost follows n * |T_LORENTZ|^w, with w the number of chords open
# at once; the limit is that of ABCDABCD (n = w = 4), so every diagram with
# at most 4 chords is allowed.
_DIRECT_COST_LIMIT = 4 * 6**4


def _direct_cost(d: ChordDiagram) -> int:
    """n * |T_LORENTZ|^w for the walk from basepoint 0."""
    open_chords = widest = 0
    for _, role in _slots(d, 0):
        open_chords += 1 if role == 1 else -1
        widest = max(widest, open_chords)
    return d.n * len(T_LORENTZ.terms) ** widest


def lambda_mp_direct(d, m: int) -> ParamPolynomial:
    """Character polynomial in p from the discrete-basis module action.

    A diagram whose estimated walk cost n * 6^w (w chords open at once)
    exceeds that of ABCDABCD raises ResourceGuardError.
    """
    if isinstance(d, DiagramSum):
        return _linear(lambda_mp_direct, d, m)
    if not isinstance(m, int):
        raise ValueError("the direct route supports integer minimal spin only")
    cost = _direct_cost(d)
    if cost > _DIRECT_COST_LIMIT:
        raise ResourceGuardError(
            f"direct evaluation of {d.gauss_text()} has estimated cost "
            f"n*6^w = {cost}, above the limit {_DIRECT_COST_LIMIT}"
        )
    value = lorentz_weight_raw(T_LORENTZ, d, m)
    return value if d.n % 2 == 0 else _SIGN_PER_CHORD * value


@memoized
def _sl2_character_in_p(d: ChordDiagram, m: Fraction):
    """The sl2 character of ``d`` under T_CK_SL2 (before the per-chord sign)
    at z = (p - 1 + m)/2, as an integer polynomial in p."""
    return int_poly_compose_affine(
        _lambda_z_literal(d, T_CK_SL2, 0), Fraction(1, 2), (m - 1) / 2
    )


@memoized
def _lambda_mp_integer(d: ChordDiagram, m: Fraction):
    """The factorized character of one diagram as an integer polynomial in p."""
    total = ((), 1)
    for (w1, w2), c in coproduct(d).terms.items():
        nums, den = int_poly_mul(
            _sl2_character_in_p(w1, m),
            _sl2_character_in_p(w2, -m),  # at w = (p - 1 - m)/2
        )
        # c counts the chord subsets giving (w1, w2); the right factor
        # carries -t, and the whole value the per-chord sign
        scale = c.re.numerator * (-1) ** w2.n * _SIGN_PER_CHORD**d.n
        total = int_poly_add(total, (tuple(scale * x for x in nums), den))
    return total


def lambda_mp_factorized(d, m) -> ParamPolynomial:
    """Character polynomial in p through the coproduct and two sl2 characters.

    The two tensor factors carry the sl2 tensor with opposite signs; the
    spin parameters are z = (p-1+m)/2 and w = (p-1-m)/2.  Half-integer m
    (as a Fraction) is accepted here, unlike the direct route.  One
    diagram's value is summed over the coproduct in integers and memoized
    per (diagram, m).
    """
    if isinstance(d, DiagramSum):
        return _linear(lambda_mp_factorized, d, m)
    return int_poly_param(_lambda_mp_integer(d, Fraction(m)))


# ---------------------------------------------------------------------------
# Casimir eigenvalues
# ---------------------------------------------------------------------------


def lorentz_quadratic_eigenvalue(terms, m: int) -> ParamPolynomial:
    """Eigenvalue polynomial of sum_i c_i X_i Y_i on the minimal-spin module."""
    total = {}
    for c, a, b in terms:
        for state, poly in lorentz_apply_word((b, a), m).items():
            _add_into(total, state, poly * c)
    corner = (abs(m), abs(m))
    module = f"minimal-spin-{m} Lorentz module"
    return _corner_scalar(total, corner, POLY_ZERO, module, "quadratic element")


def casimir_eigenvalues(m: int, p=None):
    """Eigenvalues of the left and right Casimirs: (p^2 +- 2mp + m^2 - 1)/8.

    With p omitted, returns the pair of polynomials in p; with a numeric
    (Gaussian-rational) p, the exact evaluated pair.
    """
    pvar = poly_variable()
    left = (pvar * pvar + (2 * m) * pvar + (m * m - 1)) * Fraction(1, 8)
    right = (pvar * pvar + (-2 * m) * pvar + (m * m - 1)) * Fraction(1, 8)
    if p is None:
        return left, right
    return left.evaluate(p), right.evaluate(p)
