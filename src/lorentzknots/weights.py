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
shared by the Lorentz characters' coproduct factors, each diagram's
coproduct once, as integer chord-subset counts, and each diagram's
factorized Lorentz character once per m (memo tables emptied by
:func:`lorentzknots.series.clear_caches`).

Sign convention: the quadratic element C_t = sum_i a_i b_i is *minus* the
one-chord weight, i.e. the evaluation carries a factor (-1) per chord.  All
routes in this module share the convention, so cross-route equalities are
unaffected; it fixes the absolute sign of odd-degree values.

Both module backends walk on the integer polynomials of
:mod:`lorentzknots.polynomials`: a tensor's terms are scaled to integers
over their common denominator D (T_CK_SL2 = (1/4, 1/4, 1/2) becomes
(1, 1, 2) over 4), so the tensor must be real in the module's basis (else
ValueError).  Values become ParamPolynomials only at return; a DiagramSum
is summed on integers, real and imaginary coefficient parts apart.

* the lowered-spin sl2 module with formal spin z: a vector is {j: tuple of
  ints}.  The factorized Lorentz route substitutes z = (p - 1 + m)/2 in its
  characters and sums left * right over the coproduct.
* the minimal-spin-m discrete-basis module of the Lorentz algebra with
  formal parameter p.  Its states are not the orthonormal Gelfand-Naimark
  vectors e(alpha, k) (alpha >= |m|, |k| <= alpha) but f'(alpha, k) =
  i^alpha f(alpha, k), where f(alpha, k) = d(alpha, k) e(alpha, k),
  d(alpha, k) = g(alpha) sqrt((alpha+k)!/(alpha-k)!), g(|m|) = 1 and
  g(alpha)/g(alpha-1) = c_alpha; the walk's generators are H+, H-, H3 and
  F' = -iF for F+, F-, F3.  Every matrix element is then an integer times
  1, c_alpha^2 or -i B_alpha = p m/(alpha (alpha + 1)), real polynomials
  in p, so a vector is {(alpha, k): (nums, den)} and a term c X (x) Y of a
  tensor is the real c i^{#F} X' (x) Y'.  The change of basis is diagonal
  and the corner state is an eigenvector of every central element, so the
  characters are those of the orthonormal basis.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import product
from math import lcm

from .braids import _Record
from .diagrams import ChordDiagram, DiagramSum, THETA, coproduct_counts
from .errors import InternalConsistencyError, ResourceGuardError
from .polynomials import (
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


class InfinitesimalRMatrix(_Record):
    """A symmetric 2-tensor as a finite list of (coeff, left, right) terms."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: str, terms: tuple):
        gens = SL2_ALPHABET if alphabet == "sl2" else LORENTZ_ALPHABET
        norm = []
        for coeff, a, b in terms:
            if a not in gens or b not in gens:
                raise ValueError(f"generator outside the {alphabet} alphabet")
            norm.append((GaussianRational.coerce(coeff), a, b))
        object.__setattr__(self, "alphabet", alphabet)
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


def _transfer_walk(terms, d: ChordDiagram, start: int, corner, step):
    """The weight of ``d`` under a tensor applied to the module vector ``corner``.

    ``terms`` are the tensor's (coeff, left, right) triples from
    :func:`_integer_terms`.  One walk round the circle from ``start``.  Its
    state maps the term index pending on each chord (-1 before the chord
    opens and after it closes) to a module vector {module state: value}.  A
    chord's first endpoint branches over the terms, applying the term's left
    generator times its coefficient; the second endpoint applies the stored
    term's right generator and clears the label, so branches that differ
    only in closed chords merge.  ``step(vec, gen, coeff, out)`` adds
    coeff * gen(vec) into the vector ``out``, dropping components that
    cancel, and returns ``out``.  The result equals the sum of coeff * word
    over :func:`phi_words`.
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


def _corner_scalar(total, corner, d: ChordDiagram, module: str):
    """The corner component of ``total``, the vector of integer polynomials
    (nums, den) that the weight of ``d`` makes of the ``corner`` state.

    Every other component must cancel (its numerators empty: a pair is
    truthy), or InternalConsistencyError names the diagram, the module and
    the surviving component.
    """
    for state, (nums, _) in total.items():
        if state != corner and nums:
            raise InternalConsistencyError(
                f"the weight of {d.gauss_text()} moved the corner state {corner} "
                f"of the {module} (component {state} survived): scalar "
                f"extraction invalid"
            )
    return total.get(corner, ((), 1))


def _character(value, d, *args) -> ParamPolynomial:
    """The character whose value before the per-chord sign is
    ``value(d, *args)``, an integer polynomial, as a ParamPolynomial.

    A DiagramSum is extended linearly: the real and the imaginary parts of
    its coefficients give two integer sums, converted once.
    """
    terms = d.terms.items() if isinstance(d, DiagramSum) else ((d, GR_ONE),)
    parts = [((), 1), ((), 1)]
    for diagram, c in terms:
        nums, den = value(diagram, *args)
        sign = _SIGN_PER_CHORD**diagram.n
        for k, x in enumerate((c.re, c.im)):
            if x:
                scaled = (tuple(sign * x.numerator * y for y in nums), den * x.denominator)
                parts[k] = int_poly_add(parts[k], scaled)
    return int_poly_param(*parts)


def _integer_terms(t: InfinitesimalRMatrix):
    """The terms of ``t`` in the module's real basis, scaled to integers,
    and the scale D.

    On the Lorentz module F = iF' for F+, F-, F3, so a term c X (x) Y is
    c i^{#F} X' (x) Y'.  Returns ((D c', left, right), ...), D with c' the
    nonzero real-basis coefficients and D their least common denominator.
    A c' that is not real raises ValueError.
    """
    real = []
    for c, a, b in t.terms:
        turns = (a[0] == "F") + (b[0] == "F") if t.alphabet == "lorentz" else 0
        re, im = ((c.re, c.im), (-c.im, c.re), (-c.re, -c.im))[turns]
        if im:
            shown = f"{c} times i^{turns}" if turns else c
            raise ValueError(
                f"the characters need a tensor real in the module's basis; "
                f"the coefficient {shown} of {a} (x) {b} is not real"
            )
        if re:
            real.append((re, a, b))
    den = lcm(*(c.denominator for c, _, _ in real))
    return tuple((c.numerator * (den // c.denominator), a, b) for c, a, b in real), den


# ---------------------------------------------------------------------------
# sl2 spin-z module (integer polynomials in z)
# ---------------------------------------------------------------------------


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
    integer polynomial in z."""
    terms, den = _integer_terms(t)
    total = _transfer_walk(terms, d, start, {0: (1,)}, _sl2_step)
    pairs = {j: (nums, den**d.n) for j, nums in total.items()}
    return _corner_scalar(pairs, 0, d, f"spin-z module from basepoint {start}")


def lambda_z_sl2(d, t: InfinitesimalRMatrix = T_JONES_SL2, start: int = 0):
    """Central-character polynomial in z of the weight of ``d`` under ``t``.

    Accepts a diagram or a DiagramSum (linear extension).  The walk runs on
    integers, so ``t`` must be real: a non-real coefficient raises
    ValueError naming it.
    """
    return _character(_lambda_z_literal, d, t, start)


def sl2_quadratic_eigenvalue(t: InfinitesimalRMatrix = T_JONES_SL2):
    """The one-chord weight polynomial: lambda_z of the single-chord diagram."""
    return lambda_z_sl2(THETA, t)


# ---------------------------------------------------------------------------
# Lorentz module with minimal spin m, in the real basis f'(alpha, k)
# ---------------------------------------------------------------------------


@memoized
def _lorentz_targets(gen: str, alpha: int, k: int, m: int):
    """The matrix elements of the real-basis ``gen`` on f'(alpha, k), as
    ((alpha', k'), (nums, den)) pairs.

    Each element is an integer times 1, c_alpha^2 or -i B_alpha.  Only
    nonzero elements on states with alpha' >= |m| and |k'| <= alpha'
    appear.
    """
    a2 = alpha * alpha
    one = (1,), 1
    # c_alpha^2 = (alpha^2 - m^2)(p^2 - alpha^2) / (alpha^2 (4 alpha^2 - 1))
    c2 = (-a2 * (a2 - m * m), 0, a2 - m * m), a2 * (4 * a2 - 1)
    b = (0, m), alpha * (alpha + 1)  # -i B_alpha = p m / (alpha (alpha + 1))
    if gen == "H3":
        rows = ((0, 0, k, one),)
    elif gen == "H+":
        rows = ((0, 1, 1, one),)
    elif gen == "H-":
        rows = ((0, -1, (alpha + k) * (alpha - k + 1), one),)
    elif gen == "F+":
        rows = ((-1, 1, 1, c2), (0, 1, -1, b), (1, 1, -1, one))
    elif gen == "F-":
        rows = (
            (-1, -1, -(alpha + k) * (alpha + k - 1), c2),
            (0, -1, -(alpha + k) * (alpha - k + 1), b),
            (1, -1, (alpha - k + 1) * (alpha - k + 2), one),
        )
    elif gen == "F3":
        rows = ((-1, 0, alpha + k, c2), (0, 0, -k, b), (1, 0, alpha + 1 - k, one))
    else:
        raise ValueError(f"unknown Lorentz generator {gen!r}")
    out = []
    for d_alpha, d_k, count, (nums, den) in rows:
        a2, k2 = alpha + d_alpha, k + d_k
        # no den 0 leaks: at alpha = 0 the c2 row falls below |m|, and b is 0 (m = 0)
        if a2 >= abs(m) and abs(k2) <= a2 and count and any(nums):
            out.append(((a2, k2), (tuple(count * x for x in nums), den)))
    return tuple(out)


def _lorentz_step(vec, gen: str, coeff, out, m: int):
    """Add coeff * gen(vec) into ``out``; vectors are {(alpha, k): (nums, den)}
    in the real basis, and ``gen`` acts as the real-basis generator."""
    for (alpha, k), (nums, den) in vec.items():
        if coeff != 1:
            nums = tuple(coeff * x for x in nums)
        for state, element in _lorentz_targets(gen, alpha, k, m):
            value = int_poly_mul((nums, den), element)
            if state in out:
                value = int_poly_add(out[state], value)
            if value[0]:
                out[state] = value
            else:
                del out[state]
    return out


def lorentz_apply_word(word, m: int):
    """Apply a generator word to the corner state f(|m|, |m|).

    Returns {(alpha, k): ParamPolynomial} in the basis f(alpha, k) of the
    module docstring.  The word runs in the real basis f'; it is i^{#F}
    times its real-basis form and f' = i^alpha f, so each component is
    multiplied by i^{#F + alpha - |m|}.
    """
    am = abs(m)
    vec = {(am, am): ((1,), 1)}
    for gen in word:
        vec = _lorentz_step(vec, gen, 1, {}, m)
    turns = sum(gen[0] == "F" for gen in word) - am
    out = {}
    for (alpha, k), (nums, den) in vec.items():
        e = turns + alpha
        value = tuple(-x for x in nums) if e % 4 >= 2 else nums, den
        out[(alpha, k)] = int_poly_param(((), 1), value) if e % 2 else int_poly_param(value)
    return out


def _lorentz_literal(t: InfinitesimalRMatrix, d: ChordDiagram, m: int):
    """Corner value of the weight of ``d`` under ``t`` on the minimal-spin-m
    module, before the per-chord sign, as an integer polynomial in p."""
    terms, den = _integer_terms(t)
    corner = (abs(m), abs(m))
    step = partial(_lorentz_step, m=m)
    total = _transfer_walk(terms, d, 0, {corner: ((1,), den**d.n)}, step)
    return _corner_scalar(total, corner, d, f"Lorentz module of minimal spin m = {m}")


def lorentz_weight_raw(t: InfinitesimalRMatrix, d: ChordDiagram, m: int):
    """Corner value of the weight of ``d`` under ``t``, before the per-chord sign.

    The walk runs in the real basis of the module docstring, where ``t``
    must be real; the change of basis is diagonal, so the corner value is
    that of the orthonormal basis.  The off-corner cancellation check of
    :func:`_corner_scalar` applies.
    """
    return int_poly_param(_lorentz_literal(t, d, m))


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


def _direct_literal(d: ChordDiagram, m: int):
    cost = _direct_cost(d)
    if cost > _DIRECT_COST_LIMIT:
        raise ResourceGuardError(
            f"direct evaluation of {d.gauss_text()} has estimated cost "
            f"n*6^w = {cost}, above the limit {_DIRECT_COST_LIMIT}"
        )
    return _lorentz_literal(T_LORENTZ, d, m)


def lambda_mp_direct(d, m: int) -> ParamPolynomial:
    """Character polynomial in p from the discrete-basis module action.

    A diagram whose estimated walk cost n * 6^w (w chords open at once)
    exceeds that of ABCDABCD raises ResourceGuardError.
    """
    if not isinstance(m, int):
        raise ValueError("the direct route supports integer minimal spin only")
    return _character(_direct_literal, d, m)


@memoized
def _sl2_character_in_p(d: ChordDiagram, m: Fraction):
    """The sl2 character of ``d`` under T_CK_SL2 (before the per-chord sign)
    at z = (p - 1 + m)/2, as an integer polynomial in p."""
    return int_poly_compose_affine(
        _lambda_z_literal(d, T_CK_SL2, 0), Fraction(1, 2), (m - 1) / 2
    )


@memoized
def _coproduct_table(d: ChordDiagram):
    """The coproduct of ``d`` as ((w1, w2), chord-subset count) pairs."""
    return tuple(coproduct_counts(d).items())


@memoized
def _lambda_mp_integer(d: ChordDiagram, m: Fraction):
    """The factorized character of one diagram, before the per-chord sign,
    as an integer polynomial in p."""
    total = ((), 1)
    for (w1, w2), c in _coproduct_table(d):
        nums, den = int_poly_mul(
            _sl2_character_in_p(w1, m),
            _sl2_character_in_p(w2, -m),  # at w = (p - 1 - m)/2
        )
        # c counts the chord subsets giving (w1, w2); the right factor
        # carries -t
        scale = c * (-1) ** w2.n
        total = int_poly_add(total, (tuple(scale * x for x in nums), den))
    return total


def lambda_mp_factorized(d, m) -> ParamPolynomial:
    """Character polynomial in p through the coproduct and two sl2 characters.

    The two tensor factors carry the sl2 tensor with opposite signs; the
    spin parameters are z = (p-1+m)/2 and w = (p-1-m)/2.  Half-integer m
    (as a Fraction) is accepted here, unlike the direct route.  One
    diagram's value is summed over the coproduct in integers and memoized
    per (diagram, m).  Each diagram's coproduct is expanded once, into a
    memo table of chord-subset counts that every m reads, and each raw
    pairing in it is canonicalised once per expansion.
    """
    return _character(_lambda_mp_integer, d, Fraction(m))


def lorentz_quadratic_eigenvalue(terms, m: int) -> ParamPolynomial:
    """Eigenvalue polynomial of sum_i c_i X_i Y_i on the minimal-spin module.

    The one-chord walk applies a term's left generator first, so this is
    the walk of THETA under the terms with left and right swapped.
    """
    swapped = InfinitesimalRMatrix("lorentz", tuple((c, b, a) for c, a, b in terms))
    return lorentz_weight_raw(swapped, THETA, m)


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
