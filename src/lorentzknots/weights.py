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
shared by the Lorentz characters' coproduct factors (memo tables emptied by
:func:`lorentzknots.series.clear_caches`).

Sign convention: the quadratic element C_t = sum_i a_i b_i is *minus* the
one-chord weight, i.e. the evaluation carries a factor (-1) per chord.  All
routes in this module share the convention, so cross-route equalities are
unaffected; it fixes the absolute sign of odd-degree values.

Two module backends implement the characters:

* the lowered-spin sl2 module with formal spin z (exact polynomials in z);
* the minimal-spin-m discrete-basis module of the Lorentz algebra with
  formal parameter p, whose coefficients live in an exact ring extended by
  radical symbols c_alpha (c_alpha squares to a rational polynomial in p)
  and integer square roots.  Scalars must come out radical-free, which is
  asserted, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product

from .diagrams import ChordDiagram, DiagramSum, THETA, coproduct
from .errors import InternalConsistencyError, ResourceGuardError
from .polynomials import (
    POLY_ONE,
    POLY_ZERO,
    ParamPolynomial,
    poly_constant,
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

    def scaled(self, factor) -> "InfinitesimalRMatrix":
        return InfinitesimalRMatrix(
            self.alphabet, tuple((c * factor, a, b) for c, a, b in self.terms)
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


def _transfer_walk(t: InfinitesimalRMatrix, d: ChordDiagram, start: int, corner, step):
    """The weight of ``d`` under ``t`` applied to the module vector ``corner``.

    One walk round the circle from ``start``.  Its state maps the term index
    pending on each chord (-1 before the chord opens and after it closes) to
    a module vector {module state: coefficient}.  A chord's first endpoint
    branches over the terms of ``t``, multiplying in the term's coefficient
    and applying its left generator; the second endpoint applies the stored
    term's right generator and clears the label, so branches that differ
    only in closed chords merge.  ``step(vec, gen)`` applies one generator.
    The result equals the sum of coeff * word over :func:`phi_words`.
    """
    closed = (-1,) * d.n
    branches = {closed: corner}
    for chord, role in _slots(d, start):
        out = {}
        for pending, vec in branches.items():
            head, tail = pending[:chord], pending[chord + 1:]
            if role == 1:
                for index, (coeff, left, _) in enumerate(t.terms):
                    moved = step({s: c * coeff for s, c in vec.items()}, left)
                    if moved:
                        out[head + (index,) + tail] = moved
            else:
                label = head + (-1,) + tail
                merged = out.setdefault(label, {})
                for state, value in step(vec, t.terms[pending[chord]][2]).items():
                    _add_into(merged, state, value)
                if not merged:
                    del out[label]
        branches = out
    return branches.get(closed, {})


# ---------------------------------------------------------------------------
# sl2 spin-z module (exact polynomials in z)
# ---------------------------------------------------------------------------

_Z = poly_variable()


def _sl2_step(vec, gen):
    """Apply one generator to a vector; states are descent depths j >= 0."""
    out = {}
    for j, poly in vec.items():
        if gen == "E":
            if j >= 1:
                key, val = j - 1, poly * j
            else:
                continue
        elif gen == "F":
            key, val = j + 1, poly * (2 * _Z - j)
        elif gen == "H":
            key, val = j, poly * (_Z - j)
        else:
            raise ValueError(f"unknown sl2 generator {gen!r}")
        _add_into(out, key, val)
    return out


def _sl2_apply_word(word):
    """Apply a word to the corner state (the literal reference of the walk)."""
    vec = {0: POLY_ONE}
    for gen in word:
        vec = _sl2_step(vec, gen)
    return vec


@memoized
def _lambda_z_literal(d: ChordDiagram, t: InfinitesimalRMatrix, start: int):
    total = _transfer_walk(t, d, start, {0: POLY_ONE}, _sl2_step)
    for j, poly in total.items():
        if j != 0 and not poly.is_zero():
            raise InternalConsistencyError(
                "central element acted off the corner state of the spin-z "
                f"module (component {j} survived): scalar extraction invalid"
            )
    return total.get(0, POLY_ZERO)


def lambda_z_sl2(d, t: InfinitesimalRMatrix = T_JONES_SL2, start: int = 0):
    """Central-character polynomial in z of the weight of ``d`` under ``t``.

    Accepts a diagram or a DiagramSum (linear extension).
    """
    if isinstance(d, DiagramSum):
        total = POLY_ZERO
        for diagram, c in d.terms.items():
            total = total + c * lambda_z_sl2(diagram, t, start)
        return total
    value = _lambda_z_literal(d, t, start)
    return value if d.n % 2 == 0 else _SIGN_PER_CHORD * value


def sl2_quadratic_eigenvalue(t: InfinitesimalRMatrix = T_JONES_SL2):
    """The one-chord weight polynomial: lambda_z of the single-chord diagram."""
    return lambda_z_sl2(THETA, t)


# ---------------------------------------------------------------------------
# Lorentz module with minimal spin m: radical-symbol arithmetic
# ---------------------------------------------------------------------------


def _square_split(v: int):
    """v = mult^2 * rad with rad squarefree (v >= 0, small)."""
    mult, rad, f = 1, 1, 2
    while f * f <= v:
        e = 0
        while v % f == 0:
            v //= f
            e += 1
        mult *= f ** (e // 2)
        if e % 2:
            rad *= f
        f += 1
    return mult, rad * v


@memoized
def _c_squared(alpha: int, m: int) -> ParamPolynomial:
    """c_alpha^2 = -(alpha^2 - p^2)(alpha^2 - m^2) / (alpha^2 (4 alpha^2 - 1))."""
    a2 = alpha * alpha
    den = Fraction(1, a2 * (4 * a2 - 1))
    #  -(a2 - p^2)(a2 - m^2) = (m^2 - a2) a2 + (a2 - m^2) p^2
    p2 = ParamPolynomial([0, 0, 1])
    return (p2 - a2) * Fraction(a2 - m * m) * den


def _b_coeff(alpha: int, m: int) -> ParamPolynomial:
    """B_alpha = i p m / (alpha (alpha + 1)); no radical content."""
    return ParamPolynomial([0, GR_I * Fraction(m, alpha * (alpha + 1))])


class RadicalSum:
    """Sum of p-polynomials times monomials in c_alpha symbols and sqrt(d).

    Keys are (frozenset of c indices, squarefree integer); after reduction
    every c_alpha appears to power 0 or 1.  A value is scalar when only the
    radical-free key survives.
    """

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms=None):
        self.m = m
        self.terms = {}
        if terms:
            for key, poly in terms.items() if isinstance(terms, dict) else terms:
                if not poly.is_zero():
                    cur = self.terms.get(key)
                    poly = poly if cur is None else cur + poly
                    if poly.is_zero():
                        self.terms.pop(key, None)
                    else:
                        self.terms[key] = poly

    @staticmethod
    def scalar(m: int, poly) -> "RadicalSum":
        if isinstance(poly, (int, Fraction, GaussianRational)):
            poly = poly_constant(poly)
        return RadicalSum(m, {(frozenset(), 1): poly})

    def __add__(self, other: "RadicalSum") -> "RadicalSum":
        out = dict(self.terms)
        for key, poly in other.terms.items():
            cur = out.get(key)
            tot = poly if cur is None else cur + poly
            if tot.is_zero():
                out.pop(key, None)
            else:
                out[key] = tot
        result = RadicalSum(self.m)
        result.terms = out
        return result

    def mul_simple(self, poly, c_index=None, rad: int = 1) -> "RadicalSum":
        """Multiply by poly * c_{c_index} * sqrt(rad) (each factor optional)."""
        if isinstance(poly, (int, Fraction, GaussianRational)):
            poly = poly_constant(poly)
        out = {}
        for (cset, r), val in self.terms.items():
            newpoly = val * poly
            if c_index is not None:
                if c_index in cset:
                    cset = cset - {c_index}
                    newpoly = newpoly * _c_squared(c_index, self.m)
                else:
                    cset = cset | {c_index}
            if rad != 1:
                mult, newr = _square_split(r * rad)
                newpoly = newpoly * mult
            else:
                newr = r
            if newpoly.is_zero():
                continue
            key = (cset, newr)
            cur = out.get(key)
            tot = newpoly if cur is None else cur + newpoly
            if tot.is_zero():
                out.pop(key, None)
            else:
                out[key] = tot
        result = RadicalSum(self.m)
        result.terms = out
        return result

    def __mul__(self, scalar) -> "RadicalSum":
        return self.mul_simple(scalar)

    def is_zero(self) -> bool:
        return not self.terms

    def is_scalar(self) -> bool:
        return all(key == (frozenset(), 1) for key in self.terms)

    def scalar_value(self) -> ParamPolynomial:
        if not self.is_scalar():
            raise InternalConsistencyError(
                "radical symbols survived where a scalar was required: "
                f"keys {sorted((sorted(cs), r) for cs, r in self.terms)}"
            )
        return self.terms.get((frozenset(), 1), POLY_ZERO)


def _lorentz_targets(gen: str, alpha: int, k: int, m: int):
    """Outgoing terms of a generator on state (alpha, k).

    Yields (new_alpha, new_k, sign, int_radicand, c_index, with_b, k_factor):
    coefficient = sign * sqrt(int_radicand) * [c_{c_index} | B_alpha | k_factor].
    """
    am = abs(m)
    if gen == "H3":
        yield (alpha, k, 1, 1, None, False, k)
        return
    if gen == "H-":
        yield (alpha, k - 1, 1, (alpha + k) * (alpha - k + 1), None, False, None)
        return
    if gen == "H+":
        yield (alpha, k + 1, 1, (alpha + k + 1) * (alpha - k), None, False, None)
        return
    if gen == "F+":
        yield (alpha - 1, k + 1, 1, (alpha - k) * (alpha - k - 1), alpha, False, None)
        yield (alpha, k + 1, -1, (alpha + k + 1) * (alpha - k), None, True, None)
        yield (
            alpha + 1, k + 1, 1, (alpha + k + 1) * (alpha + k + 2), alpha + 1, False, None,
        )
        return
    if gen == "F-":
        yield (alpha - 1, k - 1, -1, (alpha + k) * (alpha + k - 1), alpha, False, None)
        yield (alpha, k - 1, -1, (alpha - k + 1) * (alpha + k), None, True, None)
        yield (
            alpha + 1, k - 1, -1, (alpha - k + 1) * (alpha - k + 2), alpha + 1, False, None,
        )
        return
    if gen == "F3":
        yield (alpha - 1, k, 1, alpha * alpha - k * k, alpha, False, None)
        yield (alpha, k, -1, 1, None, True, k)
        yield (
            alpha + 1, k, -1, (alpha + 1) * (alpha + 1) - k * k, alpha + 1, False, None,
        )
        return
    raise ValueError(f"unknown Lorentz generator {gen!r}")


def _lorentz_step(vec, gen: str, m: int):
    """Apply one generator to a vector {(alpha, k): RadicalSum}."""
    am = abs(m)
    out = {}
    for (alpha, k), coeff in vec.items():
        for a2, k2, sign, radicand, c_index, with_b, k_factor in _lorentz_targets(
            gen, alpha, k, m
        ):
            if a2 < am or abs(k2) > a2 or radicand == 0:
                continue
            if c_index is not None and c_index <= am:
                continue  # c_alpha vanishes at the minimal spin
            mult, rad = _square_split(radicand)
            poly = poly_constant(sign * mult)
            if with_b:
                if m == 0:
                    continue
                poly = poly * _b_coeff(alpha, m)
            if k_factor is not None:
                if k_factor == 0:
                    continue
                poly = poly * k_factor
            _add_into(out, (a2, k2), coeff.mul_simple(poly, c_index=c_index, rad=rad))
    return out


def _lorentz_corner(m: int):
    am = abs(m)
    return {(am, am): RadicalSum.scalar(m, 1)}


def lorentz_apply_word(word, m: int):
    """Apply a generator word to the corner state (alpha, k) = (|m|, |m|)."""
    vec = _lorentz_corner(m)
    for gen in word:
        vec = _lorentz_step(vec, gen, m)
    return vec


def _corner_scalar(total, m: int, element: str) -> ParamPolynomial:
    """Scalar of an element from ``total``, the vector it makes of the corner.

    Every component off the corner state (|m|, |m|) must cancel, or
    InternalConsistencyError names ``element`` and the surviving component;
    the corner value must be radical-free.
    """
    corner = (abs(m), abs(m))
    for state, rad in total.items():
        if state != corner and not rad.is_zero():
            raise InternalConsistencyError(
                f"{element} moved the corner state of the minimal-spin module "
                f"(component {state} survived): scalar extraction invalid"
            )
    return total.get(corner, RadicalSum.scalar(m, 0)).scalar_value()


def lorentz_weight_raw(t: InfinitesimalRMatrix, d: ChordDiagram, m: int):
    """Corner value of the weight of ``d`` under ``t``, before the per-chord sign.

    The off-corner cancellation and radical-free checks of
    :func:`_corner_scalar` apply.
    """
    total = _transfer_walk(t, d, 0, _lorentz_corner(m), partial(_lorentz_step, m=m))
    return _corner_scalar(total, m, "central element")


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
        total = POLY_ZERO
        for diagram, c in d.terms.items():
            total = total + c * lambda_mp_direct(diagram, m)
        return total
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
def _sl2_character_in_p(d: ChordDiagram, m: Fraction) -> ParamPolynomial:
    """The sl2 character of ``d`` under T_CK_SL2 at z = (p - 1 + m)/2."""
    return _lambda_z_literal(d, T_CK_SL2, 0).compose_affine(Fraction(1, 2), (m - 1) / 2)


def lambda_mp_factorized(d, m) -> ParamPolynomial:
    """Character polynomial in p through the coproduct and two sl2 characters.

    The two tensor factors carry the sl2 tensor with opposite signs; the
    spin parameters are z = (p-1+m)/2 and w = (p-1-m)/2.  Half-integer m
    (as a Fraction) is accepted here, unlike the direct route.
    """
    if isinstance(d, DiagramSum):
        total = POLY_ZERO
        for diagram, c in d.terms.items():
            total = total + c * lambda_mp_factorized(diagram, m)
        return total
    m = Fraction(m)
    total = POLY_ZERO
    for (w1, w2), c in coproduct(d).terms.items():
        left = _sl2_character_in_p(w1, m)
        right = _sl2_character_in_p(w2, -m)  # at w = (p - 1 - m)/2
        sign = -1 if w2.n % 2 else 1  # the right factor carries -t
        total = total + c * sign * (left * right)
    return total if d.n % 2 == 0 else _SIGN_PER_CHORD * total


# ---------------------------------------------------------------------------
# Casimir eigenvalues
# ---------------------------------------------------------------------------


def lorentz_quadratic_eigenvalue(terms, m: int) -> ParamPolynomial:
    """Eigenvalue polynomial of sum_i c_i X_i Y_i on the minimal-spin module."""
    total = {}
    for c, a, b in terms:
        for state, rad in lorentz_apply_word((b, a), m).items():
            _add_into(total, state, rad * c)
    return _corner_scalar(total, m, "quadratic element")


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
