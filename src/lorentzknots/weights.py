"""Weight maps from symmetric invariant 2-tensors, and central characters.

A symmetric tensor t = sum_i a_i (x) b_i in g (x) g that commutes with the
coproduct turns a chord diagram into a central element of U(g): walk the
circle from the basepoint, emit the left generator of the chosen term at a
chord's first endpoint and the right generator at its second, sum over term
choices.  Evaluating that element on a module with a central character gives
a scalar, extracted here from the highest-weight (corner) state with an
explicit cancellation check on every other component.

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


def phi_words(t: InfinitesimalRMatrix, d: ChordDiagram, start: int = 0):
    """All (coefficient, generator word) pairs for a diagram.

    Words are returned in application order: word[0] acts first.  The walk
    begins at circle position ``start`` of the stored pairing, so rotating
    ``start`` probes basepoint independence.
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
    words = []
    for assignment in product(range(len(t.terms)), repeat=d.n):
        coeff = GR_ONE
        for ti in assignment:
            coeff = coeff * t.terms[ti][0]
        word = tuple(t.terms[assignment[cid]][role] for cid, role in slots)
        words.append((coeff, word))
    return words


# ---------------------------------------------------------------------------
# sl2 spin-z module (exact polynomials in z)
# ---------------------------------------------------------------------------

_Z = poly_variable()


def _sl2_apply_word(word):
    """Apply a word to the corner state; states are descent depths j >= 0."""
    vec = {0: POLY_ONE}
    for gen in word:
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
            if key in out:
                out[key] = out[key] + val
            else:
                out[key] = val
        vec = {k: v for k, v in out.items() if not v.is_zero()}
    return vec


def _lambda_z_literal(d: ChordDiagram, t: InfinitesimalRMatrix, start=0):
    total = {}
    for coeff, word in phi_words(t, d, start):
        for j, poly in _sl2_apply_word(word).items():
            cur = total.get(j, POLY_ZERO)
            total[j] = cur + poly * coeff
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

    def add(self, other: "RadicalSum") -> "RadicalSum":
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


def lorentz_apply_word(word, m: int):
    """Apply a generator word to the corner state (alpha, k) = (|m|, |m|)."""
    am = abs(m)
    vec = {(am, am): RadicalSum.scalar(m, 1)}
    for gen in word:
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
                term = coeff.mul_simple(poly, c_index=c_index, rad=rad)
                if term.is_zero():
                    continue
                cur = out.get((a2, k2))
                out[(a2, k2)] = term if cur is None else cur.add(term)
        vec = {s: c for s, c in out.items() if not c.is_zero()}
    return vec


def lorentz_weight_raw(t: InfinitesimalRMatrix, d: ChordDiagram, m: int):
    """Literal corner-state evaluation (no per-chord sign) with checks."""
    am = abs(m)
    start = (am, am)
    total = {}
    for coeff, word in phi_words(t, d):
        for state, rad in lorentz_apply_word(word, m).items():
            contrib = rad.mul_simple(coeff)
            cur = total.get(state)
            total[state] = contrib if cur is None else cur.add(contrib)
    for state, rad in total.items():
        if state != start and not rad.is_zero():
            raise InternalConsistencyError(
                "central element moved the corner state of the minimal-spin "
                f"module (component {state} survived)"
            )
    return total.get(start, RadicalSum.scalar(m, 0)).scalar_value()


def lambda_mp_direct(d, m: int) -> ParamPolynomial:
    """Character polynomial in p from the discrete-basis module action."""
    if isinstance(d, DiagramSum):
        total = POLY_ZERO
        for diagram, c in d.terms.items():
            total = total + c * lambda_mp_direct(diagram, m)
        return total
    if not isinstance(m, int):
        raise ValueError("the direct route supports integer minimal spin only")
    if d.n > 4:
        raise ResourceGuardError("direct evaluation guards at <= 4 chords")
    value = lorentz_weight_raw(T_LORENTZ, d, m)
    return value if d.n % 2 == 0 else _SIGN_PER_CHORD * value


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
    half = Fraction(1, 2)
    sub_z = (half, (m - 1) / 2)  # z = (p - 1 + m)/2
    sub_w = (half, (-m - 1) / 2)  # w = (p - 1 - m)/2
    total = POLY_ZERO
    for (w1, w2), c in coproduct(d).terms.items():
        left = _lambda_z_literal(w1, T_CK_SL2).compose_affine(*sub_z)
        right = _lambda_z_literal(w2, T_CK_SL2).compose_affine(*sub_w)
        sign = -1 if w2.n % 2 else 1  # the right factor carries -t
        total = total + c * sign * (left * right)
    return total if d.n % 2 == 0 else _SIGN_PER_CHORD * total


# ---------------------------------------------------------------------------
# Casimir eigenvalues
# ---------------------------------------------------------------------------


def lorentz_quadratic_eigenvalue(terms, m: int) -> ParamPolynomial:
    """Eigenvalue polynomial of sum_i c_i X_i Y_i on the minimal-spin module."""
    am = abs(m)
    start = (am, am)
    total = {}
    for coeff, a, b in terms:
        for state, rad in lorentz_apply_word((b, a), m).items():
            contrib = rad.mul_simple(coeff)
            cur = total.get(state)
            total[state] = contrib if cur is None else cur.add(contrib)
    for state, rad in total.items():
        if state != start and not rad.is_zero():
            raise InternalConsistencyError(
                f"quadratic element not scalar: component {state} survived"
            )
    return total.get(start, RadicalSum.scalar(m, 0)).scalar_value()


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
