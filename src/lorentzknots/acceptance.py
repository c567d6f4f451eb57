"""Desk-scale acceptance suite: every identity the two pipelines must satisfy.

Each criterion is a callable returning (passed, detail); the registry drives
both the ``verify`` CLI subcommand and the pytest acceptance module.  All
parameters (orders, knots, points) are pinned here, not configurable at
call sites, and every comparison is an exact equality, so a green run
always certifies the same statements:

 1. unknot expansion equals the sinh-ratio closed form through order 6;
 2. four-term generators are killed by both character families;
 3. the two Lorentz character routes agree, and the module action
    reproduces the left/right Casimir eigenvalues;
 4. degree, parity and trivial-representation structure of X(0, p);
 5. mirror symmetry at minimal spin zero, mirror parity per order,
    orientation independence;
 6. Markov invariance of both pipelines across sampled moves, the braid
    sums over at least seven distinct walks;
 7. the four closed forms for spin-1/2 structure-constant columns at
    p = 2, 3, 5/2 and a complex point;
 8. the trefoil braid sum against its one-dimensional reduction;
 9. the cross-pipeline equivalence S_b = X(0, p) (2a+1)^2/[2a+1]^2 at
    p = 1, 2, 3, and S_b(p) U(p)^2 = X(0, p), U(p) = [p]/p, at symbolic p;
10. truncation soundness: the order-3 sum is the order-4 sum cut at h^3.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import factorial

from .braids import BraidWord, markov_variants, mirror, parse_braid, reverse
from .cg import lambda_coeff, lambda_coeff_symbolic
from .diagrams import enumerate_diagrams, four_t_generators
from .errors import InternalConsistencyError
from .invariants import equivalence_check, x_invariant
from .jones import jones_z_interpolated
from .polynomials import ParamPolynomial, poly_variable, specialize
from .qlorentz import SYMBOLIC, braid_sum, cheapest_walk, trefoil_closed_sum
from .scalars import GaussianRational, rational_sqrt
from .series import TruncatedSeries, constant_series, q_power
from .weights import (
    CASIMIR_LEFT_TERMS,
    CASIMIR_RIGHT_TERMS,
    casimir_eigenvalues,
    lambda_mp_direct,
    lambda_mp_factorized,
    lambda_z_sl2,
    lorentz_quadratic_eigenvalue,
)

TREFOIL_R = parse_braid("s1 s1 s1", 2)
TREFOIL_L = parse_braid("-s1 -s1 -s1", 2)
FIG8 = parse_braid("s1 -s2 s1 -s2", 3)
UNKNOT = BraidWord(1)


def _sinh_ratio_expansion(order):
    """Exact jet of sinh((2z+1)h/2) / ((2z+1) sinh(h/2)), polynomial in z."""
    z = poly_variable()
    w = (2 * z + 1) * (2 * z + 1)
    num, den = [], []
    for k in range(order + 1):
        if k % 2:
            num.append(ParamPolynomial([0]))
            den.append(Fraction(0))
        else:
            num.append(w ** (k // 2) * Fraction(1, 2**k * factorial(k + 1)))
            den.append(Fraction(1, 2**k * factorial(k + 1)))
    out = []
    for k in range(order + 1):
        acc = num[k] - sum(
            ParamPolynomial([den[j]]) * out[k - j] for j in range(1, k + 1)
        )
        out.append(acc)
    return out


def criterion_1_unknot_closed_form():
    """Unknot spin expansion equals the sinh-ratio jet, orders <= 6, exact."""
    order = 6
    computed = jones_z_interpolated(UNKNOT, order)
    expected = _sinh_ratio_expansion(order)
    for n in range(order + 1):
        if computed.coeffs[n] != expected[n]:
            return False, f"order {n} mismatch: {computed.coeffs[n]}"
    return True, "all 7 orders equal the closed form exactly"


def criterion_2_four_term_vanishing():
    """Both character families kill every 4T generator with <= 4 chords."""
    checked = 0
    for n in (2, 3, 4):
        for gen in four_t_generators(n):
            if not lambda_z_sl2(gen).is_zero():
                return False, f"sl2 weight nonzero on a {n}-chord generator"
            for m in (0, 1, 2):
                if not lambda_mp_factorized(gen, m).is_zero():
                    return False, f"Lorentz weight nonzero, m={m}, {n} chords"
            checked += 1
    return True, f"{checked} generators annihilated exactly (m in 0,1,2)"


def criterion_3_character_routes():
    """Direct and factorized Lorentz characters agree; Casimirs reproduce."""
    diagrams = [d for n in range(4) for d in enumerate_diagrams(n)]
    for m in (0, 1, 2):
        for d in diagrams:
            if lambda_mp_direct(d, m) != lambda_mp_factorized(d, m):
                return False, f"route mismatch at {d.gauss_text()!r}, m={m}"
        left, right = casimir_eigenvalues(m)
        if lorentz_quadratic_eigenvalue(CASIMIR_LEFT_TERMS, m) != left:
            return False, f"left Casimir eigenvalue wrong at m={m}"
        if lorentz_quadratic_eigenvalue(CASIMIR_RIGHT_TERMS, m) != right:
            return False, f"right Casimir eigenvalue wrong at m={m}"
    return True, f"{3 * len(diagrams)} route agreements; Casimirs (p^2 +- 2mp + m^2 - 1)/8"


def criterion_4_structure():
    """Degree <= 2n, evenness in p, vanishing at p = 1, at order 5, exact."""
    for braid, name in ((TREFOIL_R, "T+"), (TREFOIL_L, "T-"), (FIG8, "fig8")):
        try:
            x_invariant(braid, 0, 5).check_structure()
        except InternalConsistencyError as err:
            return False, f"{name}: {err}"
    return True, "T+, T-, figure-eight at order 5: degree/parity/vanishing exact"


def criterion_5_mirror_orientation():
    """Mirror insensitivity of X(0, p), per-order mirror parity, reversal."""
    order = 5
    if x_invariant(TREFOIL_R, 0, order).series != x_invariant(TREFOIL_L, 0, order).series:
        return False, "X(0, p) distinguishes the trefoil from its mirror"
    for braid in (TREFOIL_R, FIG8):
        plain = jones_z_interpolated(braid, 4)
        flipped = jones_z_interpolated(mirror(braid), 4)
        for n in range(5):
            expected = plain.coeffs[n] if n % 2 == 0 else -1 * plain.coeffs[n]
            if flipped.coeffs[n] != expected:
                return False, f"mirror parity fails at order {n}"
        if jones_z_interpolated(reverse(braid), 3) != jones_z_interpolated(braid, 3):
            return False, "orientation reversal changed the expansion"
        if x_invariant(reverse(braid), 1, 3).series != x_invariant(braid, 1, 3).series:
            return False, "orientation reversal changed X(1, p)"
    return True, "mirror symmetry, (-1)^n parity, and reversal invariance hold"


def _walk_id(b):
    """The rotated word and direction that ``braid_sum`` walks for ``b``."""
    rotation, forward, _, _ = cheapest_walk(b)
    return b.strands, b.letters[rotation:] + b.letters[:rotation], forward


def criterion_6_markov():
    """Both pipelines agree across Markov variants of the trefoil whose
    braid sums take >= 7 distinct walks besides the trefoil's own."""
    order = 4
    variants = markov_variants(TREFOIL_R)[:9]
    walks = {_walk_id(v) for v in variants} - {_walk_id(TREFOIL_R)}
    if len(walks) < 7:
        return False, f"only {len(walks)} distinct braid-sum walks compared"
    base = jones_z_interpolated(TREFOIL_R, order)
    for v in variants:
        if jones_z_interpolated(v, order) != base:
            return False, f"spin expansion changed under {v}"
    base_sum = braid_sum(TREFOIL_R, 2, order)
    for v in variants:
        if braid_sum(v, 2, order) != base_sum:
            return False, f"braid sum changed under {v}"
    return True, (
        f"{len(variants)} variants: equal spin expansions, braid sums over "
        f"{len(walks)} distinct walks equal"
    )


def criterion_7_structure_constant_columns():
    """Closed forms for the four spin-1/2 columns, C in 0..3, exact, at
    p = 2, 3, 5/2 and, through symbolic p, at a complex point."""
    order = 4
    one = constant_series(1, order)
    points = [GaussianRational(2), GaussianRational(3), GaussianRational(Fraction(5, 2)),
              GaussianRational(Fraction(1, 2), Fraction(3, 2))]

    def lam(dA, dB, dC, dD, p):
        if p.is_real():
            return lambda_coeff(dA, dB, dC, dD, p, order).rational(1, (dA, dB, dC, dD))
        radicand, fit = lambda_coeff_symbolic(dA, dB, dC, dD, order)
        return specialize(fit, p) * rational_sqrt(radicand)

    for C in (0, 1, 2, 3):
        q2C2 = q_power(2 * C + 2, order)
        for p in points:
            qp, qmp = q_power(p, order), q_power(-1 * p, order)
            rhs1 = -1 * q_power(C + 1, order) * (qp + qmp) / (q2C2 + one)
            rhs2 = (q2C2 * qp - qmp) / (q2C2 + one)
            rhs3 = (q2C2 * qmp - qp) / (q2C2 + one)
            if not (
                lam(2 * C, 1, 2 * C + 1, 2 * C, p) == rhs1
                and lam(2 * C, 1, 2 * C + 1, 2 * C + 2, p) == rhs2
                and lam(2 * C + 2, 1, 2 * C + 1, 2 * C, p) == rhs3
            ):
                return False, f"column formula failed at C={C}, p={p}"
            if C >= 1:
                rhs0 = q_power(C, order) * (qp + qmp) / (q_power(2 * C, order) + one)
                if lam(2 * C, 1, 2 * C - 1, 2 * C, p) != rhs0:
                    return False, f"first column formula failed at C={C}, p={p}"
    return True, "all columns equal their closed forms exactly at p = 2, 3, 5/2, 1/2+3/2i"


def criterion_8_trefoil_closed_sum():
    """Streamed trefoil sums equal the one-dimensional reduction; mirrors agree.

    At these real p the reduction shares no code with the walk beyond the
    structure constants; at a non-real p both sides would be fits of their
    own real values (``cg.series_at``)."""
    order = 4
    for p in (2, 3):
        if braid_sum(TREFOIL_L, p, order) != trefoil_closed_sum(p, order):
            return False, f"closed-sum mismatch at p={p}"
    if braid_sum(TREFOIL_R, 2, order) != braid_sum(TREFOIL_L, 2, order):
        return False, "right and left trefoil sums differ"
    return True, "closed reduction and mirror equality hold exactly"


def criterion_9_equivalence():
    """S_b(e^{h/2}, p) = X(0,p,K) (2a+1)^2/[2a+1]^2 with a=(p-1)/2, at p = 1,
    2, 3 and, as S_b(p) U(p)^2 = X(0,p) with U(p) = [p]/p, at symbolic p."""
    order = 4
    for braid, name in ((TREFOIL_R, "T+"), (TREFOIL_L, "T-"), (FIG8, "fig8")):
        for p in (1, 2, 3, SYMBOLIC):
            report = equivalence_check(braid, p, order)
            if not report["pass"]:
                return False, f"{name} at p={p}: {report['lhs']} != {report['rhs']}"
            if p == 1:
                if braid_sum(braid, 1, order) != constant_series(1, order):
                    return False, f"{name}: braid sum at p=1 is not 1"
                inv = x_invariant(braid, 0, order)
                for n in range(1, order + 1):
                    if inv.series.coeffs[n].evaluate(1) != 0:
                        return False, f"{name}: X(0,1) not 1 at order {n}"
    return True, "nine knot/parameter pairs and three symbolic-p identities agree exactly"


def criterion_10_truncation_soundness():
    """The spin bound and the headroom pruning drop nothing below the order:
    the order-3 sum is the order-4 sum cut at h^3."""
    order = 3
    for braid, name in ((TREFOIL_L, "T-"), (FIG8, "fig8")):
        low = braid_sum(braid, 2, order)
        high = braid_sum(braid, 2, order + 1)
        if low != TruncatedSeries(order, high.coeffs[: order + 1]):
            return False, f"{name}: order {order} differs from order {order + 1} cut at h^{order}"
    return True, f"T- and fig8 at p=2: order {order} = order {order + 1} cut at h^{order}"


CRITERIA = (
    ("1", "unknot closed form", criterion_1_unknot_closed_form),
    ("2", "four-term vanishing", criterion_2_four_term_vanishing),
    ("3", "character route agreement", criterion_3_character_routes),
    ("4", "degree/parity/vanishing structure", criterion_4_structure),
    ("5", "mirror and orientation", criterion_5_mirror_orientation),
    ("6", "Markov invariance", criterion_6_markov),
    ("7", "structure-constant columns", criterion_7_structure_constant_columns),
    ("8", "trefoil closed sum", criterion_8_trefoil_closed_sum),
    ("9", "cross-pipeline equivalence", criterion_9_equivalence),
    ("10", "truncation soundness", criterion_10_truncation_soundness),
)


def run_acceptance(numbers=None, stream=print):
    """Run selected (default: all) criteria; returns True if all passed."""
    wanted = set(numbers) if numbers else None
    all_ok = True
    for number, title, func in CRITERIA:
        if wanted and number not in wanted:
            continue
        start = time.time()
        ok, detail = func()
        all_ok &= ok
        status = "PASS" if ok else "FAIL"
        stream(
            f"[{status}] criterion {number:>2} ({title}): {detail} "
            f"[{time.time() - start:.1f}s]"
        )
    return all_ok
