"""Balanced quantum Lorentz representation and truncated braid sums.

The representation space is the direct sum of all integer-spin quantum sl2
modules; matrix generators act as matrix elements, the group-like element
is diagonal, and the dual generators act through Clebsch-Gordan data and
the structure constants Lambda (see :mod:`lorentzknots.cg`).

Everything is exact.  The walk runs in the rescaled basis
f(beta, i) = s(beta, i) e(beta, i), s(beta, i)^2 = (2 beta + 1)
(beta - i)! (beta + i)!, and the same rescaling of each crossing label's
module leaves the matrix-element factor a bare delta; the label's two
factors land on the dual-generator entry.  A diagonal change of basis
leaves sum X_ij (x) g_ji and the vacuum amplitude unchanged, and in this
basis every dual-generator entry is a rational jet.

The walk runs at real p only, where the dual-generator entries and the
branch coefficients are integer jets of :mod:`lorentzknots.series`.  p
enters the sum only through the weights q^{2 sigma p} = e^{sigma p h} of
the structure constants, so its h^k coefficient is a polynomial of degree
at most k in p, and each dual-generator entry keeps its p-free coupling
products once (``_g_terms``).  At any other p, ``cg.series_at`` fits the
walks, each memoized, at the real nodes p = 1..order+3: each h^k
coefficient by exact Lagrange interpolation through the first k+1 of them,
and the remaining nodes (at least two) must lie on the fit.  At complex p
the fit is specialised.

A braid whose closure is a knot becomes a single operator word by walking
the closed-up diagram once: each crossing contributes its matrix-element
factor on the overcrossing passage and its dual factor (with an inverse
antipode twist for negative crossings) on the other, and every closure arc
except the first strand's inserts the group-like element.  The infinite sum
over crossing labels is truncated at spin <= the series order, which is
exact: a term's h-adic order dominates each of its crossing spins, so the
dropped tail starts above the truncation order.  Evaluation streams the
word against the vacuum vector, branching over labels the first time a
crossing is met and closing them with delta constraints at the partner
factor; branches whose accumulated h-order plus current spin exceed the
truncation order can no longer contribute and are pruned, and the h-order
is read off exactly (the first nonzero coefficient).

The sum is invariant under conjugation, so every cyclic rotation of the
braid word, read from either end of the open strand, gives it; the cost of
the walk, however, varies by orders of magnitude between them.
``braid_sum`` walks the cheapest of these 2L candidates by a static cost
key (``cheapest_walk``): the peak number of labels opened by dual factors
and still pending, then the pending labels summed along the word.  Read
transposed, the walk runs the reversed word and takes each dual factor's
row from ``g_action``, which enumerates a row and a column alike.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .braids import BraidWord
from .cg import (
    SYMBOLIC,
    _is_spin_index,
    _lambda_coeff,
    _lambda_terms,
    quantum_cg,
    quantum_cg_decoupling,
    real_point,
    series_at,
)
from .errors import InternalConsistencyError, ResourceGuardError
from .series import (
    _q_integer_jet,
    _q_power_jet,
    _require_order,
    jet_accumulate,
    jet_add,
    jet_constant,
    jet_lead,
    jet_mul,
    jet_scale,
    memoized,
)

__all__ = [
    "tangle_word",
    "g_action",
    "group_like_action",
    "cheapest_walk",
    "braid_sum",
    "trefoil_closed_sum",
]


# ---------------------------------------------------------------------------
# Word construction: one pass along the closed-up braid
# ---------------------------------------------------------------------------


def tangle_word(b: BraidWord):
    """Operator word for the (1,1)-tangle closure, in application order.

    Returns (ops, signs): ops is a list of ("X", k), ("g", k) or ("G",)
    entries with k a crossing index; signs[k] is the crossing sign (negative
    crossings act through the inverse antipode of the dual generator).
    Walking starts at the bottom of strand position 1; on a positive
    crossing the strand entering at the lower left carries the
    matrix-element factor and exits to the right, while for a negative
    crossing the roles are exchanged.
    """
    if not b.is_knot():
        raise ValueError("closure of the braid is not a knot")
    ops = []
    signs = [sign for _, sign in b.letters]
    pos = 1
    while True:
        for k, (s, sign) in enumerate(b.letters):
            if pos == s:
                ops.append(("X", k) if sign > 0 else ("g", k))
                pos = s + 1
            elif pos == s + 1:
                ops.append(("g", k) if sign > 0 else ("X", k))
                pos = s
        if pos == 1:
            break
        ops.append(("G",))
    expected = 2 * len(b.letters) + (b.strands - 1)
    if len(ops) != expected:
        raise InternalConsistencyError(
            f"tangle word has {len(ops)} factors, expected {expected}"
        )
    return ops, signs


# ---------------------------------------------------------------------------
# Actions (column maps on basis states; doubled labels throughout)
# ---------------------------------------------------------------------------


def _s_squared(d_beta: int, d_i: int) -> int:
    """s(beta, i)^2 = (2 beta + 1) (beta - i)! (beta + i)!, the square of the
    rescaling of basis vector (beta, i)."""
    return (d_beta + 1) * factorial((d_beta - d_i) // 2) * factorial((d_beta + d_i) // 2)


@memoized
def _g_terms(d_alpha, d_i, d_j, d_beta, d_ibeta, order, forward):
    """The p-free part of ``g_action``: a tuple of (other state, labels of a
    structure constant Lambda, c), Lambda(p) c being one term of the entry.

    The source (b, i_b) decouples into alpha (x) D at index x = j + i_b,
    which couples to the target (c, i_c) with i_c = x - i; so the known
    state fixes x, and one loop over the coupled spin D and the other
    state's integer spin within |alpha -+ D| serves both directions.  The
    sum over D is finite, no approximation happens here.

    c is the coupling product in the rescaled basis, times s(alpha, j) /
    s(alpha, i) from the label's matrix-element partner and sqrt of
    Lambda's radicand: an integer jet (checked exactly).
    """
    known = (d_beta, d_ibeta)
    dx = d_ibeta + (d_j if forward else d_i)
    d_iother = dx - (d_i if forward else d_j)
    terms = []
    for dD in range(abs(d_alpha - d_beta), d_alpha + d_beta + 1, 2):
        if not _is_spin_index(dD, dx):
            continue
        for d_other in range(abs(d_alpha - dD), d_alpha + dD + 1, 2):
            if d_other % 2 or not _is_spin_index(d_other, d_iother):
                continue
            other = (d_other, d_iother)
            source, target = (known, other) if forward else (other, known)
            cgr = quantum_cg_decoupling(dD, d_alpha, source[0], dx, d_j, source[1], order)
            if cgr.is_zero():
                continue
            cgl = quantum_cg(target[0], d_alpha, dD, target[1], d_i, dx, order)
            if cgl.is_zero():
                continue
            labels = (target[0], d_alpha, dD, source[0])
            radicand, sigma_terms = _lambda_terms(*labels, order)
            if not sigma_terms:
                continue
            square = radicand * Fraction(
                _s_squared(*source) * _s_squared(d_alpha, d_j),
                _s_squared(*target) * _s_squared(d_alpha, d_i),
            )
            c = (cgl * cgr).scaled(square, ("g", d_alpha, d_i, d_j, source, target))
            terms.append((other, labels, c))
    return tuple(terms)


def g_action(d_alpha, d_i, d_j, d_beta, d_ibeta, p, order, forward=True):
    """Column of the dual generator's action, or with ``forward`` False its
    transposed row: the other states, (state, jet), of the argument state
    (beta, i_beta), which is the source when ``forward`` and the target
    otherwise.  Each entry, a matrix element in the rescaled basis, sums
    Lambda(p) c over the p-free terms of :func:`_g_terms`; ``p`` must be
    real and ``order`` a nonnegative int, checked before the memo lookup
    (ValueError otherwise)."""
    _require_order(order)
    return _g_action(d_alpha, d_i, d_j, d_beta, d_ibeta, p, order, forward)


@memoized
def _g_action(d_alpha, d_i, d_j, d_beta, d_ibeta, p, order, forward):
    if real_point(p) is None:
        raise ValueError(f"g_action needs a real p, not {p}")
    out = {}
    for other, labels, c in _g_terms(d_alpha, d_i, d_j, d_beta, d_ibeta, order, forward):
        lam = _lambda_coeff(*labels, p, order)
        if not lam.is_zero():
            jet_accumulate(out, other, jet_mul(lam.value, c))
    return tuple((s, v) for s, v in out.items() if any(v[0]))


def group_like_action(d_idx: int, order: int):
    """Diagonal weight q^{2 i} = e^{i h} of the group-like element, as an
    integer jet."""
    return _q_power_jet(d_idx, order)


@memoized
def _antipode_factor(d_alpha: int, d_i: int, d_j: int, order: int):
    """Scalar q^{j - i} (-1)^{i - j} s(alpha, i)^2 / s(alpha, j)^2, as an
    integer jet.

    The first two factors are the inverse antipode's.  The matrix-element
    partner X_ij needs s(alpha, i)/s(alpha, j) on the dual entry, but
    ``g_action`` called at (-i, -j) folds in s(alpha, j)/s(alpha, i)
    (s(alpha, -i) = s(alpha, i)); the last factor is the difference.
    """
    ratio = Fraction(_s_squared(d_alpha, d_i), _s_squared(d_alpha, d_j))
    if ((d_i - d_j) // 2) % 2:
        ratio = -ratio
    return jet_scale(_q_power_jet(Fraction(d_j - d_i, 2), order), ratio)


# ---------------------------------------------------------------------------
# Streaming evaluation of the braid sum
# ---------------------------------------------------------------------------

# Live branches a walk may hold after any operator before ResourceGuardError.
MAX_BRANCHES = 2_000_000


def _min_headroom(ds, pend):
    """Doubled lower bound on the h-orders still to be spent.

    The walk must end at spin 0, and for every crossing still awaiting its
    matrix-element factor the state must first visit that label's spin
    (pending dual factors impose no such visit).
    """
    req = ds
    for _, da, _, _, awaits_x in pend:
        if awaits_x:
            need = abs(da - ds) + da
            if need > req:
                req = need
    return req


def _walk_cost(ops):
    """Static cost key of walking ``ops``: smaller is cheaper.

    A label opened by a dual factor branches over every (alpha, i, j) and
    stays in the state key until its matrix-element factor pins it.  A label
    opened by a matrix element branches over j alone, and not at all while
    the state is still the vacuum (no dual factor has moved it): there it
    is pinned to spin 0 and its dual factor acts as the identity.  The key
    is the peak number of dual-opened labels pending at once, then the
    number of unpinned pending labels summed over operators, then the
    number of dual-opened ones summed over operators.
    """
    opened_by = {}  # crossing -> "X" or "g", the factor that opened it
    pinned = set()
    at_vacuum = True
    dual_open = peak = open_total = dual_total = 0
    for op in ops:
        if op[0] != "G":
            kind, k = op
            if k in opened_by:
                trivial = k in pinned
                pinned.discard(k)
                if opened_by.pop(k) == "g":
                    dual_open -= 1
            else:
                trivial = kind == "X" and at_vacuum
                opened_by[k] = kind
                if trivial:
                    pinned.add(k)
                elif kind == "g":
                    dual_open += 1
            if kind == "g" and not trivial:
                at_vacuum = False
        peak = max(peak, dual_open)
        open_total += len(opened_by) - len(pinned)
        dual_total += dual_open
    return peak, open_total, dual_total


def _walk_candidates(b: BraidWord):
    """Every walk giving ``b``'s sum, as (rotation, forward, ops).

    Rotation r walks the conjugate word ``b.letters[r:] + b.letters[:r]``,
    read forward or transposed (the reversed word, the same scalar read
    from the other end of the open strand); crossing indices in ``ops``
    still refer to the letters of ``b``.
    """
    n = len(b.letters)
    for rotation in range(max(n, 1)):
        turned = BraidWord(b.strands, b.letters[rotation:] + b.letters[:rotation])
        ops, _ = tangle_word(turned)
        ops = [op if op[0] == "G" else (op[0], (op[1] + rotation) % n) for op in ops]
        yield rotation, True, ops
        yield rotation, False, ops[::-1]


def cheapest_walk(b: BraidWord):
    """The walk ``braid_sum`` takes: (rotation, forward, ops, signs).

    The closure's sum is a conjugation invariant, so all 2L walks of
    ``_walk_candidates`` give it, at costs that differ by orders of
    magnitude.  This is the first of them with the smallest ``_walk_cost``;
    ``signs[k]`` is the sign of ``b``'s letter k.
    """
    rotation, forward, ops = min(_walk_candidates(b), key=lambda c: _walk_cost(c[2]))
    return rotation, forward, ops, [sign for _, sign in b.letters]


def _describe_op(op):
    if op[0] == "G":
        return "group-like element"
    kind = "matrix element" if op[0] == "X" else "dual generator"
    return f"{kind} of crossing {op[1] + 1}"


def braid_sum(b: BraidWord, p, order: int):
    """Truncated knot sum for the balanced representation with parameter p.

    ``p`` is an exact numeric value, giving a jet over Q(i), or the module
    constant ``SYMBOLIC``, giving a jet of ParamPolynomials in p; either is
    exact.  Crossing spins run through 0, 1/2, ..., order: the h-adic order
    bound admits no larger spin, so the sum is exact through that order.

    The sum is a conjugation invariant, so it walks the word as
    ``cheapest_walk`` picks: the cyclic rotation and reading direction with
    the smallest static cost key.  More than ``MAX_BRANCHES`` live branches
    after any operator raise ResourceGuardError naming the count, the
    operator, and the rotation and direction walked.

    Only real p is walked; ``cg.series_at`` fits the walks at p =
    1..order+3 for any other p (a node off the fit raises
    InternalConsistencyError naming the braid, order, h^k and node).
    """
    _require_order(order)
    rotation, forward, ops, signs = cheapest_walk(b)
    walk = (rotation, forward, tuple(ops), tuple(signs))
    return series_at(p, order, lambda x: _walk(walk, x, order), f"symbolic braid sum of {b}")


@memoized
def _walk(walk, p, order):
    """The sum along ``walk`` (as ``cheapest_walk`` returns it, with ops
    and signs as tuples) at real p, as an integer jet."""
    rotation, forward, ops, signs = walk

    # key: (d_spin, d_idx, pending) with pending a frozenset of
    # (crossing, d_alpha, d_i, d_j) label assignments awaiting their partner
    vec = {(0, 0, frozenset()): jet_constant(1, order)}

    for position, op in enumerate(ops):
        out = {}
        if op[0] == "G":
            for (ds, di, pend), coeffs in vec.items():
                weight = group_like_action(di, order)
                jet_accumulate(out, (ds, di, pend), jet_mul(coeffs, weight))
        elif op[0] == "X":
            xread, xwrite = (0, 1) if forward else (1, 0)
            for (ds, di, pend), coeffs in vec.items():
                k = op[1]
                known = next((lab for lab in pend if lab[0] == k), None)
                if known is not None:
                    _, da, dii, djj, _awaits = known
                    idx = (dii, djj)[xread]
                    if ds == da and di == idx:
                        jet_accumulate(
                            out,
                            (da, (dii, djj)[xwrite], pend - {known}),
                            coeffs,
                        )
                else:
                    for dj in range(-ds, ds + 1, 2):
                        lab = (
                            (k, ds, di, dj, False)
                            if forward
                            else (k, ds, dj, di, False)
                        )
                        jet_accumulate(out, (ds, dj, pend | {lab}), coeffs)
        else:  # dual generator
            k = op[1]
            sign = signs[k]
            for (ds, di, pend), coeffs in vec.items():
                lead0 = jet_lead(coeffs)
                if lead0 is None or 2 * lead0 + _min_headroom(ds, pend) > 2 * order:
                    continue
                known = next((lab for lab in pend if lab[0] == k), None)
                if known is not None:
                    labels = [(known[1], known[2], known[3], pend - {known})]
                else:
                    # The matrix-element partner will pin the state to spin
                    # alpha, and the walk must end at spin 0; every unit of
                    # spin movement costs at least one h-order, so a fresh
                    # label needs |alpha - s| + alpha orders of headroom.
                    labels = [
                        (da, dii, djj, pend | {(k, da, dii, djj, True)})
                        for da in range(0, 2 * order + 1)
                        if 2 * lead0 + abs(da - ds) + da <= 2 * order
                        for dii in range(-da, da + 1, 2)
                        for djj in range(-da, da + 1, 2)
                    ]
                # A positive crossing pairs the matrix-element factor X_{ij}
                # with the dual generator at transposed indices g_{ji}; a
                # negative crossing pairs it with the inverse antipode
                # q^{j-i} (-1)^{i-j} g_{-i,-j}.  This is the unique index
                # arrangement under which mixed-sign unknot words evaluate
                # to 1 and the trefoil matches its closed one-dimensional
                # reduction; the tests pin it.
                for da, dii, djj, newpend in labels:
                    ai, aj = djj, dii
                    base = coeffs
                    if sign < 0:
                        base = jet_mul(coeffs, _antipode_factor(da, dii, djj, order))
                        ai, aj = -dii, -djj
                    for (ds2, di2), entry in _g_action(
                        da, ai, aj, ds, di, p, order, forward
                    ):
                        contrib = jet_mul(base, entry)
                        lead2 = jet_lead(contrib)
                        if lead2 is None or 2 * lead2 + _min_headroom(
                            ds2, newpend
                        ) > 2 * order:
                            continue
                        jet_accumulate(out, (ds2, di2, newpend), contrib)
        vec = out
        if len(vec) > MAX_BRANCHES:
            raise ResourceGuardError(
                f"braid sum reached {len(vec)} branches at operator "
                f"{position + 1} of {len(ops)} ({_describe_op(op)}) of the "
                f"walk along rotation {rotation}, read "
                f"{'forward' if forward else 'transposed'}, above the limit "
                f"MAX_BRANCHES={MAX_BRANCHES}"
            )

    if any(pend for _, _, pend in vec):
        raise InternalConsistencyError("crossing label left unresolved")
    # Branches are keyed by state, so at most one ends at spin 0.
    return vec.get((0, 0, frozenset()), jet_constant(0, order))


def trefoil_closed_sum(p, order: int):
    """Independent one-dimensional reduction of the left-handed trefoil sum:
    the quantum-dimension-weighted product of two structure constants,
    summed over integer spins up to the order.  The two constants share
    their radical, so each product is a rational jet.  At real p it shares
    no code with the walk beyond the structure constants; at any other p
    both are fits (``series_at``) of their own real-p values."""
    _require_order(order)
    return series_at(p, order, lambda x: _closed_sum(x, order), "closed trefoil sum")


def _closed_sum(p, order):
    """The closed trefoil sum at real p, as an integer jet."""
    total = jet_constant(0, order)
    for alpha in range(0, order + 1):
        da = 2 * alpha
        pair = _lambda_coeff(0, da, da, da, p, order) * _lambda_coeff(da, da, da, 0, p, order)
        dim = _q_integer_jet(da + 1, order)  # [2 alpha + 1]
        total = jet_add(total, jet_mul(dim, pair.scaled(1, ("closed sum", alpha))))
    return total
