"""Balanced quantum Lorentz representation and truncated braid sums.

The representation space is the direct sum of all integer-spin quantum sl2
modules; matrix generators act as matrix elements, the group-like element
is diagonal, and the dual generators act through Clebsch-Gordan data and
the structure constants Lambda (see :mod:`lorentzknots.cg`).

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
truncation order can no longer contribute and are pruned.
"""

from __future__ import annotations

import json
from fractions import Fraction

import mpmath

from .braids import BraidWord
from .cg import (
    BigPoly,
    lambda_coeff,
    lambda_coeff_symbolic,
    quantum_cg,
    quantum_cg_decoupling,
    _LAMBDA_CACHE,
)
from .errors import InternalConsistencyError, ResourceGuardError
from .scalars import GaussianRational, to_big
from .series import (
    TruncatedSeries,
    constant_series,
    memoized,
    q_dim,
    q_power,
    register_memo,
    series_to_big,
)

__all__ = [
    "tangle_word",
    "g_action",
    "x_action",
    "group_like_action",
    "braid_sum",
    "trefoil_closed_sum",
    "save_lambda_cache",
    "load_lambda_cache",
]

SYMBOLIC = "symbolic"


def _is_index(dj, dm):
    return abs(dm) <= dj and (dj - dm) % 2 == 0


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


def _lambda_value(d_gamma, d_alpha, dD, d_beta, p, order):
    if p is SYMBOLIC:
        return lambda_coeff_symbolic(d_gamma, d_alpha, dD, d_beta, order)
    return lambda_coeff(d_gamma, d_alpha, dD, d_beta, p, order)


def _p_key(p):
    return p if p is SYMBOLIC else GaussianRational.coerce(p)


_G_COLUMN_CACHE = {}
register_memo(_G_COLUMN_CACHE.clear)


def g_action(d_alpha, d_i, d_j, d_beta, d_ibeta, p, order, forward=True):
    """Column (or transposed column) of the dual generator's action.

    forward: state (beta, i_beta) -> [(gamma, i_gamma, jet), ...]
    backward: row through (gamma, i_gamma) -> [(beta, i_beta, jet), ...].
    Output spins are integers within |beta -+ alpha|; the sum over the
    internal coupling label is finite, no approximation happens here.
    """
    key = (d_alpha, d_i, d_j, d_beta, d_ibeta, _p_key(p), order, forward, mpmath.mp.dps)
    hit = _G_COLUMN_CACHE.get(key)
    if hit is not None:
        return hit
    out = {}
    if forward:
        dx = d_j + d_ibeta
        d_igamma = dx - d_i
        for dD in range(abs(d_alpha - d_beta), d_alpha + d_beta + 1, 2):
            if not _is_index(dD, dx):
                continue
            cgr = quantum_cg_decoupling(dD, d_alpha, d_beta, dx, d_j, d_ibeta, order)
            if cgr.is_zero():
                continue
            for d_gamma in range(abs(d_alpha - dD), d_alpha + dD + 1, 2):
                if d_gamma % 2 or not _is_index(d_gamma, d_igamma):
                    continue
                cgl = quantum_cg(d_gamma, d_alpha, dD, d_igamma, d_i, dx, order)
                if cgl.is_zero():
                    continue
                lam = _lambda_value(d_gamma, d_alpha, dD, d_beta, p, order)
                term = cgl * cgr * lam
                state = (d_gamma, d_igamma)
                out[state] = out[state] + term if state in out else term
    else:
        d_gamma, d_igamma = d_beta, d_ibeta  # arguments name the bra state here
        dx = d_igamma + d_i
        d_ib = dx - d_j
        for dD in range(abs(d_alpha - d_gamma), d_alpha + d_gamma + 1, 2):
            if not _is_index(dD, dx):
                continue
            cgl = quantum_cg(d_gamma, d_alpha, dD, d_igamma, d_i, dx, order)
            if cgl.is_zero():
                continue
            for d_b in range(abs(d_alpha - dD), d_alpha + dD + 1, 2):
                if d_b % 2 or not _is_index(d_b, d_ib):
                    continue
                cgr = quantum_cg_decoupling(dD, d_alpha, d_b, dx, d_j, d_ib, order)
                if cgr.is_zero():
                    continue
                lam = _lambda_value(d_gamma, d_alpha, dD, d_b, p, order)
                term = cgl * cgr * lam
                state = (d_b, d_ib)
                out[state] = out[state] + term if state in out else term
    result = tuple((s, tuple(v.coeffs)) for s, v in out.items() if not v.is_zero())
    _G_COLUMN_CACHE[key] = result
    return result


def x_action(d_alpha, d_i, d_j, d_beta, d_ibeta):
    """Matrix-element generator: kills unless (alpha, i) matches the state,
    then lands on (alpha, j)."""
    if d_alpha == d_beta and d_i == d_ibeta:
        return ((d_alpha, d_j),)
    return ()


def group_like_action(d_idx: int, order: int):
    """Diagonal weight q^{2 i} = e^{i h} of the group-like element."""
    return _group_like_weight(d_idx, order, mpmath.mp.dps)


@memoized
def _group_like_weight(d_idx: int, order: int, dps: int):
    return tuple(series_to_big(q_power(d_idx, order)).coeffs)


@memoized
def _antipode_factor(d_i: int, d_j: int, order: int, dps: int):
    """Scalar q^{j - i} (-1)^{i - j} from the inverse antipode, at ``dps``."""
    series = q_power(Fraction(d_j - d_i, 2), order)
    if ((d_i - d_j) // 2) % 2:
        series = -series
    return tuple(series_to_big(series).coeffs)


# ---------------------------------------------------------------------------
# Streaming evaluation of the braid sum
# ---------------------------------------------------------------------------


def _conv(a, b, order):
    return tuple(
        sum((a[j] * b[k - j] for j in range(k + 1)), mpmath.mpc(0))
        for k in range(order + 1)
    )


def _coeff_unit(order, symbolic):
    one = BigPoly([1]) if symbolic else mpmath.mpc(1)
    zero = BigPoly() if symbolic else mpmath.mpc(0)
    return (one,) + (zero,) * order


def _negligible_scalar(c, eps):
    if isinstance(c, BigPoly):
        return all(abs(x) < eps for x in c.coeffs)
    return abs(c) < eps


def _leading_order(coeffs, eps):
    for k, c in enumerate(coeffs):
        if not _negligible_scalar(c, eps):
            return k
    return None


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


def _open_g_count(ops):
    seen = set()
    count = 0
    for op in ops:
        if op[0] == "G":
            continue
        kind, k = op
        if k not in seen:
            seen.add(k)
            if kind == "g":
                count += 1
    return count


def _transpose_ops(ops):
    """Word for the same scalar read from the other end of the open strand."""
    return [op if op[0] == "G" else (op[0], op[1]) for op in reversed(ops)]


def braid_sum(
    b: BraidWord,
    p,
    order: int,
    label_cutoff: int | None = None,
    max_branches: int = 2_000_000,
):
    """Truncated knot sum for the balanced representation with parameter p.

    ``p`` is an exact numeric value or the module constant ``SYMBOLIC``
    (then coefficients are polynomials in p).  Crossing spins run through
    0, 1/2, ..., label_cutoff (default: the series order), which the h-adic
    order bound makes exact for coefficients up to that order.
    """
    ops, signs = tangle_word(b)
    symbolic = p is SYMBOLIC
    if label_cutoff is None:
        label_cutoff = order
    d_cut = int(2 * label_cutoff)
    dps = mpmath.mp.dps
    eps = mpmath.mpf(10) ** (-(dps - 8))

    forward = True
    if _open_g_count(_transpose_ops(ops)) < _open_g_count(ops):
        ops = _transpose_ops(ops)
        forward = False

    unit = _coeff_unit(order, symbolic)
    zero_scalar = BigPoly() if symbolic else mpmath.mpc(0)

    def scaled(coeffs, factor):
        return tuple(c * factor for c in coeffs)

    # key: (d_spin, d_idx, pending) with pending a frozenset of
    # (crossing, d_alpha, d_i, d_j) label assignments awaiting their partner
    state0 = ((0, 0, frozenset()), unit)
    vec = dict([state0])

    def push(store, key, coeffs):
        cur = store.get(key)
        if cur is None:
            store[key] = coeffs
        else:
            store[key] = tuple(x + y for x, y in zip(cur, coeffs))

    for op in ops:
        out = {}
        if op[0] == "G":
            for (ds, di, pend), coeffs in vec.items():
                weight = group_like_action(di, order)
                push(out, (ds, di, pend), _conv(coeffs, weight, order))
        elif op[0] == "X":
            xread, xwrite = (0, 1) if forward else (1, 0)
            for (ds, di, pend), coeffs in vec.items():
                k = op[1]
                known = next((lab for lab in pend if lab[0] == k), None)
                if known is not None:
                    _, da, dii, djj, _awaits = known
                    idx = (dii, djj)[xread]
                    if ds == da and di == idx:
                        push(
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
                        push(out, (ds, dj, pend | {lab}), coeffs)
        else:  # dual generator
            k = op[1]
            sign = signs[k]
            for (ds, di, pend), coeffs in vec.items():
                lead = _leading_order(coeffs, eps)
                if lead is None or 2 * lead + _min_headroom(ds, pend) > 2 * order:
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
                        for da in range(0, d_cut + 1)
                        if 2 * lead + abs(da - ds) + da <= 2 * order
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
                        antipode = _antipode_factor(dii, djj, order, dps)
                        base = _conv(coeffs, antipode, order)
                        ai, aj = -dii, -djj
                    for (ds2, di2), entry in g_action(
                        da, ai, aj, ds, di, p, order, forward=forward
                    ):
                        contrib = _conv(base, entry, order)
                        lead2 = _leading_order(contrib, eps)
                        if lead2 is None or 2 * lead2 + _min_headroom(
                            ds2, newpend
                        ) > 2 * order:
                            continue
                        push(out, (ds2, di2, newpend), contrib)
        vec = out
        if len(vec) > max_branches:
            raise ResourceGuardError(
                f"braid sum branch count exceeded {max_branches}"
            )

    total = (zero_scalar,) * (order + 1)
    for (ds, di, pend), coeffs in vec.items():
        if pend:
            raise InternalConsistencyError("crossing label left unresolved")
        if ds == 0 and di == 0:
            total = tuple(x + y for x, y in zip(total, coeffs))
    if symbolic:
        return TruncatedSeries(order, total)
    return TruncatedSeries(order, [mpmath.mpc(c) for c in total])


def trefoil_closed_sum(p, order: int, label_cutoff: int | None = None):
    """Independent one-dimensional reduction of the left-handed trefoil sum:
    the quantum-dimension-weighted product of two structure constants,
    summed over integer spins up to the cutoff."""
    if label_cutoff is None:
        label_cutoff = order
    total = series_to_big(constant_series(0, order))
    for alpha in range(0, int(label_cutoff) + 1):
        da = 2 * alpha
        lam1 = lambda_coeff(0, da, da, da, p, order)
        lam2 = lambda_coeff(da, da, da, 0, p, order)
        if lam1.is_zero() or lam2.is_zero():
            continue
        total = total + series_to_big(q_dim(da, order)) * lam1 * lam2
    return total


# ---------------------------------------------------------------------------
# Structure-constant cache persistence
# ---------------------------------------------------------------------------

_CACHE_FORMAT_VERSION = 2


def _mpc_to_json(z):
    z = mpmath.mpc(z)
    # mantissas may be gmpy integers; json needs plain ints
    return [
        [int(x) for x in mpmath.mpf(z.real)._mpf_],
        [int(x) for x in mpmath.mpf(z.imag)._mpf_],
    ]


def _mpc_from_json(data):
    re, im = data
    return mpmath.mpc(mpmath.mpf(tuple(re)), mpmath.mpf(tuple(im)))


def _entries_digest(entries):
    """SHA-256 of the entries in canonical JSON (sorted keys, no spaces)."""
    # Imported here: hashlib loads OpenSSL, about 3.6 MB of resident memory
    # that braid sums which never touch a cache file should not pay.
    import hashlib

    canonical = json.dumps(entries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def save_lambda_cache(path):
    """Dump memoized structure constants (numeric mode) with a manifest."""
    entries = []
    for key, series in _LAMBDA_CACHE.items():
        if key[0] != "lam":
            continue
        _, dA, dB, dC, dD, p, order, dps = key
        entries.append(
            {
                "labels": [dA, dB, dC, dD],
                "p": p.to_json(),
                "order": order,
                "dps": dps,
                "coeffs": [_mpc_to_json(c) for c in series.coeffs],
            }
        )
    doc = {
        "manifest": {
            "format_version": _CACHE_FORMAT_VERSION,
            "kind": "balanced-structure-constants",
            "entries": len(entries),
            "sha256": _entries_digest(entries),
        },
        "entries": entries,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return len(entries)


def _check_recomputed(path, key, series):
    """Recompute one loaded entry at its own precision; raise on mismatch."""
    _, dA, dB, dC, dD, p, order, dps = key
    with mpmath.workdps(dps):
        fresh = lambda_coeff(dA, dB, dC, dD, p, order)
        tol = mpmath.mpf(10) ** (8 - dps)
        if any(
            abs(a - b) > tol * max(1, abs(b))
            for a, b in zip(series.coeffs, fresh.coeffs)
        ):
            raise ValueError(
                f"{path}: cache entry with labels {[dA, dB, dC, dD]} "
                f"(p={p}, order {order}, dps {dps}) disagrees with its "
                "recomputation"
            )


def load_lambda_cache(path):
    """Load a dumped cache; entries at other precisions are kept distinct.

    Nothing is loaded unless the manifest's SHA-256 matches the entries and
    the first entry, recomputed at its own (labels, p, order, dps), agrees
    within 10^-(dps-8); otherwise ValueError names the file (and the entry).
    """
    with open(path) as fh:
        doc = json.load(fh)
    manifest = doc.get("manifest") if isinstance(doc, dict) else None
    if not isinstance(manifest, dict) or (
        manifest.get("format_version") != _CACHE_FORMAT_VERSION
    ):
        raise ValueError(f"{path}: unrecognized cache format version")
    entries = doc.get("entries", [])
    if manifest.get("sha256") != _entries_digest(entries):
        raise ValueError(f"{path}: entries do not match the manifest's SHA-256")
    loaded = {}
    try:
        for entry in entries:
            dA, dB, dC, dD = entry["labels"]
            p = GaussianRational.from_json(entry["p"])
            order, dps = int(entry["order"]), int(entry["dps"])
            coeffs = [_mpc_from_json(c) for c in entry["coeffs"]]
            key = ("lam", dA, dB, dC, dD, p, order, dps)
            loaded[key] = TruncatedSeries(order, coeffs)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed cache entry: {exc}") from exc
    if loaded:
        _check_recomputed(path, *next(iter(loaded.items())))
    _LAMBDA_CACHE.update(loaded)
    return len(loaded)
