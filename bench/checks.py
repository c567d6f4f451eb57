"""Checks of one round's results against the independent oracles.

Each ``check_*`` function takes the spec, the serialized values of one round
(see worker.py) and the ids of the operations that failed, and returns a
list of failure messages (empty when every check passed).  A check whose
inputs include a failed operation is skipped: ``failed`` already counts it.
Exact values are compared exactly; only braid sums, which the package
computes in floats, are compared within 10^-45 at 80 working digits.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

import oracles as orc
import workloads

# ---------------------------------------------------------------------------
# Parsing serialized values
# ---------------------------------------------------------------------------


def _real_poly(coeffs, what, failures):
    """A serialized Gaussian-rational polynomial that must be real."""
    if any(Fraction(im) for _, im in coeffs):
        failures.append(f"{what}: non-real coefficient")
    return orc.ptrim(Fraction(re) for re, _ in coeffs)


def _real_jet(series, what, failures):
    return [_real_poly(c, f"{what} h^{n}", failures) for n, c in enumerate(series)]


def _gauss_poly(coeffs):
    """(real part, imaginary part) of a serialized polynomial."""
    return (orc.ptrim(Fraction(re) for re, _ in coeffs),
            orc.ptrim(Fraction(im) for _, im in coeffs))


def _gauss_combination(terms):
    """sum of c * value over (coefficient (re, im), (re poly, im poly))."""
    re, im = [], []
    for (cr, ci), (vr, vi) in terms:
        re = orc.padd(re, orc.padd(orc.pscale(vr, cr), orc.pscale(vi, -ci)))
        im = orc.padd(im, orc.padd(orc.pscale(vi, cr), orc.pscale(vr, ci)))
    return re, im


def _big(pair):
    return mpmath.mpc(mpmath.mpf(pair[0]), mpmath.mpf(pair[1]))


def _present(values, failed, *ids):
    """True when every id has a value; a missing value of an operation that
    did not fail is a fault of the benchmark itself."""
    for op_id in ids:
        if op_id not in values:
            if op_id in failed:
                return False
            raise KeyError(f"no value recorded for operation {op_id!r}")
    return True


# ---------------------------------------------------------------------------
# Spin expansion: MMR structure against the Burau Alexander polynomial
# ---------------------------------------------------------------------------


def alexander_of(entry):
    """Burau Alexander polynomial of a spec entry, cross-checked against the
    textbook table when the entry names a catalog knot."""
    delta = orc.alexander_polynomial(entry["strands"], entry["letters"])
    expected = orc.TEXTBOOK_ALEXANDER.get(entry.get("knot_type"))
    if expected is not None and delta != expected:
        raise AssertionError(
            f"Burau oracle gives {delta} for {entry['name']}, textbook {expected}")
    return delta


def check_normalized_expansion(jet_n, delta, order, what):
    """J/unknot with N = 2z+1: h^n coefficient even in N, degree <= n, and
    N^n coefficient = x^n coefficient of 1/Delta(e^x)."""
    failures = []
    reduced = orc.jmul(jet_n, orc.jinv(orc.unknot_jet(order)))
    diagonal = orc.inverse_alexander_exp_jet(delta, order)
    for n, poly in enumerate(reduced):
        if not orc.pis_even(poly):
            failures.append(f"{what}: h^{n} coefficient of J/unknot is not even in N")
        if orc.pdegree(poly) > n:
            failures.append(f"{what}: h^{n} coefficient of J/unknot has N-degree "
                            f"{orc.pdegree(poly)} > {n}")
        top = poly[n] if n < len(poly) else 0
        if top != diagonal[n]:
            failures.append(f"{what}: N^{n} h^{n} coefficient {top} != "
                            f"1/Delta(e^x) coefficient {diagonal[n]}")
    return failures


def check_x_structure(x_jet, delta, order, what):
    """X(0, p): even, degree <= 2n, zero at p = 1 for n > 0; and
    X(0,p) p^2/[p]^2 has degree <= n with diagonal 1/Delta(e^x)^2."""
    failures = []
    for n, poly in enumerate(x_jet):
        if not orc.pis_even(poly):
            failures.append(f"{what}: X(0,p) h^{n} coefficient not even in p")
        if orc.pdegree(poly) > 2 * n:
            failures.append(f"{what}: X(0,p) h^{n} coefficient has degree > {2 * n}")
        if n > 0 and orc.peval(poly, 1) != 0:
            failures.append(f"{what}: X(0,p) h^{n} coefficient nonzero at p = 1")
    unknot = orc.unknot_jet(order)
    rescaled = orc.jmul(x_jet, orc.jinv(orc.jmul(unknot, unknot)))
    diagonal = orc.inverse_alexander_exp_jet(delta, order, power=2)
    for n, poly in enumerate(rescaled):
        if orc.pdegree(poly) > n:
            failures.append(f"{what}: X(0,p) p^2/[p]^2 h^{n} coefficient has degree > {n}")
        top = poly[n] if n < len(poly) else 0
        if top != diagonal[n]:
            failures.append(f"{what}: X(0,p) p^2/[p]^2 p^{n} h^{n} coefficient {top} "
                            f"!= 1/Delta(e^x)^2 coefficient {diagonal[n]}")
    return failures


def check_spin(spec, values, failed):
    failures = []
    order = spec["order"]
    for knot in spec["knots"]:
        name = knot["name"]
        delta = alexander_of(knot)
        jid, xid = f"{name}:jones", f"{name}:x"
        if _present(values, failed, jid):
            jet_z = _real_jet(values[jid], jid, failures)
            jet_n = [orc.pcompose_affine(c, Fraction(1, 2), Fraction(-1, 2)) for c in jet_z]
            if name == "unknot" and jet_n != orc.unknot_jet(order):
                failures.append("unknot expansion differs from the sinh-ratio jet")
            failures += check_normalized_expansion(jet_n, delta, order, name)
        if _present(values, failed, xid):
            failures += check_x_structure(_real_jet(values[xid], xid, failures),
                                          delta, order, name)
    return failures


# ---------------------------------------------------------------------------
# Braid sums against X(0, p), [p] and the Burau Alexander polynomial
# ---------------------------------------------------------------------------


def _expected_numeric(x_jet, p, order):
    """X(0, p) p^2 / [p]^2 at a rational p, exactly."""
    unknot = [[orc.peval(c, p)] if orc.peval(c, p) else [] for c in orc.unknot_jet(order)]
    xs = [[orc.peval(c, p)] if orc.peval(c, p) else [] for c in x_jet]
    out = orc.jmul(xs, orc.jinv(orc.jmul(unknot, unknot)))
    return [c[0] if c else Fraction(0) for c in out]


def _close(a, b, tol):
    return abs(a - b) <= tol


def check_braid(spec, values, failed, x_oracle):
    """``x_oracle`` maps knot type to the exact X(0, p) jet (from the spin
    pipeline, computed before the timed rounds)."""
    failures = []
    order = spec["order"]
    tol = mpmath.mpf(10) ** -workloads.SUM_TOLERANCE_EXP
    qint = orc.quantum_integer_jet(order)
    qint_sq = orc.jmul(qint, qint)
    numeric_ps = [p for p in spec["ps"] if p != "symbolic"]
    with mpmath.workdps(spec["digits"] + 20):
        sums = {}
        for word in spec["words"]:
            name = word["name"]
            x_jet = x_oracle[word["knot_type"]]
            for p in numeric_ps:
                op_id = f"{name}:p={p}"
                if not _present(values, failed, op_id):
                    continue
                got = [_big(c) for c in values[op_id]]
                sums[(name, p)] = got
                want = _expected_numeric(x_jet, Fraction(p), order)
                for n, (g, w) in enumerate(zip(got, want)):
                    if not _close(g, mpmath.mpf(w.numerator) / w.denominator, tol):
                        failures.append(f"{op_id}: h^{n} = {mpmath.nstr(g, 20)}, "
                                        f"X(0,p) p^2/[p]^2 = {w}")
            op_id = f"{name}:p=symbolic"
            if _present(values, failed, op_id):
                polys = [[_big(c) for c in poly] for poly in values[op_id]]
                failures += _check_symbolic(op_id, polys, x_jet, qint_sq, tol)
                failures += _check_symbolic_diagonal(
                    op_id, polys, alexander_of(word), order, tol)
                for p in numeric_ps:
                    if (name, p) in sums:
                        at_p = [sum((c * p**k for k, c in enumerate(poly)), mpmath.mpc(0))
                                for poly in polys]
                        if not all(_close(a, b, tol) for a, b in zip(at_p, sums[(name, p)])):
                            failures.append(f"{op_id} at p = {p} differs from the numeric sum")
        for p in numeric_ps:
            base = sums.get(("trefoil-right", p))
            if base is None:
                continue
            for other in ("trefoil-left", "markov-conjugate", "markov-variant"):
                got = sums.get((other, p))
                if got is not None and not all(_close(a, b, tol) for a, b in zip(got, base)):
                    failures.append(f"{other} sum at p = {p} differs from trefoil-right")
        for p in spec["closed_ps"]:
            op_id = f"closed:p={p}"
            left = sums.get(("trefoil-left", p))
            if left is None or not _present(values, failed, op_id):
                continue
            got = [_big(c) for c in values[op_id]]
            if not all(_close(a, b, tol) for a, b in zip(got, left)):
                failures.append(f"trefoil_closed_sum at p = {p} differs from the braid sum")
    return failures


def _check_symbolic(op_id, polys, x_jet, qint_sq, tol):
    """S_b(p) [p]^2 = p^2 X(0, p), coefficient by coefficient."""
    failures = []
    order = len(polys) - 1
    for n in range(order + 1):
        lhs = {}
        for j in range(n + 1):
            for a, ca in enumerate(polys[j]):
                for b, cb in enumerate(qint_sq[n - j]):
                    lhs[a + b] = lhs.get(a + b, 0) + ca * mpmath.mpf(cb.numerator) / cb.denominator
        rhs = {k + 2: c for k, c in enumerate(x_jet[n])}
        for k in set(lhs) | set(rhs):
            want = rhs.get(k, Fraction(0))
            if not _close(lhs.get(k, 0), mpmath.mpf(want.numerator) / want.denominator, tol):
                failures.append(f"{op_id}: p^{k} h^{n} of S_b [p]^2 != p^2 X(0,p)")
    return failures


def _check_symbolic_diagonal(op_id, polys, delta, order, tol):
    """S_b(p) = J(K*) J(K) at N = p: degree <= n, even, p^n h^n diagonal
    = x^n coefficient of 1/Delta(e^x)^2."""
    failures = []
    diagonal = orc.inverse_alexander_exp_jet(delta, order, power=2)
    for n, poly in enumerate(polys):
        for k, c in enumerate(poly):
            if (k > n or k % 2) and not _close(c, 0, tol):
                failures.append(f"{op_id}: p^{k} h^{n} should vanish")
        top = poly[n] if n < len(poly) else 0
        want = diagonal[n]
        if not _close(top, mpmath.mpf(want.numerator) / want.denominator, tol):
            failures.append(f"{op_id}: p^{n} h^{n} = {mpmath.nstr(top, 20)}, "
                            f"1/Delta(e^x)^2 gives {want}")
    return failures


# ---------------------------------------------------------------------------
# Weight systems
# ---------------------------------------------------------------------------


def _casimir(m, sign):
    """(p^2 + sign*2mp + m^2 - 1)/8."""
    return orc.ptrim([Fraction(m * m - 1, 8), Fraction(sign * 2 * m, 8), Fraction(1, 8)])


def check_weights(spec, values, failed):
    failures = []
    for n, count in workloads.FOUR_T_COUNTS.items():
        op_id = f"four_t_generators:{n}"
        if _present(values, failed, op_id) and len(values[op_id]) != count:
            failures.append(f"{len(values[op_id])} four-term generators with {n} chords, "
                            f"expected {count}")
    ms = spec["character_ms"]
    if _present(values, failed, "enumerate_diagrams:4", "four_t_generators:4"):
        basis = values["enumerate_diagrams:4"]
        chars = [("sl2", lambda t: f"sl2:{t}")] + [
            (f"Lorentz m={m}", lambda t, m=m: f"fact:{t}:m={m}") for m in ms]
        for label, key in chars:
            ids = [key(t) for t in basis]
            if not _present(values, failed, *ids):
                continue
            table = {t: _gauss_poly(values[key(t)]) for t in basis}
            for g, gen in enumerate(values["four_t_generators:4"]):
                if any(t not in table for t, _, _ in gen):
                    failures.append(f"4-chord generator {g} uses a diagram outside the basis")
                    continue
                terms = [((Fraction(re), Fraction(im)), table[t]) for t, re, im in gen]
                if _gauss_combination(terms) != ([], []):
                    failures.append(f"{label} weight of 4-chord generator {g} is not zero")
        # isolated chords multiply: the one-chord values are z(z+1)/2 and -mp/2
        if _present(values, failed, "sl2:AABBCCDD"):
            one_chord = [0, Fraction(1, 2), Fraction(1, 2)]
            want = [1]
            for _ in range(4):
                want = orc.pmul(want, one_chord)
            if _gauss_poly(values["sl2:AABBCCDD"]) != (want, []):
                failures.append("sl2 weight of four isolated chords != (z(z+1)/2)^4")
        for m in ms:
            op_id = f"fact:AABBCCDD:m={m}"
            if _present(values, failed, op_id):
                want = orc.ptrim([0, 0, 0, 0, Fraction(m, 2) ** 4])
                if _gauss_poly(values[op_id]) != (want, []):
                    failures.append(f"Lorentz weight of four isolated chords at m={m} "
                                    f"!= (mp/2)^4")
        k = spec["direct_four"]
        op_id, ref = f"direct:{k}:m=0", f"fact:{basis[k]}:m=0"
        if _present(values, failed, op_id, ref) and (
                _gauss_poly(values[op_id]) != _gauss_poly(values[ref])):
            failures.append(f"direct and factorized routes differ on {basis[k]}, m=0")
    rank, m = spec["five_chord_lorentz"]
    for op_id in [f"5T-sl2:r{r}" for r in spec["five_chord_sl2"]] + [f"5T-fact:r{rank}:m={m}"]:
        if _present(values, failed, op_id) and _gauss_poly(values[op_id]) != ([], []):
            failures.append(f"{op_id}: weight of a 5-chord four-term generator is not zero")
    k, m = spec["direct_three"]
    a, b = f"direct3:{k}:m={m}", f"fact3:{k}:m={m}"
    if _present(values, failed, a, b) and _gauss_poly(values[a]) != _gauss_poly(values[b]):
        failures.append(f"direct and factorized routes differ on 3-chord diagram {k}, m={m}")
    for n in spec["quotient_ns"]:
        op_id = f"qdim:{n}"
        if _present(values, failed, op_id) and values[op_id] != workloads.QUOTIENT_DIMENSIONS[n]:
            failures.append(f"quotient dimension {values[op_id]} at n={n}, "
                            f"expected {workloads.QUOTIENT_DIMENSIONS[n]}")
    for m in spec["casimir_ms"]:
        for side, sign in (("left", 1), ("right", -1)):
            op_id = f"casimir-{side}:{m}"
            if _present(values, failed, op_id) and (
                    _gauss_poly(values[op_id]) != (_casimir(m, sign), [])):
                failures.append(f"{side} Casimir eigenvalue at m={m} != "
                                f"(p^2 {'+' if sign > 0 else '-'} 2mp + m^2 - 1)/8")
    return failures


def check_round(spec, values, failed, x_oracle=None):
    workload = spec["workload"]
    if workload == "spin-expansion":
        return check_spin(spec, values, failed)
    if workload == "braid-sum":
        return check_braid(spec, values, failed, x_oracle)
    return check_weights(spec, values, failed)
