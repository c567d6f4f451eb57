"""One round of a workload in a fresh interpreter, so every memo table is cold.

Protocol (driven by run.py): the worker imports the package from
``<root>/src``, prints ``ready`` (the parent's set-up clock stops there),
reads one JSON request line from stdin and acts on its ``mode``:

* ``round``: run the spec's jobs (traced if ``trace``) and print one JSON
  result line;
* ``oracle-x``: compute X(0, p) of the spec's ``x_knots`` for the checks;
* ``setup``: exit at once (a set-up sample only).

Results leave the worker as strings of exact rationals or of
high-precision decimals, so the checks in the parent need no package code.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from fractions import Fraction


def _import_package(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import lorentzknots  # noqa: F401
    from lorentzknots import (  # noqa: F401
        braids, cg, diagrams, invariants, jones, polynomials, qlorentz,
        scalars, series, weights,
    )

    where = os.path.realpath(lorentzknots.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"lorentzknots imported from {where}, not from {src}")
    return sys.modules["lorentzknots"]


# ---------------------------------------------------------------------------
# Serialization (after the timed phase)
# ---------------------------------------------------------------------------


def _gr(c):
    return [str(c.re), str(c.im)]


def _poly(p):
    return [_gr(c) for c in p.coeffs]


def _poly_series(s):
    return [_poly(p) for p in s.coeffs]


def _big(z, digits):
    import mpmath

    return [mpmath.nstr(z.real, digits), mpmath.nstr(z.imag, digits)]


def _big_series(s, digits):
    out = []
    for c in s.coeffs:
        if hasattr(c, "coeffs"):  # a polynomial in p with float coefficients
            out.append([_big(x, digits) for x in c.coeffs])
        else:
            out.append(_big(c, digits))
    return out


def _diagram_sum(gen):
    return [[d.gauss_text()] + _gr(c) for d, c in gen.items()]


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------


def gauge():
    """Time of a fixed slice of exact arithmetic (about 3 ms), run before
    every operation: the mean over a round tracks how fast the machine ran
    during it, so run.py can take the machine's speed swings out of the
    timings."""
    start = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 400):
        acc += Fraction(k, k + 1) * Fraction(2 * k + 1, 3)
    return time.perf_counter() - start


class Round:
    """Runs operations, recording time and failure of each."""

    def __init__(self):
        self.ops = []
        self.raw = {}
        self.gauge_s = 0.0
        self.gauge_samples = 0

    def op(self, op_id, fn, *args):
        self.gauge_s += gauge()
        self.gauge_samples += 1
        start = time.perf_counter()
        try:
            value = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.ops.append({"id": op_id, "ok": False,
                             "s": time.perf_counter() - start,
                             "error": f"{type(exc).__name__}: {exc}"})
            return None
        self.ops.append({"id": op_id, "ok": True, "s": time.perf_counter() - start})
        self.raw[op_id] = value
        return value


def _braid(pkg, entry):
    return pkg.braids.BraidWord(entry["strands"], tuple(map(tuple, entry["letters"])))


def run_spin(pkg, spec, rnd):
    order = spec["order"]
    for knot in spec["knots"]:
        b = _braid(pkg, knot)
        rnd.op(f"{knot['name']}:jones", pkg.jones.jones_z_interpolated, b, order)
        rnd.op(f"{knot['name']}:x", pkg.invariants.x_invariant, b, 0, order)


def serialize_spin(rnd):
    out = {}
    for op_id, value in rnd.raw.items():
        out[op_id] = _poly_series(value if op_id.endswith(":jones") else value.series)
    return out


def run_braid(pkg, spec, rnd):
    order = spec["order"]
    with pkg.scalars.precision(spec["digits"]):
        for word in spec["words"]:
            b = _braid(pkg, word)
            for p in spec["ps"]:
                arg = pkg.qlorentz.SYMBOLIC if p == "symbolic" else p
                rnd.op(f"{word['name']}:p={p}", pkg.qlorentz.braid_sum, b, arg, order)
        for p in spec["closed_ps"]:
            rnd.op(f"closed:p={p}", pkg.qlorentz.trefoil_closed_sum, p, order)


def serialize_braid(rnd, spec):
    digits = spec["digits"] + 15
    return {op_id: _big_series(v, digits) for op_id, v in rnd.raw.items()}


def run_oracle_x(pkg, spec, rnd):
    for knot in spec["x_knots"]:
        rnd.op(knot["knot_type"], pkg.invariants.x_invariant, _braid(pkg, knot), 0,
               spec["order"])


def run_weights(pkg, spec, rnd):
    d, w = pkg.diagrams, pkg.weights
    gens4 = rnd.op("four_t_generators:4", d.four_t_generators, 4)
    gens5 = rnd.op("four_t_generators:5", d.four_t_generators, 5)
    basis4 = rnd.op("enumerate_diagrams:4", d.enumerate_diagrams, 4)
    basis3 = rnd.op("enumerate_diagrams:3", d.enumerate_diagrams, 3)
    # Characters on every 4-chord diagram; the checks sum them over each of
    # the 25 four-term generators.
    for diagram in basis4 or ():
        text = diagram.gauss_text()
        rnd.op(f"sl2:{text}", w.lambda_z_sl2, diagram)
        for m in spec["character_ms"]:
            rnd.op(f"fact:{text}:m={m}", w.lambda_mp_factorized, diagram, m)
    four_term = [g for g in gens5 or () if len(g.terms) == 4]
    for rank in spec["five_chord_sl2"]:
        gen = four_term[rank % len(four_term)] if four_term else None
        rnd.op(f"5T-sl2:r{rank}", w.lambda_z_sl2, gen)
    rank, m = spec["five_chord_lorentz"]
    gen = four_term[rank % len(four_term)] if four_term else None
    rnd.op(f"5T-fact:r{rank}:m={m}", w.lambda_mp_factorized, gen, m)
    k = spec["direct_four"]
    rnd.op(f"direct:{k}:m=0", w.lambda_mp_direct, basis4[k] if basis4 else None, 0)
    k, m = spec["direct_three"]
    diagram = basis3[k] if basis3 else None
    rnd.op(f"direct3:{k}:m={m}", w.lambda_mp_direct, diagram, m)
    rnd.op(f"fact3:{k}:m={m}", w.lambda_mp_factorized, diagram, m)
    for n in spec["quotient_ns"]:
        rnd.op(f"qdim:{n}", d.quotient_dimension, n)
    for m in spec["casimir_ms"]:
        rnd.op(f"casimir-left:{m}", w.lorentz_quadratic_eigenvalue,
               w.CASIMIR_LEFT_TERMS, m)
        rnd.op(f"casimir-right:{m}", w.lorentz_quadratic_eigenvalue,
               w.CASIMIR_RIGHT_TERMS, m)


def serialize_weights(rnd, spec):
    out = {}
    for op_id, value in rnd.raw.items():
        if op_id.startswith("four_t_generators"):
            out[op_id] = [_diagram_sum(g) for g in value]
        elif op_id.startswith("enumerate_diagrams"):
            out[op_id] = [x.gauss_text() for x in value]
        elif op_id.startswith("qdim"):
            out[op_id] = value
        else:
            out[op_id] = _poly(value)
    return out


RUNNERS = {
    "spin-expansion": (run_spin, lambda rnd, spec: serialize_spin(rnd)),
    "braid-sum": (run_braid, serialize_braid),
    "weight-systems": (run_weights, serialize_weights),
}


def main(argv):
    root = argv[1]
    pkg = _import_package(root)
    print("ready", flush=True)
    request = json.loads(sys.stdin.readline())
    if request["mode"] == "setup":
        return 0
    spec = request["spec"]
    rnd = Round()

    if request["mode"] == "oracle-x":
        run_oracle_x(pkg, spec, rnd)
        values = {k: _poly_series(v.series) for k, v in rnd.raw.items()}
        print(json.dumps({"ops": rnd.ops, "values": values}), flush=True)
        return 0

    run, serialize = RUNNERS[spec["workload"]]
    tracer = None
    if request.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    start, cpu_start = time.perf_counter(), time.process_time()
    run(pkg, spec, rnd)
    wall = time.perf_counter() - start - rnd.gauge_s
    cpu = time.process_time() - cpu_start - rnd.gauge_s
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"wall_s": wall, "cpu_s": cpu, "rss_kb": rss_kb, "ops": rnd.ops,
              "gauge_s": rnd.gauge_s / rnd.gauge_samples}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        result["cache_entries"] = sum(pkg.cg.cache_state())
        if request.get("spans_path"):
            result["spans"] = tracer.write_spans(request["spans_path"])
    result["values"] = serialize(rnd, spec)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
