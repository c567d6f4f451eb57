"""Benchmark of both lorentzknots pipelines, checked by independent oracles.

Usage, from the root of a checkout:

    python3 bench/run.py --workload spin-expansion --seed 1 --seconds 30 --trace 0

Workloads: spin-expansion, braid-sum, weight-systems (see README.md).  Each
round runs the workload's jobs in a fresh single-threaded interpreter
(bench/worker.py), so every memo table starts cold, as in a CLI call.
Rounds repeat while another one fits in ``--seconds``; at least one runs
(two with tracing, one plain and one traced).  Every round's results are
checked against oracles that share no code with the package (checks.py,
oracles.py).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (medians over rounds): wall_s, setup_s, peak_rss_mb,
the times rescaled to a nominal machine speed by the worker's gauge (see
README.md, "Machine-speed gauge").
With ``--trace 1`` plain and traced rounds alternate and the metrics are the
per-layer ones of the traced rounds plus trace.overhead_s.  A results file
and, for traced runs, a span file are written under bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import workloads  # noqa: E402

# Time of one gauge slice (worker.gauge) on the machine the reference figures
# in README.md come from; timings are reported at that machine speed.
GAUGE_NOMINAL_S = 0.0035
# Set-up is sampled at least this often per run; workloads with few rounds
# add workers that only import the package.
MIN_SETUP_SAMPLES = 7
READY_TIMEOUT_S = 30
ROUND_TIMEOUT_S = 100


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------


def _worker(root, request):
    """Start a worker, time it to ``ready``, send the request, return
    (set-up seconds, decoded result)."""
    # a fixed hash seed makes set iteration in the braid walk, and with it
    # the order of float sums, the same in every round
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), root],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, cwd=root, text=True,
    )
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(READY_TIMEOUT_S):
                raise BenchError("worker did not get ready in time")
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        if line.strip() != "ready":
            _, err = proc.communicate(timeout=READY_TIMEOUT_S)
            raise BenchError(f"worker failed to start:\n{line}{err}")
        out, err = proc.communicate(json.dumps(request) + "\n", timeout=ROUND_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}:\n{err}")
        lines = out.strip().splitlines()
        return setup, json.loads(lines[-1]) if lines else None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def _x_oracle(root, spec):
    """Exact X(0, p) per knot type from the spin pipeline, untimed."""
    _, result = _worker(root, {"mode": "oracle-x", "spec": spec})
    bad = [op for op in result["ops"] if not op["ok"]]
    if bad:
        raise BenchError(f"X(0, p) for the braid-sum checks failed: {bad}")
    oracle = {}
    for knot_type, series in result["values"].items():
        if any(Fraction(im) for poly in series for _, im in poly):
            raise BenchError(f"X(0, p) of {knot_type} has non-real coefficients")
        oracle[knot_type] = [[Fraction(re) for re, _ in poly] for poly in series]
    return oracle


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


PER_LAYER = (
    *[f"series.{f}.{x}" for f in ("q_factorial", "q_integer", "q_power", "sqrt_series")
      for x in ("calls", "self_s")],
    "series.q_factorial.distinct_share",
    *[f"cg.{f}.{x}" for f in ("quantum_cg", "quantum_cg_decoupling", "lambda_coeff",
                              "lambda_coeff_symbolic") for x in ("calls", "self_s")],
    "cg.quantum_cg.distinct_share",
    "cg.cache_entries",
    "qlorentz.g_action.calls", "qlorentz.g_action.self_s",
    "qlorentz.g_action.distinct_share",
    "qlorentz.braid_sum.calls", "qlorentz.braid_sum.numeric_self_s",
    "qlorentz.braid_sum.symbolic_self_s",
    "qlorentz.trefoil_closed_sum.self_s",
    "jones.jones_zero_framed.calls", "jones.jones_zero_framed.self_s",
    "jones.jones_zero_framed.max_s",
    "jones.jones_z_interpolated.self_s",
    "polynomials.lagrange_interpolate.calls", "polynomials.lagrange_interpolate.self_s",
    "invariants.x_invariant.self_s",
    "weights.phi_words.calls", "weights.phi_words.words", "weights.phi_words.self_s",
    "weights.lorentz_apply_word.calls", "weights.lorentz_apply_word.self_s",
    *[f"weights.{f}.self_s" for f in ("lambda_z_sl2", "lambda_mp_factorized",
                                      "lambda_mp_direct")],
    *[f"diagrams.{f}.self_s" for f in ("four_t_generators", "coproduct",
                                       "quotient_dimension")],
    "diagrams.coproduct.calls",
)


def _layer_value(rnd, metric):
    if metric == "cg.cache_entries":
        return rnd["cache_entries"]
    name, field = metric.rsplit(".", 1)
    stats = rnd["trace"][name]
    if field == "distinct_share":
        return stats["distinct"] / stats["calls"] if stats["calls"] else 0.0
    return stats[field]


def _unit(metric):
    field = metric.rsplit(".", 1)[1]
    if field.endswith("_s"):
        return "s"
    return "ratio" if field == "distinct_share" else "count"


def _layer_metrics(traced_rounds):
    """Per-layer metrics: medians over the traced rounds."""
    return {
        metric: {"value": statistics.median(_layer_value(r, metric) for r in traced_rounds),
                 "unit": _unit(metric)}
        for metric in PER_LAYER
    }


def _wall(rnd):
    """The round's wall time at the nominal machine speed."""
    return rnd["wall_s"] * GAUGE_NOMINAL_S / rnd["gauge_s"]


def _end_to_end(plain_rounds, setups):
    """Medians over rounds (set-up: over every worker started).  Times are
    divided by the machine's speed that the gauge measured, so they read as
    seconds on a machine where one gauge slice takes GAUGE_NOMINAL_S; the
    raw times stay in the results file."""
    speed = statistics.median(r["gauge_s"] for r in plain_rounds) / GAUGE_NOMINAL_S
    return {
        "wall_s": statistics.median(_wall(r) for r in plain_rounds),
        "setup_s": statistics.median(setups) / speed,
        "peak_rss_mb": statistics.median(r["rss_kb"] / 1024 for r in plain_rounds),
    }


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def _git_sha(root):
    """Commit of the checkout read from .git without running git; None when
    the checkout is not a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def _provenance(root):
    import mpmath.libmp

    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def run(root, workload, seed, seconds, trace):
    spec = workloads.build_spec(workload, seed)
    x_oracle = _x_oracle(root, spec) if workload == "braid-sum" else None
    results_dir = os.path.join(BENCH_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    spans_path = os.path.join(results_dir, f"spans-{workload}-seed{seed}.json")

    rounds = []
    window_start = time.perf_counter()
    while True:
        traced = bool(trace) and len(rounds) % 2 == 1
        request = {"mode": "round", "spec": spec, "trace": traced,
                   "spans_path": spans_path if traced and not any(
                       r["traced"] for r in rounds) else None}
        round_start = time.perf_counter()
        setup, result = _worker(root, request)
        failed = {op["id"] for op in result["ops"] if not op["ok"]}
        problems = checks.check_round(spec, result["values"], failed, x_oracle)
        rounds.append({
            "traced": traced,
            "setup_s": setup,
            "wall_s": result["wall_s"],
            "rss_kb": result["rss_kb"],
            "gauge_s": result["gauge_s"],  # mean time of one gauge slice
            "round_s": time.perf_counter() - round_start,
            "ops": result["ops"],
            "problems": problems,
            "trace": result.get("trace"),
            "cache_entries": result.get("cache_entries"),
        })
        elapsed = time.perf_counter() - window_start
        longest = max(r["round_s"] for r in rounds)
        have_both = not trace or any(r["traced"] for r in rounds)
        if have_both and elapsed + longest > seconds:
            break

    plain = [r for r in rounds if not r["traced"]]
    traced_rounds = [r for r in rounds if r["traced"]]
    setups = [r["setup_s"] for r in plain]
    while not trace and len(setups) < MIN_SETUP_SAMPLES:
        setups.append(_worker(root, {"mode": "setup"})[0])
    e2e = _end_to_end(plain, setups)
    if trace:
        metrics = _layer_metrics(traced_rounds)
        metrics["trace.overhead_s"] = {
            "value": statistics.median(_wall(r) for r in traced_rounds) - e2e["wall_s"],
            "unit": "s",
        }
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in e2e.items()}
    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(1 for r in rounds for op in r["ops"] if not op["ok"])
    problems = [p for r in rounds for p in r["problems"]]
    summary = {"correct": not problems, "attempted": attempted, "failed": failed,
               "metrics": metrics}

    record = {
        "provenance": _provenance(root),
        "args": {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace},
        "spec": spec,
        "summary": summary,
        "problems": problems,
        "rounds": [{k: v for k, v in r.items() if k != "problems"} for r in rounds],
        "setups": setups,
    }
    path = os.path.join(results_dir, f"{workload}-seed{seed}-trace{int(bool(trace))}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # let a terminated run still stop its worker (see _worker's finally)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lorentzknots", "__init__.py")):
        print(f"error: no package source at {os.path.join(root, 'src', 'lorentzknots')}; "
              "run from the root of a lorentzknots checkout", file=sys.stderr)
        return 2
    try:
        summary = run(root, args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
