"""Spans around the package's public functions, for the traced run only.

A :class:`Tracer` wraps each listed function wherever a ``lorentzknots``
module has bound it (``q_factorial`` lives in ``series`` but is also bound
in ``jones`` and ``cg``), so calls between modules are seen as well as the
benchmark's own calls.  Each call records a span (name, start, end, parent)
in flat arrays kept in memory; :meth:`Tracer.write_spans` writes them out
when the round ends.  Per-name aggregates are kept on the fly: calls, self
time (span time minus the time of its child spans), the slowest span, and
for a few names the number of distinct argument tuples.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from functools import wraps

# (module, function) pairs that get spans.  The metric prefix is the module.
TRACED = (
    ("series", "q_factorial"),
    ("series", "q_integer"),
    ("series", "q_power"),
    ("series", "sqrt_series"),
    ("cg", "quantum_cg"),
    ("cg", "quantum_cg_decoupling"),
    ("cg", "lambda_coeff"),
    ("cg", "lambda_coeff_symbolic"),
    ("qlorentz", "g_action"),
    ("qlorentz", "braid_sum"),
    ("qlorentz", "trefoil_closed_sum"),
    ("jones", "jones_zero_framed"),
    ("jones", "jones_z_interpolated"),
    ("polynomials", "lagrange_interpolate"),
    ("invariants", "x_invariant"),
    ("weights", "phi_words"),
    ("weights", "lorentz_apply_word"),
    ("weights", "lambda_z_sl2"),
    ("weights", "lambda_mp_factorized"),
    ("weights", "lambda_mp_direct"),
    ("diagrams", "four_t_generators"),
    ("diagrams", "coproduct"),
    ("diagrams", "quotient_dimension"),
)

# Names whose distinct argument tuples are counted (distinct / calls shows
# how much a memo table could save).
DISTINCT = {"series.q_factorial", "cg.quantum_cg", "qlorentz.g_action"}


class _Stats:
    __slots__ = ("calls", "self_s", "max_s", "words", "numeric_self_s",
                 "symbolic_self_s", "distinct")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.max_s = 0.0
        self.words = 0
        self.numeric_self_s = 0.0
        self.symbolic_self_s = 0.0
        self.distinct = set()


class Tracer:
    """Installs span-recording wrappers into the package's modules."""

    def __init__(self):
        self.names = []
        self.stats = {}
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self._stack = []  # [span index, child time]
        self._installed = []

    def install(self, package="lorentzknots"):
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        stats = self.stats[name] = _Stats()
        count_distinct = name in DISTINCT
        count_words = name == "weights.phi_words"
        split_p = name == "qlorentz.braid_sum"
        stack = self._stack
        starts, ends, name_ids, parents = (
            self.starts, self.ends, self.name_ids, self.parents,
        )
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if count_distinct:
                stats.distinct.add((args, tuple(sorted(kwargs.items()))))
            index = len(starts)
            parents.append(stack[-1][0] if stack else -1)
            name_ids.append(name_id)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            starts.append(start)
            ends.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                ends[index] = end
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                stats.calls += 1
                stats.self_s += own
                if duration > stats.max_s:
                    stats.max_s = duration
                if split_p:
                    if args[1] == "symbolic":
                        stats.symbolic_self_s += own
                    else:
                        stats.numeric_self_s += own
            if count_words:
                stats.words += len(result)
            return result

        return wrapper

    def summary(self):
        """Aggregates per traced name, JSON-ready."""
        out = {}
        for name, s in self.stats.items():
            out[name] = {
                "calls": s.calls,
                "self_s": s.self_s,
                "max_s": s.max_s,
                "words": s.words,
                "numeric_self_s": s.numeric_self_s,
                "symbolic_self_s": s.symbolic_self_s,
                "distinct": len(s.distinct),
            }
        return out

    def write_spans(self, path):
        """Write every span as one JSON document: names plus flat columns."""
        doc = {
            "names": self.names,
            "name_id": list(self.name_ids),
            "parent": list(self.parents),
            "start_s": [round(x - self.starts[0], 9) for x in self.starts]
            if self.starts else [],
            "duration_s": [round(e - s, 9) for s, e in zip(self.starts, self.ends)],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        return len(self.starts)
