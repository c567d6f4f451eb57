"""The names the benchmark harness (``bench/``) reads from the package.

A traced run wraps every function in ``bench/tracing.TRACED`` and the worker
reads a few module attributes; a renamed or deleted one would otherwise
break only a benchmark run, and only at run time.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _worker_names():
    text = (BENCH / "worker.py").read_text()
    return sorted(set(re.findall(r"\bpkg\.(\w+)\.(\w+)", text)))


@pytest.mark.parametrize("module, name", _tracing().TRACED)
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"lorentzknots.{module}"), name))


@pytest.mark.parametrize("module, name", _worker_names())
def test_worker_attribute_exists(module, name):
    assert hasattr(importlib.import_module(f"lorentzknots.{module}"), name)


def test_worker_reads_the_named_attributes():
    names = _worker_names()
    for pair in ("qlorentz", "SYMBOLIC"), ("scalars", "precision"), ("cg", "cache_state"):
        assert pair in names


def _bench_module(name, monkeypatch):
    """A bench module loaded by path, with ``bench/`` importable beside it."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_worker_prints_exact_braid_sums_that_the_checks_parse(monkeypatch):
    # The worker prints each coefficient's real and imaginary parts with
    # mpmath.nstr and the checks parse them back with mpmath.mpf; exact
    # results must survive both steps.
    from fractions import Fraction
    from types import SimpleNamespace

    import mpmath

    from lorentzknots.braids import parse_braid
    from lorentzknots.qlorentz import SYMBOLIC, braid_sum, trefoil_closed_sum

    worker = _bench_module("worker", monkeypatch)
    checks = _bench_module("checks", monkeypatch)
    trefoil = parse_braid("s1 s1 s1", 2)
    raw = {
        "trefoil:p=2": braid_sum(trefoil, 2, 1),
        "trefoil:p=symbolic": braid_sum(trefoil, SYMBOLIC, 1),
        "closed:p=2": trefoil_closed_sum(2, 2),
    }
    spec = {"digits": 60}
    printed = worker.serialize_braid(SimpleNamespace(raw=raw), spec)

    def exact_pairs(series):
        for c in series.coeffs:
            yield from ([(x.re, x.im) for x in c.coeffs] if hasattr(c, "coeffs")
                        else [(c.re, c.im)])

    def printed_pairs(values):
        for c in values:
            yield from ([c] if c and isinstance(c[0], str) else c)

    with mpmath.workdps(spec["digits"] + 20):
        for op_id, series in raw.items():
            exact = list(exact_pairs(series))
            strings = list(printed_pairs(printed[op_id]))
            assert len(exact) == len(strings) and exact
            for (re, im), pair in zip(exact, strings):
                assert [Fraction(s) for s in pair] == [re, im]
                want = [mpmath.mpf(mpmath.libmp.from_rational(
                    x.numerator, x.denominator, mpmath.mp.prec, "n")) for x in (re, im)]
                assert checks._big(pair) == mpmath.mpc(*want)
