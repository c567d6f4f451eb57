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
