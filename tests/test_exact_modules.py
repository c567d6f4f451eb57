"""The package stays exact and stands alone: it imports only the standard library."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import types

import pytest

import lorentzknots

MODULES = sorted(info.name for info in pkgutil.iter_modules(lorentzknots.__path__))


def _imported_names(source):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_only_the_standard_library(name):
    module = importlib.import_module(f"lorentzknots.{name}")
    allowed = sys.stdlib_module_names | {"lorentzknots"}
    outside = [
        m for m in _imported_names(inspect.getsource(module))
        if not m.startswith(".") and m.split(".")[0] not in allowed
    ]
    assert not outside


@pytest.mark.parametrize("name", MODULES)
def test_module_does_not_import_mpmath(name):
    module = importlib.import_module(f"lorentzknots.{name}")
    for value in vars(module).values():
        origin = value if isinstance(value, types.ModuleType) else inspect.getmodule(value)
        assert origin is None or not origin.__name__.startswith("mpmath"), value


def _loaded_after_importing_the_package(module):
    # A fresh interpreter: this test process has loaded mpmath and
    # dataclasses itself.
    names = ", ".join(f"lorentzknots.{name}" for name in MODULES)
    code = f"import sys, {names}; print({module!r} in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        cwd=os.path.dirname(lorentzknots.__path__[0]),
    )
    return result.stdout.strip() == "True"


def test_importing_the_package_loads_no_mpmath():
    assert not _loaded_after_importing_the_package("mpmath")


def test_importing_the_package_loads_no_dataclasses():
    # The records (BraidWord, KnotPresentation, LorentzInvariant,
    # InfinitesimalRMatrix) are plain slotted classes: importing dataclasses
    # would add to the start-up of every process that uses the package.
    assert not _loaded_after_importing_the_package("dataclasses")


@pytest.mark.parametrize("name", MODULES)
def test_module_reads_no_memo_table(name):
    # A memo entry serves its own argument tuple only: no module reads a
    # memo's ``table`` to serve one key from another key's entry.
    module = importlib.import_module(f"lorentzknots.{name}")
    reads = [
        node.lineno
        for node in ast.walk(ast.parse(inspect.getsource(module)))
        if isinstance(node, ast.Attribute)
        and node.attr == "table"
        and isinstance(node.ctx, ast.Load)
    ]
    assert not reads


def test_jones_imports_neither_weights_nor_scalars():
    # The spin pipeline computes on the integer jets of series; its kink
    # factor is a closed-form q-power, tied to the weights by the tests.
    from lorentzknots import jones

    names = set(_imported_names(inspect.getsource(jones)))
    assert not names & {".weights", ".scalars", "lorentzknots.weights", "lorentzknots.scalars"}
