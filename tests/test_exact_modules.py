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


def test_importing_the_package_loads_no_mpmath():
    # A fresh interpreter: this test session has loaded mpmath itself.
    names = ", ".join(f"lorentzknots.{name}" for name in MODULES)
    code = f"import sys, {names}; print('mpmath' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        cwd=os.path.dirname(lorentzknots.__path__[0]),
    )
    assert result.stdout.strip() == "False"
