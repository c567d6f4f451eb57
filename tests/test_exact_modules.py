"""The exact pipelines stay exact: no float library behind their backs."""

import ast
import importlib
import inspect
import pkgutil
import types

import pytest

import lorentzknots

# Every module but scalars, which keeps mpmath only for the ``precision``
# context that the benchmark worker still enters.
EXACT_MODULES = sorted(
    info.name for info in pkgutil.iter_modules(lorentzknots.__path__)
    if info.name != "scalars"
)


def _imported_names(source):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


@pytest.mark.parametrize("name", EXACT_MODULES)
def test_module_does_not_import_mpmath(name):
    module = importlib.import_module(f"lorentzknots.{name}")
    imported = list(_imported_names(inspect.getsource(module)))
    assert not [m for m in imported if m.split(".")[0] == "mpmath"]
    for value in vars(module).values():
        origin = value if isinstance(value, types.ModuleType) else inspect.getmodule(value)
        assert origin is None or not origin.__name__.startswith("mpmath"), value
