"""Every exported name exists, so ``from lorentzknots.<module> import *``
never fails on a stale ``__all__`` entry."""

import importlib
import pkgutil

import pytest

import lorentzknots

MODULES = ["lorentzknots"] + sorted(
    f"lorentzknots.{info.name}" for info in pkgutil.iter_modules(lorentzknots.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_defined(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
