"""The package's public names: every name a module lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import transmix

MODULES = ["transmix", *(f"transmix.{m.name}" for m in pkgutil.iter_modules(transmix.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_is_defined(name):
    # ``from <module> import *`` raises AttributeError on a listed name that is missing
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
