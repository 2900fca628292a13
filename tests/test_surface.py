"""Every name a module exports resolves, so a removal leaves no stale export."""

import importlib

import pytest

MODULES = ["repeatkit", "repeatkit.numerics", "repeatkit.core", "repeatkit.specificity",
           "repeatkit.sensitivity", "repeatkit.mc", "repeatkit.cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
