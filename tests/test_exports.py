"""Public names: every entry of each __all__ imports and resolves."""

import importlib

import pytest


@pytest.mark.parametrize("module_name", ["kummer_asym"])
def test_star_import_binds_every_public_name(module_name):
    module = importlib.import_module(module_name)
    namespace = {}
    exec(f"from {module_name} import *", namespace)
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name)
