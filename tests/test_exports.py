"""Package surface: every exported name resolves, so a deleted class or
function cannot linger in ``__all__``."""
import importlib

import pytest


@pytest.mark.parametrize("module_name", ["cemsim", "cemsim.models"])
def test_star_import_binds_every_exported_name(module_name):
    module = importlib.import_module(module_name)
    namespace = {}
    exec(f"from {module_name} import *", namespace)  # AttributeError on a stale name
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if name not in namespace] == []
