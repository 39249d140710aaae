"""Package surface: every exported name resolves, so a deleted class or
function cannot linger in ``__all__``, and the package exports lazily:
``import cemsim`` loads no submodule, and ``cemsim.X`` is the defining
module's ``X``."""
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import cemsim

SUBMODULES = ("cli", "control", "core", "engine", "forecast", "models", "replay", "scenario")


@pytest.mark.parametrize("module_name", ["cemsim"])
def test_star_import_binds_every_exported_name(module_name):
    module = importlib.import_module(module_name)
    namespace = {}
    exec(f"from {module_name} import *", namespace)  # AttributeError on a stale name
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if name not in namespace] == []


def test_every_name_resolves_to_its_defining_modules_object():
    """A class or function is its defining module's object (``__module__``);
    any other export (a constant) is the object of the one submodule that
    binds the name without importing it from another.  A submodule name
    is the submodule."""
    for name in SUBMODULES:
        assert getattr(cemsim, name) is importlib.import_module(f"cemsim.{name}"), name
    modules = [sys.modules[name] for name in sorted(sys.modules) if name.startswith("cemsim.")]
    for name in cemsim.__all__:
        value = getattr(cemsim, name)
        home = getattr(value, "__module__", None)
        if home is None or not home.startswith("cemsim."):
            # a constant: every module that holds the name holds this object
            holders = [module for module in modules if hasattr(module, name)]
            assert holders and all(getattr(module, name) is value for module in holders), name
        else:
            assert getattr(sys.modules[home], name) is value, name


def test_dir_lists_every_export_and_an_unknown_name_raises():
    listed = dir(cemsim)
    assert set(cemsim.__all__) <= set(listed)
    assert set(SUBMODULES) <= set(listed)
    assert listed == sorted(listed)
    with pytest.raises(AttributeError, match="module 'cemsim' has no attribute 'no_such_name'"):
        cemsim.no_such_name
    assert not hasattr(cemsim, "STEP_HEADER")  # a submodule's name that is not exported


def test_a_bare_import_loads_no_submodule():
    src = str(Path(cemsim.__file__).resolve().parents[1])
    probe = "import sys, cemsim; print(sorted(name for name in sys.modules if name.startswith('cemsim.')))"
    done = subprocess.run([sys.executable, "-c", probe], cwd=src, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
