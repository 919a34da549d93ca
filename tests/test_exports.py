"""Export hygiene: every __all__ lists only names its module defines, and the
package re-exports only names its modules export."""

import importlib
import inspect

import pytest

import horocount

MODULES = ("arith", "field", "ideals", "counting", "geodesics", "cli")


def _all(name):
    module = importlib.import_module(f"horocount.{name}")
    return module, getattr(module, "__all__", [])


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_are_defined_here(name):
    module, exported = _all(name)
    assert len(set(exported)) == len(exported), f"horocount.{name}.__all__ repeats a name"
    for attr in exported:
        assert hasattr(module, attr), f"horocount.{name}.__all__ names missing {attr}"
        # a function or class listed here but defined elsewhere is a stale re-export;
        # constants (strings, tuples) carry no __module__
        home = getattr(getattr(module, attr), "__module__", module.__name__)
        assert home == module.__name__, f"horocount.{name}.__all__ lists {attr}, from {home}"


def test_package_reexports_module_exports():
    for attr, obj in vars(horocount).items():
        if attr.startswith("_") or inspect.ismodule(obj):
            continue
        home = obj.__module__.rpartition(".")[2]
        assert attr in _all(home)[1], f"horocount.{attr} is not in horocount.{home}.__all__"
