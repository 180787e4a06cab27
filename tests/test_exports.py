"""Every public name resolves: each module's ``__all__`` and the package re-exports.

The benchmark tracer walks each module's ``__all__`` with
``inspect.getattr_static``, so one stale entry would break every traced run.
"""

import importlib
import inspect
import pkgutil

import pytest

import idfusion

MODULES = sorted(m.name for m in pkgutil.iter_modules(idfusion.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"idfusion.{name}")
    for attr in getattr(mod, "__all__", ()):
        inspect.getattr_static(mod, attr)  # AttributeError names a stale entry


def test_package_reexports_are_public_names_of_their_modules():
    reexports = {
        attr: value
        for attr, value in vars(idfusion).items()
        if not attr.startswith("_") and not inspect.ismodule(value)
    }
    assert reexports
    for attr, value in reexports.items():
        home = importlib.import_module(getattr(value, "__module__", "idfusion"))
        assert attr in getattr(home, "__all__", ()), f"idfusion.{attr} is not in {home.__name__}.__all__"
        assert getattr(home, attr) is value
