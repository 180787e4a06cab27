"""Every public name resolves: each module's ``__all__``, the package re-exports and README's examples.

The benchmark tracer walks each module's ``__all__`` with
``inspect.getattr_static``, so one stale entry would break every traced run.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

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


def test_no_module_imports_another_modules_private_name():
    # a private name used across modules is a seam the tracer cannot see and the API does not promise
    src = Path(idfusion.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("idfusion")):
                found += [f"{path.stem}: from {node.module} import {a.name}" for a in node.names
                          if a.name.startswith("_")]
    assert found == []


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", (Path(__file__).parents[1] / "README.md").read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
