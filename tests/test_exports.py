"""Every public name the package lists resolves.

A deletion that forgets a module's ``__all__`` or a re-export in
``schurlab/__init__.py`` fails here, not in a user's ``import *``.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import schurlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(schurlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"schurlab.{name}")
    listed = getattr(module, "__all__", ())
    assert len(set(listed)) == len(listed), f"schurlab.{name}.__all__ lists a name twice"
    missing = [entry for entry in listed if not hasattr(module, entry)]
    assert not missing, f"schurlab.{name}.__all__ lists missing names {missing}"


def test_every_package_reexport_resolves():
    tree = ast.parse(Path(schurlab.__file__).read_text(encoding="utf-8"))
    reexports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert reexports
    for module_name, name in reexports:
        module = importlib.import_module(f"schurlab.{module_name}")
        assert getattr(schurlab, name) is getattr(module, name), f"schurlab.{name}"
