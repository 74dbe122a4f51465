"""The public surface: every advertised name exists, so no export outlives its function."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import liep

MODULES = sorted(m.name for m in pkgutil.iter_modules(liep.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_export(name):
    module = importlib.import_module(f"liep.{name}")
    namespace = {}
    exec(f"from liep.{name} import *", namespace)
    for export in getattr(module, "__all__", ()):
        assert hasattr(module, export), f"liep.{name}.__all__ names missing {export!r}"
        assert namespace[export] is getattr(module, export)


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(liep.__file__).read_text())
    imported = [(node.module, alias.name) for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names if node.module]
    assert imported
    for module_name, name in imported:
        module = importlib.import_module(f"liep.{module_name}")
        assert getattr(liep, name) is getattr(module, name)
        assert name in getattr(module, "__all__", (name,)), f"liep.{module_name} does not export {name!r}"
