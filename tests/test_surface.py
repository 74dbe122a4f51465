"""The public surface: every advertised name exists, so no export outlives its function."""

import ast
import importlib
import pkgutil
import re
import sys
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


def test_package_imports_only_the_standard_library():
    # numpy or sympy may be installed alongside, so an accidental import would pass every other test
    imported = set()
    for path in sorted(Path(liep.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module)
    assert "__future__" in imported
    outside = sorted(m for m in imported if m.partition(".")[0] not in sys.stdlib_module_names)
    assert not outside, f"liep imports {outside} from outside the standard library"


def test_readme_quick_tour_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"^## Library quick tour\n+```python\n(.*?)^```$", readme, re.M | re.S)
    assert tour, "README.md has no python block under '## Library quick tour'"
    exec(compile(tour.group(1), "README.md (Library quick tour)", "exec"), {})
