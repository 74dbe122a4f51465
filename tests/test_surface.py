"""The public surface: every advertised name exists, so no export outlives its function."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
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
    assert liep._EXPORTS
    for module_name, names in liep._EXPORTS.items():
        module = importlib.import_module(f"liep.{module_name}")
        for name in names:
            assert getattr(liep, name) is getattr(module, name)
            assert name in module.__all__, f"liep.{module_name} does not export {name!r}"
    exported = [name for names in liep._EXPORTS.values() for name in names]
    assert len(liep.__all__) == len(set(liep.__all__))
    assert set(liep.__all__) == {*exported, *liep._SUBMODULES}


# Every attribute of ``import liep`` when the package imported its submodules eagerly.
PACKAGE_ATTRIBUTES = (
    "BasisChoice BchTable ContractError CoweightPoint FpMatrix HeightReport HeisenbergReport "
    "ParabolicDegrees PhiHom ReductionTranscript RootSystem RootVec WeightGradingReport WeightVec "
    "WindowReport alcove bch bch_apply bch_table boundary_roots build charp composite_gl_height "
    "coxeter_via_element coxeter_via_marks coxeter_via_rho critical_roots cyclic_shift_matrix "
    "dynkin_height errors fundamental_weight heights heisenberg_module_check is_good_prime lift "
    "min_nontrivial_height mu_pj_restriction nilpotent_p_power_check oracle_valid_bases "
    "parabolic_degrees pgl_nilpotent_lift primes reduce_to_alcove root_height rootsys same_basis "
    "semisimplicity_bound_ok t_power trunc_exp trunc_log weight_space_demo window_basis "
    "window_basis_report"
).split()


def test_every_former_package_attribute_still_resolves():
    assert len(PACKAGE_ATTRIBUTES) == 53
    assert set(PACKAGE_ATTRIBUTES) == set(liep.__all__)
    for name in PACKAGE_ATTRIBUTES:
        assert getattr(liep, name) is not None
    for name in liep._SUBMODULES:
        assert getattr(liep, name) is sys.modules[f"liep.{name}"]
    assert liep.__version__ == "0.1.0"


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from liep import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(liep.__all__)
    for name in liep.__all__:
        assert namespace[name] is getattr(liep, name)


def test_dir_lists_every_exported_name():
    assert set(liep.__all__) <= set(dir(liep))
    assert "__version__" in dir(liep)


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        liep.no_such_name


def test_a_name_reads_its_submodule_as_it_stands_now(monkeypatch):
    from liep import rootsys

    original = rootsys.build

    def patched(*args):
        return original(*args)

    monkeypatch.setattr(rootsys, "build", patched)
    assert liep.build is patched
    monkeypatch.undo()
    assert liep.build is original
    assert "build" not in vars(liep)


def _loaded_after(module, then=""):
    """The liep modules loaded by ``import module`` and then the statement ``then`` in a fresh
    interpreter (tier-1 has loaded them all)."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = (f"import sys, {module}\n{then}\n"
            "print(*(k for k in sys.modules if k == 'liep' or k.startswith('liep.')))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_each_submodule_loads_on_first_use_in_a_fresh_interpreter():
    assert _loaded_after("liep") == {"liep"}
    assert _loaded_after("liep.charp") == {"liep", "liep.bch", "liep.charp", "liep.errors", "liep.primes"}
    for weyl in ("liep.alcove", "liep.heights"):
        loaded = _loaded_after(weyl)
        assert weyl in loaded and not loaded & {"liep.charp", "liep.bch"}, loaded
    # the CLI loads the self-test only when its subcommand runs
    assert "liep.acceptance" not in _loaded_after("liep.cli")
    selftest = ("import contextlib, io\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert liep.cli.main(['selftest', '--trials', '1']) == 0")
    assert "liep.acceptance" in _loaded_after("liep.cli", selftest)


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
