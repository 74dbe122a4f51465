"""Exact root-system combinatorics and characteristic-p matrix calculus.

Four areas, all over exact integers and rationals:

* ``rootsys``: irreducible root systems A-G generated by reverse
  search, Coxeter numbers three independent ways, good primes, and
  grading degrees for parabolic subsets.
* ``alcove``: homomorphisms from the root lattice to Q/Z, reduction of
  rational coweight points to the fundamental alcove, and the selection
  of a basis making every root in the window (0, 1/h) positive, with a
  brute-force chamber oracle for cross-checking.
* ``heights``: heights of dominant weights by two routes, minimal
  nontrivial heights, and composite general-linear heights; ``liep
  lowheight`` compares a height with p.
* ``charp`` / ``bch``: truncated exponential, logarithm, and binomial
  power series for p-nilpotent and p-unipotent matrices over Z/p, the
  truncated group law with exact rational bracket tables, scalar-shift
  nilpotent lifts, and weighted cyclic-shift examples.

Each name and submodule loads on first use, so ``import liep.charp`` never
loads the root-system modules; ``from liep import X`` works as before.

The ``liep`` command line exposes each operation with JSON output; see
``liep --help``.
"""

import importlib

__version__ = "0.1.0"

# The names the package re-exports, by the submodule that defines them.
_EXPORTS = {
    "alcove": (
        "BasisChoice",
        "CoweightPoint",
        "PhiHom",
        "ReductionTranscript",
        "WindowReport",
        "boundary_roots",
        "critical_roots",
        "lift",
        "mu_pj_restriction",
        "oracle_valid_bases",
        "reduce_to_alcove",
        "same_basis",
        "window_basis",
        "window_basis_report",
    ),
    "charp": (
        "BchTable",
        "FpMatrix",
        "HeisenbergReport",
        "WeightGradingReport",
        "bch_apply",
        "bch_table",
        "cyclic_shift_matrix",
        "heisenberg_module_check",
        "nilpotent_p_power_check",
        "pgl_nilpotent_lift",
        "t_power",
        "trunc_exp",
        "trunc_log",
        "weight_space_demo",
    ),
    "errors": ("ContractError",),
    "heights": (
        "HeightReport",
        "composite_gl_height",
        "dynkin_height",
        "min_nontrivial_height",
        "semisimplicity_bound_ok",
    ),
    "rootsys": (
        "ParabolicDegrees",
        "RootSystem",
        "RootVec",
        "WeightVec",
        "build",
        "coxeter_via_element",
        "coxeter_via_marks",
        "coxeter_via_rho",
        "fundamental_weight",
        "is_good_prime",
        "parabolic_degrees",
        "root_height",
    ),
}
_SUBMODULES = ("alcove", "bch", "charp", "errors", "heights", "primes", "rootsys")
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SUBMODULES, *_OWNER]


def __getattr__(name: str):
    # Nothing is stored in the package's globals, so a name patched in its
    # submodule (and later restored) reads through here as it stands now.
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _OWNER:
        return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
