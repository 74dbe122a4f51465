"""Heights of highest-weight data, computed two independent ways.

The height of a dominant weight is its pairing with 2 rho^vee, the sum of
the positive coroots, read off one walk on the Cartan rows from -rho^vee.  It
is recomputed, on plain ints, as the coordinate total of the difference between
the weight and its antidominant Weyl conjugate over the simple roots;
``dynkin_height`` compares the two and reports both.

The greedy descent to that conjugate is the package's one dominance walk,
``rootsys._walk``, on the sparse Cartan columns: at most |Phi+| reflections,
each costing O(degree) and subtracting a known multiple of one simple root, so
the walk itself records the difference's root coordinates.  It reads no 2 rho^vee,
which ``RootSystem._two_rho_coroot`` checks once per system where it walks it; a
height costs O(|Phi+| + rank * degree) at any rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .errors import ContractError
from .primes import require_int, require_prime
from .rootsys import RootSystem, WeightVec, _walk, fundamental_weight

__all__ = [
    "HeightReport",
    "dynkin_height",
    "min_nontrivial_height",
    "composite_gl_height",
    "semisimplicity_bound_ok",
    "antidominant_conjugate",
]


def _descend(rs: RootSystem, weight: WeightVec) -> tuple[list[int], list[int]]:
    """The antidominant conjugate's coordinates, by greedy descent, and the root
    coordinates it subtracts: ``weight - conjugate = sum steps[i] alpha_i``.

    The descent is ``rootsys._walk`` on the sparse Cartan columns, run on the negated
    weight: each reflection, at the lowest positive coordinate l_i, subtracts ``l_i alpha_i``
    (``l_k -= C[k][i] l_i``), and the descent ends within |Phi+| of them, so running past
    them means an arithmetic bug.
    """
    z = [-x for x in weight.coords]
    _, steps = _walk(rs._cols, z, len(rs._index),
                     "antidominant descent exceeded the number of positive roots")
    return [-x for x in z], steps


def antidominant_conjugate(rs: RootSystem, weight: WeightVec) -> WeightVec:
    """The unique antidominant Weyl conjugate, by the greedy descent of ``_descend``."""
    rs._check_int_coords(weight.coords)
    return WeightVec(tuple(_descend(rs, weight)[0]))


@dataclass(frozen=True)
class HeightReport:
    """Height of a dominant weight with both computation routes exposed.

    ``height`` equals ``via_pairing``; ``via_difference`` recomputes it
    from ``weight - lambda_minus``.  ``dynkin_height`` returns a report
    only when the two agree.
    """

    height: int
    via_pairing: int
    via_difference: int
    lambda_minus: WeightVec


def dynkin_height(rs: RootSystem, weight: WeightVec) -> HeightReport:
    """Pairing of a dominant weight with the sum of the positive coroots.

    Route one contracts the weight against that coroot sum.  Route two
    descends to the antidominant conjugate and sums the simple-root
    coordinates that the descent subtracted.  Those coordinates, read back
    through the sparse rows of C, must give the weight minus its conjugate;
    a mismatch, and then any disagreement of the routes, is a ``ContractError``.
    """
    rs._check_int_coords(weight.coords)
    if not weight.is_dominant():
        raise ContractError(f"weight {weight.coords} is not dominant")
    two_rho = rs._two_rho_coroot
    via_pairing = sum(map(mul, weight.coords, two_rho))

    low, steps = _descend(rs, weight)
    for w, l, row in zip(weight.coords, low, rs._rows):
        if w - l != sum(c * steps[j] for j, c in row):
            raise ContractError("descent's root coordinates do not give weight minus its conjugate")
    via_difference = sum(steps)
    if via_pairing != via_difference:
        raise ContractError("height routes disagree")
    return HeightReport(via_pairing, via_pairing, via_difference, WeightVec(tuple(low)))


def min_nontrivial_height(rs: RootSystem) -> int:
    """Smallest height over the fundamental weights."""
    return min(
        dynkin_height(rs, fundamental_weight(rs, i)).height
        for i in range(1, rs.rank + 1)
    )


def composite_gl_height(dims: tuple[int, ...], ms: tuple[int, ...]) -> int:
    """Sum of m_i (d_i - m_i) over factors, the height of a tensor-of-wedges datum."""
    if len(dims) != len(ms):
        raise ValueError("dims and ms must have equal length")
    total = 0
    for d, m in zip(dims, ms):
        require_int(d, "factor dimension")
        require_int(m, "wedge degree")
        if d < 1:
            raise ValueError(f"factor dimension {d} must be positive")
        if m < 0 or m > d:
            raise ContractError(f"wedge degree {m} outside 0..{d}")
        total += m * (d - m)
    return total


def semisimplicity_bound_ok(dims: tuple[int, ...], ms: tuple[int, ...], p: int) -> bool:
    """Whether the composite height is strictly below the prime."""
    require_prime(p)
    return composite_gl_height(dims, ms) < p
