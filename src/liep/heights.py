"""Heights of highest-weight data, computed two independent ways.

The height of a dominant weight is its pairing with the sum of the
positive coroots.  It is recomputed, on plain ints, as the coordinate
total of the difference between the weight and its antidominant Weyl
conjugate over the simple roots; ``dynkin_height`` compares the two and
reports both.

The greedy descent to that conjugate takes at most |Phi+| reflections, each
costing O(degree) on the sparse Cartan columns, and each subtracting a known
multiple of one simple root, so the descent itself records the difference's
root coordinates; a height costs O(|Phi+| + rank * degree) at any rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .errors import ContractError
from .primes import is_int, require_prime
from .rootsys import (
    RootSystem,
    WeightVec,
    _lowest_links,
    fundamental_weight,
)

__all__ = [
    "HeightReport",
    "dynkin_height",
    "min_nontrivial_height",
    "composite_gl_height",
    "semisimplicity_bound_ok",
    "antidominant_conjugate",
]

@lru_cache(maxsize=None)
def _two_rho_coroot(rs: RootSystem) -> tuple[int, ...]:
    """Coordinates of the sum of all positive coroots over the simple coroots."""
    return tuple(map(sum, zip(*rs.coroots[:len(rs.positive_roots)])))


def _descend(rs: RootSystem, weight: WeightVec) -> tuple[list[int], list[int]]:
    """The antidominant conjugate's coordinates, by greedy descent, and the root
    coordinates it subtracts: ``weight - conjugate = sum steps[i] alpha_i``.

    Reflecting at the lowest index with a positive coordinate lowers by
    one the number of positive coroots that pair positively with the
    weight, and strictly lowers its pairing with their sum, so the walk
    ends within |Phi+| steps; running past them means an arithmetic bug.

    Each step costs O(degree): s_i subtracts ``x alpha_i`` with ``x = l_i``, which moves
    only the coordinates k linked to i in column i of the Cartan matrix
    (``l_k -= C[k][i] x``), the pairing drops by ``x * sum C[k][i] two_rho[k]`` over the
    same k, and the scan for the next positive coordinate resumes at the lowest one that
    moved (Humphreys, Reflection Groups and Coxeter Groups, 1990, 1.2).
    """
    two_rho = _two_rho_coroot(rs)
    cols, low, n = rs._cols, _lowest_links(rs), rs.rank
    coords = list(weight.coords)
    steps = [0] * n
    i = 0
    for _ in range(len(rs.positive_roots) + 1):
        while i < n and coords[i] <= 0:
            i += 1
        if i == n:
            return coords, steps
        x = coords[i]
        steps[i] += x
        pairing = 0
        for k, c in cols[i]:
            coords[k] -= c * x
            pairing += c * two_rho[k]
        if x * pairing <= 0:
            raise ContractError("descent failed to decrease; arithmetic is broken")
        i = low[i]
    raise ContractError("antidominant descent exceeded the number of positive roots")


def antidominant_conjugate(rs: RootSystem, weight: WeightVec) -> WeightVec:
    """The unique antidominant Weyl conjugate, by the greedy descent of ``_descend``."""
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
    if not weight.is_dominant():
        raise ContractError(f"weight {weight.coords} is not dominant")
    two_rho = _two_rho_coroot(rs)
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
        if not (is_int(d) and is_int(m)):
            raise ValueError(f"factor dimension {d!r} and wedge degree {m!r} must be integers")
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
