"""Heights of highest-weight data, computed two independent ways.

The height of a dominant weight is its pairing with the sum of the
positive coroots.  It is recomputed, on plain ints, as the coordinate
total of the difference between the weight and its antidominant Weyl
conjugate; ``dynkin_height`` compares the two and reports both.

The greedy descent to that conjugate takes at most |Phi+| reflections, each
costing O(degree) on the sparse Cartan columns, so a height costs
O(|Phi+| + rank^2) at any rank, the rank^2 being the one pass through ``D C^-1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .errors import ContractError
from .primes import require_prime
from .rootsys import (
    RootSystem,
    WeightVec,
    _lowest_links,
    _scaled_cartan_inverse,
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


def _require_dominant(weight: WeightVec) -> None:
    if not weight.is_dominant():
        raise ContractError(f"weight {weight.coords} is not dominant")


def antidominant_conjugate(rs: RootSystem, weight: WeightVec) -> WeightVec:
    """The unique antidominant Weyl conjugate, by greedy descent.

    Reflecting at the lowest index with a positive coordinate lowers by
    one the number of positive coroots that pair positively with the
    weight, and strictly lowers its pairing with their sum, so the walk
    ends within |Phi+| steps; running past them means an arithmetic bug.

    Each step costs O(degree): s_i moves only the coordinates k linked to i in
    column i of the Cartan matrix (``l_k -= C[k][i] l_i``), the pairing drops by
    ``l_i * sum C[k][i] two_rho[k]`` over the same k, and the scan for the next
    positive coordinate resumes at the lowest one that moved.
    """
    two_rho = _two_rho_coroot(rs)
    cols, low, n = rs._cols, _lowest_links(rs), rs.rank
    coords = list(weight.coords)
    i = 0
    for _ in range(len(rs.positive_roots) + 1):
        while i < n and coords[i] <= 0:
            i += 1
        if i == n:
            return WeightVec(tuple(coords))
        x = coords[i]
        pairing = 0
        for k, c in cols[i]:
            coords[k] -= c * x
            pairing += c * two_rho[k]
        if x * pairing <= 0:
            raise ContractError("descent failed to decrease; arithmetic is broken")
        i = low[i]
    raise ContractError("antidominant descent exceeded the number of positive roots")


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
    finds the antidominant conjugate, converts the difference to
    simple-root coordinates through the integer matrix ``D C^-1``, whose
    numerators must be divisible by D, and sums them.  A difference off the
    root lattice, and then any disagreement of the routes, is a ``ContractError``.
    """
    _require_dominant(weight)
    two_rho = _two_rho_coroot(rs)
    via_pairing = sum(map(mul, weight.coords, two_rho))

    low = antidominant_conjugate(rs, weight)
    diff = (weight - low).coords
    den, scaled = _scaled_cartan_inverse(rs)
    numerators = [sum(map(mul, row, diff)) for row in scaled]
    if any(x % den for x in numerators):
        raise ContractError("weight minus antidominant conjugate left the root lattice")
    via_difference = sum(numerators) // den
    if via_pairing != via_difference:
        raise ContractError("height routes disagree")
    return HeightReport(via_pairing, via_pairing, via_difference, low)


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
