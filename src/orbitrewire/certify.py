"""Every certified inequality of the construction, each stated once.

A run certifies eight families of exact bounds, one section each below.  The
stage that makes a decision calls its family here as the acceptance test, so
each fact is still computed once.  A check returns the numbers the report
prints or raises the family's coded error; a predicate (``*_ok``) or a
threshold lets the search, the summary and ``verify`` ask without raising.
Families 4 to 6 follow from the search's acceptance tests, so they cannot
fail on a run's own decisions; they carry information once the decisions
come from a file.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BudgetViolated,
    CoverageBelowFloor,
    DefectBoundViolated,
    FinalDiscrepancyExceeded,
    HypothesisViolated,
    VerificationFailed,
)
from .groups import invariance_defect


# 1. good partition: per factor, the orbits more than 2 eps' off the target
#    distribution (``goodpart.verify_good_partition``) have mass below eps'

def orbit_far(dev, size, d: int, eps_prime: Fraction):
    """Elementwise, whether an orbit of ``size`` points dev/d off its quota is bad."""
    return dev * eps_prime.denominator > 2 * eps_prime.numerator * size * d


def bad_mass_ok(bad_mass: Fraction, eps_prime: Fraction) -> bool:
    return bad_mass < eps_prime


# 2. the tile: |T| > 1/eps', and |T symdiff gT| / |T| < eps' on the window

def min_tile_size(eps_prime: Fraction) -> int:
    return eps_prime.denominator // eps_prime.numerator + 1


def invariant(tile, window, eps_prime: Fraction) -> bool:
    return all(invariance_defect(tile, g) < eps_prime for g in window)


# 3. good sets: mass above 1 - 2 eps', so bad / n < 2 eps'

def max_bad_points(eps_prime: Fraction, n: int) -> int:
    return (2 * eps_prime.numerator * n - 1) // eps_prime.denominator


# 4. towers: the Rohlin stage's eps is 8 eps', the mass a tower may leave
#    uncovered (L0's bound); its tiling base W covers more than 1 - eps/2
#    before the shift, and the shifted tower more than 1 - eps

def tower_mass(eps_prime: Fraction) -> Fraction:
    return 8 * eps_prime


def tiling_floor(eps: Fraction) -> Fraction:
    return 1 - eps / 2


def coverage(tower, n: int, floor: Fraction, what: str) -> Fraction:
    """The coverage of a tower with disjoint levels, which must exceed ``floor``."""
    covered = Fraction(tower.levels.size, n)
    if covered <= floor:
        raise CoverageBelowFloor(f"{what} coverage {covered} not strictly above {floor}")
    return covered


def certify_pair(tw_a, tw_b, avoid, eps: Fraction) -> tuple[Fraction, Fraction]:
    """The coverages of two towers, each above 1 - eps, whose bases miss the
    bad set ``avoid``, so every base window is within 3 eps'.
    ``rohlin_avoiding``'s towers meet both: the shifted W loses at most
    mass(avoid) < eps/2 of its coverage, which exceeded 1 - eps/2."""
    coverages = []
    for tw in (tw_a, tw_b):
        coverages.append(coverage(tw, avoid.space.n_points, 1 - eps, "tower"))
        if avoid.mask[tw.base].any():
            raise HypothesisViolated("internal error: base meets the avoidance set")
    return coverages[0], coverages[1]


# 5. columns: each column's defect |T \ T_s| is below 7 eps' |A| |T|

def defect_bound(eps_prime: Fraction, k_sym: int, tile_size: int) -> Fraction:
    return 7 * eps_prime * k_sym * tile_size


def defects_ok(defects, bound: Fraction):
    """Elementwise, defect < p/q exactly: defect <= (p - 1) // q."""
    return defects <= (bound.numerator - 1) // bound.denominator


def column_defects(cd, eps_prime: Fraction) -> np.ndarray:
    """Per column, |T| minus its matched tile elements; the first column at
    or above the bound raises."""
    bound = defect_bound(eps_prime, cd.alphabet_size, cd.tile.size)
    defects = cd.tile.size - np.count_nonzero(cd.matched, axis=1)
    failing = np.flatnonzero(~defects_ok(defects, bound))
    if failing.size:
        s = int(failing[0])
        defect = int(defects[s])
        raise DefectBoundViolated(
            f"column {s}: |T \\ T_s| = {defect} not below 7*eps'*|A|*|T| = {bound}",
            column=s,
            defect=defect,
        )
    return defects


# 6. the budget: per window element, L0 < 8 eps', L1 < eps' |T| |B| / N or
#    L1 = 0, L2 < 15 |A| eps', and no discrepancy outside L0 | L1 | L2

@dataclass
class ElementBudget:
    element: tuple[int, ...]
    l0: Fraction
    l1: Fraction
    l2: Fraction
    bound_l0: Fraction
    bound_l1: Fraction
    bound_l2: Fraction
    discrepancies: list[Fraction]
    residual_empty: bool


@dataclass
class BudgetReport:
    per_element: list[ElementBudget]


def loss_ok(name: str, mass: Fraction, bound: Fraction) -> bool:
    return mass < bound or (name == "l1" and mass == 0)


def budget(l0: Fraction, transport_ok: bool, elements, eps_prime: Fraction, k_sym: int,
           tile_size: int, base_size: int, n: int) -> BudgetReport:
    """One factor's budget from its measured terms: per window element of
    ``elements`` its coordinates, L1, L2, discrepancies and whether they lie
    in L0 | L1 | L2.  L0 < 8 eps' is family 4's coverage, and L1, L2 follow
    from invariance and family 5; L1's bound eps' |T| |B| / N is at most the
    eps' the report prints, as the levels are disjoint."""
    bound_l0, bound_l2 = tower_mass(eps_prime), 15 * k_sym * eps_prime
    bound_l1 = eps_prime * tile_size * Fraction(base_size, n)
    if not loss_ok("l0", l0, bound_l0):
        raise BudgetViolated(f"tower complement mass {l0} not below {bound_l0}")
    if not transport_ok:
        raise BudgetViolated("matched level lands outside the target-side name cell")
    report = BudgetReport([])
    for coords, l1, l2, discrepancies, residual_empty in elements:
        if not loss_ok("l1", l1, bound_l1):
            raise BudgetViolated(f"shift-loss mass {l1} not below {bound_l1}")
        if not loss_ok("l2", l2, bound_l2):
            raise BudgetViolated(f"unmatched-level mass {l2} not below {bound_l2}")
        if not residual_empty:
            raise BudgetViolated(f"discrepancy outside L0 | L1 | L2 for element {coords}; "
                                 "the construction is inconsistent")
        report.per_element.append(ElementBudget(coords, l0, l1, l2, bound_l0, eps_prime,
                                                bound_l2, discrepancies, residual_empty))
    return report


# 7. the final discrepancy is below eps

def final_ok(final: Fraction, eps: Fraction) -> bool:
    return final < eps


def final_discrepancy(final: Fraction, eps: Fraction) -> None:
    if not final_ok(final, eps):
        raise FinalDiscrepancyExceeded(f"end-to-end discrepancy {final} not below {eps}")


# 8. gamma's orbit partition is R's image of alpha's
#    (``rewiring.verify_orbit_equivalence`` decides it)

def orbit_equivalence(ok: bool, diagnostic: str | None) -> None:
    if not ok:
        raise VerificationFailed(f"orbit partitions differ: {diagnostic}")
