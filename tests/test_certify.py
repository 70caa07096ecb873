"""Each family of ``certify`` fails exactly at its bound.

Per family, one input sits exactly on the bound and one just inside it, on
an N = 100 point space: the first must raise the family's coded error (or,
for a threshold the search reads, fail its predicate) and the second must
pass.
"""

from fractions import Fraction

import numpy as np
import pytest

from conftest import Z, rotation

from orbitrewire import certify
from orbitrewire.errors import (
    BudgetViolated,
    CoverageBelowFloor,
    DefectBoundViolated,
    FinalDiscrepancyExceeded,
    HypothesisViolated,
    VerificationFailed,
)
from orbitrewire.groups import box_tile
from orbitrewire.rewiring import ColumnData
from orbitrewire.rohlin import Tower
from orbitrewire.space import FiniteSpace, PointSet

N = 100
SPACE = FiniteSpace(N)
POINT = Fraction(1, N)
EPS_PRIME = Fraction(1, 40)
UNIT = box_tile(Z, [0], [0])  # |T| = 1, so coverage moves by one point


def _tower(points: int) -> Tower:
    return Tower.over(rotation(SPACE, 1), UNIT, np.arange(points, dtype=np.int64))


def _tiling(points: int):
    """A tiling base's coverage at eps = 1/5, whose floor 1 - eps/2 = 9/10 is
    90 points."""
    return certify.coverage(_tower(points), N, certify.tiling_floor(Fraction(1, 5)), "tiling base")


def _pair(points: int, avoid=()):
    """certify_pair at eps = 1/10, whose floor 9/10 is 90 points."""
    tw = _tower(points)
    return certify.certify_pair(tw, tw, PointSet.from_indices(SPACE, avoid), Fraction(1, 10))


def _defects(defect: int, eps_prime: Fraction):
    """column_defects on one column of a 10-element tile and |A| = 2 that
    misses ``defect`` elements."""
    tile = box_tile(Z, [0], [9])
    pts = np.zeros(1, dtype=np.int64)
    names = np.zeros((1, tile.size), dtype=np.int16)
    matched = np.arange(tile.size)[None, :] >= defect
    cd = ColumnData(tile=tile, alphabet_size=2, col=pts,
                    levels=np.zeros((tile.size, 1), np.int64), name_alpha=names,
                    name_beta=names, matched=matched)
    return certify.column_defects(cd, eps_prime)


def _limit(eps_prime: Fraction) -> int:
    """The largest defect the bound admits, (7 enum |A| |T| - 1) // eden."""
    return (7 * eps_prime.numerator * 2 * 10 - 1) // eps_prime.denominator


def _budget(l0=Fraction(0), l1=Fraction(0), l2=Fraction(0), transport=True, residual=True,
            tile_size=4, base_size=25):
    """The budget of one window element at eps' = 1/40 with |A| = 2."""
    return certify.budget(l0, transport, [((1,), l1, l2, [Fraction(0)], residual)],
                          EPS_PRIME, 2, tile_size, base_size, N)


L1_TIGHT = EPS_PRIME * 4 * Fraction(25, N)  # eps' |T| |B| / N with |T||B| = N

# family: (exactly at the bound, just inside it, the error at the bound; None
# for a predicate or a threshold, which must read False at the bound)
CASES = {
    "good partition bad mass": (
        lambda: certify.bad_mass_ok(EPS_PRIME, EPS_PRIME),
        lambda: certify.bad_mass_ok(EPS_PRIME - POINT / 10, EPS_PRIME), None),
    "tile size above 1/eps'": (
        lambda: 40 >= certify.min_tile_size(EPS_PRIME),
        lambda: 41 >= certify.min_tile_size(EPS_PRIME), None),
    "tile invariance": (
        # |T symdiff gT| / |T| = 2/s for the box [0, s-1] and g = 1
        lambda: certify.invariant(box_tile(Z, [0], [79]), [Z.element([1])], EPS_PRIME),
        lambda: certify.invariant(box_tile(Z, [0], [80]), [Z.element([1])], EPS_PRIME), None),
    "good mass above 1 - 2 eps'": (
        lambda: 5 <= certify.max_bad_points(EPS_PRIME, N),
        lambda: 4 <= certify.max_bad_points(EPS_PRIME, N), None),
    "tiling coverage": (lambda: _tiling(90), lambda: _tiling(91), CoverageBelowFloor),
    "tower coverage": (lambda: _pair(90), lambda: _pair(91), CoverageBelowFloor),
    "bases clear of the bad set": (
        lambda: _pair(95, avoid=[94]), lambda: _pair(95, avoid=[95]), HypothesisViolated),
    "column defect": (
        lambda: _defects(_limit(Fraction(1, 30)) + 1, Fraction(1, 30)),
        lambda: _defects(_limit(Fraction(1, 30)), Fraction(1, 30)), DefectBoundViolated),
    "column defect on an integer bound": (
        # 7 * 1/20 * 2 * 10 = 7 exactly
        lambda: _defects(7, Fraction(1, 20)),
        lambda: _defects(6, Fraction(1, 20)), DefectBoundViolated),
    "L0": (lambda: _budget(l0=8 * EPS_PRIME),
           lambda: _budget(l0=8 * EPS_PRIME - POINT), BudgetViolated),
    "L1 with |T||B| = N": (lambda: _budget(l1=L1_TIGHT),
                           lambda: _budget(l1=L1_TIGHT - POINT / 10), BudgetViolated),
    "L1 = 0 with |T||B| = N": (lambda: _budget(l1=L1_TIGHT),
                               lambda: _budget(l1=Fraction(0)), BudgetViolated),
    # the bound is 0, so only L1 = 0 passes
    "L1 = 0 with an empty base": (lambda: _budget(l1=POINT, base_size=0),
                                  lambda: _budget(l1=Fraction(0), base_size=0), BudgetViolated),
    "L2": (lambda: _budget(l2=15 * 2 * EPS_PRIME),
           lambda: _budget(l2=15 * 2 * EPS_PRIME - POINT), BudgetViolated),
    "name transport": (lambda: _budget(transport=False), lambda: _budget(), BudgetViolated),
    "empty residual": (lambda: _budget(residual=False), lambda: _budget(), BudgetViolated),
    "final discrepancy": (
        lambda: certify.final_discrepancy(Fraction(1, 5), Fraction(1, 5)),
        lambda: certify.final_discrepancy(Fraction(1, 5) - POINT, Fraction(1, 5)),
        FinalDiscrepancyExceeded),
    "orbit check": (lambda: certify.orbit_equivalence(False, "point 3 separates"),
                    lambda: certify.orbit_equivalence(True, None), VerificationFailed),
}


@pytest.mark.parametrize("family", CASES)
def test_each_bound_fails_exactly_at_it(family):
    at_bound, inside, error = CASES[family]
    if error is None:
        assert at_bound() is False
        assert inside() is True
    else:
        with pytest.raises(error) as exc:
            at_bound()
        assert exc.value.code == error.code
        inside()


def test_the_budget_prints_eps_prime_as_the_l1_bound():
    (eb,) = _budget(l1=L1_TIGHT - POINT / 10).per_element
    assert (eb.bound_l0, eb.bound_l1, eb.bound_l2) == (8 * EPS_PRIME, EPS_PRIME, 30 * EPS_PRIME)
