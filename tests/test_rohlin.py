import itertools
from fractions import Fraction

import numpy as np
import pytest

from conftest import Z, pointset, rotation

from orbitrewire import (
    AbelianGroupSpec,
    FactorAction,
    FiniteSpace,
    Permutation,
    PointSet,
    Tower,
    box_tile,
    rohlin_avoiding,
    tiling_base,
    verify_tower,
)
from orbitrewire import rohlin
from orbitrewire.errors import (
    CoverageBelowFloor,
    HypothesisViolated,
    TileTooLarge,
)
from orbitrewire.rohlin import tower_support


def test_tiling_base_exact_lattice(z12):
    f = rotation(z12, 1)
    tower = tiling_base(f, box_tile(Z, [0], [2]))
    assert tower.base.tolist() == [0, 3, 6, 9]
    assert tower_support(tower, 12)
    rep = verify_tower(tower, f)
    assert rep.disjoint and rep.coverage == 1


def test_tiling_base_full_cycle(z12):
    f = rotation(z12, 1)
    tower = tiling_base(f, box_tile(Z, [0], [11]))
    assert tower.base.tolist() == [0]
    assert tower_support(tower, 12)


def test_tiling_base_non_divisor_leaves_remainder():
    sp = FiniteSpace(13)
    f = rotation(sp, 1)
    t = box_tile(Z, [0], [2])
    w = tiling_base(f, t).base
    assert w.tolist() == [0, 3, 6, 9]
    rep = verify_tower(Tower.over(f, t, w), f)
    assert rep.disjoint
    assert rep.coverage == Fraction(12, 13)
    # the Rohlin stage's floor at eps = 1/10 is 1 - 1/20, above 12/13
    with pytest.raises(CoverageBelowFloor):
        rohlin_avoiding(f, t, Fraction(1, 10), PointSet.empty(sp))


def test_tiling_base_tile_too_large():
    sp = FiniteSpace(12)
    f = rotation(sp, 2)  # two orbits of size 6
    with pytest.raises(TileTooLarge):
        tiling_base(f, box_tile(Z, [0], [6]))


def test_tiling_base_grid_exact():
    m1 = m2 = 6
    sp = FiniteSpace(m1 * m2)
    idx = np.arange(m1 * m2)
    r, c = idx // m2, idx % m2
    spec2 = AbelianGroupSpec(2)
    f = FactorAction(
        spec2, sp,
        (
            Permutation(sp, ((r + 1) % m1) * m2 + c),
            Permutation(sp, r * m2 + (c + 1) % m2),
        ),
    )
    t = box_tile(spec2, [-1, -1], [1, 1])  # 3x3 box
    w = tiling_base(f, t).base
    rep = verify_tower(Tower.over(f, t, w), f)
    assert rep.disjoint
    assert rep.coverage == 1
    assert w.size == 4


def test_tiling_base_greedy_on_non_product_orbit():
    # commuting generators whose cycles interleave without product structure:
    # a 6-cycle with both generators acting as powers of the same rotation
    sp = FiniteSpace(6)
    spec2 = AbelianGroupSpec(2)
    f = FactorAction(
        spec2, sp,
        (
            Permutation(sp, (np.arange(6) + 2) % 6),
            Permutation(sp, (np.arange(6) + 3) % 6),
        ),
    )
    t = box_tile(spec2, [0, 0], [1, 0])  # {(0,0), (1,0)}
    w = tiling_base(f, t).base
    rep = verify_tower(Tower.over(f, t, w), f)
    assert rep.disjoint
    assert rep.coverage >= Fraction(2, 3)


def _tori(*shapes) -> FactorAction:
    """Rank-2 factor on tori of the given shapes side by side, generator d
    shifting coordinate d: every orbit is a product of its generator cycles."""
    gens = [[], []]
    start = 0
    for dims in shapes:
        coords = np.indices(dims).reshape(2, -1)
        for d, gen in enumerate(gens):
            moved = coords.copy()
            moved[d] = (moved[d] + 1) % dims[d]
            gen.append(start + np.ravel_multi_index(tuple(moved), dims))
        start += coords.shape[1]
    sp = FiniteSpace(start)
    return FactorAction(AbelianGroupSpec(2), sp,
                        tuple(Permutation(sp, np.concatenate(g)) for g in gens))


def test_tiling_base_sweeps_no_aligned_orbit(monkeypatch):
    # a 4 x 4 box packs the 8 x 8 torus and fits no copy into the 2 x 40
    # one, whose tile images wrap along the first axis: with no unaligned
    # orbit there is nothing to sweep, so a zero sweep budget refuses nothing
    monkeypatch.setattr(rohlin, "GREEDY_COST_CAP", 0)
    t = box_tile(AbelianGroupSpec(2), [0, 0], [3, 3])
    tower = tiling_base(_tori((8, 8), (2, 40)), t)
    assert tower.base.tolist() == [0, 4, 32, 36]
    assert tower_support(tower, 144)
    # an empty base gives an empty tower
    assert tiling_base(_tori((2, 40)), t).levels.shape == (16, 0)


def test_rohlin_avoiding_no_avoidance(z12):
    f = rotation(z12, 1)
    t = box_tile(Z, [0], [2])
    tower = rohlin_avoiding(f, t, Fraction(1, 2), PointSet.empty(z12))
    rep = verify_tower(tower, f, avoid=PointSet.empty(z12))
    assert rep.disjoint and rep.coverage == 1 and rep.avoid_clear
    assert tower.base.tolist() == [0, 3, 6, 9]


def test_rohlin_avoiding_spec_cases(z12):
    f = rotation(z12, 1)
    t = box_tile(Z, [0], [2])
    tower = rohlin_avoiding(f, t, Fraction(1, 2), pointset(z12, 3))
    assert tower.base.tolist() == [1, 4, 7, 10]
    tower2 = rohlin_avoiding(f, t, Fraction(1, 2), pointset(z12, 1, 4))
    assert tower2.base.tolist() == [0, 3, 6, 9]


def test_rohlin_avoiding_hypothesis_violated(z12):
    f = rotation(z12, 1)
    t = box_tile(Z, [0], [2])
    with pytest.raises(HypothesisViolated):
        rohlin_avoiding(f, t, Fraction(1, 2), pointset(z12, 0, 1, 2))


def test_verify_tower_detects_overlap():
    sp = FiniteSpace(4)
    f = rotation(sp, 1)
    t = box_tile(Z, [0], [1])
    bad = Tower.over(f, t, np.array([0, 1]))
    rep = verify_tower(bad, f)
    assert not rep.disjoint
    empty = Tower.over(f, t, np.array([], dtype=np.int64))
    rep2 = verify_tower(empty, f)
    assert rep2.disjoint and rep2.coverage == 0


def test_shifted_family_stays_disjoint():
    # commutativity: if {tW} is disjoint then so is {t(t0 W)} for any t0
    sp = FiniteSpace(24)
    f = rotation(sp, 1)
    t = box_tile(Z, [-1], [2])
    w = tiling_base(f, t).base
    for t0_idx in range(t.size):
        shifted = f.element_image_points(t.element_at(t0_idx), w)
        assert tower_support(Tower.over(f, t, np.sort(shifted)), 24)


def test_rohlin_mass_bookkeeping_exhaustive_small():
    # every avoid set below the mass hypothesis yields all three conclusions
    sp = FiniteSpace(12)
    f = rotation(sp, 1)
    t = box_tile(Z, [0], [2])
    eps = Fraction(1, 2)
    count = 0
    for k in (0, 1, 2):
        for avoid in itertools.combinations(range(12), k):
            aset = PointSet.from_indices(sp, avoid)
            tower = rohlin_avoiding(f, t, eps, aset)
            rep = verify_tower(tower, f, avoid=aset)
            assert rep.disjoint
            assert rep.coverage > 1 - eps
            assert rep.avoid_clear
            # base mass bound from the argmin step
            assert Fraction(tower.base.size, 12) > \
                Fraction(tiling_base(f, t).base.size, 12) - eps / (2 * t.size)
            count += 1
    assert count == 79

