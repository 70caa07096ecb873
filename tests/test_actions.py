import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import Z, pointset, rotation, rotation_system

from orbitrewire import (
    AbelianGroupSpec,
    FactorAction,
    FiniteSpace,
    FreeProductSystem,
    FreeWord,
    Permutation,
    PointSet,
    box_tile,
    freeness_defect,
    measure,
    sym_diff_mass,
    weak_discrepancy,
)
from orbitrewire.actions import _orbits_of_minima
from orbitrewire.errors import IdentityInWindow


def grid_action(m1: int, m2: int) -> FactorAction:
    sp = FiniteSpace(m1 * m2)
    idx = np.arange(m1 * m2)
    r, c = idx // m2, idx % m2
    g1 = Permutation(sp, ((r + 1) % m1) * m2 + c)
    g2 = Permutation(sp, r * m2 + (c + 1) % m2)
    return FactorAction(AbelianGroupSpec(2), sp, (g1, g2))


def test_act_examples(z12):
    f = rotation(z12, 1)
    assert f.element_image_points(Z.identity(), [5]).tolist() == [5]
    assert f.element_image_points(Z.element([5]), [9, 0]).tolist() == [2, 5]
    g = grid_action(4, 4)
    # x = (0,0), shift by (1,2) -> (1,2) = index 6
    assert g.element_image_points(AbelianGroupSpec(2).element([1, 2]), [0]).tolist() == [6]


def test_act_word_examples(z12):
    sys = rotation_system(z12, 1, 5)
    points = np.arange(12)
    assert sys.word_image_points(FreeWord.identity(), points).tolist() == points.tolist()
    w = FreeWord.letter(1, Z.element([2]))
    assert np.array_equal(sys.word_image_points(w, points),
                          sys.factors[1].element_image_points(Z.element([2]), points))
    rng = random.Random(17)
    for _ in range(50):
        w = FreeWord(
            [(rng.randrange(0, 2), Z.element([rng.randrange(-3, 4)]))
             for _ in range(rng.randrange(0, 5))]
        )
        assert sys.word_image_points(w * w.inverse(), points).tolist() == points.tolist()


def test_word_acts_right_to_left(z12):
    sys = rotation_system(z12, 1, 5)
    w = FreeWord([(0, Z.element([2])), (1, Z.element([1]))])
    # w = g0^2 * g1: apply g1 (step 5) first, then g0^2 (step 1 twice)
    assert sys.word_image_points(w, [0]).tolist() == [(0 + 5 + 2) % 12]


def test_orbit_decomposition_examples():
    sp = FiniteSpace(6)
    assert rotation(sp, 1).orbits().n_orbits == 1
    od = rotation(sp, 2).orbits()
    assert od.orbit_id.tolist() == [0, 1, 0, 1, 0, 1] and od.sizes.tolist() == [3, 3]
    ident = FactorAction(Z, sp, (Permutation.identity(sp),))
    assert ident.orbits().n_orbits == 6


def test_orbit_decomposition_multi_generator_matches_union():
    g = grid_action(4, 6)
    od = g.orbits()
    assert od.is_transitive
    sp = g.space
    # two commuting rotations on one cycle: orbits are gcd classes
    f = FactorAction(
        AbelianGroupSpec(2),
        sp,
        (
            Permutation(sp, (np.arange(24) + 4) % 24),
            Permutation(sp, (np.arange(24) + 6) % 24),
        ),
    )
    od2 = f.orbits()
    assert od2.n_orbits == 2  # gcd(4, 6) = 2
    assert np.flatnonzero(od2.orbit_id == 0).tolist() == list(range(0, 24, 2))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 60), st.integers(1, 60), st.integers(0, 2**32 - 1))
def test_orbit_numbering_matches_unique(n, k, seed):
    # a random partition of n points into at most k classes, each point
    # labelled by its class minimum, as label propagation leaves it
    cls = np.random.default_rng(seed).integers(0, k, n)
    first = np.full(k, n)
    np.minimum.at(first, cls, np.arange(n))
    label = first[cls]
    od = _orbits_of_minima(label)
    uniq, inverse = np.unique(label, return_inverse=True)
    assert od.orbit_id.tolist() == inverse.tolist()
    assert od.sizes.tolist() == np.bincount(inverse).tolist()
    assert od.n_orbits == len(uniq)


def _orbits_loop(n: int, forwards) -> list[int]:
    """Orbit ids of the group generated by the forward arrays, by union-find,
    numbered by increasing orbit minimum."""
    parent = list(range(n))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for fwd in forwards:
        for x in range(n):
            a, b = root(x), root(int(fwd[x]))
            parent[max(a, b)] = min(a, b)
    minima = sorted({root(x) for x in range(n)})
    return [minima.index(root(x)) for x in range(n)]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_label_propagation_matches_union_find(n, k, seed):
    # k permutations with many short cycles, as factors of one free product
    rng = np.random.default_rng(seed)
    sp = FiniteSpace(n)
    forwards = []
    for _ in range(k):
        fwd = np.arange(n)
        blocks = np.split(rng.permutation(n), np.sort(rng.integers(0, n + 1, rng.integers(0, n))))
        for b in blocks:
            fwd[b] = np.roll(b, 1)
        forwards.append(fwd)
    system = FreeProductSystem(tuple(FactorAction(Z, sp, (Permutation(sp, f),)) for f in forwards))
    od = system.full_orbit_decomposition()
    assert od.orbit_id.tolist() == _orbits_loop(n, forwards)


def _steps_action(n: int, *steps: int, torsion=()) -> FactorAction:
    """The factor whose generators rotate Z/n by ``steps``."""
    sp = FiniteSpace(n)
    gens = [Permutation(sp, (np.arange(n) + s) % n) for s in steps]
    return FactorAction(AbelianGroupSpec(len(steps) - len(torsion), torsion), sp, gens)


def _z15_times_z2() -> FactorAction:
    """Z x Z/2 on Z/15 x Z/2: a shift of the first coordinate and a flip
    of the second, so the orbit is a product of the generator cycles."""
    sp = FiniteSpace(30)
    i, b = np.arange(30) // 2, np.arange(30) % 2
    return FactorAction(AbelianGroupSpec(1, (2,)), sp,
                        (Permutation(sp, ((i + 1) % 15) * 2 + b), Permutation(sp, i * 2 + 1 - b)))


def test_window_counts_against_brute_force():
    """Aligned grids; Z^2 on Z/n by steps 1 and k, one orbit that is not a
    product of the generator cycles, with gcd(k, n) = 1 and with
    gcd(k, n) > 1, where the k-step cycles are shorter than some tile
    sides; and Z x Z/2, aligned and not.  Boxes reach below 0."""
    rng = random.Random(11)
    factors = [grid_action(4, 6), grid_action(3, 5), grid_action(6, 6),
               _steps_action(35, 1, 3), _steps_action(37, 1, 8),
               _steps_action(36, 1, 4), _steps_action(40, 1, 10),
               _z15_times_z2(), _steps_action(30, 1, 15, torsion=(2,))]
    for f in factors:
        points = np.arange(f.space.n_points)
        for _ in range(10):
            lows = [-rng.randrange(0, 6) for _ in range(f.spec.rank)]
            highs = [rng.randrange(0, 12) for _ in range(f.spec.rank)]
            tile = box_tile(f.spec, lows, highs)
            vals = np.array([rng.randrange(-2, 4) for _ in points], dtype=np.int64)
            expect = sum(vals[f.element_image_points(tile.element_at(t), points)]
                         for t in range(tile.size))
            assert np.array_equal(f.window_counts(tile, vals), expect)


def test_tile_images_matches_elementwise_action(z12):
    f = rotation(z12, 5)
    tile = box_tile(Z, [-2], [3])
    imgs = f.tile_images(tile, 7)
    for idx in range(tile.size):
        assert [imgs[idx]] == f.element_image_points(tile.element_at(idx), [7]).tolist()


def test_weak_discrepancy_examples():
    sp = FiniteSpace(4)
    a = rotation_system(sp, 1)
    b = rotation_system(sp, 2)
    w = [FreeWord.letter(0, Z.element([1]))]
    s = [pointset(sp, 0, 1)]
    assert weak_discrepancy(a, a, w, s) == 0
    assert weak_discrepancy(a, b, [FreeWord.identity()], s) == 0
    assert weak_discrepancy(a, b, w, s) == Fraction(1, 2)


def test_weak_discrepancy_empty_family_is_zero():
    sp = FiniteSpace(4)
    a = rotation_system(sp, 1)
    b = rotation_system(sp, 2)
    w = [FreeWord.letter(0, Z.element([1]))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert weak_discrepancy(a, b, [], [pointset(sp, 0)]) == 0
        assert weak_discrepancy(a, b, w, []) == 0


def test_freeness_defect_examples():
    sp = FiniteSpace(12)
    f = rotation(sp, 1)
    window = [Z.element([j]) for j in (-2, -1, 1, 2)]
    assert freeness_defect(f, window) == 0
    ident = FactorAction(Z, sp, (Permutation.identity(sp),))
    assert freeness_defect(ident, [Z.element([1])]) == 1
    spec2 = AbelianGroupSpec(2)
    f2 = FactorAction(
        spec2, sp,
        (
            Permutation(sp, (np.arange(12) + 3) % 12),
            Permutation(sp, (np.arange(12) + 4) % 12),
        ),
    )
    window2 = [spec2.element([i, j]) for i in (-1, 0, 1) for j in (-1, 0, 1)
               if (i, j) != (0, 0)]
    assert freeness_defect(f2, window2) == 0
    with pytest.raises(IdentityInWindow):
        freeness_defect(f, [Z.identity()])


def test_generator_commutation_enforced():
    sp = FiniteSpace(4)
    swap = Permutation(sp, np.array([1, 0, 2, 3]))
    cyc = Permutation(sp, np.array([1, 2, 3, 0]))
    with pytest.raises(ValueError):
        FactorAction(AbelianGroupSpec(2), sp, (swap, cyc))


def test_torsion_order_enforced():
    sp = FiniteSpace(4)
    cyc4 = Permutation(sp, np.array([1, 2, 3, 0]))
    with pytest.raises(ValueError):
        FactorAction(AbelianGroupSpec(0, (2,)), sp, (cyc4,))
    ok = FactorAction(AbelianGroupSpec(0, (4,)), sp, (cyc4,))
    assert ok.orbits().is_transitive


def test_composition_inequality_random():
    rng = random.Random(42)
    sp = FiniteSpace(60)
    for _ in range(300):
        a = rotation_system(sp, rng.randrange(1, 60), rng.randrange(1, 60))
        b = rotation_system(sp, rng.randrange(1, 60), rng.randrange(1, 60))
        set_a = PointSet.from_indices(sp, [x for x in range(60) if rng.random() < 0.5])

        def rand_word():
            return FreeWord(
                [(rng.randrange(0, 2), Z.element([rng.randrange(-2, 3)]))
                 for _ in range(rng.randrange(1, 4))]
            )

        g1, g2 = rand_word(), rand_word()
        lhs = sym_diff_mass(
            a.word_image_set(g2 * g1, set_a), b.word_image_set(g2 * g1, set_a)
        )
        mid = b.word_image_set(g1, set_a)
        rhs = sym_diff_mass(a.word_image_set(g1, set_a), b.word_image_set(g1, set_a)) + \
            sym_diff_mass(a.word_image_set(g2, mid), b.word_image_set(g2, mid))
        assert lhs <= rhs


def test_window_average_trend_toward_global():
    # alternating indicator on a rotation: window deviation shrinks as the
    # box grows, hitting zero when the box covers the cycle exactly
    sp = FiniteSpace(24)
    f = rotation(sp, 1)
    evens = PointSet(sp, np.arange(24) % 2 == 0)
    devs = []
    for side in (3, 7, 15, 24):
        tile = box_tile(Z, [0], [side - 1])
        counts = f.window_counts(tile, evens.mask)
        worst = max(abs(Fraction(int(c), tile.size) - measure(evens)) for c in counts)
        devs.append(worst)
    assert devs == sorted(devs, reverse=True)
    assert devs[-1] == 0
