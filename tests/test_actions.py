import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import Z, pointset, rotation, rotation_system

from orbitrewire import (
    AbelianGroupSpec,
    FactorAction,
    FiniteSpace,
    FreeWord,
    Labeling,
    Permutation,
    PointSet,
    act,
    act_word,
    average,
    box_tile,
    folner_tile,
    freeness_defect,
    measure,
    orbit_average_function,
    orbit_decomposition,
    orbit_pushforward,
    pushforward,
    sym_diff_mass,
    weak_discrepancy,
)
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
    assert act(f, Z.identity(), 5) == 5
    assert act(f, Z.element([5]), 9) == 2
    g = grid_action(4, 4)
    # x = (0,0), shift by (1,2) -> (1,2) = index 6
    assert act(g, AbelianGroupSpec(2).element([1, 2]), 0) == 6


def test_act_word_examples(z12):
    sys = rotation_system(z12, 1, 5)
    assert act_word(sys, FreeWord.identity(), 7) == 7
    w = FreeWord.letter(1, Z.element([2]))
    assert act_word(sys, w, 0) == act(sys.factors[1], Z.element([2]), 0)
    rng = random.Random(17)
    for _ in range(50):
        w = FreeWord(
            [(rng.randrange(0, 2), Z.element([rng.randrange(-3, 4)]))
             for _ in range(rng.randrange(0, 5))]
        )
        x = rng.randrange(12)
        assert act_word(sys, w * w.inverse(), x) == x


def test_word_acts_right_to_left(z12):
    sys = rotation_system(z12, 1, 5)
    w = FreeWord([(0, Z.element([2])), (1, Z.element([1]))])
    # w = g0^2 * g1: apply g1 (step 5) first, then g0^2 (step 1 twice)
    assert act_word(sys, w, 0) == (0 + 5 + 2) % 12


def test_orbit_decomposition_examples():
    sp = FiniteSpace(6)
    assert orbit_decomposition(rotation(sp, 1)).n_orbits == 1
    od = orbit_decomposition(rotation(sp, 2))
    assert [sorted(o.tolist()) for o in od.orbits] == [[0, 2, 4], [1, 3, 5]]
    ident = FactorAction(Z, sp, (Permutation.identity(sp),))
    assert orbit_decomposition(ident).n_orbits == 6


def test_orbit_decomposition_multi_generator_matches_union():
    g = grid_action(4, 6)
    od = orbit_decomposition(g)
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
    od2 = orbit_decomposition(f)
    assert od2.n_orbits == 2  # gcd(4, 6) = 2
    assert sorted(od2.orbits[0].tolist()) == list(range(0, 24, 2))


def test_orbit_pushforward_examples():
    sp = FiniteSpace(6)
    f = rotation(sp, 2)
    od = orbit_decomposition(f)
    lab = Labeling.from_symbols(sp, ["a", "x", "a", "x", "b", "x"], alphabet=("a", "b", "x"))
    dist = orbit_pushforward(od, lab, 0)
    assert dist.mass("a") == Fraction(2, 3)
    assert dist.mass("b") == Fraction(1, 3)
    const = Labeling.constant(sp, "c")
    assert orbit_pushforward(od, const, 1).is_point_mass()


def test_orbit_pushforward_disintegrates_to_global():
    rng = random.Random(5)
    sp = FiniteSpace(24)
    f = rotation(sp, rng.choice([2, 3, 4]))
    od = orbit_decomposition(f)
    codes = [rng.randrange(3) for _ in range(24)]
    lab = Labeling(sp, ("a", "b", "c"), np.array(codes))
    total = {a: Fraction(0) for a in lab.alphabet}
    for orbit in od.orbits:
        dist = orbit_pushforward(od, lab, int(orbit[0]))
        for a in lab.alphabet:
            total[a] += dist.mass(a) * Fraction(len(orbit), 24)
    glob = pushforward(lab)
    assert all(total[a] == glob.mass(a) for a in lab.alphabet)


def test_average_examples(z12):
    f = rotation(z12, 1)
    full = FactorAction(
        AbelianGroupSpec(0, (12,)), z12,
        (Permutation(z12, (np.arange(12) + 1) % 12),),
    )
    ind = pointset(z12, 2, 5, 7)
    t = folner_tile(AbelianGroupSpec(0, (12,)), 1)
    assert average(full, t, ind, 4) == measure(ind)
    assert average(f, box_tile(Z, [0], [4]), PointSet.full(z12), 3) == 1
    assert average(f, box_tile(Z, [0], [2]), pointset(z12, 0, 1), 0) == Fraction(2, 3)
    assert average(f, [Z.element([0]), Z.element([1]), Z.element([2])],
                   pointset(z12, 0, 1), 0) == Fraction(2, 3)


def test_window_counts_against_brute_force():
    rng = random.Random(11)
    for _ in range(20):
        m1, m2 = rng.choice([(4, 6), (3, 5), (6, 6)])
        g = grid_action(m1, m2)
        spec2 = AbelianGroupSpec(2)
        lo1, hi1 = -rng.randrange(0, 2), rng.randrange(0, 3)
        lo2, hi2 = -rng.randrange(0, 3), rng.randrange(0, 2)
        tile = box_tile(spec2, [lo1, lo2], [hi1, hi2])
        vals = np.array([rng.randrange(0, 4) for _ in range(m1 * m2)], dtype=np.int64)
        got = g.window_counts(tile, vals)
        for x in range(m1 * m2):
            expect = sum(
                vals[act(g, spec2.element([i, j]), x)]
                for i in range(lo1, hi1 + 1)
                for j in range(lo2, hi2 + 1)
            )
            assert got[x] == expect


def test_tile_images_matches_elementwise_action(z12):
    f = rotation(z12, 5)
    tile = box_tile(Z, [-2], [3])
    imgs = f.tile_images(tile, 7)
    for idx in range(tile.size):
        assert imgs[idx] == act(f, tile.element_at(idx), 7)


def test_weak_discrepancy_examples():
    sp = FiniteSpace(4)
    a = rotation_system(sp, 1)
    b = rotation_system(sp, 2)
    w = [FreeWord.letter(0, Z.element([1]))]
    s = [pointset(sp, 0, 1)]
    assert weak_discrepancy(a, a, w, s) == 0
    assert weak_discrepancy(a, b, [FreeWord.identity()], s) == 0
    assert weak_discrepancy(a, b, w, s) == Fraction(1, 2)


def test_weak_discrepancy_empty_family_warns():
    sp = FiniteSpace(4)
    a = rotation_system(sp, 1)
    with pytest.warns(UserWarning):
        assert weak_discrepancy(a, a, [], []) == 0


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


def test_orbit_average_function_examples():
    sp = FiniteSpace(6)
    f = rotation(sp, 2)
    oa = orbit_average_function(f, pointset(sp, 0, 1, 3))
    assert oa[0] == Fraction(1, 3)
    assert oa[2] == Fraction(1, 3)
    assert oa[1] == Fraction(2, 3)
    zero = orbit_average_function(f, PointSet.empty(sp))
    assert all(zero[x] == 0 for x in range(6))
    transitive = rotation(sp, 1)
    ind = pointset(sp, 0, 4)
    oat = orbit_average_function(transitive, ind)
    assert all(oat[x] == measure(ind) for x in range(6))


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
        worst = max(
            abs(average(f, tile, evens, x) - measure(evens)) for x in range(24)
        )
        devs.append(worst)
    assert devs == sorted(devs, reverse=True)
    assert devs[-1] == 0
