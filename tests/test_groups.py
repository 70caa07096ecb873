import random
from fractions import Fraction

import pytest

from orbitrewire import (
    AbelianGroupSpec,
    FreeWord,
    box_tile,
    invariance_defect,
)
from orbitrewire.errors import TileCapExceeded

Z = AbelianGroupSpec(1)
Z2 = AbelianGroupSpec(2)


def test_folner_tile_line():
    t = box_tile(Z, [-2], [2])
    assert t.size == 5
    assert {g.free[0] for g in t.elements()} == {-2, -1, 0, 1, 2}


def test_folner_tile_pure_torsion():
    spec = AbelianGroupSpec(0, (3,))
    t = box_tile(spec, [], [])
    assert t.size == 3
    assert {g.torsion[0] for g in t.elements()} == {0, 1, 2}


def test_folner_tile_square():
    t = box_tile(Z2, [-1, -1], [1, 1])
    assert t.size == 9
    assert {g.free for g in t.elements()} == {(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)}


def test_tile_cap():
    with pytest.raises(TileCapExceeded):
        box_tile(Z2, [-10, -10], [10, 10], cap=100)


def test_tile_must_contain_identity():
    with pytest.raises(ValueError):
        box_tile(Z, [1], [3])


def test_tile_canonical_order_and_identity_index():
    t = box_tile(Z2, [-1, 0], [1, 2])
    coords = [t.element_at(i).free for i in range(t.size)]
    assert coords == sorted(coords)
    assert t.element_at(t.identity_index).is_identity()


def test_invariance_defect_identity():
    t = box_tile(Z, [-3], [3])
    assert invariance_defect(t, Z.identity()) == 0


def test_invariance_defect_line():
    t = box_tile(Z, [-2], [2])  # {-2..2}
    assert invariance_defect(t, Z.element([1])) == Fraction(2, 5)


def test_invariance_defect_square():
    t = box_tile(Z2, [-1, -1], [1, 1])  # 3x3
    assert invariance_defect(t, Z2.element([1, 0])) == Fraction(6, 9)


def test_invariance_defect_vanishes_along_doubling():
    g = Z2.element([2, -1])
    defects = [invariance_defect(box_tile(Z2, [-n, -n], [n, n]), g) for n in (3, 6, 12)]
    assert defects[0] >= defects[1] >= defects[2]


def test_folner_tile_tiles_aligned_quotient():
    # translates of [-n, n] by (2n+1)Z partition Z/(m(2n+1)) exhaustively
    n, m = 2, 4
    side = 2 * n + 1
    t = box_tile(Z, [-n], [n])
    covered = []
    for c in range(m):
        for g in t.elements():
            covered.append((g.free[0] + side * c) % (side * m))
    assert sorted(covered) == list(range(side * m))


def test_word_normal_form_merges_same_factor():
    g1 = Z.element([2])
    g2 = Z.element([3])
    w = FreeWord.letter(0, g1) * FreeWord.letter(0, g2)
    assert len(w) == 1
    assert w.letters[0][1].free == (5,)
    cancel = FreeWord.letter(0, g1) * FreeWord.letter(0, Z.element([-2]))
    assert cancel.is_identity()


def test_word_inverse_law():
    rng = random.Random(99)
    for _ in range(100):
        letters = []
        for _ in range(rng.randrange(0, 6)):
            letters.append((rng.randrange(0, 3), Z.element([rng.randrange(-3, 4)])))
        w = FreeWord(letters)
        assert (w * w.inverse()).is_identity()
        assert (w.inverse() * w).is_identity()


def test_word_keeps_alternating_form():
    g = Z.element([1])
    w = FreeWord([(0, g), (1, g), (0, Z.element([-1]))])
    assert len(w) == 3
    for (i, a), (j, b) in zip(w.letters, w.letters[1:]):
        assert i != j
    assert not any(a.is_identity() for _, a in w.letters)


def test_word_associativity_random():
    rng = random.Random(3)

    def rand_word():
        return FreeWord(
            [(rng.randrange(0, 2), Z.element([rng.randrange(-2, 3)]))
             for _ in range(rng.randrange(0, 5))]
        )

    for _ in range(100):
        a, b, c = rand_word(), rand_word(), rand_word()
        assert (a * b) * c == a * (b * c)
