import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import labeling

from orbitrewire import (
    Distribution,
    FiniteSpace,
    Labeling,
    Permutation,
    PointSet,
    exact_fraction,
    generated_partition,
    measure,
    pushforward,
    sym_diff_mass,
)
from orbitrewire.errors import SpaceMismatch


def test_measure_counting():
    sp = FiniteSpace(8)
    assert measure(PointSet.from_indices(sp, [0, 1, 2])) == Fraction(3, 8)
    assert measure(PointSet.empty(sp)) == 0
    sp12 = FiniteSpace(12)
    assert measure(PointSet.from_indices(sp12, [1, 4, 7, 10])) == Fraction(1, 3)


def test_sym_diff_mass_examples():
    sp = FiniteSpace(4)
    a = PointSet.from_indices(sp, [0, 1])
    assert sym_diff_mass(a, a) == 0
    b = PointSet.from_indices(sp, [2, 3])
    assert sym_diff_mass(a, b) == 1
    c = PointSet.from_indices(sp, [1, 2])
    d = PointSet.from_indices(sp, [2, 3])
    assert sym_diff_mass(c, d) == Fraction(1, 2)


def test_sym_diff_space_mismatch():
    a = PointSet.empty(FiniteSpace(4))
    b = PointSet.empty(FiniteSpace(5))
    with pytest.raises(SpaceMismatch):
        sym_diff_mass(a, b)


def test_sym_diff_is_pseudometric():
    rng = random.Random(20240205)
    sp = FiniteSpace(30)
    for _ in range(200):
        sets = [
            PointSet.from_indices(sp, [x for x in range(30) if rng.random() < 0.4])
            for _ in range(3)
        ]
        a, b, c = sets
        assert sym_diff_mass(a, b) == sym_diff_mass(b, a)
        assert sym_diff_mass(a, c) <= sym_diff_mass(a, b) + sym_diff_mass(b, c)
        assert sym_diff_mass(a, a) == 0


def test_generated_partition_single_set():
    sp = FiniteSpace(4)
    lab = generated_partition(sp, [PointSet.from_indices(sp, [0, 1])])
    assert len(lab.alphabet) == 2
    assert lab.cell((1,)).members == {0, 1}
    assert lab.cell((0,)).members == {2, 3}


def test_generated_partition_empty_family():
    sp = FiniteSpace(5)
    lab = generated_partition(sp, [])
    assert len(lab.alphabet) == 1
    assert lab.cell(()).size == 5


def test_generated_partition_two_sets_patterns():
    sp = FiniteSpace(4)
    lab = generated_partition(
        sp, [PointSet.from_indices(sp, [0, 1]), PointSet.from_indices(sp, [1, 2])]
    )
    assert len(lab.alphabet) == 4
    assert lab.cell((1, 0)).members == {0}
    assert lab.cell((1, 1)).members == {1}
    assert lab.cell((0, 1)).members == {2}
    assert lab.cell((0, 0)).members == {3}
    # canonical order: lexicographic on the membership pattern
    assert lab.alphabet == ((0, 0), (0, 1), (1, 0), (1, 1))


@pytest.mark.parametrize("n, blocks", [(1000, None), (997, 16)])
def test_generated_partition_of_62_sets_matches_sorted_patterns(n, blocks):
    """The largest family allowed: symbols are the realized membership
    patterns in sorted order, read without a table over all 2^62 patterns.
    With ``blocks`` the sets are unions of 16 random blocks, so patterns
    repeat."""
    rng = np.random.default_rng(n)
    if blocks is None:
        masks = rng.random((62, n)) < 0.5
    else:
        masks = (rng.random((62, blocks)) < 0.5)[:, rng.integers(0, blocks, n)]
    sp = FiniteSpace(n)
    lab = generated_partition(sp, [PointSet(sp, m) for m in masks])
    patterns = [tuple(int(b) for b in col) for col in masks.T]
    alphabet = sorted(set(patterns))
    code = {p: i for i, p in enumerate(alphabet)}
    assert lab.alphabet == tuple(alphabet)
    assert lab.codes.tolist() == [code[p] for p in patterns]


def test_pushforward_examples():
    sp = FiniteSpace(4)
    const = Labeling.constant(sp, "a")
    assert pushforward(const) == Distribution(("a",), {"a": 1})
    lab = labeling(sp, ["a", "a", "b", "b"], ("a", "b"))
    assert pushforward(lab) == Distribution(("a", "b"), {"a": Fraction(1, 2), "b": Fraction(1, 2)})
    sp6 = FiniteSpace(6)
    lab6 = labeling(sp6, ["a", "b", "b", "c", "c", "c"], ("a", "b", "c"))
    assert pushforward(lab6) == Distribution(
        ("a", "b", "c"), {"a": Fraction(1, 6), "b": Fraction(1, 3), "c": Fraction(1, 2)}
    )


def test_pushforward_of_generated_partition_sums_to_one():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(1, 40)
        sp = FiniteSpace(n)
        sets = [
            PointSet.from_indices(sp, [x for x in range(n) if rng.random() < 0.5])
            for _ in range(rng.randrange(0, 5))
        ]
        dist = pushforward(generated_partition(sp, sets))
        assert sum(m for _, m in dist.items()) == 1


def test_permutation_roundtrip_and_images():
    sp = FiniteSpace(6)
    p = Permutation(sp, np.array([1, 2, 3, 4, 5, 0]))
    assert p.inverse().compose(p) == Permutation.identity(sp)
    s = PointSet.from_indices(sp, [0, 5])
    assert p.image(s).members == {1, 0}
    assert p.inverse().image(p.image(s)) == s


def test_permutation_rejects_non_bijection():
    sp = FiniteSpace(3)
    with pytest.raises(ValueError):
        Permutation(sp, np.array([0, 0, 1]))


@pytest.mark.parametrize("entry", [3, 10**13, -1])
def test_permutation_checks_range_before_counting(entry):
    # the range check comes first: a count up to 10**13 would try to
    # allocate 72.8 TiB and fail with a MemoryError, not a ValueError
    with pytest.raises(ValueError, match="maps outside the space"):
        Permutation(FiniteSpace(3), np.array([0, 1, entry]))


@pytest.mark.parametrize("forward", [
    [1.5, 0.5],
    np.array([1.0, 0.0]),
    [True, False],
    np.array([1, 0], dtype=object),
])
def test_permutation_refuses_non_integer_arrays(forward):
    # an int64 cast would truncate [1.5, 0.5] and read [True, False] as the swap
    with pytest.raises(ValueError, match="must hold integers"):
        Permutation(FiniteSpace(2), forward)


@pytest.mark.parametrize("forward", [[1, 0], np.array([1, 0], dtype=np.uint8),
                                     np.array([1, 0], dtype=np.int32)])
def test_permutation_takes_any_integer_dtype(forward):
    assert Permutation(FiniteSpace(2), forward).forward.tolist() == [1, 0]


@pytest.mark.parametrize("codes", [[0.7, 1.2], [False, True], np.array([0.0, 1.0])])
def test_labeling_refuses_non_integer_codes(codes):
    with pytest.raises(ValueError, match="must hold integers"):
        Labeling(FiniteSpace(2), ("a", "b"), codes)


def test_labeling_takes_unsigned_codes():
    lab = Labeling(FiniteSpace(2), ("a", "b"), np.array([1, 0], dtype=np.uint16))
    assert lab.codes.dtype == np.int64 and lab.codes.tolist() == [1, 0]


def test_exact_fraction_decimal_semantics():
    assert exact_fraction(0.24) == Fraction(24, 100)
    assert exact_fraction("1/3") == Fraction(1, 3)
    assert exact_fraction(2) == 2


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution(("a", "b"), {"a": Fraction(1, 2), "b": Fraction(1, 3)})


def test_space_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        FiniteSpace(0)


@pytest.mark.parametrize("indices", [
    np.array([7, 0, 3, 3], dtype=np.int64),
    np.array([7, 0, 3], dtype=np.int32),
    [7, 0, 3, 3],
    range(0, 8, 3),
    {0, 3, 7},
])
def test_point_set_from_indices_inputs(indices):
    sp = FiniteSpace(8)
    s = PointSet.from_indices(sp, indices)
    assert s.members == {int(i) for i in indices}
    assert s.mask.dtype == bool


@pytest.mark.parametrize("indices", [np.array([0, 8]), np.array([-1]), [8], range(7, 9), {-1}])
def test_point_set_from_indices_rejects_out_of_range(indices):
    with pytest.raises(ValueError, match="outside space"):
        PointSet.from_indices(FiniteSpace(8), indices)
