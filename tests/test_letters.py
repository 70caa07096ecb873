"""Differential tests: window letters read from the generator arrays, against
the chart walks they replaced.

``FactorAction.element_image_points`` applies a power of 1 by one gather
through the generator's forward array, and ``element_perm`` returns the
generator itself for a unit letter.  ``freeness_defect`` decides
a one-generator element e_d^j by the cycle lengths of generator d.  The
oracles are ``CycleChart.power_image`` applied coordinate by coordinate, and
the image-comparison loop ``freeness_defect`` ran before, both kept here.
The factors are generated: each generator acts on its own coordinate of a
product space by a random permutation (of order dividing its modulus for a
torsion generator), the points are shuffled, and optionally the second free
generator is a power of the first, so that orbits need not be products.

A run and its verification on the small workload configs walk no chart over
the whole space: every letter they read is a generator.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_golden import CONFIGS

from orbitrewire import (
    AbelianGroupSpec,
    FactorAction,
    FiniteSpace,
    FreeProductSystem,
    FreeWord,
    Permutation,
    freeness_defect,
)
from orbitrewire.actions import CycleChart
from orbitrewire.config import RunConfig
from orbitrewire.runner import execute, verify_report_file, write_report_files

SETTINGS = settings(max_examples=150, deadline=None)


def _divisors(c: int) -> list[int]:
    return [d for d in range(1, c + 1) if c % d == 0]


@st.composite
def coordinate_perms(draw, length: int, modulus: int | None) -> np.ndarray:
    """A permutation of range(length); of order dividing ``modulus`` if given."""
    if modulus is None:
        return np.asarray(draw(st.permutations(range(length))), dtype=np.int64)
    points = np.asarray(draw(st.permutations(range(length))), dtype=np.int64)
    forward = np.arange(length, dtype=np.int64)
    at = 0
    while at < length:
        ln = draw(st.sampled_from([d for d in _divisors(modulus) if d <= length - at]))
        cyc = points[at:at + ln]
        forward[cyc] = np.roll(cyc, -1)
        at += ln
    return forward


@st.composite
def factors(draw) -> FactorAction:
    rank = draw(st.integers(0, 2))
    torsion = draw(st.lists(st.integers(2, 4), min_size=0 if rank else 1, max_size=1))
    spec = AbelianGroupSpec(rank, tuple(torsion))
    moduli = [None] * rank + torsion
    power_of_first = rank == 2 and draw(st.booleans())
    lengths = [draw(st.integers(1, 7)) for _ in moduli]
    if power_of_first:
        lengths[1] = 1
    n = int(np.prod(lengths))
    coords = np.unravel_index(np.arange(n), lengths)
    gens = []
    for d, (ln, c) in enumerate(zip(lengths, moduli)):
        step = draw(coordinate_perms(ln, c))
        moved = list(coords)
        moved[d] = step[coords[d]]
        gens.append(np.ravel_multi_index(moved, lengths))
    if power_of_first:
        k = draw(st.integers(-3, 3))
        step = gens[0] if k >= 0 else np.argsort(gens[0])
        gens[1] = np.arange(n)
        for _ in range(abs(k)):
            gens[1] = step[gens[1]]
    # shuffle the points: rho g rho^-1
    rho = np.asarray(draw(st.permutations(range(n))), dtype=np.int64)
    sp = FiniteSpace(n)
    out = []
    for g in gens:
        conj = np.empty(n, dtype=np.int64)
        conj[rho] = rho[g]
        out.append(Permutation(sp, conj))
    return FactorAction(spec, sp, tuple(out))


def elements(spec: AbelianGroupSpec, single: bool):
    """Elements with powers in -3..3: one nonzero coordinate, or any."""
    m = spec.num_generators
    if single:
        return st.tuples(st.integers(0, m - 1), st.sampled_from([-3, -2, -1, 1, 2, 3])).map(
            lambda dj: spec.element([dj[1] if d == dj[0] else 0 for d in range(m)]))
    return st.lists(st.integers(-3, 3), min_size=m, max_size=m).map(spec.element)


def chart_images(f: FactorAction, g, points: np.ndarray) -> np.ndarray:
    """Oracle: g applied by a chart walk in every nonzero coordinate."""
    out = np.asarray(points, dtype=np.int64)
    for d, power in enumerate(g.coords):
        if power:
            out = f.charts[d].power_image(power, out)
    return out


def chart_word_images(s: FreeProductSystem, w: FreeWord, points: np.ndarray) -> np.ndarray:
    """Oracle: a word applied letter by letter, right to left, by chart walks."""
    out = np.asarray(points, dtype=np.int64)
    for i, g in reversed(w.letters):
        out = chart_images(s.factors[i], g, out)
    return out


def freeness_loop(f, window) -> Fraction:
    """Oracle: the image comparison ``freeness_defect`` made for every
    element, with the images taken by chart walks."""
    images = chart_images if isinstance(f, FactorAction) else chart_word_images
    points = np.arange(f.space.n_points, dtype=np.int64)
    fixed = np.zeros(f.space.n_points, dtype=bool)
    for w in window:
        fixed |= images(f, w, points) == points
    return Fraction(int(np.count_nonzero(fixed)), f.space.n_points)


@SETTINGS
@given(st.data())
def test_element_images_match_the_chart_walk(data):
    f = data.draw(factors())
    g = data.draw(elements(f.spec, data.draw(st.booleans())))
    points = np.arange(f.space.n_points, dtype=np.int64)
    subset = points[data.draw(st.lists(st.integers(0, f.space.n_points - 1), max_size=10))]
    for pts in (points, subset):
        assert np.array_equal(f.element_image_points(g, pts), chart_images(f, g, pts))
    assert np.array_equal(f.element_perm(g).forward, chart_images(f, g, points))


@SETTINGS
@given(factors())
def test_unit_letter_is_the_generator(f):
    for d in range(f.spec.num_generators):
        assert f.element_perm(f.spec.generator(d)) is f.gens[d]


@SETTINGS
@given(st.data())
def test_freeness_matches_the_image_loop(data):
    f = data.draw(factors())
    window = data.draw(st.lists(
        st.one_of(elements(f.spec, True), elements(f.spec, False)).filter(
            lambda g: not g.is_identity()),
        min_size=1, max_size=6))
    assert freeness_defect(f, window) == freeness_loop(f, window)


@st.composite
def systems(draw) -> FreeProductSystem:
    first = draw(factors())
    n = first.space.n_points
    # further factors on the same space: shuffled rotations by drawn steps
    sp = first.space
    rest = []
    for _ in range(draw(st.integers(0, 2))):
        rho = np.asarray(draw(st.permutations(range(n))), dtype=np.int64)
        shift = (np.arange(n, dtype=np.int64) + draw(st.integers(0, n))) % n
        conj = np.empty(n, dtype=np.int64)
        conj[rho] = rho[shift]
        rest.append(FactorAction(AbelianGroupSpec(1), sp, (Permutation(sp, conj),)))
    return FreeProductSystem((first, *rest))


@st.composite
def words(draw, system: FreeProductSystem) -> FreeWord:
    letters = []
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, system.k - 1))
        spec = system.factors[i].spec
        letters.append((i, draw(st.one_of(elements(spec, True), elements(spec, False)))))
    return FreeWord(letters)


@SETTINGS
@given(st.data())
def test_word_perm_matches_word_images(data):
    s = data.draw(systems())
    w = data.draw(words(s))
    points = np.arange(s.space.n_points, dtype=np.int64)
    assert np.array_equal(s.word_perm(w).forward, s.word_image_points(w, points))
    assert np.array_equal(s.word_perm(w).forward, chart_word_images(s, w, points))
    if len(w) == 1:
        # a one-letter word is its letter; a unit letter is the generator
        (i, g), = w.letters
        spec = s.factors[i].spec
        units = [spec.generator(d) for d in range(spec.num_generators)]
        if g in units:
            assert s.word_perm(w) is s.factors[i].gens[units.index(g)]


@SETTINGS
@given(st.data())
def test_system_freeness_matches_the_image_loop(data):
    s = data.draw(systems())
    window = data.draw(st.lists(words(s).filter(lambda w: not w.is_identity()),
                                min_size=1, max_size=4))
    assert freeness_defect(s, window) == freeness_loop(s, window)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_and_verify_walk_no_chart_over_the_space(monkeypatch, tmp_path, name):
    # a walk over part of the space, a base shifted by a tile element, stays
    power_image = CycleChart.power_image

    def part_only(chart, power, points):
        if len(points) == chart.n:
            raise AssertionError(f"chart walk by power {power} over the whole space")
        return power_image(chart, power, points)

    monkeypatch.setattr(CycleChart, "power_image", part_only)
    _, report = execute(RunConfig.from_dict({**CONFIGS[name], "seed": 3}))
    json_path, _ = write_report_files(report, tmp_path)
    assert verify_report_file(json_path)
