from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import Z, rotation, rotation_system

from orbitrewire import (
    Distribution,
    FactorAction,
    FiniteSpace,
    FreeProductSystem,
    Labeling,
    Permutation,
    good_partition,
    pushforward,
    verify_good_partition,
)
from orbitrewire.errors import ExactRangeExceeded, InfeasibleTarget, VerificationFailed


def unif(*symbols):
    n = len(symbols)
    return Distribution(symbols, {a: Fraction(1, n) for a in symbols})


def test_point_mass_target_gives_constant_labeling():
    sp = FiniteSpace(10)
    sys = rotation_system(sp, 1)
    # the i.i.d. draws give every point the symbol of mass 1, wherever it stands
    for masses in ({"a": Fraction(1), "b": Fraction(0)}, {"a": Fraction(0), "b": Fraction(1)}):
        pi = Distribution(("a", "b"), masses)
        psi, report, retries = good_partition(sys, pi, Fraction(1, 10), seed=0)
        assert pushforward(psi) == pi
        assert report.max_bad_mass == 0
        assert retries == 0


def test_transitive_factor_bad_mass_zero_exactly():
    sp = FiniteSpace(1000)
    sys = rotation_system(sp, 1, 3)
    pi = unif("a", "b")
    psi, report, _ = good_partition(sys, pi, Fraction(1, 10), seed=1)
    assert pushforward(psi) == pi
    assert all(fb.bad_mass == 0 for fb in report.per_factor)


def test_two_factor_instance_exact_counts():
    sp = FiniteSpace(10_000)
    sys = rotation_system(sp, 1, 3)
    pi = unif("a", "b")
    psi, report, _ = good_partition(sys, pi, Fraction(1, 10), seed=7)
    counts = psi.cell_counts()
    assert counts.tolist() == [5000, 5000]
    assert report.max_bad_mass == 0


def test_infeasible_target_rejected():
    sp = FiniteSpace(10)
    sys = rotation_system(sp, 1)
    with pytest.raises(InfeasibleTarget):
        good_partition(sys, unif("a", "b", "c"), Fraction(1, 10), seed=0)


def test_verify_constant_labeling_all_bad():
    sp = FiniteSpace(16)
    sys = rotation_system(sp, 1)
    psi = Labeling(sp, ("a", "b"), np.zeros(16, dtype=np.int64))
    report = verify_good_partition(sys, psi, unif("a", "b"), Fraction(1, 8))
    assert report.per_factor[0].bad_mass == 1


def test_verify_singleton_orbits_all_bad():
    sp = FiniteSpace(8)
    ident = FactorAction(Z, sp, (Permutation.identity(sp),))
    sys = FreeProductSystem((ident,))
    psi = Labeling(sp, ("a", "b"), np.arange(8) % 2)
    # each singleton orbit is a point mass, deviating by 1/2 from uniform
    report = verify_good_partition(sys, psi, unif("a", "b"), Fraction(1, 8))
    assert report.per_factor[0].bad_mass == 1
    hist = dict(report.per_factor[0].histogram)
    assert hist == {Fraction(1, 2): Fraction(1)}


def test_multi_orbit_long_cycles_pass():
    # 8 orbits of length 2048 each: iid + balancing concentrates well below
    # the 2*eps deviation threshold
    n = 8 * 2048
    sp = FiniteSpace(n)
    sys = FreeProductSystem((rotation(sp, 8),))
    pi = unif("a", "b")
    psi, report, retries = good_partition(sys, pi, Fraction(1, 25), seed=3)
    assert pushforward(psi) == pi
    assert report.per_factor[0].bad_mass < Fraction(1, 25)
    assert retries <= 3


def test_short_orbits_fail_loudly():
    # orbits of length 4 cannot hold a tight deviation bound: must raise
    sp = FiniteSpace(64)
    sys = FreeProductSystem((rotation(sp, 16),))
    with pytest.raises(VerificationFailed):
        good_partition(sys, unif("a", "b"), Fraction(1, 100), seed=0, max_retries=2)


def test_simultaneity_across_factors():
    sp = FiniteSpace(4096)
    sys = rotation_system(sp, 1, 3, 5)
    pi = Distribution(("a", "b", "c", "d"),
                      {"a": Fraction(1, 4), "b": Fraction(1, 4),
                       "c": Fraction(1, 4), "d": Fraction(1, 4)})
    psi, report, _ = good_partition(sys, pi, Fraction(1, 20), seed=9)
    assert len(report.per_factor) == 3
    assert all(fb.bad_mass < Fraction(1, 20) for fb in report.per_factor)
    assert pushforward(psi) == pi


def test_determinism_same_seed():
    sp = FiniteSpace(2048)
    sys = rotation_system(sp, 1, 5)
    pi = unif("a", "b")
    psi1, _, _ = good_partition(sys, pi, Fraction(1, 16), seed=11)
    psi2, _, _ = good_partition(sys, pi, Fraction(1, 16), seed=11)
    assert psi1 == psi2


def _loop_bad_masses_and_histograms(s, psi, pi, eps):
    """The per-orbit, per-symbol Fraction loop verify_good_partition replaced."""
    n = s.space.n_points
    k_sym = len(psi.alphabet)
    out = []
    for f in s.factors:
        od = f.orbits()
        counts = np.bincount(
            od.orbit_id * k_sym + psi.codes, minlength=od.n_orbits * k_sym
        ).reshape(od.n_orbits, k_sym)
        bad_mass = Fraction(0)
        hist: dict[Fraction, Fraction] = {}
        for o in range(od.n_orbits):
            size = int(od.sizes[o])
            dev = max(abs(Fraction(int(counts[o, a_idx]), size) - pi.mass(a))
                      for a_idx, a in enumerate(psi.alphabet))
            if dev > 2 * eps:
                bad_mass += Fraction(size, n)
            hist[dev] = hist.get(dev, Fraction(0)) + Fraction(size, n)
        out.append((bad_mass, sorted(hist.items())))
    return out


@st.composite
def labeled_systems(draw):
    """A system of 1-3 factors with many orbits of mixed sizes, a labeling
    and a target whose masses need not have denominators dividing N."""
    n = draw(st.integers(1, 120))
    sp = FiniteSpace(n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        # a random partition of the points into cycles of length <= 9
        order = rng.permutation(n)
        fwd = np.empty(n, dtype=np.int64)
        start = 0
        while start < n:
            stop = min(n, start + int(rng.integers(1, 10)))
            cycle = order[start:stop]
            fwd[cycle] = np.roll(cycle, -1)
            start = stop
        factors.append(FactorAction(Z, sp, (Permutation(sp, fwd),)))
    k_sym = draw(st.integers(1, 4))
    alphabet = tuple("abcd"[:k_sym])
    weights = [draw(st.integers(0, 7)) for _ in range(k_sym - 1)]
    total = sum(weights) + draw(st.integers(1, 7))
    masses = {a: Fraction(w, total) for a, w in zip(alphabet, weights)}
    masses[alphabet[-1]] = 1 - sum(masses.values(), Fraction(0))
    psi = Labeling(sp, alphabet, rng.integers(0, k_sym, n))
    eps = Fraction(draw(st.integers(1, 20)), draw(st.integers(20, 200)))
    return FreeProductSystem(tuple(factors)), psi, Distribution(alphabet, masses), eps


@settings(max_examples=200, deadline=None)
@given(labeled_systems())
def test_verify_good_partition_matches_the_fraction_loop(case):
    system, psi, pi, eps = case
    report = verify_good_partition(system, psi, pi, eps)
    got = [(fb.bad_mass, fb.histogram) for fb in report.per_factor]
    assert got == _loop_bad_masses_and_histograms(system, psi, pi, eps)


def test_verify_good_partition_keeps_the_int64_range_guard():
    sp = FiniteSpace(10)
    sys = rotation_system(sp, 1)
    psi = Labeling(sp, ("a", "b"), np.arange(10) % 2)
    with pytest.raises(ExactRangeExceeded):
        verify_good_partition(sys, psi, unif("a", "b"), Fraction(1, 2**54))
    # a target denominator far above N also leaves int64
    pi = Distribution(("a", "b"), {"a": Fraction(1, 2**58), "b": 1 - Fraction(1, 2**58)})
    with pytest.raises(ExactRangeExceeded):
        verify_good_partition(sys, psi, pi, Fraction(1, 8))
