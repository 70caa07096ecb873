"""Differential tests: the tower stages built on one level array against the
per-base-point loops they replaced.

Each ``*_loop`` function below is the former implementation, kept as a
test-only oracle.  The permutations are generated: rotations, rank-2 grid
shifts (some with a torsion generator, some with extra orbits that are not
products of their generator cycles), and random multi-cycle permutations;
the pipeline cases run ``oe_approximate`` on rotation and grid systems and
check the stages on the arguments it passed them.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import Z

from orbitrewire import (
    AbelianGroupSpec,
    FactorAction,
    FiniteSpace,
    Permutation,
    PointSet,
    box_tile,
    build_rewiring,
    discrepancy_budget,
    oe_approximate,
    rewiring,
)
from orbitrewire.errors import BudgetViolated, OrbitRewireError
from orbitrewire.generate import generate_system
from orbitrewire.rewiring import Column, ColumnData, _loss_masks, _names_by_class
from orbitrewire.rohlin import tiling_base, tower_support

SETTINGS = settings(max_examples=60, deadline=None)


# ---------------------------------------------------------------------------
# oracles: the per-base-point loops
# ---------------------------------------------------------------------------

def tower_support_loop(f, t, base):
    mask = np.zeros(f.space.n_points, dtype=bool)
    disjoint = True
    for x in base.indices():
        idx = f.tile_images(t, int(x))
        if np.unique(idx).size != idx.size or mask[idx].any():
            disjoint = False
        mask[idx] = True
    return mask, disjoint


def names_by_class_loop(f, tile, base, codes):
    classes = {}
    for x in base.indices():
        name = codes[f.tile_images(tile, int(x))].astype(np.int16)
        key = name.astype(">u2").tobytes()
        classes.setdefault(key, (name, []))[1].append(int(x))
    return [classes[k] for k in sorted(classes)]


def rewiring_forward_loop(f, cd):
    forward = np.arange(f.space.n_points, dtype=np.int64)
    for col in cd.columns:
        for x in col.q_alpha:
            levels = f.tile_images(cd.tile, int(x))
            forward[levels] = levels[col.sigma]
    return forward


def budget_masks_loop(f, cd, g):
    """The L0, L1 and L2 masks of element g, one base point at a time."""
    n = f.space.n_points
    tile = cd.tile
    shift = tile.index_of_shift(g)
    in_gt = shift >= 0
    l0 = np.ones(n, dtype=bool)
    l1 = np.zeros(n, dtype=bool)
    l2 = np.zeros(n, dtype=bool)
    for col in cd.columns:
        for x in col.q_alpha:
            img = f.tile_images(tile, int(x))
            l0[img] = False
            l1[img[~in_gt]] = True
            in_gts = np.zeros(tile.size, dtype=bool)
            in_gts[in_gt] = col.matched[shift[in_gt]]
            l2[img[~(col.matched & in_gts)]] = True
    return l0, l1, l2


# ---------------------------------------------------------------------------
# generated actions, tiles and columns
# ---------------------------------------------------------------------------

def _action(spec, gens) -> FactorAction:
    sp = FiniteSpace(len(gens[0]))
    return FactorAction(spec, sp, tuple(Permutation(sp, np.asarray(g, dtype=np.int64))
                                        for g in gens))


@st.composite
def factor_actions(draw) -> FactorAction:
    kind = draw(st.sampled_from(("rotation", "cycles", "grid", "torsion")))
    if kind == "rotation":
        n = draw(st.integers(2, 64))
        step = draw(st.integers(1, n - 1))
        return _action(Z, [(np.arange(n) + step) % n])
    if kind == "cycles":
        perm = draw(st.permutations(range(draw(st.integers(1, 64)))))
        return _action(Z, [perm])
    a, b = draw(st.integers(1, 8)), draw(st.integers(2, 8))
    i, j = np.divmod(np.arange(a * b), b)
    g0 = ((i + 1) % a) * b + j
    g1 = i * b + (j + 1) % b
    if kind == "torsion":
        return _action(AbelianGroupSpec(1, (b,)), [g0, g1])
    # extra orbits driven by p and p^2: single cycles, not products of the two
    p = np.asarray(draw(st.permutations(range(draw(st.integers(0, 20))))), dtype=np.int64)
    m = a * b
    return _action(AbelianGroupSpec(2), [np.concatenate([g0, m + p]),
                                         np.concatenate([g1, m + p[p]])])


@st.composite
def fitting_tiles(draw, f: FactorAction):
    """A box tile no larger than the smallest orbit of f."""
    budget = f.orbits().min_orbit_size()
    for c in f.spec.torsion_moduli:
        budget //= c
    lows, highs = [], []
    for _ in range(f.spec.rank):
        side = draw(st.integers(1, max(1, min(budget, 6))))
        budget //= side
        lo = draw(st.integers(-(side - 1), 0))
        lows.append(lo)
        highs.append(lo + side - 1)
    return box_tile(f.spec, lows, highs)


def _random_columns(rng, tile, base: PointSet) -> ColumnData:
    """Base points split into columns with random identity-fixing sigmas."""
    pts = base.indices()
    cuts = np.sort(rng.choice(len(pts) + 1, size=min(3, len(pts) + 1), replace=False))
    e = tile.identity_index
    others = np.array([t for t in range(tile.size) if t != e], dtype=np.int64)
    columns = []
    for q in np.split(pts, cuts):
        sigma = np.full(tile.size, e, dtype=np.int64)
        sigma[others] = rng.permutation(others)
        names = np.zeros(tile.size, dtype=np.int16)
        columns.append(Column(q_alpha=q, q_beta=q, name_alpha=names, name_beta=names,
                              sigma=sigma, matched=rng.random(tile.size) < 0.7))
    return ColumnData(factor_index=None, tile=tile, base_alpha=base, base_beta=base,
                      alphabet_size=1, columns=columns)


# ---------------------------------------------------------------------------
# generated permutations
# ---------------------------------------------------------------------------

@SETTINGS
@given(st.data())
def test_tile_images_columns_match_single_points(data):
    f = data.draw(factor_actions())
    tile = data.draw(fitting_tiles(f))
    pts = np.array(data.draw(st.lists(st.integers(0, f.space.n_points - 1), max_size=12)),
                   dtype=np.int64)
    levels = f.tile_images(tile, pts)
    assert levels.shape == (tile.size, len(pts))
    for i, x in enumerate(pts):
        assert np.array_equal(levels[:, i], f.tile_images(tile, x))


@SETTINGS
@given(st.data())
def test_tower_support_matches_loop(data):
    f = data.draw(factor_actions())
    tile = data.draw(fitting_tiles(f))
    n = f.space.n_points
    bases = [PointSet.from_indices(f.space, data.draw(st.sets(st.integers(0, n - 1)))),
             tiling_base(f, tile)]
    for base in bases:
        support, disjoint = tower_support(f, tile, base)
        mask, disjoint_loop = tower_support_loop(f, tile, base)
        assert np.array_equal(support.mask, mask)
        assert disjoint == disjoint_loop
    assert disjoint  # tiling_base levels are disjoint


@SETTINGS
@given(st.data(), st.sampled_from((1, 3, 300)), st.integers(0, 2**32 - 1))
def test_names_by_class_matches_loop(data, k_sym, seed):
    # 300 symbols put codes in both bytes of the big-endian keys
    f = data.draw(factor_actions())
    tile = data.draw(fitting_tiles(f))
    n = f.space.n_points
    codes = np.random.default_rng(seed).integers(0, k_sym, n)
    base = PointSet.from_indices(f.space, data.draw(st.sets(st.integers(0, n - 1))))
    got = _names_by_class(f, tile, base, codes)
    want = names_by_class_loop(f, tile, base, codes)
    assert len(got) == len(want)
    for (name, pts), (name_loop, pts_loop) in zip(got, want):
        assert name.dtype == np.int16
        assert np.array_equal(name, name_loop)
        assert pts.tolist() == pts_loop


@SETTINGS
@given(st.data(), st.integers(0, 2**32 - 1))
def test_build_rewiring_forward_matches_loop(data, seed):
    f = data.draw(factor_actions())
    tile = data.draw(fitting_tiles(f))
    cd = _random_columns(np.random.default_rng(seed), tile, tiling_base(f, tile))
    s_perm, _ = build_rewiring(f, cd)
    assert np.array_equal(s_perm.forward, rewiring_forward_loop(f, cd))


@SETTINGS
@given(st.data(), st.integers(0, 2**32 - 1))
def test_loss_masks_match_loop(data, seed):
    f = data.draw(factor_actions())
    tile = data.draw(fitting_tiles(f))
    cd = _random_columns(np.random.default_rng(seed), tile, tiling_base(f, tile))
    g = f.spec.element(data.draw(st.lists(st.integers(-3, 3), min_size=f.spec.num_generators,
                                          max_size=f.spec.num_generators)))
    levels = f.tile_images(tile, np.concatenate([c.q_alpha for c in cd.columns]))
    matched = np.concatenate([np.repeat(c.matched[:, None], c.size, axis=1)
                              for c in cd.columns], axis=1)
    l1, l2 = _loss_masks(f.space.n_points, tile, levels, matched, g)
    _, l1_loop, l2_loop = budget_masks_loop(f, cd, g)
    assert np.array_equal(l1, l1_loop)
    assert np.array_equal(l2, l2_loop)


# ---------------------------------------------------------------------------
# stages on the arguments the pipeline passes them
# ---------------------------------------------------------------------------

ROTATIONS = ([{"name": "rotation", "step": 1}, {"name": "rotation", "step": 3}],
             [{"name": "rotation", "step": 1}, {"name": "rotation", "step": 7}])
GRID = ([{"name": "grid_shift", "dims": [50, 50], "steps": [1, 1]}],
        [{"name": "grid_shift", "dims": [50, 50], "steps": [1, 3]}])


STAGES = ("column_partitions", "build_rewiring", "discrepancy_budget")


def _captured_run(templates, n, eps_prime, seed):
    """Run the pipeline; return (arguments, result) of every call it made
    to each stage in STAGES."""
    calls = {name: [] for name in STAGES}

    def recorder(name, fn):
        def rec(*args):
            out = fn(*args)
            calls[name].append((args, out))
            return out
        return rec

    sp = FiniteSpace(n)
    alpha = generate_system(sp, templates[0])
    beta = generate_system(sp, templates[1])
    window = [[f.spec.generator(d) for d in range(f.spec.num_generators)]
              for f in alpha.factors]
    sets = [PointSet(sp, np.arange(n) % 2 == 0)]
    with pytest.MonkeyPatch.context() as mp:
        for name in STAGES:
            mp.setattr(rewiring, name, recorder(name, getattr(rewiring, name)))
        try:
            oe_approximate(alpha, beta, window, Fraction(1, 5), sets, seed,
                           eps_prime_override=eps_prime)
        except OrbitRewireError:
            pass  # the stages that ran are still compared
    return calls


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([(ROTATIONS, 2000, Fraction(1, 10)),
                        (ROTATIONS, 2048, Fraction(1, 12)),
                        (ROTATIONS, 600, Fraction(1, 6)),
                        (GRID, 2500, Fraction(1, 20))]),
       st.integers(0, 1000))
def test_pipeline_stages_match_loops(case, seed):
    templates, n, eps_prime = case
    calls = _captured_run(templates, n, eps_prime, seed)
    assert calls["discrepancy_budget"]
    for (tw_a, tw_b, phi, alpha_i, beta_i), _ in calls["column_partitions"]:
        for tw, f in ((tw_a, alpha_i), (tw_b, beta_i)):
            got = _names_by_class(f, tw.tile, tw.base, phi.codes)
            want = names_by_class_loop(f, tw.tile, tw.base, phi.codes)
            assert [(name.tolist(), pts.tolist()) for name, pts in got] == \
                [(name.tolist(), pts) for name, pts in want]
    for (alpha_i, cd), (s_perm, _) in calls["build_rewiring"]:
        assert np.array_equal(s_perm.forward, rewiring_forward_loop(alpha_i, cd))
    for (app_i, _, cd, window, _, _, _), report in calls["discrepancy_budget"]:
        for g, eb in zip(window, report.per_element):
            masses = [Fraction(int(np.count_nonzero(m)), n)
                      for m in budget_masks_loop(app_i, cd, g)]
            assert [eb.l0, eb.l1, eb.l2] == masses


def test_budget_rejects_a_matched_level_outside_its_promised_cell():
    calls = _captured_run(ROTATIONS, 2000, Fraction(1, 10), 1)
    (app_i, beta_i, cd, window, sets, eps, phi), _ = calls["discrepancy_budget"][0]
    col = cd.columns[-1]
    t = int(np.nonzero(col.matched)[0][-1])
    col.name_beta = col.name_beta.copy()
    col.name_beta[t] = (col.name_beta[t] + 1) % len(phi.alphabet)
    with pytest.raises(BudgetViolated, match="target-side name cell"):
        discrepancy_budget(app_i, beta_i, cd, window, sets, eps, phi)
