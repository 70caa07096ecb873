"""Differential tests: the tower stages built on one level array against the
per-base-point and per-column loops they replaced.

Each ``*_loop`` function below is a former implementation, kept as a
test-only oracle: the per-point tower support and tile names, the ``while``
refinement of the name classes into columns, the per-column tile matching,
and the per-point rewiring and budget masks.  The permutations are
generated: rotations, rank-2 grid shifts (some with a torsion generator,
some with extra orbits that are not products of their generator cycles),
and random multi-cycle permutations; the pipeline cases run
``oe_approximate`` on rotation and grid systems and check the stages on the
arguments it passed them.  The pipeline builds no rewired action; the
pipeline cases rebuild it from the recorded rewiring as the budget's oracle.
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
    Labeling,
    Permutation,
    PointSet,
    Tower,
    box_tile,
    build_rewiring,
    column_partitions,
    discrepancy_budget,
    oe_approximate,
    rewiring,
    tile_matching,
)
from orbitrewire.errors import BudgetViolated, DefectBoundViolated, OrbitRewireError
from orbitrewire.generate import generate_system
from orbitrewire.rewiring import ColumnData, _loss_masks
from orbitrewire.rohlin import rohlin_avoiding, tiling_base, tower_support
from orbitrewire.space import sym_diff_mass

SETTINGS = settings(max_examples=60, deadline=None)


# ---------------------------------------------------------------------------
# oracles: the per-base-point loops
# ---------------------------------------------------------------------------

def tower_support_loop(f, t, base):
    mask = np.zeros(f.space.n_points, dtype=bool)
    disjoint = True
    for x in base:
        idx = f.tile_images(t, int(x))
        if np.unique(idx).size != idx.size or mask[idx].any():
            disjoint = False
        mask[idx] = True
    return mask, disjoint


def avoiding_base_loop(f, tile, w, avoid):
    """The former Rohlin base: W shifted by the first tile element whose
    copy of W meets ``avoid`` least, minus ``avoid``, in increasing order."""
    copies = [f.element_image_points(tile.element_at(j), w) for j in range(tile.size)]
    hits = [int(np.count_nonzero(avoid.mask[c])) for c in copies]
    t0 = min(range(tile.size), key=hits.__getitem__)
    return sorted(set(copies[t0].tolist()) - avoid.members)


def name_classes_loop(f, tile, base, codes):
    """(name, points) per distinct tile name over the base, in name order."""
    classes = {}
    for x in base:
        name = codes[f.tile_images(tile, int(x))].astype(np.int16)
        key = name.astype(">u2").tobytes()
        classes.setdefault(key, (name, []))[1].append(int(x))
    return [classes[k] for k in sorted(classes)]


def column_refinement_loop(cls_a, cls_b):
    """(alpha points, beta points, name_alpha, name_beta) per column: walk the name
    classes of both bases, splitting off min(remaining alpha, remaining
    beta) points at a time."""
    columns = []
    ia = ib = 0
    off_a = off_b = 0
    while ia < len(cls_a) and ib < len(cls_b):
        name_a, pts_a = cls_a[ia]
        name_b, pts_b = cls_b[ib]
        take = min(len(pts_a) - off_a, len(pts_b) - off_b)
        columns.append((pts_a[off_a:off_a + take], pts_b[off_b:off_b + take], name_a, name_b))
        off_a += take
        off_b += take
        if off_a == len(pts_a):
            ia += 1
            off_a = 0
        if off_b == len(pts_b):
            ib += 1
            off_b = 0
    assert ia == len(cls_a) and ib == len(cls_b)
    return columns


def tile_matching_loop(tile, k_sym, names_a, names_b, eps):
    """Per column (sigma, matched), stopping at the first column whose
    defect breaks the bound; returns the columns done and that column."""
    tsz = tile.size
    e_idx = tile.identity_index
    done = []
    for s, (na, nb) in enumerate(zip(names_a, names_b)):
        sigma = np.full(tsz, -1, dtype=np.int64)
        sigma[e_idx] = e_idx
        leftovers_b, leftovers_a = [], []
        for a in range(k_sym):
            bs = np.nonzero(nb == a)[0]
            bs = bs[bs != e_idx]
            as_ = np.nonzero(na == a)[0]
            as_ = as_[as_ != e_idx]
            m = min(len(bs), len(as_))
            sigma[bs[:m]] = as_[:m]
            leftovers_b.append(bs[m:])
            leftovers_a.append(as_[m:])
        sigma[np.sort(np.concatenate(leftovers_b))] = np.sort(np.concatenate(leftovers_a))
        assert sorted(sigma.tolist()) == list(range(tsz))
        matched = na[sigma] == nb
        done.append((sigma, matched))
        defect = tsz - int(np.count_nonzero(matched))
        if not defect * eps.denominator < 7 * eps.numerator * k_sym * tsz:
            return done, s
    return done, None


def rewiring_forward_loop(f, cd):
    forward = np.arange(f.space.n_points, dtype=np.int64)
    for x, s in zip(cd.levels[cd.tile.identity_index], cd.col):
        levels = f.tile_images(cd.tile, int(x))
        forward[levels] = levels[cd.sigma[s]]
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
    for x, s in zip(cd.levels[cd.tile.identity_index], cd.col):
        img = f.tile_images(tile, int(x))
        l0[img] = False
        l1[img[~in_gt]] = True
        in_gts = np.zeros(tile.size, dtype=bool)
        in_gts[in_gt] = cd.matched[s][shift[in_gt]]
        l2[img[~(cd.matched[s] & in_gts)]] = True
    return l0, l1, l2


def assert_columns_match_loop(cd, f_a, tw_a, f_b, tw_b, codes):
    """The listing, ``col``, the names and the alpha levels of ``cd`` equal
    the while refinement of the per-point name classes of both towers."""
    columns = column_refinement_loop(name_classes_loop(f_a, tw_a.tile, tw_a.base, codes),
                                     name_classes_loop(f_b, tw_b.tile, tw_b.base, codes))
    assert cd.n_columns == len(columns)
    base = cd.levels[cd.tile.identity_index]
    assert base.tolist() == [x for c in columns for x in c[0]]
    assert cd.col.tolist() == [s for s, c in enumerate(columns) for _ in c[0]]
    assert cd.name_alpha.dtype == cd.name_beta.dtype == np.int16
    assert cd.name_alpha.shape == cd.name_beta.shape == (len(columns), cd.tile.size)
    for s, (_, _, name_a, name_b) in enumerate(columns):
        assert np.array_equal(cd.name_alpha[s], name_a)
        assert np.array_equal(cd.name_beta[s], name_b)
    assert cd.levels.shape == (cd.tile.size, len(base))
    for i, x in enumerate(base):
        assert np.array_equal(cd.levels[:, i], f_a.tile_images(cd.tile, int(x)))


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


def _random_columns(rng, f, tile, pts: np.ndarray) -> ColumnData:
    """Base points split into columns with random identity-fixing sigmas."""
    cuts = np.sort(rng.choice(len(pts) + 1, size=min(3, len(pts) + 1), replace=False))
    sizes = np.diff(np.concatenate([[0], cuts, [len(pts)]]))
    e = tile.identity_index
    others = np.array([t for t in range(tile.size) if t != e], dtype=np.int64)
    sigma = np.full((len(sizes), tile.size), e, dtype=np.int64)
    for row in sigma:
        row[others] = rng.permutation(others)
    names = np.zeros((len(sizes), tile.size), dtype=np.int16)
    return ColumnData(tile=tile, alphabet_size=1,
                      col=np.repeat(np.arange(len(sizes)), sizes),
                      levels=f.tile_images(tile, pts), name_alpha=names, name_beta=names,
                      sigma=sigma, matched=rng.random(sigma.shape) < 0.7)


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
    bases = [np.array(sorted(data.draw(st.sets(st.integers(0, n - 1)))), dtype=np.int64),
             tiling_base(f, tile).base]
    for base in bases:
        tower = Tower.over(f, tile, base)
        disjoint = tower_support(tower, n)
        mask, disjoint_loop = tower_support_loop(f, tile, base)
        support = np.zeros(n, dtype=bool)
        support[tower.levels] = True
        assert np.array_equal(support, mask)
        assert disjoint == disjoint_loop
    assert disjoint  # tiling_base levels are disjoint


@SETTINGS
@given(st.data(), st.integers(0, 2**32 - 1))
def test_tower_base_is_the_increasing_identity_level(data, seed):
    # the base is read off the level array, so it must be the increasing
    # base points the levels were built over, for both Rohlin stages
    f = data.draw(factor_actions())
    tile = data.draw(fitting_tiles(f))
    n = f.space.n_points
    w = tiling_base(f, tile)
    rng = np.random.default_rng(seed)
    avoid = PointSet(f.space, rng.random(n) < rng.random() / 2)
    # any eps above both shortfalls meets rohlin_avoiding's hypotheses
    eps = 2 * max(1 - Fraction(w.levels.size, n), Fraction(avoid.size, n)) + Fraction(1, n)
    tw = rohlin_avoiding(f, tile, eps, avoid)
    for tower in (w, tw):
        assert np.all(np.diff(tower.base) > 0)
        assert np.array_equal(Tower.over(f, tile, tower.base).levels, tower.levels)
    assert tw.base.tolist() == avoiding_base_loop(f, tile, w.base, avoid)


@SETTINGS
@given(st.data(), st.sampled_from((1, 3, 300)), st.integers(0, 2**32 - 1))
def test_column_partitions_match_while_loop(data, k_sym, seed):
    # 300 symbols put codes in both bytes of the big-endian keys; the beta
    # tower lives on a random conjugate of the alpha action, so the name
    # classes of the two bases have unequal sizes
    f_a = data.draw(factor_actions())
    tile = data.draw(fitting_tiles(f_a))
    n = f_a.space.n_points
    rng = np.random.default_rng(seed)
    f_b = f_a.conjugate(Permutation(f_a.space, rng.permutation(n)))
    phi = Labeling(f_a.space, range(k_sym), rng.integers(0, k_sym, n))
    size = data.draw(st.integers(0, n))
    tw_a, tw_b = (Tower.over(f, tile, np.sort(rng.choice(n, size, False))) for f in (f_a, f_b))
    cd = column_partitions(tw_a, tw_b, phi)
    assert_columns_match_loop(cd, f_a, tw_a, f_b, tw_b, phi.codes)


def _rows_only(tile, k_sym, names_a, names_b) -> ColumnData:
    """Columns of one base point each; tile_matching reads only the rows."""
    pts = np.arange(len(names_a), dtype=np.int64)
    return ColumnData(tile=tile, alphabet_size=k_sym, col=pts,
                      levels=np.zeros((tile.size, len(pts)), np.int64),
                      name_alpha=np.asarray(names_a, dtype=np.int16),
                      name_beta=np.asarray(names_b, dtype=np.int16))


@SETTINGS
@given(st.data(), st.sampled_from((1, 3, 300)), st.integers(0, 2**32 - 1))
def test_tile_matching_matches_loop(data, k_sym, seed):
    tile = data.draw(fitting_tiles(data.draw(factor_actions())))
    rng = np.random.default_rng(seed)
    shape = (data.draw(st.integers(0, 5)), tile.size)
    names_a = rng.integers(0, k_sym, shape)
    # beta names agree with alpha's at a random rate, so defects vary by column
    names_b = np.where(rng.random(shape) < rng.random(), rng.integers(0, k_sym, shape), names_a)
    # the bound 7 eps' |A| |T| lands on an integer in 1..|T|+1, so columns
    # pass and fail in one draw
    eps = Fraction(data.draw(st.integers(1, tile.size + 1)), 7 * k_sym * tile.size)
    done, failing = tile_matching_loop(tile, k_sym, names_a, names_b, eps)
    cd = _rows_only(tile, k_sym, names_a, names_b)
    if failing is None:
        assert tile_matching(cd, eps) is cd
        assert cd.sigma.shape == cd.matched.shape == shape
    else:
        with pytest.raises(DefectBoundViolated) as exc:
            tile_matching(cd, eps)
        assert exc.value.details == {
            "column": failing, "defect": tile.size - int(np.count_nonzero(done[-1][1]))}
    for s, (sigma, matched) in enumerate(done):
        assert np.array_equal(cd.sigma[s], sigma)
        assert np.array_equal(cd.matched[s], matched)


def test_tile_matching_reports_the_first_failing_column():
    # column 0 matches exactly; column 1 misses both tile elements, and
    # 2 >= 7 * 1/20 * 2 * 2 = 1.4 breaks the defect bound
    tile = box_tile(Z, [0], [1])
    cd = _rows_only(tile, 2, [[0, 1], [0, 1]], [[0, 1], [1, 0]])
    with pytest.raises(DefectBoundViolated, match="column 1") as exc:
        tile_matching(cd, Fraction(1, 20))
    assert exc.value.details == {"column": 1, "defect": 2}
    # with a third breaking column, the first one is still the one reported
    cd = _rows_only(tile, 2, [[0, 1]] * 3, [[0, 1], [1, 0], [1, 0]])
    with pytest.raises(DefectBoundViolated) as exc:
        tile_matching(cd, Fraction(1, 20))
    assert exc.value.details == {"column": 1, "defect": 2}


@SETTINGS
@given(st.data(), st.integers(0, 2**32 - 1))
def test_build_rewiring_forward_matches_loop(data, seed):
    f = data.draw(factor_actions())
    tile = data.draw(fitting_tiles(f))
    cd = _random_columns(np.random.default_rng(seed), f, tile, tiling_base(f, tile).base)
    assert np.array_equal(build_rewiring(f, cd).forward, rewiring_forward_loop(f, cd))


@SETTINGS
@given(st.data(), st.integers(0, 2**32 - 1))
def test_loss_masks_match_loop(data, seed):
    f = data.draw(factor_actions())
    tile = data.draw(fitting_tiles(f))
    cd = _random_columns(np.random.default_rng(seed), f, tile, tiling_base(f, tile).base)
    g = f.spec.element(data.draw(st.lists(st.integers(-3, 3), min_size=f.spec.num_generators,
                                          max_size=f.spec.num_generators)))
    levels = cd.levels
    matched = np.array([cd.matched[s] for s in cd.col], dtype=bool).reshape(-1, tile.size).T
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


STAGES = ("tower_pair", "column_partitions", "tile_matching", "build_rewiring",
          "discrepancy_budget")


def _captured_run(templates, n, eps_prime, seed):
    """Run the pipeline; return (positional arguments, result) of every call
    it made to each stage in STAGES."""
    calls = {name: [] for name in STAGES}

    def recorder(name, fn):
        def rec(*args, **kwargs):
            out = fn(*args, **kwargs)
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


# large eps' gives tiles of 7 elements: 112 alpha names over about 1260 base
# points, so alpha classes hold many points, and the boundary between the
# two beta classes falls inside an alpha class
BETA_SPLITS = (ROTATIONS, 10000, Fraction(1, 3))


def _assert_pipeline_columns_match_loop(calls):
    # column_partitions gets the towers only; the tower_pair call before it
    # has the actions they were built under
    for ((alpha_i, beta_i, *_), _), ((tw_a, tw_b, phi), cd) in zip(calls["tower_pair"],
                                                                   calls["column_partitions"]):
        assert_columns_match_loop(cd, alpha_i, tw_a, beta_i, tw_b, phi.codes)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([(ROTATIONS, 2000, Fraction(1, 10)),
                        (ROTATIONS, 2048, Fraction(1, 12)),
                        (ROTATIONS, 600, Fraction(1, 6)),
                        (GRID, 2500, Fraction(1, 20)),
                        BETA_SPLITS]),
       st.integers(0, 1000))
def test_pipeline_stages_match_loops(case, seed):
    templates, n, eps_prime = case
    calls = _captured_run(templates, n, eps_prime, seed)
    assert calls["discrepancy_budget"]
    _assert_pipeline_columns_match_loop(calls)
    for (cd, eps), _ in calls["tile_matching"]:
        done, failing = tile_matching_loop(cd.tile, cd.alphabet_size, cd.name_alpha,
                                           cd.name_beta, eps)
        assert failing is None
        sigma, matched = (np.array([row[j] for row in done]).reshape(cd.sigma.shape)
                          for j in (0, 1))
        assert np.array_equal(cd.sigma, sigma)
        assert np.array_equal(cd.matched, matched)
    for (alpha_i, cd), s_perm in calls["build_rewiring"]:
        assert np.array_equal(s_perm.forward, rewiring_forward_loop(alpha_i, cd))
    for ((alpha_p_i, cd), s_perm), (args, report) in zip(calls["build_rewiring"],
                                                         calls["discrepancy_budget"]):
        alpha_i, t_budget, levels_budget, beta_i, cd_budget, window, sets, _, _ = args
        assert cd_budget is cd
        assert np.array_equal(levels_budget, s_perm.forward[cd.levels])
        # the rewired action S alpha'_i S^-1 the pipeline no longer builds
        app_i = alpha_p_i.conjugate(s_perm)
        # T = S o R carries alpha's own factor onto it
        assert all(p.conjugate(t_budget) == q for p, q in zip(alpha_i.gens, app_i.gens))
        for g, eb in zip(window, report.per_element):
            masses = [Fraction(int(np.count_nonzero(m)), n)
                      for m in budget_masks_loop(app_i, cd, g)]
            assert [eb.l0, eb.l1, eb.l2] == masses
            pa, pb = app_i.element_perm(g), beta_i.element_perm(g)
            assert eb.discrepancies == [sym_diff_mass(pa.image(a), pb.image(a)) for a in sets]


def test_pipeline_columns_end_where_only_the_beta_name_changes():
    templates, n, eps_prime = BETA_SPLITS
    calls = _captured_run(templates, n, eps_prime, 0)
    # some column starts where the alpha name stays the same, so only the
    # beta listing can have started it
    assert any(np.any(np.all(cd.name_alpha[1:] == cd.name_alpha[:-1], axis=1))
               for _, cd in calls["column_partitions"])
    _assert_pipeline_columns_match_loop(calls)


def test_budget_rejects_a_matched_level_outside_its_promised_cell():
    calls = _captured_run(ROTATIONS, 2000, Fraction(1, 10), 1)
    args, _ = calls["discrepancy_budget"][0]
    cd, phi = args[4], args[8]
    s = cd.n_columns - 1
    t = int(np.nonzero(cd.matched[s])[0][-1])
    cd.name_beta = cd.name_beta.copy()
    cd.name_beta[s, t] = (cd.name_beta[s, t] + 1) % len(phi.alphabet)
    with pytest.raises(BudgetViolated, match="target-side name cell"):
        discrepancy_budget(*args)
