from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import Z, labeling, rotation, rotation_system

from orbitrewire import (
    AbelianGroupSpec,
    FactorAction,
    FiniteSpace,
    FreeProductSystem,
    FreeWord,
    Labeling,
    Permutation,
    PointSet,
    box_tile,
    build_rewiring,
    chain_extension,
    column_partitions,
    discrepancy_budget,
    generated_partition,
    good_partition,
    make_factor_ergodic,
    match_labels_conjugator,
    oe_approximate,
    pushforward,
    tile_matching,
    tower_pair,
    verify_orbit_equivalence,
    weak_discrepancy,
)
from orbitrewire import rewiring, rohlin
from orbitrewire.errors import (
    BaseSizeMismatch,
    BudgetExceeded,
    CoverageBelowFloor,
    CoverageShortfall,
    DefectBoundViolated,
    PushforwardMismatch,
    RankUnsupported,
    SpecMismatch,
)
from orbitrewire.rewiring import (
    ColumnData,
    OEWitness,
    _full_partition_check,
    _GoodSetEvaluator,
    build_pair,
    equalize_bases,
)
from orbitrewire.rohlin import Tower


# ---------------------------------------------------------------------------
# conjugator
# ---------------------------------------------------------------------------

def test_match_labels_identity_cases():
    sp = FiniteSpace(6)
    psi = labeling(sp, list("aabbab"), ("a", "b"))
    assert match_labels_conjugator(psi, psi) == Permutation.identity(sp)
    const = Labeling.constant(sp, "z")
    assert match_labels_conjugator(const, const) == Permutation.identity(sp)


def test_match_labels_swap():
    sp = FiniteSpace(4)
    psi = labeling(sp, ["a", "a", "b", "b"], ("a", "b"))
    phi = labeling(sp, ["b", "b", "a", "a"], ("a", "b"))
    r = match_labels_conjugator(psi, phi)
    assert r.forward.tolist() == [2, 3, 0, 1]
    for a in ("a", "b"):
        assert r.image(psi.cell(a)) == phi.cell(a)


def _match_labels_loop(psi, phi):
    """The former conjugator: per symbol, psi's cell onto phi's in index order."""
    forward = np.empty(psi.space.n_points, dtype=np.int64)
    for a in psi.alphabet:
        forward[np.nonzero(psi.codes == psi.code_of(a))[0]] = \
            np.nonzero(phi.codes == phi.code_of(a))[0]
    return forward


def test_match_labels_alphabets_in_different_orders():
    # the same symbols listed in another order match by symbol, not by code
    sp = FiniteSpace(7)
    psi = labeling(sp, list("cabcbaa"), ("a", "b", "c"))
    phi = labeling(sp, list("aacbacb"), ("c", "b", "a"))
    r = match_labels_conjugator(psi, phi)
    assert r.forward.tolist() == _match_labels_loop(psi, phi).tolist() == [2, 0, 3, 5, 6, 1, 4]
    for a in "abc":
        assert r.image(psi.cell(a)) == phi.cell(a)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_match_labels_matches_the_per_symbol_loop(data):
    n = data.draw(st.integers(1, 40))
    k = data.draw(st.integers(1, 5))
    codes = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    sp = FiniteSpace(n)
    psi = Labeling(sp, range(k), data.draw(st.permutations(codes)))
    order = data.draw(st.permutations(range(k)))
    # phi lists the symbols in another order; its codes index that order
    phi = Labeling(sp, order, [order.index(c) for c in codes])
    assert match_labels_conjugator(psi, phi).forward.tolist() == \
        _match_labels_loop(psi, phi).tolist()


def test_match_labels_requires_equal_pushforwards():
    sp = FiniteSpace(4)
    psi = labeling(sp, ["a", "a", "a", "b"], ("a", "b"))
    phi = labeling(sp, ["a", "a", "b", "b"], ("a", "b"))
    with pytest.raises(PushforwardMismatch):
        match_labels_conjugator(psi, phi)


# ---------------------------------------------------------------------------
# tower pair
# ---------------------------------------------------------------------------

def test_tower_pair_constant_labeling_trivial_alphabet():
    sp = FiniteSpace(240)
    f = rotation(sp, 1)
    phi = Labeling.constant(sp, ())
    pair = tower_pair(f, f, phi, [Z.element([1])], Fraction(1, 20))
    assert pair.tower_alpha.base.size == pair.tower_beta.base.size
    assert pair.good_mass_alpha == 1 and pair.good_mass_beta == 1
    assert pair.avoid_mass == 0
    assert pair.coverage_alpha > Fraction(1, 1) - 8 * Fraction(1, 20)


def test_tower_pair_parity_windows_exact():
    # alternating labels along a rotation: every even-length window is exact
    sp = FiniteSpace(256)
    f = rotation(sp, 1)
    phi = generated_partition(sp, [PointSet(sp, np.arange(256) % 2 == 0)])
    pair = tower_pair(f, f, phi, [Z.element([1])], Fraction(1, 24))
    assert pair.good_mass_alpha == 1
    assert pair.good_mass_beta == 1
    assert pair.side > 24  # |T| must exceed 1/eps'


def _lattice_factor(sp: FiniteSpace, k: int) -> FactorAction:
    """Z^2 acting on Z/N by steps 1 and k: its orbit is no product of cycles."""
    x = np.arange(sp.n_points)
    return FactorAction(AbelianGroupSpec(2), sp, (Permutation(sp, (x + 1) % sp.n_points),
                                                  Permutation(sp, (x + k) % sp.n_points)))


def _lattice_pair():
    """Two 1600-point Z^2 lattices (steps 31 and 61), their window and the
    partition a parity set generates: factors with unaligned orbits."""
    sp = FiniteSpace(1600)
    alpha_f, beta_f = _lattice_factor(sp, 31), _lattice_factor(sp, 61)
    window = [AbelianGroupSpec(2).generator(d) for d in range(2)]
    evens = PointSet(sp, np.arange(1600) % 2 == 0)
    phi = generated_partition(sp, [evens] + [beta_f.element_image_set(g, evens)
                                             for g in window])
    return alpha_f, beta_f, phi, window


def test_tower_pair_unaligned_factor_moves_past_a_coverage_shortfall(monkeypatch):
    # the orbit is unaligned, so the coverage prefilter is only an upper
    # bound; the tiling of the first side that reaches the towers falls
    # short, and the search must go on to the next side instead of ending
    alpha_f, beta_f, phi, window = _lattice_pair()
    shortfalls = []
    rohlin_avoiding = rewiring.rohlin_avoiding

    def recorded(*args, **kwargs):
        try:
            return rohlin_avoiding(*args, **kwargs)
        except CoverageBelowFloor as exc:
            shortfalls.append(exc)
            raise

    monkeypatch.setattr(rewiring, "rohlin_avoiding", recorded)
    pair = tower_pair(alpha_f, beta_f, phi, window, Fraction(1, 8))
    assert shortfalls
    assert pair.side == 25


def test_tower_pair_aligned_coverage_shortfall_still_raises(monkeypatch):
    sp = FiniteSpace(256)
    f = rotation(sp, 1)

    def short(*args, **kwargs):
        raise CoverageBelowFloor("no tiling")

    monkeypatch.setattr(rewiring, "rohlin_avoiding", short)
    with pytest.raises(CoverageBelowFloor):
        tower_pair(f, f, Labeling.constant(sp, ()), [Z.element([1])], Fraction(1, 24))


@pytest.mark.parametrize("fault", ["overlap", "sweep_refused"])
def test_tower_pair_unaligned_factor_raises_other_rohlin_shortfalls(monkeypatch, fault):
    # only a coverage floor rules out a side; overlapping levels and a
    # refused greedy sweep end the search with their own cause
    alpha_f, beta_f, phi, window = _lattice_pair()
    if fault == "overlap":
        monkeypatch.setattr(rohlin, "tower_support", lambda tower, n: False)
        cause = "overlapping levels"
    else:
        monkeypatch.setattr(rohlin, "GREEDY_COST_CAP", 0)
        cause = "greedy sweep"
    with pytest.raises(CoverageShortfall, match=cause) as exc:
        tower_pair(alpha_f, beta_f, phi, window, Fraction(1, 8))
    assert not isinstance(exc.value, CoverageBelowFloor)


def _rotation_pair_with_an_off_orbit():
    """alpha steps by 10 on Z/4000 (ten aligned orbits), beta by 1.  Symbol
    1 alternates along every alpha orbit but the residue-0 orbit, where it
    is constant: that orbit is off the global mass 11/20 by 9/20 while its
    windows are exact for its own mass, so only the orbit test (``fixed``)
    keeps it out of the rewired base."""
    sp = FiniteSpace(4000)
    x = np.arange(4000)
    codes = ((x // 10) % 2 == 0) | (x % 10 == 0)
    phi = Labeling(sp, (0, 1), codes.astype(np.int64))
    return rotation(sp, 10), rotation(sp, 1), phi, [Z.element([1])]


@pytest.mark.parametrize("pair, eps", [(_lattice_pair, Fraction(1, 8)),
                                       (_rotation_pair_with_an_off_orbit, Fraction(1, 16))])
def test_tower_pair_bases_meet_the_window_bound(pair, eps):
    # every base point's tile window is within 3 eps' of the global cell
    # masses on both sides, counted point by point over the tile elements
    alpha_f, beta_f, phi, window = pair()
    res = tower_pair(alpha_f, beta_f, phi, window, eps)
    n, tsz = phi.space.n_points, res.tile.size
    cell = phi.cell_counts()
    for f, tw in ((alpha_f, res.tower_alpha), (beta_f, res.tower_beta)):
        base = tw.base
        assert base.size == res.base_size
        counts = np.zeros((base.size, len(cell)), dtype=np.int64)
        for j in range(tsz):
            image = f.element_perm(res.tile.element_at(j)).forward[base]
            counts[np.arange(base.size), phi.codes[image]] += 1
        assert np.all(np.abs(counts * n - cell * tsz) * eps.denominator
                      <= 3 * eps.numerator * tsz * n)


@pytest.mark.parametrize("pair, eps", [(_lattice_pair, Fraction(1, 8)),
                                       (_rotation_pair_with_an_off_orbit, Fraction(1, 16))])
def test_build_pair_rebuilds_the_towers_of_a_tile_without_the_search(pair, eps):
    # the tile and the avoidance set its two evaluators give are all that
    # build_pair needs to rebuild and certify the pair the search found
    alpha_f, beta_f, phi, window = pair()
    res = tower_pair(alpha_f, beta_f, phi, window, eps)
    good_a, _ = _GoodSetEvaluator(alpha_f, phi, eps, "rewired").evaluate(res.tile)
    good_b, _ = _GoodSetEvaluator(beta_f, phi, eps, "target").evaluate(res.tile)
    avoid = PointSet(phi.space, ~(good_a & good_b))
    tw_a, tw_b, coverages = build_pair(alpha_f, beta_f, res.tile, avoid, eps)
    assert np.array_equal(tw_a.levels, res.tower_alpha.levels)
    assert np.array_equal(tw_b.levels, res.tower_beta.levels)
    assert coverages == (res.coverage_alpha, res.coverage_beta)
    assert tw_a.base.size == tw_b.base.size == res.base_size


def test_tower_pair_certifies_an_unaligned_torsion_factor_of_any_size():
    # Z x Z/125 acting on Z/20000 by x + k and x + 160: one orbit, which is no
    # product of its 20000- and 125-cycles.  The coverage prefilter bounds it
    # by floor(20000 / |T|) tiles, so the search reaches side 9 at any N times
    # torsion size (here 2.5e6)
    n, m = 20_000, 125
    sp = FiniteSpace(n)
    x = np.arange(n)
    spec = AbelianGroupSpec(1, (m,))

    def factor(k):
        return FactorAction(spec, sp, (Permutation(sp, (x + k) % n),
                                       Permutation(sp, (x + n // m) % n)))

    alpha_f, beta_f = factor(1), factor(7)
    window = [spec.generator(d) for d in range(2)]
    evens = PointSet(sp, x % 2 == 0)
    phi = generated_partition(sp, [evens] + [beta_f.element_image_set(g, evens)
                                             for g in window])
    res = tower_pair(alpha_f, beta_f, phi, window, Fraction(1, 4))
    assert (res.side, res.tile.size, res.base_size) == (9, 1125, 14)
    assert res.coverage_alpha == res.coverage_beta == Fraction(63, 80)


def test_equalize_bases_trims_highest_indices():
    sp = FiniteSpace(40)
    t = box_tile(Z, [0], [3])
    f = rotation(sp, 1)
    tw_a = Tower.over(f, t, np.array([0, 4, 8, 12, 16]))
    tw_b = Tower.over(f, t, np.array([1, 5, 9, 13]))
    a2, b2 = equalize_bases(tw_a, tw_b)
    assert a2.base.tolist() == [0, 4, 8, 12]
    assert b2.base.tolist() == [1, 5, 9, 13]
    assert np.array_equal(a2.levels, f.tile_images(t, [0, 4, 8, 12]))
    assert np.array_equal(b2.levels, tw_b.levels)


def test_good_set_transport_equivalence():
    # computing the rewired-side good set directly on the conjugated action
    # with the target partition equals transporting the original good set
    sp = FiniteSpace(512)
    alpha = rotation_system(sp, 3)
    evens = PointSet(sp, np.arange(512) % 2 == 0)
    phi = generated_partition(sp, [evens])
    pi = pushforward(phi)
    eps = Fraction(1, 30)
    psi, _, _ = good_partition(alpha, pi, eps, seed=2)
    r = match_labels_conjugator(psi, phi)
    alpha_p = alpha.conjugate(r)
    # psi as a labeling over phi's alphabet
    tile = box_tile(Z, [0], [255])
    direct = _GoodSetEvaluator(alpha_p.factors[0], phi, eps, "rewired").evaluate(tile)
    via_psi = _GoodSetEvaluator(alpha.factors[0], psi, eps, "rewired").evaluate(tile)
    assert (direct is None) == (via_psi is None)
    if direct is not None:
        mask_direct, _ = direct
        mask_psi, _ = via_psi
        transported = np.zeros(512, dtype=bool)
        transported[r.forward[np.nonzero(mask_psi)[0]]] = True
        assert np.array_equal(mask_direct, transported)


# ---------------------------------------------------------------------------
# columns
# ---------------------------------------------------------------------------

def _tower_pair_for(sp, alpha_f, beta_f, phi, eps):
    pair = tower_pair(alpha_f, beta_f, phi, [Z.element([1])], eps)
    return pair


def test_column_partitions_constant_label_single_column():
    sp = FiniteSpace(60)
    f = rotation(sp, 1)
    phi = Labeling.constant(sp, ())
    pair = _tower_pair_for(sp, f, f, phi, Fraction(1, 10))
    cd = column_partitions(pair.tower_alpha, pair.tower_beta, phi)
    assert cd.n_columns == 1
    assert cd.col.tolist() == [0] * pair.tower_alpha.base.size


def test_column_partitions_greedy_split_sizes():
    # class sizes {3, 1} vs {2, 2} refine into matched columns 2, 1, 1
    sp = FiniteSpace(100)
    t = box_tile(Z, [0], [0])  # trivial tile: names are the point's own label
    f = rotation(sp, 1)
    phi = Labeling(
        sp, ("x", "y"),
        np.array([0] * 50 + [1] * 50, dtype=np.int64),
    )
    tw_a = Tower.over(f, t, np.array([0, 1, 2, 60]))
    tw_b = Tower.over(f, t, np.array([3, 4, 61, 62]))
    cd = column_partitions(tw_a, tw_b, phi)
    assert np.bincount(cd.col).tolist() == [2, 1, 1]
    assert cd.col.tolist() == [0, 0, 1, 2]
    assert cd.levels[t.identity_index].tolist() == [0, 1, 2, 60]
    assert cd.name_alpha.tolist() == [[0], [0], [1]]
    assert cd.name_beta.tolist() == [[0], [1], [1]]


def test_column_partitions_identical_towers():
    sp = FiniteSpace(64)
    f = rotation(sp, 1)
    evens = PointSet(sp, np.arange(64) % 2 == 0)
    phi = generated_partition(sp, [evens])
    pair = _tower_pair_for(sp, f, f, phi, Fraction(1, 12))
    cd = column_partitions(pair.tower_alpha, pair.tower_beta, phi)
    assert np.array_equal(cd.name_alpha, cd.name_beta)


def test_column_partitions_base_size_mismatch():
    sp = FiniteSpace(30)
    t = box_tile(Z, [0], [0])
    f = rotation(sp, 1)
    phi = Labeling.constant(sp, ())
    with pytest.raises(BaseSizeMismatch):
        column_partitions(Tower.over(f, t, np.array([0, 1])),
                          Tower.over(f, t, np.array([2])),
                          phi)


# ---------------------------------------------------------------------------
# tile matching
# ---------------------------------------------------------------------------

def _column_data(sp, tile, name_a, name_b, q_a, k_sym):
    """One column over the alpha base q_a of the rotation by 1."""
    q_a = np.asarray(q_a, dtype=np.int64)
    return ColumnData(
        tile=tile,
        alphabet_size=k_sym,
        col=np.zeros(len(q_a), dtype=np.int64),
        levels=rotation(sp, 1).tile_images(tile, q_a),
        name_alpha=np.asarray([name_a], dtype=np.int16),
        name_beta=np.asarray([name_b], dtype=np.int16),
    )


def test_tile_matching_equal_names_identity():
    sp = FiniteSpace(30)
    tile = box_tile(Z, [0], [4])
    cd = _column_data(sp, tile, [0, 1, 0, 1, 0], [0, 1, 0, 1, 0], [0], 2)
    cd = tile_matching(cd, Fraction(1, 6))
    assert cd.sigma.tolist() == [[0, 1, 2, 3, 4]]
    assert cd.matched.all()


def test_tile_matching_two_element_swap_case():
    sp = FiniteSpace(30)
    tile = box_tile(Z, [0], [1])
    # names disagree everywhere and sigma(e) = e is forced: T_s is empty
    cd = _column_data(sp, tile, [0, 1], [1, 0], [0], 2)
    cd = tile_matching(cd, Fraction(1, 10))  # 7 * 1/10 * 2 * 2 = 2.8 > 2
    assert cd.sigma.tolist() == [[0, 1]]
    assert not cd.matched.any()


def test_tile_matching_defect_bound_violated():
    sp = FiniteSpace(30)
    tile = box_tile(Z, [0], [1])
    cd = _column_data(sp, tile, [0, 1], [1, 0], [0], 2)
    with pytest.raises(DefectBoundViolated):
        tile_matching(cd, Fraction(1, 20))  # 7 * 1/20 * 2 * 2 = 1.4 < 2


def test_tile_matching_per_symbol_count_gap():
    sp = FiniteSpace(64)
    tile = box_tile(Z, [0], [9])
    name_a = [0, 0, 0, 0, 0, 0, 1, 1, 1, 1]
    name_b = [0, 0, 0, 0, 1, 1, 1, 1, 1, 1]  # counts differ by 2 per symbol
    cd = _column_data(sp, tile, name_a, name_b, [0], 2)
    cd = tile_matching(cd, Fraction(1, 8))
    defect = tile.size - int(cd.matched[0].sum())
    assert defect <= 2 * 2 + 1
    # sigma is a bijection fixing the identity
    assert sorted(cd.sigma[0].tolist()) == list(range(10))
    assert cd.sigma[0, tile.identity_index] == tile.identity_index


# ---------------------------------------------------------------------------
# rewiring permutation
# ---------------------------------------------------------------------------

def test_build_rewiring_identity_when_sigma_identity():
    sp = FiniteSpace(60)
    f = rotation(sp, 1)
    phi = Labeling.constant(sp, ())
    pair = _tower_pair_for(sp, f, f, phi, Fraction(1, 10))
    cd = tile_matching(
        column_partitions(pair.tower_alpha, pair.tower_beta, phi),
        Fraction(1, 10),
    )
    assert build_rewiring(f, cd) == Permutation.identity(sp)


def test_build_rewiring_swap_levels_on_z6():
    # tile {0,1,2} over base {0,3} on the 6-cycle; sigma = (e)(1 2)
    sp = FiniteSpace(6)
    f = rotation(sp, 1)
    tile = box_tile(Z, [0], [2])
    cd = ColumnData(
        tile=tile,
        alphabet_size=1,
        col=np.array([0, 0]),
        levels=f.tile_images(tile, [0, 3]),
        name_alpha=np.zeros((1, 3), dtype=np.int16),
        name_beta=np.zeros((1, 3), dtype=np.int16),
        sigma=np.array([[0, 2, 1]]),
        matched=np.array([[True, False, False]]),
    )
    s_perm = build_rewiring(f, cd)
    assert s_perm.forward.tolist() == [0, 2, 1, 3, 5, 4]
    # rewired action stays inside the original orbit
    od = f.orbits()
    assert np.array_equal(od.orbit_id[s_perm.forward], od.orbit_id)
    # base points fixed
    assert s_perm(0) == 0 and s_perm(3) == 3


def test_build_rewiring_fixes_points_outside_tower():
    sp = FiniteSpace(10)
    f = rotation(sp, 1)
    tile = box_tile(Z, [0], [2])
    cd = ColumnData(
        tile=tile,
        alphabet_size=1,
        col=np.array([0]),
        levels=f.tile_images(tile, [0]),
        name_alpha=np.zeros((1, 3), dtype=np.int16),
        name_beta=np.zeros((1, 3), dtype=np.int16),
        sigma=np.array([[0, 2, 1]]),
        matched=np.array([[True, False, False]]),
    )
    s_perm = build_rewiring(f, cd)
    for x in range(3, 10):
        assert s_perm(x) == x


# ---------------------------------------------------------------------------
# budget
# ---------------------------------------------------------------------------

def test_discrepancy_budget_self_rewiring_zero():
    sp = FiniteSpace(120)
    f = rotation(sp, 1)
    evens = PointSet(sp, np.arange(120) % 2 == 0)
    phi = generated_partition(sp, [evens])
    eps = Fraction(1, 16)
    pair = tower_pair(f, f, phi, [Z.element([1])], eps)
    cd = tile_matching(column_partitions(pair.tower_alpha, pair.tower_beta, phi), eps)
    s_perm = build_rewiring(f, cd)
    # R is the identity, so T = S o R is S
    report = discrepancy_budget(f, s_perm, s_perm.forward[cd.levels], f, cd, [Z.element([1])],
                                [evens], eps, phi)
    for eb in report.per_element:
        assert eb.residual_empty
        assert all(d <= eb.l0 + eb.l1 + eb.l2 for d in eb.discrepancies)


def test_discrepancy_budget_identity_element_no_shift_loss():
    sp = FiniteSpace(120)
    f = rotation(sp, 1)
    phi = Labeling.constant(sp, ())
    eps = Fraction(1, 16)
    pair = tower_pair(f, f, phi, [Z.element([1])], eps)
    cd = tile_matching(column_partitions(pair.tower_alpha, pair.tower_beta, phi), eps)
    s_perm = build_rewiring(f, cd)
    report = discrepancy_budget(f, s_perm, s_perm.forward[cd.levels], f, cd, [Z.identity()],
                                [PointSet.full(sp)], eps, phi)
    assert report.per_element[0].l1 == 0


# ---------------------------------------------------------------------------
# ergodization
# ---------------------------------------------------------------------------

def test_make_factor_ergodic_already_transitive():
    sp = FiniteSpace(10)
    f = rotation(sp, 1)
    assert make_factor_ergodic(f, Fraction(1, 2)) is f


def test_make_factor_ergodic_two_transpositions():
    sp = FiniteSpace(4)
    perm = Permutation(sp, np.array([1, 0, 3, 2]))
    f = FactorAction(Z, sp, (perm,))
    out = make_factor_ergodic(f, Fraction(1, 2))
    assert out.orbits().is_transitive
    changed = int(np.count_nonzero(out.gens[0].forward != perm.forward))
    assert changed == 2


def test_make_factor_ergodic_budget_exceeded():
    sp = FiniteSpace(12)
    f = rotation(sp, 4)  # 4 cycles of length 3 -> cost 6/12
    with pytest.raises(BudgetExceeded):
        make_factor_ergodic(f, Fraction(5, 12))
    out = make_factor_ergodic(f, Fraction(6, 12))
    assert out.orbits().is_transitive


def test_make_factor_ergodic_rank_unsupported():
    sp = FiniteSpace(8)
    f = FactorAction(
        AbelianGroupSpec(2), sp,
        (Permutation(sp, (np.arange(8) + 2) % 8), Permutation(sp, (np.arange(8) + 4) % 8)),
    )
    with pytest.raises(RankUnsupported):
        make_factor_ergodic(f, Fraction(1, 2))


def test_make_factor_ergodic_exact_cost_random():
    rng = np.random.default_rng(123)
    for _ in range(25):
        n = 200
        sp = FiniteSpace(n)
        perm = Permutation(sp, rng.permutation(n).astype(np.int64))
        f = FactorAction(Z, sp, (perm,))
        k = f.charts[0].n_cycles
        if k == 1:
            continue
        out = make_factor_ergodic(f, Fraction(1))
        changed = int(np.count_nonzero(out.gens[0].forward != perm.forward))
        assert changed == 2 * (k - 1)
        assert out.orbits().is_transitive
        d = weak_discrepancy(
            FreeProductSystem((out,)), FreeProductSystem((f,)),
            [FreeWord.letter(0, Z.element([1]))],
            [PointSet.from_indices(sp, range(0, n, 3))],
        )
        assert d <= Fraction(2 * (k - 1), n)


def make_factor_ergodic_loop(f: FactorAction) -> np.ndarray:
    """The former merge loop, kept as the oracle: every merge re-sorts the
    cycles by (-length, minimum) and re-sorts the merged cycle's members."""
    chart = f.charts[0]
    forward = f.gens[0].forward.copy()
    cycles = [np.sort(chart.order[s:s + l]) for s, l in zip(chart.cycle_start, chart.cycle_len)]
    modified = np.zeros(f.space.n_points, dtype=bool)

    def pick(members):
        fresh = members[~modified[members]]
        return int(fresh[0]) if len(fresh) else int(members[0])

    while len(cycles) > 1:
        cycles.sort(key=lambda m: (-len(m), int(m[0])))
        big, second = cycles[0], cycles[1]
        a = pick(big)
        b = pick(second)
        forward[a], forward[b] = forward[b], forward[a]
        modified[a] = modified[b] = True
        cycles = [np.sort(np.concatenate([big, second]))] + cycles[2:]
    return forward


@st.composite
def cycle_permutations(draw) -> np.ndarray:
    """A permutation with drawn cycle lengths (many ties, fixed points) on
    shuffled points, or a uniformly drawn one."""
    if draw(st.booleans()):
        return np.asarray(draw(st.permutations(range(draw(st.integers(1, 80))))))
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=30))
    points = np.asarray(draw(st.permutations(range(sum(lengths)))), dtype=np.int64)
    forward = np.empty(len(points), dtype=np.int64)
    for cyc in np.split(points, np.cumsum(lengths)[:-1]):
        forward[cyc] = np.roll(cyc, -1)
    return forward


@settings(max_examples=300, deadline=None)
@given(cycle_permutations())
def test_make_factor_ergodic_matches_the_merge_loop(forward):
    sp = FiniteSpace(len(forward))
    f = FactorAction(Z, sp, (Permutation(sp, forward),))
    out = make_factor_ergodic(f, Fraction(2))  # 2(k-1)/N < 2
    assert np.array_equal(out.gens[0].forward, make_factor_ergodic_loop(f))


# ---------------------------------------------------------------------------
# chaining and orbit equivalence
# ---------------------------------------------------------------------------

def test_verify_orbit_equivalence_conjugate_true():
    sp = FiniteSpace(36)
    alpha = rotation_system(sp, 2, 6)
    r = Permutation(sp, np.roll(np.arange(36), 5))
    gamma = alpha.conjugate(r)
    assert _full_partition_check(alpha, gamma, r) == (True, None)
    identity = Permutation.identity(sp)
    assert verify_orbit_equivalence(alpha, OEWitness(r, (identity, identity))) == (True, None)


def test_verify_orbit_equivalence_detects_coarsening():
    sp = FiniteSpace(12)
    alpha = rotation_system(sp, 2, 2)  # parity orbits
    gamma = rotation_system(sp, 1, 2)  # first factor transitive: coarser
    ok, diag = _full_partition_check(alpha, gamma, Permutation.identity(sp))
    assert not ok
    assert diag is not None


def test_verify_orbit_equivalence_names_the_first_separating_point():
    sp = FiniteSpace(12)
    identity = Permutation.identity(sp)
    parity = rotation_system(sp, 2, 2)
    coarser = rotation_system(sp, 1, 2)
    assert _full_partition_check(parity, coarser, identity) == \
        (False, "point 1 separates the partitions")
    assert _full_partition_check(coarser, parity, identity) == \
        (False, "point 1 separates the partitions")
    shift = Permutation(sp, np.roll(np.arange(12), 5))
    mod4, mod3 = rotation_system(sp, 4, 6), rotation_system(sp, 3, 6)
    assert _full_partition_check(mod4, mod3, shift) == \
        (False, "point 3 separates the partitions")
    assert _full_partition_check(mod3, mod4, shift) == \
        (False, "point 2 separates the partitions")


def _separating_point_loop(g_ids, a_ids):
    """The former diagnostic: walk the points in (gamma orbit, index) order,
    then in (alpha orbit, index) order, until an orbit maps to two orbits."""
    for ids, other in ((g_ids, a_ids), (a_ids, g_ids)):
        seen = {}
        for x in np.lexsort((np.arange(len(ids)), ids)):
            if ids[x] in seen and seen[ids[x]] != other[x]:
                return int(x)
            seen[ids[x]] = other[x]
    return None


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_verify_orbit_equivalence_matches_loop(n, seed):
    rng = np.random.default_rng(seed)
    sp = FiniteSpace(n)

    def system():
        return FreeProductSystem(tuple(
            FactorAction(Z, sp, (Permutation(sp, rng.permutation(n)),))
            for _ in range(rng.integers(1, 3))))

    alpha, gamma = system(), system()
    r = Permutation(sp, rng.permutation(n))
    ok, diag = _full_partition_check(alpha, gamma, r)
    x = _separating_point_loop(gamma.full_orbit_decomposition().orbit_id,
                               alpha.full_orbit_decomposition().orbit_id[r.inverse_array])
    assert ok == (x is None)
    assert diag == (None if ok else f"point {x} separates the partitions")


# ---------------------------------------------------------------------------
# orbit equivalence of a witness, factor by factor
# ---------------------------------------------------------------------------

def _random_factor(rng, sp: FiniteSpace, a: int, b: int) -> FactorAction:
    """A grid shift on a x b, a product cycle on a x b, or a permutation with
    many short cycles; steps with common divisors give several orbits."""
    i, j = np.divmod(np.arange(a * b), b)
    s0, s1 = int(rng.integers(0, a + 1)), int(rng.integers(0, b + 1))
    kind = rng.integers(3)
    if kind == 0:
        gens = (((i + s0) % a) * b + j, i * b + (j + s1) % b)
        return FactorAction(AbelianGroupSpec(2), sp, tuple(Permutation(sp, g) for g in gens))
    if kind == 1:
        return FactorAction(Z, sp, (Permutation(sp, ((i + s0) % a) * b + (j + s1) % b),))
    fwd = np.arange(a * b)
    cuts = np.sort(rng.integers(0, a * b + 1, rng.integers(0, a * b)))
    for block in np.split(rng.permutation(a * b), cuts):
        fwd[block] = np.roll(block, 1)
    return FactorAction(Z, sp, (Permutation(sp, fwd),))


def _rewiring(rng, ids: np.ndarray, kind: str) -> Permutation:
    """S for orbit ids ``ids`` of alpha'_i: "keep" shuffles inside each orbit,
    "swap" maps whole orbits onto random orbits of the same size (leaving
    the factor orbits but keeping the partition), "break" is any permutation."""
    n = len(ids)
    sp = FiniteSpace(n)
    if kind == "break":
        return Permutation(sp, rng.permutation(n))
    sizes = np.bincount(ids)
    target = np.arange(len(sizes))
    if kind == "swap":
        for size in np.unique(sizes):
            same = np.flatnonzero(sizes == size)
            target[same] = rng.permutation(same)
    # orbit o's points, shuffled, go onto orbit target[o]'s points in order
    src = np.lexsort((rng.random(n), ids))
    starts = np.cumsum(sizes) - sizes
    dst_order = np.argsort(ids, kind="stable")
    rank = np.arange(n) - starts[ids[src]]
    fwd = np.empty(n, dtype=np.int64)
    fwd[src] = dst_order[starts[target[ids[src]]] + rank]
    return Permutation(sp, fwd)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 3),
       st.lists(st.sampled_from(["keep", "swap", "break"]), min_size=3, max_size=3),
       st.integers(0, 2**32 - 1))
def test_orbit_check_by_factor_matches_full_partition(a, b, k, kinds, seed):
    rng = np.random.default_rng(seed)
    sp = FiniteSpace(a * b)
    alpha = FreeProductSystem(tuple(_random_factor(rng, sp, a, b) for _ in range(k)))
    r = Permutation(sp, rng.permutation(a * b))
    rewirings = []
    for f, kind in zip(alpha.factors, kinds):
        ids = np.empty(a * b, dtype=np.int64)
        ids[r.forward] = f.orbits().orbit_id  # orbit ids of alpha'_i = R alpha_i R^-1
        rewirings.append(_rewiring(rng, ids, kind))
    witness = OEWitness(r, tuple(rewirings))
    expected = _full_partition_check(alpha, witness.gamma(alpha), r)
    if all(kind == "keep" for kind in kinds[:k]):
        # every factor check passes, so the full propagation never runs
        with mock.patch.object(FreeProductSystem, "full_orbit_decomposition",
                               side_effect=AssertionError("full propagation ran")):
            assert verify_orbit_equivalence(alpha, witness) == (True, None)
    else:
        assert verify_orbit_equivalence(alpha, witness) == expected
    if "break" not in kinds[:k]:
        assert expected == (True, None)


def test_orbit_check_by_factor_falls_back_on_a_leaving_rewiring():
    sp = FiniteSpace(12)
    identity = Permutation.identity(sp)
    parity = rotation_system(sp, 2, 2)
    # the shift by one swaps the two parity orbits of factor 0: it leaves
    # every factor orbit, but the full partition stays the parity partition
    shift = Permutation(sp, np.roll(np.arange(12), 1))
    assert verify_orbit_equivalence(parity, OEWitness(identity, (shift, identity))) == (True, None)
    swap = np.arange(12)
    swap[[0, 1]] = [1, 0]
    witness = OEWitness(identity, (Permutation(sp, swap), identity))
    assert verify_orbit_equivalence(parity, witness) == \
        _full_partition_check(parity, witness.gamma(parity), identity)
    assert verify_orbit_equivalence(parity, witness)[0] is False


def test_orbit_check_rejects_a_witness_of_the_wrong_shape():
    sp = FiniteSpace(12)
    identity = Permutation.identity(sp)
    with pytest.raises(SpecMismatch):
        verify_orbit_equivalence(rotation_system(sp, 2, 2), OEWitness(identity, (identity,)))
    other = Permutation.identity(FiniteSpace(6))
    with pytest.raises(SpecMismatch):
        verify_orbit_equivalence(rotation_system(sp, 2), OEWitness(identity, (other,)))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_gamma_words_match_the_built_gamma(a, b, k, seed):
    rng = np.random.default_rng(seed)
    n = a * b
    sp = FiniteSpace(n)
    alpha = FreeProductSystem(tuple(_random_factor(rng, sp, a, b) for _ in range(k)))
    witness = OEWitness(Permutation(sp, rng.permutation(n)),
                        tuple(Permutation(sp, rng.permutation(n)) for _ in range(k)))
    gamma, words = witness.gamma(alpha), witness.gamma_words(alpha)
    for _ in range(5):
        letters = []
        for _ in range(rng.integers(0, 5)):
            i = int(rng.integers(k))
            spec = alpha.factors[i].spec
            letters.append((i, spec.element(rng.integers(-3, 4, spec.num_generators).tolist())))
        w = FreeWord(letters)
        assert words.word_perm(w) == gamma.word_perm(w)


def test_chain_extension_cases():
    sp = FiniteSpace(48)
    alpha = rotation_system(sp, 2, 4, 6)
    r = Permutation(sp, np.roll(np.arange(48), 7))
    head = FreeProductSystem(tuple(f.conjugate(r) for f in alpha.factors[:2]))
    full = chain_extension(alpha, head, r, 2)
    assert full.k == 3
    # tail factor is the exact conjugate
    assert full.factors[2].gens[0] == alpha.factors[2].gens[0].conjugate(r)
    ok, _ = _full_partition_check(alpha, full, r)
    assert ok
    pure = chain_extension(alpha, None, r, 0)
    assert all(
        pure.factors[i].gens[0] == alpha.factors[i].gens[0].conjugate(r)
        for i in range(3)
    )
    same = chain_extension(alpha, alpha, Permutation.identity(sp), 3)
    assert same.factors == alpha.factors


def test_chain_extension_factor_count_mismatch():
    sp = FiniteSpace(10)
    alpha = rotation_system(sp, 1, 3)
    with pytest.raises(ValueError):
        chain_extension(alpha, alpha, Permutation.identity(sp), 1)


# ---------------------------------------------------------------------------
# end to end
# ---------------------------------------------------------------------------

def test_oe_approximate_small_end_to_end():
    n = 4096
    sp = FiniteSpace(n)
    alpha = rotation_system(sp, 1, 3)
    beta = rotation_system(sp, 1, 7)
    evens = PointSet(sp, np.arange(n) % 2 == 0)
    window = [[Z.element([1])], [Z.element([1])]]
    res = oe_approximate(alpha, beta, window, Fraction(4, 5), [evens], seed=7)
    assert res.report.final_discrepancy < Fraction(4, 5)
    assert res.report.orbit_check
    # independent recomputation of the reported discrepancy
    words = [FreeWord.letter(0, Z.element([1])), FreeWord.letter(1, Z.element([1]))]
    again = weak_discrepancy(res.witness.gamma(alpha), beta, words, [evens])
    assert again == res.report.final_discrepancy
    ok, _ = verify_orbit_equivalence(alpha, res.witness)
    assert ok


@pytest.mark.parametrize("alpha_steps, beta_steps", [((1, 3), (1, 7)), ((1, 3, 5), (1, 7, 9))])
def test_oe_approximate_conjugates_each_factor_once(monkeypatch, alpha_steps, beta_steps):
    # alpha -> R alpha R^-1 is the only conjugation: no rewired factor is built
    conjugated = []
    conjugate = FactorAction.conjugate

    def counted(f, r):
        conjugated.append(f)
        return conjugate(f, r)

    monkeypatch.setattr(FactorAction, "conjugate", counted)
    sp = FiniteSpace(4096)
    alpha = rotation_system(sp, *alpha_steps)
    beta = rotation_system(sp, *beta_steps)
    window = [[Z.element([1])] for _ in alpha_steps]
    evens = PointSet(sp, np.arange(4096) % 2 == 0)
    res = oe_approximate(alpha, beta, window, Fraction(4, 5), [evens], seed=7)
    assert res.report.orbit_check
    assert conjugated == list(alpha.factors)


def test_oe_approximate_constant_partition_degenerate():
    # one-cell partition: every discrepancy vanishes outright
    n = 600
    sp = FiniteSpace(n)
    alpha = rotation_system(sp, 1)
    beta = rotation_system(sp, 7)
    window = [[Z.element([1])]]
    full = PointSet.full(sp)
    res = oe_approximate(alpha, beta, window, Fraction(1, 4), [full], seed=1)
    assert res.report.alphabet_size == 1
    assert res.report.final_discrepancy == 0


def test_oe_approximate_multi_orbit_alpha_orbit_equivalence_meaningful():
    # both rewired factors preserve parity, so the full orbit partition is
    # nontrivial and the equivalence check has something to verify
    n = 2048
    sp = FiniteSpace(n)
    alpha = rotation_system(sp, 2, 6)
    beta = rotation_system(sp, 1, 3)
    evens = PointSet(sp, np.arange(n) % 2 == 0)
    window = [[Z.element([1])], [Z.element([1])]]
    res = oe_approximate(alpha, beta, window, Fraction(19, 20), [evens], seed=4)
    assert res.report.orbit_check
    assert alpha.full_orbit_decomposition().n_orbits == 2
    assert res.witness.gamma(alpha).full_orbit_decomposition().n_orbits == 2
    assert res.report.final_discrepancy < Fraction(19, 20)


def test_eps_prime_uses_24_alphabet_constant():
    # eps = 0.24 with a 2-cell partition gives eps' = 0.24/48 = 0.005 exactly
    n = 2400
    sp = FiniteSpace(n)
    alpha = rotation_system(sp, 1)
    beta = rotation_system(sp, 7)
    evens = PointSet(sp, np.arange(n) % 2 == 0)
    res = oe_approximate(alpha, beta, [[Z.element([1])]], 0.24, [evens], seed=2)
    assert res.report.alphabet_size == 2
    assert res.report.eps_prime == Fraction(1, 200)


def test_eps_prime_override():
    n = 2400
    sp = FiniteSpace(n)
    alpha = rotation_system(sp, 1)
    beta = rotation_system(sp, 7)
    evens = PointSet(sp, np.arange(n) % 2 == 0)
    res = oe_approximate(alpha, beta, [[Z.element([1])]], 0.24, [evens], seed=2,
                         eps_prime_override=Fraction(1, 60))
    assert res.report.eps_prime == Fraction(1, 60)


def test_stage_tag_on_pipeline_errors():
    from orbitrewire.errors import VerificationFailed as VF

    # orbits of length 8 cannot verify a tight good-partition bound
    n = 64
    sp = FiniteSpace(n)
    alpha = rotation_system(sp, 8)
    beta = rotation_system(sp, 1)
    evens = PointSet(sp, np.arange(n) % 2 == 0)
    with pytest.raises(VF) as exc:
        oe_approximate(alpha, beta, [[Z.element([1])]], Fraction(1, 4), [evens],
                       seed=0, max_retries=1)
    assert exc.value.stage == "good_partition"


def test_invariance_prefilter_matches_exact_defect():
    # the screen tower_pair applies, against |T symdiff (T+g)| / |T| by brute force
    from orbitrewire import invariance_defect

    rng = np.random.default_rng(8)
    spec2 = AbelianGroupSpec(2)
    for _ in range(100):
        side = int(rng.integers(1, 12))
        tile = box_tile(spec2, [0, 0], [side - 1, side - 1])
        g = spec2.element([int(rng.integers(-side - 1, side + 2)),
                           int(rng.integers(-side - 1, side + 2))])
        eps = Fraction(int(rng.integers(1, 9)), 17)
        elems = tile.elements()
        brute = Fraction(len(elems ^ {t + g for t in elems}), len(elems))
        assert invariance_defect(tile, g) == brute
        assert (invariance_defect(tile, g) < eps) == (brute < eps)


def test_oe_approximate_grid_factor_end_to_end():
    # rank-2 factor: 128x128 box tiles over a 256x256 grid, 2x2 base blocks
    from orbitrewire.generate import generate_system

    n = 256 * 256
    sp = FiniteSpace(n)
    z2 = AbelianGroupSpec(2)
    alpha = generate_system(sp, [{"name": "grid_shift", "dims": [256, 256]}])
    beta = generate_system(sp, [{"name": "grid_shift", "dims": [256, 256],
                                 "steps": [1, 7]}])
    evens = PointSet(sp, np.arange(n) % 2 == 0)
    window = [[z2.element([1, 0]), z2.element([0, 1])]]
    res = oe_approximate(alpha, beta, window, Fraction(9, 10), [evens], seed=3)
    assert res.report.final_discrepancy < Fraction(9, 10)
    assert res.report.orbit_check
    assert res.report.factors[0].base_size >= 2  # genuinely multi-column


def test_no_good_tile_when_grid_dimensions_too_short():
    from orbitrewire.errors import NoGoodTile
    from orbitrewire.generate import generate_system

    n = 36 * 36
    sp = FiniteSpace(n)
    z2 = AbelianGroupSpec(2)
    alpha = generate_system(sp, [{"name": "grid_shift", "dims": [36, 36]}])
    beta = generate_system(sp, [{"name": "grid_shift", "dims": [36, 36],
                                 "steps": [1, 7]}])
    evens = PointSet(sp, np.arange(n) % 2 == 0)
    window = [[z2.element([1, 0]), z2.element([0, 1])]]
    with pytest.raises(NoGoodTile) as exc:
        # window invariance needs sides beyond 2/eps' = 106 > 36
        oe_approximate(alpha, beta, window, Fraction(9, 10), [evens], seed=3)
    assert exc.value.stage == "tower_pair[0]"


def test_min_space_estimate_reported():
    n = 2400
    sp = FiniteSpace(n)
    alpha = rotation_system(sp, 1)
    beta = rotation_system(sp, 7)
    evens = PointSet(sp, np.arange(n) % 2 == 0)
    res = oe_approximate(alpha, beta, [[Z.element([1])]], 0.24, [evens], seed=2)
    # eps' = 1/200: tiles need > 200 elements and sides > 400
    assert res.report.min_space_estimate == 401
