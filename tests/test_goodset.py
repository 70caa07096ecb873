"""Differential tests: the product-coordinate view of a factor's orbits and
the good-set evaluator and tiling that read it, against the per-orbit and
point-order code they replaced.

``PointOrderEvaluator`` below is the former ``rewiring._GoodSetEvaluator``,
kept as a test-only oracle together with the per-point prefix windows it
read; its ``base_window_ok`` checks the 3 eps window bound that every good
point of an accepted tile meets, on both sides.  ``orbit_alignment_loop``
is the former per-orbit ``rohlin.orbit_alignment``, and ``tiling_base_loop``
the per-orbit packing that read it; they are the oracles of the shape
blocks and of ``tiling_base``.  The generated single-generator factors are
rotations (some with gcd(step, N) > 1, so several cycles of one length),
products of cycles, random permutations with unequal cycle lengths and
fixed points, and torsion generators.  The several-generator factors are disjoint unions
of tori of different shapes, Z^2 x Z/c tori, skewed generators whose cycles
still multiply to their orbits, all on randomly relabelled points so that
an orbit's coordinate order is not index order, factors with an unaligned
orbit (two equal rotations), which must keep point order, and mixed factors
holding an aligned torus, an unaligned orbit and a torus too small for most
tiles.  Tiles have negative lows and may reach past an orbit dimension, so
windows wrap whole laps along every axis.  An aligned factor read as one
``_PointBlock``, the point-order block, must also agree with its orbit
blocks.  The tile search's candidate sides and its coverage prefilter are
checked against the per-orbit oracle too.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import Z

from orbitrewire import (
    AbelianGroupSpec,
    FactorAction,
    FiniteSpace,
    Labeling,
    Permutation,
    PointSet,
    box_tile,
)
from orbitrewire import certify, rewiring
from orbitrewire.errors import TileTooLarge
from orbitrewire.rewiring import _GoodSetEvaluator, _PointBlock, candidate_sides
from orbitrewire.rohlin import Alignment, max_coverage, orbit_alignment, tiling_base, tower_support

SETTINGS = settings(max_examples=150, deadline=None)


# ---------------------------------------------------------------------------
# oracle: the point-order evaluator
# ---------------------------------------------------------------------------

def chart_prefix(chart, values):
    pref = np.empty(chart.n + 1, dtype=np.int64)
    pref[0] = 0
    np.cumsum(values[chart.order], out=pref[1:])
    return pref


def window_from_prefix(chart, pref, lo, width, points=None):
    if points is None:
        c = chart.cycle_of
        pos = chart.pos
    else:
        c = chart.cycle_of[points]
        pos = chart.pos[points]
    st_ = chart.cycle_start[c]
    ln = chart.cycle_len[c]
    p0 = (pos + lo) % ln
    laps = width // ln
    rem = width - laps * ln
    total = pref[st_ + ln] - pref[st_]
    end = p0 + rem
    end_in = np.minimum(end, ln)
    seg_in = pref[st_ + end_in] - pref[st_ + p0]
    end_wrap = np.maximum(end - ln, 0)
    seg_wrap = (pref[st_ + ln] - pref[st_ + p0]) + (pref[st_ + end_wrap] - pref[st_])
    seg = np.where(end <= ln, seg_in, seg_wrap)
    return laps * total + seg


class PointOrderEvaluator:
    SUBSAMPLE_TARGET = 4096

    def __init__(self, f, phi, eps, kind):
        self.f = f
        self.eps = eps
        self.kind = kind
        self.n = f.space.n_points
        self.k_sym = len(phi.alphabet)
        self.cells = [np.asarray(phi.codes == a, dtype=np.int64) for a in range(self.k_sym)]
        self.counts = [int(c.sum()) for c in self.cells]
        self.single = len(f.charts) == 1
        if self.single:
            self.prefs = [chart_prefix(f.charts[0], c) for c in self.cells]
        stride = max(1, self.n // self.SUBSAMPLE_TARGET)
        self.sample = np.arange(0, self.n, stride, dtype=np.int64)
        if kind == "rewired":
            od = f.orbits()
            enum, eden = eps.numerator, eps.denominator
            self.l_pt = od.sizes[od.orbit_id]
            self.c_pt = []
            fixed_bad = np.zeros(self.n, dtype=bool)
            for a in range(self.k_sym):
                c_orb = np.bincount(od.orbit_id[self.cells[a] > 0], minlength=od.n_orbits)
                self.c_pt.append(c_orb[od.orbit_id])
                orb_bad = np.abs(c_orb * self.n - self.counts[a] * od.sizes) * eden \
                    > 2 * enum * od.sizes * self.n
                fixed_bad |= orb_bad[od.orbit_id]
            self.fixed_bad = fixed_bad
        else:
            self.fixed_bad = np.zeros(self.n, dtype=bool)

    def _bad_threshold(self):
        return 2 * self.eps.numerator * self.n, self.eps.denominator

    def _window(self, tile, a, points):
        if self.single:
            lo, side = tile.dim_lows[0], tile.sides[0]
            return window_from_prefix(self.f.charts[0], self.prefs[a], lo, side, points)
        w = self.f.window_counts(tile, self.cells[a])
        return w if points is None else w[points]

    def _window_bad(self, tile, a, points):
        enum, eden = self.eps.numerator, self.eps.denominator
        tsz = tile.size
        w = self._window(tile, a, points)
        if self.kind == "rewired":
            l_pt = self.l_pt if points is None else self.l_pt[points]
            c_pt = self.c_pt[a] if points is None else self.c_pt[a][points]
            return np.abs(w * l_pt - c_pt * tsz) * eden > enum * tsz * l_pt
        return np.abs(w * self.n - self.counts[a] * tsz) * eden > 3 * enum * tsz * self.n

    def evaluate(self, tile):
        lim_num, lim_den = self._bad_threshold()
        fixed = int(np.count_nonzero(self.fixed_bad))
        if fixed * lim_den >= lim_num:
            return None
        if self.single and len(self.sample) < self.n:
            bad_sub = self.fixed_bad[self.sample].copy()
            for a in range(self.k_sym):
                bad_sub |= self._window_bad(tile, a, self.sample)
                if int(np.count_nonzero(bad_sub)) * lim_den >= lim_num:
                    return None
        bad = self.fixed_bad.copy()
        for a in range(self.k_sym):
            bad |= self._window_bad(tile, a, None)
            if int(np.count_nonzero(bad)) * lim_den >= lim_num:
                return None
        mass = Fraction(self.n - int(np.count_nonzero(bad)), self.n)
        return ~bad, mass

    def base_window_ok(self, tile, base, slack):
        enum, eden = self.eps.numerator, self.eps.denominator
        idx = base.indices()
        tsz = tile.size
        for a in range(self.k_sym):
            w = self._window(tile, a, idx)
            if np.any(np.abs(w * self.n - self.counts[a] * tsz) * eden
                      > slack * enum * tsz * self.n):
                return False
        return True


# ---------------------------------------------------------------------------
# oracles: the per-orbit alignment and packing
# ---------------------------------------------------------------------------

def orbit_alignment_loop(f):
    """Per orbit: its points, and its dims and row-major coords when it is a
    product of its generator cycles (both None otherwise)."""
    out = []
    hit = np.zeros(f.space.n_points, dtype=bool)
    od = f.orbits()
    for o in range(od.n_orbits):
        orbit = np.flatnonzero(od.orbit_id == o)
        x0 = int(orbit[0])
        dims = tuple(int(c.cycle_len[c.cycle_of[x0]]) for c in f.charts)
        coords = None
        if int(np.prod(dims)) == len(orbit):
            arr = np.array([x0], dtype=np.int64)
            for d in range(len(dims) - 1, -1, -1):
                arr = f.charts[d].consecutive_images(arr, 0, dims[d])
            hit[arr] = True
            if np.count_nonzero(hit[orbit]) == arr.size:
                coords = arr
            hit[arr] = False
        out.append((orbit, dims if coords is not None else None, coords))
    return out


def tiling_base_loop(f, t):
    """The former base set: boxes on every aligned orbit the tile fits, then
    the greedy sweep over the other orbits with the boxes' levels marked."""
    base, greedy = [], []
    r = f.spec.rank
    for orbit, dims, coords in orbit_alignment_loop(f):
        fits = dims is not None and all(
            side <= dims[d] if d < r else dims[d] == f.spec.torsion_moduli[d - r]
            for d, side in enumerate(t.sides))
        if not fits:
            greedy.append(orbit)
            continue
        allowed = [-lo + side * np.arange(L // side) for lo, side, L in
                   zip(t.dim_lows, t.sides, dims)]
        base.append(coords.reshape(dims)[np.ix_(*allowed)].ravel())
    covered = np.zeros(f.space.n_points, dtype=bool)
    for pts in base:
        covered[f.tile_images(t, pts)] = True
    for x in np.sort(np.concatenate(greedy)) if greedy else []:
        idx = f.tile_images(t, int(x))
        if np.unique(idx).size == idx.size and not covered[idx].any():
            covered[idx] = True
            base.append(np.array([x]))
    return np.sort(np.concatenate(base)) if base else np.array([], dtype=np.int64)


# ---------------------------------------------------------------------------
# generated factors, labelings and tiles
# ---------------------------------------------------------------------------

def _action(spec, gens) -> FactorAction:
    sp = FiniteSpace(len(gens[0]))
    return FactorAction(spec, sp, tuple(Permutation(sp, np.asarray(g, dtype=np.int64))
                                        for g in gens))


def _from_cycles(lengths, relabel) -> np.ndarray:
    """A permutation with cycles of the given lengths on relabelled points."""
    n = sum(lengths)
    fwd = np.empty(n, dtype=np.int64)
    start = 0
    for ell in lengths:
        cyc = relabel[start:start + ell]
        fwd[cyc] = np.roll(cyc, -1)
        start += ell
    return fwd


@st.composite
def single_generator_factors(draw) -> FactorAction:
    kind = draw(st.sampled_from(("rotation", "equal cycles", "cycles", "permutation",
                                 "torsion")))
    if kind == "rotation":
        # steps sharing a factor with n give gcd(step, n) cycles of one length
        d = draw(st.integers(1, 6))
        n = d * draw(st.integers(1, 20))
        return _action(Z, [(np.arange(n) + d * draw(st.integers(0, n))) % n])
    if kind in ("equal cycles", "cycles"):
        if kind == "equal cycles":
            lengths = [draw(st.integers(1, 12))] * draw(st.integers(1, 8))
        else:
            lengths = draw(st.lists(st.integers(1, 15), min_size=1, max_size=8))
        relabel = np.asarray(draw(st.permutations(range(sum(lengths)))), dtype=np.int64)
        return _action(Z, [_from_cycles(lengths, relabel)])
    if kind == "permutation":
        return _action(Z, [draw(st.permutations(range(draw(st.integers(1, 80)))))])
    # Z/c: cycle lengths divide c
    c = draw(st.sampled_from((2, 4, 6, 12)))
    divisors = [d for d in range(1, c + 1) if c % d == 0]
    lengths = draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=8))
    relabel = np.asarray(draw(st.permutations(range(sum(lengths)))), dtype=np.int64)
    return _action(AbelianGroupSpec(0, (c,)), [_from_cycles(lengths, relabel)])


def _relabelled(gens, relabel) -> list[np.ndarray]:
    """The generators conjugated by the relabelling x -> relabel[x]."""
    out = []
    for fwd in gens:
        moved = np.empty_like(fwd)
        moved[relabel] = relabel[fwd]
        out.append(moved)
    return out


def _tori(shapes, steps) -> list[np.ndarray]:
    """Generator d shifts coordinate d of every torus by steps[d][d'] along
    each coordinate d'; the tori of the given shapes lie side by side."""
    gens = [[] for _ in steps]
    start = 0
    for dims in shapes:
        coords = np.indices(dims).reshape(len(dims), -1)
        size = coords.shape[1]
        for gen, row in zip(gens, steps):
            moved = (coords + np.asarray(row)[:, None]) % np.asarray(dims)[:, None]
            gen.append(start + np.ravel_multi_index(tuple(moved), dims))
        start += size
    return [np.concatenate(g) for g in gens]


@st.composite
def grid_factors(draw) -> FactorAction:
    kind = draw(st.sampled_from(("grid", "tori", "torsion", "skew", "unaligned", "mixed")))
    if kind == "mixed":
        # an aligned torus, a torus too small for most tiles and an unaligned
        # orbit of both generators being one rotation, side by side
        big = (draw(st.integers(3, 8)), draw(st.integers(3, 8)))
        small = draw(st.sampled_from(((2, 2), (1, 3), (3, 1), (1, 4))))
        tori = _tori([big, small], [(1, 0), (0, 1)])
        m = draw(st.integers(4, 12))
        rot = len(tori[0]) + (np.arange(m) + 1) % m
        gens, spec = [np.concatenate([g, rot]) for g in tori], AbelianGroupSpec(2)
    elif kind == "unaligned":
        # both generators are one rotation: a cycle of length l is an orbit
        # of l points, not l * l, so it has no product coordinates
        n = draw(st.integers(2, 40))
        rot = (np.arange(n) + draw(st.integers(1, n - 1))) % n
        gens, spec = [rot, rot], AbelianGroupSpec(2)
    elif kind == "skew":
        # g0 = (1, 1), g1 = (0, 1) on an a x a torus: one orbit whose cycles
        # of length a multiply to it, in coordinates skewed from the index
        a = draw(st.integers(1, 8))
        gens, spec = _tori([(a, a)], [(1, 1), (0, 1)]), AbelianGroupSpec(2)
    else:
        c = 0
        if kind == "torsion":
            c = draw(st.sampled_from((2, 4, 6)))
        shapes = []
        for _ in range(draw(st.integers(1, 3)) if kind != "grid" else 1):
            dims = (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
            if c:
                dims += (draw(st.sampled_from([d for d in range(1, c + 1) if c % d == 0])),)
            shapes.append(dims)
        # a step sharing a factor with its dimension splits the axis into
        # several cycles
        m = len(shapes[0])
        steps = [[draw(st.integers(1, 3)) if d == e else 0 for e in range(m)]
                 for d in range(m)]
        gens = _tori(shapes, steps)
        spec = AbelianGroupSpec(2, (c,) if c else ())
    n = len(gens[0])
    relabel = np.asarray(draw(st.permutations(range(n))), dtype=np.int64)
    return _action(spec, _relabelled(gens, relabel))


@st.composite
def tiles(draw, f: FactorAction):
    """A box tile (it must hold the identity); its sides may exceed every
    cycle length, so windows wrap whole laps."""
    if f.spec.rank == 0:
        return box_tile(f.spec, (), ())
    longest = max(int(c.cycle_len.max()) for c in f.charts)
    lows, highs = [], []
    for _ in range(f.spec.rank):
        side = draw(st.integers(1, 3 * longest + 2))
        lo = draw(st.integers(-(side - 1), 0))
        lows.append(lo)
        highs.append(lo + side - 1)
    return box_tile(f.spec, lows, highs)


def _labeling(data, f) -> Labeling:
    k_sym = data.draw(st.integers(1, 4))
    n = f.space.n_points
    # mostly near-uniform labels, so tiles are accepted as well as rejected
    if data.draw(st.booleans()):
        codes = np.arange(n) % k_sym
    else:
        codes = np.asarray(data.draw(st.lists(st.integers(0, k_sym - 1),
                                              min_size=n, max_size=n)), dtype=np.int64)
    return Labeling(f.space, range(k_sym), codes)


def _with_subsample(cls, target):
    return type(cls.__name__, (cls,), {"SUBSAMPLE_TARGET": target})


EPS = st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(1, 5),
                       Fraction(1, 8), Fraction(1, 40)])


def _assert_same_as_oracle(data, f):
    phi = _labeling(data, f)
    eps = data.draw(EPS)
    # small targets make the subsample screen run on these small spaces
    target = data.draw(st.sampled_from((4096, 2, 5)))
    aligned = all(dims is not None for _, dims, _ in orbit_alignment_loop(f))
    for kind in ("rewired", "target"):
        new = _with_subsample(_GoodSetEvaluator, target)(f, phi, eps, kind)
        old = _with_subsample(PointOrderEvaluator, target)(f, phi, eps, kind)
        # only a factor with an unaligned orbit keeps point order
        assert any(isinstance(b, _PointBlock) for b in new.blocks) == (not aligned)
        for _ in range(3):
            tile = data.draw(tiles(f))
            got, want = new.evaluate(tile), old.evaluate(tile)
            if got is not None:
                # every good point's window is within 3 eps of the global
                # mass: a tower base that misses the bad set needs no check
                assert old.base_window_ok(tile, PointSet(f.space, got[0]), 3)
            assert (got is None) == (want is None)
            if got is not None:
                assert got[0].dtype == bool
                assert np.array_equal(got[0], want[0])
                assert got[1] == want[1]


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@SETTINGS
@given(st.data())
def test_single_generator_evaluator_matches_point_order(data):
    _assert_same_as_oracle(data, data.draw(single_generator_factors()))


@SETTINGS
@given(st.data())
def test_grid_evaluator_matches_point_order(data):
    _assert_same_as_oracle(data, data.draw(grid_factors()))


def _all_unaligned(f):
    return Alignment([], np.arange(f.orbits().n_orbits))


@SETTINGS
@given(st.data())
def test_point_block_matches_orbit_blocks(data):
    # an aligned factor read as one forced point block, unscreened, gets the
    # verdicts, masks and masses of its orbit blocks
    f = data.draw(st.sampled_from((single_generator_factors, grid_factors)).flatmap(
        lambda factors: factors()))
    assume(not orbit_alignment(f).unaligned.size)
    phi = _labeling(data, f)
    eps = data.draw(EPS)
    evaluator = _with_subsample(_GoodSetEvaluator, data.draw(st.sampled_from((4096, 2, 5))))
    for kind in ("rewired", "target"):
        blocks = evaluator(f, phi, eps, kind)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rewiring, "orbit_alignment", _all_unaligned)
            points = evaluator(f, phi, eps, kind)
        assert [type(b) for b in points.blocks] == [_PointBlock] and points.stride == 1
        for _ in range(3):
            tile = data.draw(tiles(f))
            got, want = points.evaluate(tile), blocks.evaluate(tile)
            assert (got is None) == (want is None)
            if got is not None:
                assert np.array_equal(got[0], want[0])
                assert got[1] == want[1]


@st.composite
def fitting_tiles(draw, f: FactorAction):
    """A box tile with at most as many elements as the smallest orbit, when
    the torsion part leaves room; its sides may still exceed an orbit
    dimension."""
    budget = f.orbits().min_orbit_size()
    for c in f.spec.torsion_moduli:
        budget //= c
    lows, highs = [], []
    for _ in range(f.spec.rank):
        side = draw(st.integers(1, max(1, budget)))
        budget //= side
        lo = draw(st.integers(-(side - 1), 0))
        lows.append(lo)
        highs.append(lo + side - 1)
    return box_tile(f.spec, lows, highs)


def _assert_shapes_match_loop(f):
    alignment = orbit_alignment(f)
    loop = orbit_alignment_loop(f)
    assert alignment.unaligned.tolist() == [o for o, (_, dims, _) in enumerate(loop)
                                            if dims is None]
    assert [s.dims for s in alignment.shapes] == \
        sorted({dims for _, dims, _ in loop if dims is not None})
    for shape in alignment.shapes:
        assert shape.orbits.tolist() == [o for o, (_, dims, _) in enumerate(loop)
                                         if dims == shape.dims]
        assert shape.points.shape == (len(shape.orbits),) + shape.dims
        for row, o in zip(shape.points, shape.orbits):
            assert np.array_equal(row.ravel(), loop[o][2])


def _assert_tiling_matches_loop(data, f):
    tile = data.draw(fitting_tiles(f))
    if tile.size > f.orbits().min_orbit_size():
        with pytest.raises(TileTooLarge):
            tiling_base(f, tile)
        return
    tower = tiling_base(f, tile)
    assert tower.base.tolist() == tiling_base_loop(f, tile).tolist()
    assert np.array_equal(tower.levels, f.tile_images(tile, tower.base))
    assert tower_support(tower, f.space.n_points)
    # the prefilter bounds the coverage from above, exactly when every orbit
    # is aligned, and the aligned shapes' boxes bound it from below
    n = f.space.n_points
    covered = Fraction(tower.levels.size, n)
    alignment = orbit_alignment(f)
    assert covered <= max_coverage(f, tile)
    if not alignment.unaligned.size:
        assert covered == max_coverage(f, tile)
    boxes = sum(len(s.orbits) * s.boxes(tile.sides) for s in alignment.shapes)
    assert covered >= Fraction(boxes * tile.size, n)


@SETTINGS
@given(st.data())
def test_shape_blocks_match_per_orbit_loop(data):
    factors = data.draw(st.sampled_from((single_generator_factors, grid_factors)))
    _assert_shapes_match_loop(data.draw(factors()))


@SETTINGS
@given(st.data())
def test_tiling_base_matches_per_orbit_packing(data):
    factors = data.draw(st.sampled_from((single_generator_factors, grid_factors)))
    _assert_tiling_matches_loop(data, data.draw(factors()))


def _partner(f: FactorAction) -> FactorAction:
    """An action of f's group on f's space: every free generator one
    rotation, every torsion generator the identity, so its orbits are that
    rotation's cycles and, at rank 2 or in a torsion group, unaligned."""
    n = f.space.n_points
    r = f.spec.rank
    step = 1 + n // 3
    gens = [(np.arange(n) + step) % n] * r + [np.arange(n)] * len(f.spec.torsion_moduli)
    return _action(f.spec, gens)


@SETTINGS
@given(st.data())
def test_candidate_sides_match_brute_force(data):
    # every s >= 2 that divides some length, or exceeds the tiling floor's
    # share of it and still fits; the lengths are both actions' aligned free
    # dimensions and unaligned orbit sizes, read off the per-orbit oracle
    f = data.draw(st.sampled_from((single_generator_factors, grid_factors)).flatmap(
        lambda factors: factors()))
    g = data.draw(st.sampled_from((f, _partner(f))))
    eps = data.draw(EPS)
    got = candidate_sides(f, g, eps)
    assert got == sorted(set(got))
    r = f.spec.rank
    if r == 0:
        assert got == [1]
        return
    floor = certify.tiling_floor(8 * eps)
    lengths = set()
    for h in (f, g):
        for orbit, dims, _ in orbit_alignment_loop(h):
            lengths.update((len(orbit),) if dims is None else dims[:r])
    want = [s for s in range(2, max(lengths) + 1)
            if any(s <= length and (length % s == 0 or s > floor * length)
                   for length in lengths)]
    assert got == want


@SETTINGS
@given(st.data())
def test_window_sum_matches_brute_force(data):
    f = data.draw(single_generator_factors())
    chart = f.charts[0]
    n = f.space.n_points
    values = np.asarray(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)),
                        dtype=np.int64)
    lo = data.draw(st.integers(-40, 40))
    width = data.draw(st.integers(0, 3 * int(chart.cycle_len.max()) + 2))
    want = np.zeros(n, dtype=np.int64)
    pts = np.arange(n, dtype=np.int64)
    for j in range(lo, lo + width):
        want += values[chart.power_image(j, pts)]
    assert np.array_equal(chart.window_sum(values, lo, width), want)
