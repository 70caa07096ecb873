"""Orbit-preserving rewiring of one action toward another.

Given a free system ``alpha`` and a target system ``beta`` on the same space,
the pipeline produces ``gamma`` orbit-equivalent to ``alpha`` whose action is
weakly close to ``beta`` on a requested family of group elements and sets:

1. partition the space by how ``beta`` moves the target sets (``phi``);
2. build a labeling ``psi`` with the same cell masses whose cells are
   equidistributed along most ``alpha`` orbits (good partition);
3. match the two labelings cell by cell with an automorphism R;
4. per factor, conjugate alpha_i by R into alpha'_i, which is held only
   until its rewiring is built; erect matching Rohlin towers for alpha'_i
   and beta_i over a common box tile whose levels are label-pure, split the
   bases into equal-mass columns, match tile elements of equal label within
   each column, and build the rewiring S_i that moves each column's levels
   by its matching;
5. measure the three-part mass budget that bounds the final discrepancy,
   the weak discrepancy from scratch, and the orbit partition factor by
   factor: gamma's partition is the join of its factors', so it is R's image
   of alpha's once every S_i keeps the orbits of alpha'_i
   (``verify_orbit_equivalence``).

Every bound a stage accepts its decision by is stated once, in ``certify``,
and called as that stage's acceptance test; a violation raises its error.

Each factor's tower pair is two steps: ``tile_search`` yields the box tiles
that are invariant and good on both actions, and ``build_pair`` erects and
certifies the towers over one of them.  The search reads each factor's
orbits as ``rohlin.orbit_alignment`` gives them, grouped by shape into
C x d_0 x ... x d_{m-1} point arrays: the candidate sides come from the
shapes' dimensions, the coverage prefilter counts boxes per shape, and the
good-set evaluator turns each shape into one ``_OrbitBlock`` of prefix sums
that ``actions._slide`` reads.  A factor with an orbit that is not a product
of its generator cycles is one ``_PointBlock``, read the same way but in
point order.  The rewiring reads the columns'
levels (``ColumnData``), and the budget takes S_i of them as gamma_i's: no
rewired action is built.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import certify
from .actions import (FactorAction, FreeProductSystem, _doubled_prefix, _slide,
                      compose_letters, weak_discrepancy)
from .errors import (
    BaseSizeMismatch,
    BudgetExceeded,
    ConfigError,
    CoverageBelowFloor,
    LevelOverlap,
    NoGoodTile,
    OrbitRewireError,
    PushforwardMismatch,
    RankUnsupported,
    SpecMismatch,
    VerificationFailed,
)
from .goodpart import _check_exact_range, _orbit_counts, good_partition
from .groups import DEFAULT_TILE_CAP, AbelianElement, FreeWord, Tile, box_tile
from .rohlin import Tower, max_coverage, orbit_alignment, rohlin_avoiding
from .space import (
    MAX_GENERATING_SETS,
    Labeling,
    Permutation,
    PointSet,
    exact_fraction,
    generated_partition,
    measure,
    pushforward,
)


# ---------------------------------------------------------------------------
# conjugator
# ---------------------------------------------------------------------------

def match_labels_conjugator(psi: Labeling, phi: Labeling) -> Permutation:
    """The automorphism R with R(psi-cell) = phi-cell for every symbol.

    Requires exactly equal pushforwards; within each label, points are
    matched in increasing index order, so R is deterministic: with psi's
    codes renumbered in phi's alphabet order, R pairs the stable sorts.
    """
    if psi.space != phi.space:
        raise PushforwardMismatch("labelings live on different spaces")
    if pushforward(psi) != pushforward(phi):
        raise PushforwardMismatch("labelings have different pushforwards")
    # codes of at most 16 bits sort by radix, in linear time
    code = np.min_scalar_type(len(phi.alphabet) - 1)
    remap = np.array([phi.code_of(a) for a in psi.alphabet], dtype=code)
    forward = np.empty(psi.space.n_points, dtype=np.int64)
    forward[np.argsort(remap[psi.codes], kind="stable")] = \
        np.argsort(phi.codes.astype(code), kind="stable")
    return Permutation(psi.space, forward)


# ---------------------------------------------------------------------------
# tower pair
# ---------------------------------------------------------------------------

@dataclass
class TowerPairResult:
    tower_alpha: Tower
    tower_beta: Tower
    tile: Tile
    side: int
    good_mass_alpha: Fraction
    good_mass_beta: Fraction
    avoid_mass: Fraction
    coverage_alpha: Fraction
    coverage_beta: Fraction
    base_size: int


class _OrbitBlock:
    """The C orbits of one shape d_0 x ... x d_{m-1} of a factor whose orbits
    are all products of their generator cycles, as one C x d_0 x ... block.

    ``points`` is the shape's point array from ``rohlin.orbit_alignment``:
    ``points[c, j_0, ..., j_{m-1}]`` is g_0^j_0 ... g_{m-1}^j_{m-1} x_c for
    the minimum x_c of the block's c-th orbit.  For a single generator the
    rows are its cycles.  Per symbol a, ``pref[a]`` is the doubled prefix of
    the symbol along the last axis (int32 while 2 d_{m-1} < 2^31, int64
    beyond) and ``totals[a]`` its int64 line counts; ``counts[a]`` is the
    symbol's count in each orbit, a C x 1 x ... x 1 column.  A box window is
    the 1-D circular window along each axis in turn: ``_slide`` on the stored
    prefix along the last axis, then a fresh doubled prefix and ``_slide``
    along each further axis.
    """

    def __init__(self, points: np.ndarray, codes: np.ndarray, k_sym: int):
        self.points = points
        self.dims = points.shape[1:]
        self.size = points[0].size  # points per orbit
        d = self.dims[-1]
        # prefix values reach 2d - 1; int32 halves the memory while that fits
        dtype = np.int32 if 2 * d < 2**31 else np.int64
        self.pref = []
        self.totals = []
        self.counts = []
        per_orbit = (len(points),) + (1,) * len(self.dims)
        for a in range(k_sym):
            pref = _doubled_prefix(codes == a, dtype)
            totals = pref[..., d:d + 1].astype(np.int64)
            self.pref.append(pref)
            self.totals.append(totals)
            self.counts.append(totals.reshape(len(points), -1).sum(axis=1).reshape(per_orbit))
        self.fixed = np.zeros(per_orbit, dtype=bool)

    def window(self, a: int, tile: Tile, stride: int) -> np.ndarray:
        """int64 counts of symbol a over the tile's box from every point, at
        every stride-th position of the last axis.  With stride 1 the result
        is laid out like ``points``."""
        lows, sides = tile.dim_lows, tile.sides
        w = _slide(self.pref[a], self.totals[a], lows[-1], sides[-1], stride)
        for axis in range(1, len(self.dims)):
            line = np.moveaxis(w, axis, -1)
            pref = _doubled_prefix(line, np.int64)
            d = line.shape[-1]
            w = np.moveaxis(_slide(pref, pref[..., d:d + 1], lows[axis - 1], sides[axis - 1]),
                            -1, axis)
        return w


class _PointBlock:
    """A factor with an unaligned orbit, in point order: ``_OrbitBlock``'s
    fields over every point, with per-point ``size`` and ``counts`` built when
    the rewired side first reads them, and the tile's ``window_counts``."""

    def __init__(self, f: FactorAction, codes: np.ndarray, k_sym: int):
        self.f = f
        self.codes = codes
        self.k_sym = k_sym
        self.points = np.arange(f.space.n_points, dtype=np.int64)
        self.fixed = np.zeros(f.space.n_points, dtype=bool)

    @cached_property
    def size(self) -> np.ndarray:
        return self.f.orbits().sizes[self.f.orbits().orbit_id]

    @cached_property
    def counts(self) -> list[np.ndarray]:
        od = self.f.orbits()
        return list(_orbit_counts(od, self.codes, self.k_sym)[od.orbit_id].T)

    def window(self, a: int, tile: Tile, stride: int) -> np.ndarray:
        return self.f.window_counts(tile, self.codes == a)


class _GoodSetEvaluator:
    """Exact good-set masses for candidate tiles, built for a fixed factor.

    A point is bad when some symbol's count in its tile window strays from
    the symbol's mass in its orbit (rewired side) or in the whole space
    (target side) by more than the tolerance; the bad count does not depend
    on the order the points are visited in.  A factor whose orbits are all
    aligned, which every single-generator factor is, is therefore evaluated
    in product coordinates: each orbit shape of ``rohlin.orbit_alignment``
    is one ``_OrbitBlock``, box windows are slice differences of prefixes
    along each axis, and only an accepted tile's mask is written back to
    point order; a factor with an unaligned orbit is one unscreened
    ``_PointBlock``, read the same way.  The orbit conditions do not depend
    on the tile and are counted once, per orbit.  Each candidate is first
    screened on a stride of the orbit blocks' last axis, an exact rejection
    test because bad points in the sample are bad points outright, and the
    full pass early-exits once the bad count crosses the threshold.  A good
    window is within 3 eps' of the global mass: by definition on the target
    side, and by the triangle inequality on the rewired side, where an orbit
    more than 2 eps' off the global mass is bad outright (``fixed``).
    """

    SUBSAMPLE_TARGET = 4096

    def __init__(self, f: FactorAction, phi: Labeling, eps: Fraction, kind: str):
        _check_exact_range(eps, f.space.n_points)
        self.eps = eps
        self.kind = kind  # "rewired" (orbit-relative) or "target" (global)
        self.n = n = f.space.n_points
        self.max_bad = certify.max_bad_points(eps, n)
        self.k_sym = k_sym = len(phi.alphabet)
        self.counts = np.bincount(phi.codes, minlength=k_sym).tolist()
        alignment = orbit_alignment(f)
        if alignment.unaligned.size:
            self.stride = 1
            self.blocks = [_PointBlock(f, phi.codes, k_sym)]
        else:
            # the subsample screen reads every stride-th position of each line
            self.stride = max(1, n // self.SUBSAMPLE_TARGET)
            self.blocks = [_OrbitBlock(shape.points, phi.codes[shape.points], k_sym)
                           for shape in alignment.shapes]
        if kind == "rewired":
            # orbit-vs-global failures are tile-independent
            for blk in self.blocks:
                for a, count in enumerate(blk.counts):
                    blk.fixed |= certify.orbit_far(
                        np.abs(count * n - self.counts[a] * blk.size), blk.size, n, eps)

    def _too_bad(self, n_bad: int) -> bool:
        return n_bad > self.max_bad

    def _far(self, w: np.ndarray, count, size, tsz: int, slack: int = 1) -> np.ndarray:
        """Windows w off the mass count/size by more than slack*eps,
        |w/|T| - count/size| > slack*eps; overwrites w."""
        enum, eden = self.eps.numerator, self.eps.denominator
        w *= size
        w -= count * tsz
        np.abs(w, out=w)
        w *= eden
        return w > slack * enum * tsz * size

    def _block_bad(self, blk, tile: Tile, a: int, stride: int) -> np.ndarray:
        w = blk.window(a, tile, stride)
        if self.kind != "rewired":
            return self._far(w, self.counts[a], self.n, tile.size, 3)
        return self._far(w, blk.counts[a], blk.size, tile.size)

    def _blocks_bad(self, tile: Tile, stride: int) -> list[np.ndarray] | None:
        """Per block, its bad points among every stride-th position of each
        line; None once their count crosses the threshold."""
        bad = [blk.fixed for blk in self.blocks]
        for a in range(self.k_sym):
            for i, blk in enumerate(self.blocks):
                w_bad = self._block_bad(blk, tile, a, stride)
                bad[i] = np.logical_or(w_bad, bad[i], out=w_bad)
            if self._too_bad(sum(int(np.count_nonzero(b)) for b in bad)):
                return None
        return bad

    def evaluate(self, tile: Tile) -> tuple[np.ndarray, Fraction] | None:
        """Good-set mask and mass, or None when mass <= 1 - 2*eps."""
        if self.stride > 1 and self._blocks_bad(tile, self.stride) is None:
            return None
        bad = self._blocks_bad(tile, 1)
        if bad is None:
            return None
        good = np.empty(self.n, dtype=bool)
        for blk, b in zip(self.blocks, bad):
            good[blk.points] = ~b
        return good, Fraction(int(np.count_nonzero(good)), self.n)


def equalize_bases(tw_a: Tower, tw_b: Tower) -> tuple[Tower, Tower]:
    """Trim the larger base (dropping highest-index points) to equal sizes."""
    size = min(tw_a.base.size, tw_b.base.size)
    return tw_a.trimmed(size), tw_b.trimmed(size)


def _divisors(m: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    return small + [m // d for d in small]


def candidate_sides(alpha_i: FactorAction, beta_i: FactorAction, eps: Fraction) -> list[int]:
    """The box sides the tile search tries, in increasing order: [1] at rank
    0, else the divisors s >= 2 of each length, which pack it without a gap,
    and the sides above 1 - 4 eps' of it (the tiling floor), one box of which
    covers that much.  The lengths are both actions' aligned free dimensions
    and unaligned orbit sizes.  Gapped packings are left out."""
    r = alpha_i.spec.rank
    if r == 0:
        return [1]
    floor_w = certify.tiling_floor(certify.tower_mass(eps))
    lengths: set[int] = set()
    for f in (alpha_i, beta_i):
        alignment = orbit_alignment(f)
        for shape in alignment.shapes:
            lengths.update(shape.dims[:r])
        lengths.update(f.orbits().sizes[alignment.unaligned].tolist())
    cand: set[int] = set()
    for length in lengths:
        cand.update(s for s in _divisors(length) if s >= 2)
        cand.update(range(max(2, int(floor_w * length) + 1), length + 1))
    return sorted(cand)


def tile_search(alpha_i: FactorAction, beta_i: FactorAction, phi: Labeling,
                window: Sequence[AbelianElement], eps: Fraction, tile_cap: int):
    """Yields (side, tile, (good_a, mass_a), (good_b, mass_b)), each action's
    good-set mask and mass, for the tiles [0, s-1]^rank x full torsion over
    the sides s of ``candidate_sides`` in increasing order, up to the first
    over ``tile_cap``, that have more than 1/eps' elements, are
    window-invariant within eps' (``certify``'s family 2), pass the coverage
    prefilter (``rohlin.max_coverage`` above family 4's tiling floor
    1 - 4 eps' on both actions) and have good sets of mass above 1 - 2 eps'
    on both (family 3).  A side outside the candidates is never tried."""
    spec = alpha_i.spec
    r = spec.rank
    torsion_size = math.prod(spec.torsion_moduli)
    floor_w = certify.tiling_floor(certify.tower_mass(eps))
    min_size = certify.min_tile_size(eps)
    sides = candidate_sides(alpha_i, beta_i, eps)
    eval_a = _GoodSetEvaluator(alpha_i, phi, eps, "rewired")
    eval_b = _GoodSetEvaluator(beta_i, phi, eps, "target")
    for side in sides:
        size = (side ** r) * torsion_size
        if size > tile_cap:
            return
        if size < min_size:
            continue
        tile = box_tile(spec, (0,) * r, (side - 1,) * r, cap=tile_cap)
        if not certify.invariant(tile, window, eps):
            continue
        if min(max_coverage(alpha_i, tile), max_coverage(beta_i, tile)) <= floor_w:
            continue
        res_a = eval_a.evaluate(tile)
        if res_a is None:
            continue
        res_b = eval_b.evaluate(tile)
        if res_b is None:
            continue
        yield side, tile, res_a, res_b


def build_pair(alpha_i: FactorAction, beta_i: FactorAction, tile: Tile, avoid: PointSet,
               eps: Fraction) -> tuple[Tower, Tower, tuple[Fraction, Fraction]]:
    """Rohlin towers of ``tile`` for both actions with bases that miss
    ``avoid``, trimmed to equal base sizes, and their coverages, which
    ``certify.certify_pair`` holds above 1 - 8 eps' (family 4).  It needs no
    search: a run's tile and avoidance set rebuild its towers."""
    rohlin_eps = certify.tower_mass(eps)
    tw_a = rohlin_avoiding(alpha_i, tile, rohlin_eps, avoid)
    tw_b = rohlin_avoiding(beta_i, tile, rohlin_eps, avoid)
    tw_a, tw_b = equalize_bases(tw_a, tw_b)
    return tw_a, tw_b, certify.certify_pair(tw_a, tw_b, avoid, rohlin_eps)


def tower_pair(alpha_i: FactorAction, beta_i: FactorAction, phi: Labeling,
               window: Sequence[AbelianElement], eps_prime, *,
               tile_cap: int = DEFAULT_TILE_CAP) -> TowerPairResult:
    """Matching Rohlin towers for both actions over one good box tile: the
    first tile of ``tile_search`` whose towers ``build_pair`` certifies,
    avoiding both actions' bad points.  The coverage prefilter is exact when
    every orbit is aligned, and there a ``CoverageBelowFloor`` ends the
    search like every other error of the Rohlin stage; with an unaligned
    orbit it is an upper bound, and a side that falls short is passed over.
    """
    eps = exact_fraction(eps_prime)
    if alpha_i.spec != beta_i.spec:
        raise SpecMismatch("tower_pair needs actions of the same factor group")
    for side, tile, (ga, mass_a), (gb, mass_b) in tile_search(alpha_i, beta_i, phi, window,
                                                              eps, tile_cap):
        avoid = PointSet(alpha_i.space, ~(ga & gb))
        try:
            tw_a, tw_b, (cov_a, cov_b) = build_pair(alpha_i, beta_i, tile, avoid, eps)
        except CoverageBelowFloor:
            if not any(orbit_alignment(f).unaligned.size for f in (alpha_i, beta_i)):
                raise
            continue
        return TowerPairResult(
            tower_alpha=tw_a,
            tower_beta=tw_b,
            tile=tile,
            side=side,
            good_mass_alpha=mass_a,
            good_mass_beta=mass_b,
            avoid_mass=measure(avoid),
            coverage_alpha=cov_a,
            coverage_beta=cov_b,
            base_size=tw_a.base.size,
        )
    sides = candidate_sides(alpha_i, beta_i, eps)
    raise NoGoodTile(
        f"no box tile up to side {sides[-1] if sides else 0} (cap {tile_cap}) satisfies the "
        f"invariance/size/coverage/goodness thresholds at eps'={eps}; "
        f"every orbit dimension must reach about "
        f"{min_space_estimate(eps, [window])} points"
    )


# ---------------------------------------------------------------------------
# columns and tile matching
# ---------------------------------------------------------------------------

@dataclass
class ColumnData:
    """The alpha base listed column by column, with per-column rows.

    ``levels`` is the alpha tower's |T| x |B| level array with the base
    points in column order, so its identity row lists the base, and ``col``
    gives the column of each listed point.  Per-column data are
    n_cols x |T| rows: the tile names ``name_alpha`` and ``name_beta``, and,
    once ``tile_matching`` has run, the matching ``sigma``, the matched tile
    elements ``matched`` (the set T_s) and the certified column ``defects``
    |T \\ T_s|.  ``per_point`` lays a row array out like ``levels``.
    """

    tile: Tile
    alphabet_size: int
    col: np.ndarray
    levels: np.ndarray
    name_alpha: np.ndarray
    name_beta: np.ndarray
    sigma: np.ndarray | None = None
    matched: np.ndarray | None = None
    defects: np.ndarray | None = None

    @property
    def n_columns(self) -> int:
        return len(self.name_alpha)

    def per_point(self, rows: np.ndarray) -> np.ndarray:
        """|T| x |B| array whose i-th column is the row of the i-th point's column."""
        return rows[self.col].T


def column_partitions(tw_alpha: Tower, tw_beta: Tower, phi: Labeling) -> ColumnData:
    """Group both bases by tile name and refine into equal-size column pairs.

    Each base is listed in canonical name order, points of one name in
    increasing index order; big-endian unsigned byte keys sort exactly like
    the code tuples.  Both listings have the same length, and a column ends
    wherever either listing starts a new name class.
    """
    if tw_alpha.base.size != tw_beta.base.size:
        raise BaseSizeMismatch(
            f"base sizes differ: {tw_alpha.base.size} vs {tw_beta.base.size}"
        )
    if tw_alpha.tile is not tw_beta.tile and tw_alpha.tile.sides != tw_beta.tile.sides:
        raise BaseSizeMismatch("towers use different tiles")
    tile = tw_alpha.tile
    if len(phi.alphabet) >= 2**15:
        raise ValueError("alphabet too large for int16 name arrays")
    listings = []
    for tw in (tw_alpha, tw_beta):
        # row i is the code sequence along the levels of the i-th base point
        names = np.ascontiguousarray(phi.codes[tw.levels].T, dtype=np.int16)
        keys = names.astype(">u2").view(np.dtype((np.void, 2 * tile.size))).ravel()
        _, cls = np.unique(keys, return_inverse=True)
        order = np.argsort(cls, kind="stable")
        listings.append((order, names[order], cls[order]))
    (order_a, names_a, cls_a), (_, names_b, cls_b) = listings
    starts = np.ones(len(order_a), dtype=bool)
    starts[1:] = (cls_a[1:] != cls_a[:-1]) | (cls_b[1:] != cls_b[:-1])
    return ColumnData(
        tile=tile,
        alphabet_size=len(phi.alphabet),
        col=np.cumsum(starts) - 1,
        levels=tw_alpha.levels[:, order_a],
        name_alpha=names_a[starts],
        name_beta=names_b[starts],
    )


def tile_matching(cd: ColumnData, eps_prime) -> ColumnData:
    """Per column, the tile self-matching: a bijection fixing the identity
    that sends target-name positions onto equal rewired-name positions.

    Greedy per symbol in canonical tile order; leftovers complete the
    bijection arbitrarily (canonical order).  The rows are written to ``cd``
    before ``certify.column_defects`` checks each column's defect against
    7 * eps' * |alphabet| * |T|.
    """
    tile = cd.tile
    e_idx = tile.identity_index
    k_sym = cd.alphabet_size
    sigma = np.full((cd.n_columns, tile.size), -1, dtype=np.int64)
    for row, na, nb in zip(sigma, cd.name_alpha, cd.name_beta):
        row[e_idx] = e_idx
        leftovers_b: list[np.ndarray] = []
        leftovers_a: list[np.ndarray] = []
        for a in range(k_sym):
            bs = np.nonzero(nb == a)[0]
            bs = bs[bs != e_idx]
            as_ = np.nonzero(na == a)[0]
            as_ = as_[as_ != e_idx]
            m = min(len(bs), len(as_))
            if m:
                row[bs[:m]] = as_[:m]
            leftovers_b.append(bs[m:])
            leftovers_a.append(as_[m:])
        lb = np.sort(np.concatenate(leftovers_b))
        la = np.sort(np.concatenate(leftovers_a))
        row[lb] = la  # both count the |T| - 1 - matched unmatched positions
    cd.sigma = sigma
    cd.matched = np.take_along_axis(cd.name_alpha, sigma, 1) == cd.name_beta
    cd.defects = certify.column_defects(cd, exact_fraction(eps_prime))
    return cd


# ---------------------------------------------------------------------------
# rewiring permutation
# ---------------------------------------------------------------------------

def build_rewiring(alpha_i: FactorAction, cd: ColumnData) -> Permutation:
    """The level-shuffling automorphism S that rewires ``alpha_i`` into S a S^-1.

    On the level t.Q of column Q, S moves points to the sigma(t) level of the
    same column (identity off the tower), so it keeps alpha_i's orbits, as
    ``verify_orbit_equivalence`` certifies.  The level count certifies S, and
    so every sigma, a bijection; the base check that S fixes the base, the
    identity's row of ``cd.levels``, as the budget's level array S(``cd.levels``) needs.  The levels are those of
    the alpha tower the columns were built from, which ``alpha_i`` must be
    the action of.
    """
    n = alpha_i.space.n_points
    if cd.sigma is None:
        raise ValueError("tile_matching must complete the columns first")
    levels = cd.levels
    forward = np.arange(n, dtype=np.int64)
    forward[levels] = np.take_along_axis(levels, cd.per_point(cd.sigma), 0)
    counts = np.bincount(forward, minlength=n)
    if np.any(counts != 1):
        raise LevelOverlap("rewiring assignments collide; tower levels overlap")
    base = levels[cd.tile.identity_index]
    if not np.array_equal(forward[base], base):
        raise LevelOverlap("internal error: rewiring moved a base point")
    return Permutation._trusted(alpha_i.space, forward)


# ---------------------------------------------------------------------------
# budget certification
# ---------------------------------------------------------------------------

def _loss_masks(n: int, tile: Tile, levels: np.ndarray, matched: np.ndarray,
                g: AbelianElement) -> tuple[np.ndarray, np.ndarray]:
    """The L1 and L2 point masks of one window element g.

    L1 is the tower levels over T \\ gT; L2 the levels over T \\ (T_s cap gT_s)
    of each point's column s.  ``levels`` and ``matched`` are |T| x |B|.
    """
    shift = tile.index_of_shift(g)
    in_gt = shift >= 0
    l1_mask = np.zeros(n, dtype=bool)
    l1_mask[levels[~in_gt]] = True
    in_gts = np.zeros_like(matched)
    in_gts[in_gt] = matched[shift[in_gt]]
    l2_mask = np.zeros(n, dtype=bool)
    l2_mask[levels[~(matched & in_gts)]] = True
    return l1_mask, l2_mask


def discrepancy_budget(alpha_i: FactorAction, t: Permutation, levels: np.ndarray,
                       beta_i: FactorAction, cd: ColumnData,
                       window: Sequence[AbelianElement], sets: Sequence[PointSet],
                       eps_prime, phi: Labeling) -> certify.BudgetReport:
    """Exact masses of the three discrepancy sources, per window element,
    held to their bounds by ``certify.budget``.

    gamma_i = T alpha_i T^-1 with T = S o R (``t``) is read through alpha's
    own factor ``alpha_i``: each letter is alpha_i's, conjugated by T.
    ``levels`` is gamma_i's level array, S of ``cd.levels``: the rewiring S
    fixes the base and sends a column's level at tile position p to the
    level at sigma(p).

    L0 is the tower complement, L1 the levels lost to tile shift, L2 the
    levels of unmatched tile positions; off their union the rewired and
    target actions move every target set identically, and that emptiness is
    measured pointwise along with the name-transport equivalence on every
    matched level.
    """
    tile = cd.tile
    n = alpha_i.space.n_points
    matched = cd.per_point(cd.matched)
    l0_mask = np.ones(n, dtype=bool)
    l0_mask[levels] = False
    l0 = Fraction(int(np.count_nonzero(l0_mask)), n)
    # name-transport equivalence on matched positions: the rewired level of a
    # column sits inside the cell the target-side name promises
    promised = cd.per_point(cd.name_beta)
    transport_ok = not np.any(phi.codes[levels[matched]] != promised[matched])
    elements = []
    for g in window:
        l1_mask, l2_mask = _loss_masks(n, tile, levels, matched, g)
        excluded = l0_mask | l1_mask | l2_mask
        discrepancies = []
        residual_empty = True
        pa = alpha_i.element_perm(g).conjugate(t)
        pb = beta_i.element_perm(g)
        for a_set in sets:
            d_mask = pa.image(a_set).mask ^ pb.image(a_set).mask
            discrepancies.append(Fraction(int(np.count_nonzero(d_mask)), n))
            if np.any(d_mask & ~excluded):
                residual_empty = False
        elements.append((g.coords, Fraction(int(np.count_nonzero(l1_mask)), n),
                         Fraction(int(np.count_nonzero(l2_mask)), n),
                         discrepancies, residual_empty))
    return certify.budget(l0, transport_ok, elements, exact_fraction(eps_prime),
                          cd.alphabet_size, tile.size, levels.shape[1], n)


# ---------------------------------------------------------------------------
# ergodization (rank-1) and chaining
# ---------------------------------------------------------------------------

def make_factor_ergodic(beta_i: FactorAction, budget) -> FactorAction:
    """Merge the generator's cycles into one by swapping two images per merge.

    Only rank-1 torsion-free factors (a single permutation).  Each merge
    joins the two largest cycles and changes the generator at two points, so
    k cycles cost exactly 2(k-1) changed points; the swap points are the
    lowest-index members whose images are still untouched.

    The merged cycle is always the largest, so with the cycles sorted once by
    (-length, minimum) the first is merged with each of the others in turn.
    A joining cycle is untouched, so its swap point is its minimum.  In each
    cycle the touched members are a prefix of its sorted members, so a heap
    of every merged cycle's lowest untouched member gives the merged cycle's;
    once none is left, the swap point is the merged cycle's minimum.
    """
    budget = exact_fraction(budget)
    if beta_i.spec.rank != 1 or beta_i.spec.torsion_moduli:
        raise RankUnsupported("ergodization supports single-generator free factors only")
    chart = beta_i.charts[0]
    k = chart.n_cycles
    if k == 1:
        return beta_i
    n = beta_i.space.n_points
    cost = Fraction(2 * (k - 1), n)
    if cost > budget:
        raise BudgetExceeded(f"merging {k} cycles changes mass {cost} > budget {budget}")
    forward = beta_i.gens[0].forward.copy()
    # each cycle's members in increasing order, cycle after cycle (cycles are
    # numbered by increasing minimum, so a stable sort of the ids keeps that)
    members = np.argsort(chart.cycle_of, kind="stable").tolist()
    start = chart.cycle_start.tolist()
    end = (chart.cycle_start + chart.cycle_len).tolist()
    first, *partners = np.argsort(-chart.cycle_len, kind="stable").tolist()
    fresh = [(members[start[first]], first)]  # (lowest untouched member, cycle)
    nxt = start[:]  # per cycle, the position of its lowest untouched member
    low = members[start[first]]

    def touch(c: int) -> None:
        nxt[c] += 1
        if nxt[c] < end[c]:
            heapq.heappush(fresh, (members[nxt[c]], c))

    for c in partners:
        if fresh:
            a, m = heapq.heappop(fresh)
            touch(m)
        else:
            a = low
        b = members[start[c]]
        touch(c)
        forward[a], forward[b] = forward[b], forward[a]
        low = min(low, b)
    return FactorAction(beta_i.spec, beta_i.space, (Permutation(beta_i.space, forward),))


def chain_extension(alpha: FreeProductSystem, gamma_head: FreeProductSystem | None,
                    r: Permutation, k: int) -> FreeProductSystem:
    """Extend a rewired head system to all factors.

    Factors 1..k come from ``gamma_head``; the rest are r-conjugates of
    ``alpha``'s factors, which preserves the full orbit equivalence via r.
    """
    if k < 0 or k > alpha.k:
        raise ValueError(f"k={k} out of range for {alpha.k} factors")
    if k == 0:
        return alpha.conjugate(r)
    if gamma_head is None or gamma_head.k != k:
        raise ValueError("gamma_head must cover exactly the first k factors")
    for i in range(k):
        if gamma_head.factors[i].spec != alpha.factors[i].spec:
            raise SpecMismatch(f"factor {i} spec mismatch between head and alpha")
    tail = [f.conjugate(r) for f in alpha.factors[k:]]
    return FreeProductSystem(tuple(gamma_head.factors) + tuple(tail))


def _first_split(ids: np.ndarray, other: np.ndarray) -> int | None:
    """The first point, in (ids, index) order, whose ``other`` id differs
    from that of the first point of its ``ids`` class; None if there is none."""
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    sorted_other = other[order]
    starts = np.ones(len(ids), dtype=bool)
    starts[1:] = sorted_ids[1:] != sorted_ids[:-1]
    lead = np.maximum.accumulate(np.where(starts, np.arange(len(ids)), 0))
    split = np.flatnonzero(sorted_other != sorted_other[lead])
    return int(order[split[0]]) if split.size else None


def _constant_on_classes(ids: np.ndarray, other: np.ndarray) -> bool:
    """Whether ``other`` is constant on every class of ``ids`` (ids in
    [0, n)): one scatter picks a representative per class, in O(N)."""
    rep = np.zeros(int(ids.max()) + 1, dtype=np.int64)
    rep[ids] = np.arange(len(ids), dtype=np.int64)
    return bool(np.array_equal(other[rep[ids]], other))


def _full_partition_check(alpha: FreeProductSystem, gamma: FreeProductSystem,
                          r: Permutation) -> tuple[bool, str | None]:
    """Whether gamma's full orbit partition is the r-image of alpha's, by
    label propagation over every generator of both systems.

    Two partitions are equal iff each one's ids are constant on the other's
    classes; only a failed check sorts, to name the first separating point.
    """
    if alpha.space != gamma.space or r.space != alpha.space:
        raise SpecMismatch("systems and conjugator must share one space")
    g_ids = gamma.full_orbit_decomposition().orbit_id
    a_ids = alpha.full_orbit_decomposition().orbit_id[r.inverse_array]
    if _constant_on_classes(g_ids, a_ids) and _constant_on_classes(a_ids, g_ids):
        return True, None
    for ids, other in ((g_ids, a_ids), (a_ids, g_ids)):
        x = _first_split(ids, other)
        if x is not None:
            return False, f"point {x} separates the partitions"
    return False, "partition counts differ"  # pragma: no cover


def verify_orbit_equivalence(alpha: FreeProductSystem,
                             witness: OEWitness) -> tuple[bool, str | None]:
    """Whether the gamma a witness derives has the R-image of alpha's full
    orbit partition; if not, the diagnostic names a separating point.

    gamma_i = S_i alpha'_i S_i^-1 with alpha'_i = R alpha_i R^-1.  When every
    S_i keeps each orbit of alpha'_i, gamma_i has the orbits of alpha'_i and
    the joins over all factors agree.  That is checked factor by factor on
    alpha's own orbit ids, oid_i[R^-1 S_i x] == oid_i[R^-1 x], in O(N) per
    factor; only a factor that fails it sends the question to the
    full-partition check, which decides it exactly.
    """
    witness.check_shape(alpha)
    r = witness.conjugator.forward
    for f, s in zip(alpha.factors, witness.rewirings):
        # ids[x] = oid_i[R^-1 x], by one scatter instead of an inverse
        oid = f.orbits().orbit_id
        ids = np.empty_like(oid)
        ids[r] = oid
        if not np.array_equal(ids[s.forward], ids):
            return _full_partition_check(alpha, witness.gamma(alpha), witness.conjugator)
    return True, None


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

class GammaWords:
    """gamma's word permutations read through alpha's letters: letter (i, g)
    acts as T_i alpha_i(g) T_i^-1 with T_i = S_i o R.  It has the ``space``
    and ``word_perm`` of a system, which is all ``weak_discrepancy`` reads."""

    __slots__ = ("alpha", "space", "moves")

    def __init__(self, alpha: FreeProductSystem, moves: Sequence[Permutation]):
        self.alpha = alpha
        self.space = alpha.space
        self.moves = tuple(moves)

    def word_perm(self, w: FreeWord) -> Permutation:
        self.alpha._check_word(w)
        return compose_letters(self.space, (
            self.alpha.factors[i].element_perm(g).conjugate(self.moves[i])
            for i, g in reversed(w.letters)))


@dataclass
class OEWitness:
    """Everything needed to re-check an orbit-equivalent approximation: the
    conjugator R and the per-factor rewirings S_i, which stay inside orbits."""

    conjugator: Permutation
    rewirings: tuple[Permutation, ...]

    def check_shape(self, alpha: FreeProductSystem) -> None:
        """SpecMismatch unless the witness has one rewiring per factor of
        alpha and lives on alpha's space."""
        if len(self.rewirings) != alpha.k:
            raise SpecMismatch(
                f"witness has {len(self.rewirings)} rewirings, alpha {alpha.k} factors")
        if any(p.space != alpha.space for p in (self.conjugator, *self.rewirings)):
            raise SpecMismatch("alpha and the witness must share one space")

    def gamma(self, alpha: FreeProductSystem) -> FreeProductSystem:
        """gamma_i = S_i R alpha_i R^-1 S_i^-1, one conjugation by S_i o R."""
        return FreeProductSystem(tuple(
            f.conjugate(s.compose(self.conjugator))
            for f, s in zip(alpha.factors, self.rewirings, strict=True)
        ))

    def gamma_words(self, alpha: FreeProductSystem) -> GammaWords:
        """gamma's word permutations without building gamma: no factor is
        conjugated and no chart is carried."""
        self.check_shape(alpha)
        return GammaWords(alpha, [s.compose(self.conjugator) for s in self.rewirings])


@dataclass
class FactorStageReport:
    factor_index: int
    tile_side: int
    tile_size: int
    good_mass_alpha: Fraction
    good_mass_beta: Fraction
    avoid_mass: Fraction
    coverage_alpha: Fraction
    coverage_beta: Fraction
    base_size: int
    column_count: int
    column_defects: list[int]
    max_defect: int
    defect_bound: Fraction
    budget: certify.BudgetReport


@dataclass
class PipelineReport:
    eps: Fraction
    eps_prime: Fraction
    alphabet_size: int
    cell_masses: list[Fraction]
    good_partition_retries: int
    good_partition_bad_masses: list[Fraction]
    good_partition_histograms: list[list[tuple[Fraction, Fraction]]]
    factors: list[FactorStageReport]
    final_discrepancy: Fraction
    orbit_check: bool
    # every orbit must hold a tile of more than 1/eps' window-invariant
    # elements, so spaces below this bound cannot host any qualifying tile
    min_space_estimate: int = 0


def min_space_estimate(eps_prime: Fraction,
                       window: Sequence[Sequence[AbelianElement]]) -> int:
    """Smallest orbit dimension that could host a qualifying tile.

    Tiles need more than 1/eps' elements and window-invariance forces box
    sides beyond 2*|g|/eps' per coordinate, so every aligned orbit dimension
    (hence the space) must be at least this large.
    """
    need = certify.min_tile_size(eps_prime)
    for elems in window:
        for g in elems:
            for v in g.free:
                need = max(need, int(2 * abs(v) / eps_prime) + 1)
    return need


@dataclass
class PipelineResult:
    witness: OEWitness
    report: PipelineReport
    phi: Labeling
    psi: Labeling


def _stage(name: str):
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            if isinstance(exc, OrbitRewireError) and exc.stage is None:
                exc.stage = name
            return False

    return _Ctx()


def oe_approximate(alpha: FreeProductSystem, beta: FreeProductSystem,
                   window: Sequence[Sequence[AbelianElement]], eps,
                   sets: Sequence[PointSet], seed: int, *,
                   eps_prime_override=None,
                   tile_cap: int = DEFAULT_TILE_CAP,
                   max_retries: int = 3) -> PipelineResult:
    """Produce gamma orbit-equivalent to alpha and weakly eps-close to beta.

    ``window`` gives, per factor, the group elements on which closeness is
    required; only these letters are certified, not the words they make.
    The returned witness carries the conjugator and the per-factor rewirings
    that gamma is built from; the report carries every certified mass and
    the verified orbit check.
    """
    eps = exact_fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    if alpha.space != beta.space:
        raise SpecMismatch("alpha and beta must act on the same space")
    if alpha.k != beta.k or len(window) != alpha.k:
        raise SpecMismatch("factor counts of alpha, beta, and window must agree")
    for i in range(alpha.k):
        if alpha.factors[i].spec != beta.factors[i].spec:
            raise SpecMismatch(f"factor {i} group specs differ")
        if not beta.factors[i].orbits().is_transitive:
            raise VerificationFailed(
                f"target factor {i} is not transitive; ergodize it first "
                "(make_factor_ergodic) or supply a transitive template"
            )

    with _stage("phi"):
        n_elems = sum(len(elems) for elems in window)
        family_size = len(sets) * (1 + n_elems)
        if family_size > MAX_GENERATING_SETS:
            raise ConfigError(
                f"the phi family has {family_size} sets, more than the "
                f"{MAX_GENERATING_SETS} supported: each of the {len(sets)} target "
                f"sets plus its image under each of the {n_elems} window elements"
            )
        family: list[PointSet] = []
        for a_set in sets:
            family.append(a_set)
            for i, elems in enumerate(window):
                for g in elems:
                    family.append(beta.factors[i].element_image_set(g, a_set))
        phi = generated_partition(alpha.space, family)
        k_sym = len(phi.alphabet)
        eps_prime = (
            exact_fraction(eps_prime_override)
            if eps_prime_override is not None
            else eps / (24 * k_sym)
        )
        pi = pushforward(phi)

    with _stage("good_partition"):
        psi, gp_report, retries = good_partition(alpha, pi, eps_prime, seed,
                                                 max_retries=max_retries)

    with _stage("conjugator"):
        r_perm = match_labels_conjugator(psi, phi)

    rewirings: list[Permutation] = []
    moves: list[Permutation] = []  # T_i = S_i o R, composed once per factor
    factor_reports: list[FactorStageReport] = []
    for i in range(alpha.k):
        with _stage("conjugator"):
            alpha_p_i = alpha.factors[i].conjugate(r_perm)
        with _stage(f"tower_pair[{i}]"):
            pair = tower_pair(alpha_p_i, beta.factors[i], phi, window[i],
                              eps_prime, tile_cap=tile_cap)
        with _stage(f"columns[{i}]"):
            cd = column_partitions(pair.tower_alpha, pair.tower_beta, phi)
        with _stage(f"matching[{i}]"):
            cd = tile_matching(cd, eps_prime)
        with _stage(f"rewiring[{i}]"):
            s_perm = build_rewiring(alpha_p_i, cd)
        del alpha_p_i
        with _stage(f"budget[{i}]"):
            t_perm = s_perm.compose(r_perm)
            budget = discrepancy_budget(alpha.factors[i], t_perm, s_perm.forward[cd.levels],
                                        beta.factors[i], cd, window[i], sets, eps_prime, phi)
        rewirings.append(s_perm)
        moves.append(t_perm)
        factor_reports.append(
            FactorStageReport(
                factor_index=i,
                tile_side=pair.side,
                tile_size=pair.tile.size,
                good_mass_alpha=pair.good_mass_alpha,
                good_mass_beta=pair.good_mass_beta,
                avoid_mass=pair.avoid_mass,
                coverage_alpha=pair.coverage_alpha,
                coverage_beta=pair.coverage_beta,
                base_size=pair.base_size,
                column_count=cd.n_columns,
                column_defects=cd.defects.tolist(),
                max_defect=int(cd.defects.max(initial=0)),
                defect_bound=certify.defect_bound(eps_prime, k_sym, pair.tile.size),
                budget=budget,
            )
        )

    witness = OEWitness(conjugator=r_perm, rewirings=tuple(rewirings))
    with _stage("final"):
        words = [
            FreeWord.letter(i, g) for i, elems in enumerate(window) for g in elems
        ]
        final = weak_discrepancy(GammaWords(alpha, moves), beta, words, sets)
        certify.final_discrepancy(final, eps)
        ok, diag = verify_orbit_equivalence(alpha, witness)
        certify.orbit_equivalence(ok, diag)

    report = PipelineReport(
        eps=eps,
        eps_prime=eps_prime,
        alphabet_size=k_sym,
        cell_masses=[pi.mass(a) for a in phi.alphabet],
        good_partition_retries=retries,
        good_partition_bad_masses=[fb.bad_mass for fb in gp_report.per_factor],
        good_partition_histograms=[fb.histogram for fb in gp_report.per_factor],
        factors=factor_reports,
        final_discrepancy=final,
        orbit_check=ok,
        min_space_estimate=min_space_estimate(eps_prime, window),
    )
    return PipelineResult(witness=witness, report=report, phi=phi, psi=psi)
