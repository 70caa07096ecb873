"""Tiling bases and the Rohlin tower construction with an avoidance set.

``tiling_base`` produces a base set W whose tile translates {tW} are pairwise
disjoint and cover as much of the space as the orbit structure allows.  On
aligned models (every orbit a product of cycles whose lengths are divisible
by the box sides, with torsion cycles of full modulus length) coverage is
exactly 1; otherwise per-dimension block packing still covers all complete
blocks, and a literal greedy sweep handles orbits without product structure,
reporting achieved coverage honestly.

``rohlin_avoiding`` upgrades a base to one avoiding a given small set: among
all tile shifts of W it picks the one meeting the avoidance set least
(first minimizer in canonical tile order) and removes the intersection.
Commutativity keeps the shifted family disjoint; the mass bookkeeping gives
coverage > 1 - eps whenever the avoidance set has mass < eps/2.  The
``Tower`` it returns carries its level array, which the later stages read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .actions import FactorAction
from .errors import CoverageShortfall, HypothesisViolated, TileTooLarge
from .groups import Tile
from .space import PointSet, exact_fraction, measure

GREEDY_COST_CAP = 30_000_000


@dataclass
class OrbitAlignment:
    """Product-of-cycles structure of one orbit, if it has one.

    ``dims`` holds the per-generator cycle lengths inside the orbit and
    ``coords`` lists the orbit's points in row-major coordinate order
    (both None when the orbit is not a product of its generator cycles).
    """

    points: np.ndarray
    size: int
    dims: tuple[int, ...] | None
    coords: np.ndarray | None


def orbit_alignment(f: FactorAction) -> list[OrbitAlignment]:
    """Per-orbit product-coordinate structure, cached on the action."""
    if "alignment" in f._memo:
        return f._memo["alignment"]
    od = f.orbits()
    out: list[OrbitAlignment] = []
    n_dims = len(f.charts)
    # arr below has len(orbit) points, all in the orbit, so it is injective
    # iff it covers the orbit; one mask serves every orbit
    hit = np.zeros(f.space.n_points, dtype=bool)
    for orbit in od.orbits:
        x0 = int(orbit[0])
        dims = tuple(int(f.charts[d].cycle_len[f.charts[d].cycle_of[x0]]) for d in range(n_dims))
        prod = 1
        for L in dims:
            prod *= L
        coords = None
        if prod == len(orbit):
            arr = np.array([x0], dtype=np.int64)
            for d in range(n_dims - 1, -1, -1):
                arr = f.charts[d].consecutive_images(arr, 0, dims[d])
            hit[arr] = True
            if np.count_nonzero(hit[orbit]) == arr.size:
                coords = arr
            hit[arr] = False
        if coords is None:
            dims = None
        out.append(OrbitAlignment(orbit, len(orbit), dims, coords))
    f._memo["alignment"] = out
    return out


def _tile_fits(f: FactorAction, t: Tile, al: OrbitAlignment) -> bool:
    if al.dims is None:
        return False
    r = f.spec.rank
    for d, side in enumerate(t.sides):
        if d < r:
            if side > al.dims[d]:
                return False
        else:
            # full torsion component only injects when the orbit realizes it
            if al.dims[d] != f.spec.torsion_moduli[d - r]:
                return False
    return True


def max_aligned_coverage(f: FactorAction, sides: tuple[int, ...], tile_size: int) -> Fraction:
    """Covered mass the block construction would reach with these box sides.

    Non-aligned orbits are counted as contributing nothing, so this is a
    lower bound on what ``tiling_base`` achieves and is cheap enough to use
    as a tile-search prefilter.
    """
    covered = 0
    r = f.spec.rank
    for al in orbit_alignment(f):
        if al.dims is None:
            continue
        ok = True
        blocks = 1
        for d, side in enumerate(sides):
            if d >= r and al.dims[d] != f.spec.torsion_moduli[d - r]:
                ok = False
                break
            if side > al.dims[d]:
                ok = False
                break
            blocks *= al.dims[d] // side
        if ok:
            covered += blocks * tile_size
    return Fraction(covered, f.space.n_points)


def _aligned_base_points(f: FactorAction, t: Tile, al: OrbitAlignment) -> np.ndarray:
    allowed = []
    for lo, side, L in zip(t.dim_lows, t.sides, al.dims):
        blocks = L // side
        allowed.append(-lo + side * np.arange(blocks, dtype=np.int64))
    grid = al.coords.reshape(al.dims)
    return grid[np.ix_(*allowed)].ravel()


def _greedy_base_points(f: FactorAction, t: Tile, orbit: np.ndarray,
                        covered: np.ndarray) -> list[int]:
    picked = []
    for x in orbit:
        idx = f.tile_images(t, int(x))
        if np.unique(idx).size != idx.size:
            continue
        if covered[idx].any():
            continue
        covered[idx] = True
        picked.append(int(x))
    return picked


def tiling_base(f: FactorAction, t: Tile, coverage_floor=None) -> PointSet:
    """Base set W with {tW} pairwise disjoint, maximizing coverage.

    Exact block packing on orbits with product-cycle coordinates; greedy
    index-order sweep elsewhere (guarded by a cost cap).  Raises
    TILE_TOO_LARGE when the tile cannot fit in the smallest orbit and
    COVERAGE_SHORTFALL when the achieved coverage falls below the caller's
    floor.
    """
    if t.spec != f.spec:
        raise ValueError("tile spec does not match the action")
    od = f.orbits()
    if t.size > od.min_orbit_size():
        raise TileTooLarge(
            f"tile of size {t.size} exceeds smallest orbit size {od.min_orbit_size()}"
        )
    n = f.space.n_points
    base_points: list[np.ndarray] = []
    greedy_orbits: list[np.ndarray] = []
    for al in orbit_alignment(f):
        if _tile_fits(f, t, al):
            base_points.append(_aligned_base_points(f, t, al))
        else:
            greedy_orbits.append(al.points)
    if greedy_orbits:
        cost = sum(len(o) for o in greedy_orbits) * t.size
        if cost > GREEDY_COST_CAP:
            raise CoverageShortfall(
                "orbits without product structure are too large for the greedy sweep"
            )
        covered = np.zeros(n, dtype=bool)
        for pts in base_points:
            covered[f.tile_images(t, pts)] = True
        sweep = np.sort(np.concatenate(greedy_orbits))
        picked = _greedy_base_points(f, t, sweep, covered)
        if picked:
            base_points.append(np.array(picked, dtype=np.int64))
    if base_points:
        w_idx = np.concatenate(base_points)
    else:
        w_idx = np.array([], dtype=np.int64)
    w = PointSet.from_indices(f.space, w_idx)
    support, disjoint = tower_support(f, t, w)
    if not disjoint:
        raise CoverageShortfall("internal error: constructed base has overlapping levels")
    coverage = measure(support)
    if coverage_floor is not None and coverage < exact_fraction(coverage_floor):
        raise CoverageShortfall(
            f"achieved coverage {coverage} below floor {coverage_floor}",
            coverage=coverage,
        )
    return w


def tower_support(f: FactorAction, t: Tile, base: PointSet) -> tuple[PointSet, bool]:
    """Union of all levels {t . base} and whether they are pairwise disjoint."""
    return Tower.over(f, t, base).support()


@dataclass
class Tower:
    """A Rohlin tower: a base set and the family of tile levels over it.

    ``levels`` is the |T| x |B| level array ``FactorAction.tile_images``
    returns for the base points in increasing order: ``levels[t, i]`` is the
    point t . b_i.  It is built once, by ``Tower.over``; every later stage
    reads it, and trimming the base slices it.
    """

    tile: Tile
    base: PointSet
    levels: np.ndarray
    factor_index: int | None = None

    @classmethod
    def over(cls, f: FactorAction, tile: Tile, base: PointSet,
             factor_index: int | None = None) -> Tower:
        """The tower of ``tile`` over ``base`` under the action ``f``."""
        return cls(tile, base, f.tile_images(tile, base.indices()), factor_index)

    def support(self) -> tuple[PointSet, bool]:
        """Union of the levels and whether they are pairwise disjoint."""
        space = self.base.space
        mask = np.zeros(space.n_points, dtype=bool)
        mask[self.levels] = True
        return PointSet(space, mask), int(np.count_nonzero(mask)) == self.levels.size

    def trimmed(self, size: int) -> Tower:
        """The tower over the ``size`` lowest-index base points."""
        if size == self.base.size:
            return self
        keep = PointSet.from_indices(self.base.space, self.base.indices()[:size])
        return Tower(self.tile, keep, self.levels[:, :size], self.factor_index)

    def to_dict(self) -> dict:
        return {
            "factor": self.factor_index,
            "tile": {
                "lows": list(self.tile.lows),
                "highs": list(self.tile.highs),
                "torsion": list(self.tile.spec.torsion_moduli),
            },
            "base": self.base.to_sorted_list(),
        }


@dataclass
class TowerReport:
    disjoint: bool
    coverage: Fraction
    base_size: int
    level_count: int
    avoid_clear: bool | None = None

    @property
    def ok(self) -> bool:
        return self.disjoint and (self.avoid_clear is not False)


def rohlin_avoiding(f: FactorAction, t: Tile, eps, avoid: PointSet,
                    factor_index: int | None = None) -> Tower:
    """Tower with disjoint levels, coverage > 1 - eps, and base disjoint
    from ``avoid``.

    Requires mass(avoid) < eps/2.  Stage one builds a plain tiling base W at
    coverage > 1 - eps/2; stage two shifts W by the tile element whose level
    meets ``avoid`` least (first minimizer in canonical tile order) and
    removes the leftover intersection.
    """
    eps = exact_fraction(eps)
    if measure(avoid) >= eps / 2:
        raise HypothesisViolated(
            f"avoidance set has mass {measure(avoid)} >= eps/2 = {eps / 2}"
        )
    floor = 1 - eps / 2
    w = tiling_base(f, t, coverage_floor=floor)
    # tiling_base certified the levels of W disjoint, so they cover |T||W|
    coverage = Fraction(t.size * w.size, f.space.n_points)
    if coverage <= floor:
        raise CoverageShortfall(
            f"tiling base coverage {coverage} not strictly above {floor}"
        )
    # per tile element, how much its copy of W meets the avoidance set
    hits = np.count_nonzero(avoid.mask[f.tile_images(t, w.indices())], axis=1)
    t0_index = int(np.argmin(hits))
    t0 = t.element_at(t0_index)
    shifted = f.element_image_set(t0, w)
    base = shifted - avoid
    tower = Tower.over(f, t, base, factor_index)
    support_b, disjoint = tower.support()
    if not disjoint:
        raise CoverageShortfall("internal error: shifted base has overlapping levels")
    if measure(support_b) <= 1 - eps:
        raise CoverageShortfall(
            f"tower coverage {measure(support_b)} not strictly above {1 - eps}"
        )
    if (base & avoid).size:
        raise HypothesisViolated("internal error: base meets the avoidance set")
    return tower


def verify_tower(tw: Tower, f: FactorAction, avoid: PointSet | None = None) -> TowerReport:
    """Re-check disjointness, coverage, and (optionally) avoidance."""
    support, disjoint = tower_support(f, tw.tile, tw.base)
    avoid_clear = None
    if avoid is not None:
        avoid_clear = (tw.base & avoid).size == 0
    return TowerReport(
        disjoint=disjoint,
        coverage=measure(support),
        base_size=tw.base.size,
        level_count=tw.tile.size,
        avoid_clear=avoid_clear,
    )
