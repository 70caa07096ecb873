"""Tiling bases and the Rohlin tower construction with an avoidance set.

``orbit_alignment`` reads a factor's orbits in product coordinates: an orbit
whose generator cycle lengths d_0, ..., d_{m-1} multiply to its size is the
product of those cycles, and the orbits of one shape form one
``OrbitShape``, a C x d_0 x ... x d_{m-1} array of points.  The tiling and
the tile search (``rewiring.tile_search``: its coverage prefilter
``max_coverage`` and its good-set evaluator) all read that one structure,
built once per factor; the prefilter is exact on aligned orbits and an upper
bound on the others.

``tiling_base`` produces a base set W whose tile translates {tW} are pairwise
disjoint and cover as much of the space as the orbit structure allows.  On
every orbit shape the box fits (each side at most its dimension, torsion
dimensions of full modulus length) it packs the complete boxes, by one
strided slice over all the shape's orbits, so aligned models whose
dimensions the sides divide are covered exactly; a literal greedy sweep
handles the unaligned orbits, reporting achieved coverage honestly.  It
returns the ``Tower`` it certified.

``rohlin_avoiding`` upgrades a base to one avoiding a given small set: among
all tile shifts of W, which are the level rows of W's tower, it picks the
one meeting the avoidance set least (first minimizer in canonical tile
order) and removes the intersection.  Commutativity keeps the shifted
family disjoint; the mass bookkeeping gives coverage > 1 - eps whenever the
avoidance set has mass < eps/2; both floors and the base's avoidance are
``certify``'s.  The ``Tower`` it returns is the one the later stages read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import certify
from .actions import FactorAction
from .errors import CoverageShortfall, HypothesisViolated, TileTooLarge
from .groups import Tile
from .space import PointSet, exact_fraction, measure

GREEDY_COST_CAP = 30_000_000


@dataclass
class OrbitShape:
    """The C orbits of one shape d_0 x ... x d_{m-1}, in product coordinates.

    ``points[c, j_0, ..., j_{m-1}]`` is g_0^j_0 ... g_{m-1}^j_{m-1} x_c for
    the minimum x_c of the c-th orbit, whose index in ``f.orbits()`` is
    ``orbits[c]``; the orbits appear in increasing order.
    """

    dims: tuple[int, ...]
    orbits: np.ndarray
    points: np.ndarray

    def boxes(self, sides) -> int:
        """Disjoint boxes of these sides one orbit holds in its coordinates:
        0 when a side exceeds its dimension.  A torsion side is its full
        modulus, which the dimension divides, so it fits only at full length."""
        return math.prod(d // s for d, s in zip(self.dims, sides))


@dataclass
class Alignment:
    """A factor's orbits grouped by shape (by increasing ``dims``), and the
    indices of the orbits that are not products of their generator cycles."""

    shapes: list[OrbitShape]
    unaligned: np.ndarray


def orbit_alignment(f: FactorAction) -> Alignment:
    """The factor's orbits in product coordinates, cached on the action.

    Commuting generators have one cycle length d_i per orbit, and
    j -> g^j x_0 maps Z/d_0 x ... x Z/d_{m-1} onto the orbit of x_0, so it is
    a bijection exactly when the d_i multiply to the orbit size: the sizes
    decide alignment without a look at the points.  Each shape takes its
    points by one chained ``consecutive_images`` pass over its orbit minima.
    """
    if "alignment" in f._memo:
        return f._memo["alignment"]
    od = f.orbits()
    n = f.space.n_points
    # orbits are numbered by increasing minimum, and each is a union of the
    # first generator's cycles, whose heads (minima) ascend too: orbit k's
    # minimum is the first head whose orbit id reaches k
    c0 = f.charts[0]
    heads = c0.order[c0.cycle_start]
    mins = heads[np.diff(np.maximum.accumulate(od.orbit_id[heads]), prepend=-1) > 0]
    dims = np.stack([c.cycle_len[c.cycle_of[mins]] for c in f.charts], axis=1)
    prod = np.ones(len(mins), dtype=np.int64)
    for col in dims.T:
        prod = np.minimum(prod * col, n + 1)  # capped, so it never overflows
    aligned = np.flatnonzero(prod == od.sizes)
    shapes = []
    rows, shape_of = np.unique(dims[aligned], axis=0, return_inverse=True)
    for s, row in enumerate(rows):
        shape = tuple(int(d) for d in row)
        orbits = aligned[shape_of.ravel() == s]
        arr = mins[orbits]
        for d in range(len(shape) - 1, -1, -1):
            arr = f.charts[d].consecutive_images(arr, 0, shape[d])
        # consecutive_images lists the orbits last; a lone orbit needs no copy
        points = np.ascontiguousarray(np.moveaxis(arr.reshape(shape + (len(orbits),)), -1, 0))
        shapes.append(OrbitShape(shape, orbits, points))
    out = Alignment(shapes, np.flatnonzero(prod != od.sizes))
    f._memo["alignment"] = out
    return out


def max_coverage(f: FactorAction, t: Tile) -> Fraction:
    """An upper bound on the mass ``tiling_base`` covers with the box ``t``,
    exact when every orbit is aligned: the tile search's coverage prefilter.

    An aligned orbit holds exactly the boxes its shape packs.  On an unaligned
    orbit of L points the sweep's tile images are pairwise disjoint sets of
    |T| points, so at most floor(L/|T|) of them fit.
    """
    alignment = orbit_alignment(f)
    boxes = sum(len(s.orbits) * s.boxes(t.sides) for s in alignment.shapes)
    if alignment.unaligned.size:  # the search calls this per candidate; skip the gather
        boxes += int((f.orbits().sizes[alignment.unaligned] // t.size).sum())
    return Fraction(boxes * t.size, f.space.n_points)


def _greedy_base_points(f: FactorAction, t: Tile, sweep: np.ndarray) -> list[int]:
    # distinct tile images are a property of the stabilizer, constant on an
    # orbit of an abelian action: test each orbit once, at its first point
    orbit_of = f.orbits().orbit_id[sweep]
    orbits, first = np.unique(orbit_of, return_index=True)
    images = np.sort(f.tile_images(t, sweep[first]), axis=0)
    distinct = orbits[(images[1:] != images[:-1]).all(axis=0)]
    covered = np.zeros(f.space.n_points, dtype=bool)
    picked = []
    for x in sweep[np.isin(orbit_of, distinct)]:
        idx = f.tile_images(t, int(x))
        if not covered[idx].any():
            covered[idx] = True
            picked.append(int(x))
    return picked


def tiling_base(f: FactorAction, t: Tile) -> Tower:
    """The tower of ``t`` over a base W with {tW} pairwise disjoint,
    maximizing coverage; W is its identity level, in increasing order.

    Exact box packing on the orbit shapes the tile fits; greedy index-order
    sweep over the unaligned orbits, which needs no knowledge of the packed
    ones because a tile never leaves its orbit.  An aligned orbit the box
    does not fit, where its images wrap, is skipped: the base may be empty.
    Raises TILE_TOO_LARGE when the tile cannot fit in the smallest orbit and
    COVERAGE_SHORTFALL when the sweep is refused or levels overlap; the
    caller compares the coverage with its floor.
    """
    if t.spec != f.spec:
        raise ValueError("tile spec does not match the action")
    od = f.orbits()
    if t.size > od.min_orbit_size():
        raise TileTooLarge(
            f"tile of size {t.size} exceeds smallest orbit size {od.min_orbit_size()}"
        )
    alignment = orbit_alignment(f)
    base_points = [np.empty(0, dtype=np.int64)]
    for shape in alignment.shapes:
        if shape.boxes(t.sides):
            corners = tuple(slice(-lo, -lo + side * (d // side), side)
                            for lo, side, d in zip(t.dim_lows, t.sides, shape.dims))
            base_points.append(shape.points[(slice(None),) + corners].ravel())
    if alignment.unaligned.size:
        sweep = np.flatnonzero(np.isin(od.orbit_id, alignment.unaligned))
        if sweep.size * t.size > GREEDY_COST_CAP:
            raise CoverageShortfall(
                "orbits without product structure are too large for the greedy sweep"
            )
        base_points.append(np.array(_greedy_base_points(f, t, sweep), dtype=np.int64))
    tower = Tower.over(f, t, np.sort(np.concatenate(base_points)))
    if not tower_support(tower, f.space.n_points):
        raise CoverageShortfall("internal error: constructed base has overlapping levels")
    return tower


def tower_support(tower: Tower, n: int) -> bool:
    """Whether a tower's levels, in a space of n points, are pairwise disjoint."""
    mask = np.zeros(n, dtype=bool)
    mask[tower.levels] = True
    return int(np.count_nonzero(mask)) == tower.levels.size


@dataclass
class Tower:
    """A Rohlin tower: the family of tile levels over a base.

    ``levels`` is the |T| x |B| level array ``FactorAction.tile_images``
    returns for the base points in increasing order: ``levels[t, i]`` is the
    point t . b_i.  The base is the identity's level, so no other copy of it
    is kept.  The array is built once, by ``Tower.over``; every later stage
    reads it, and trimming the base slices it.
    """

    tile: Tile
    levels: np.ndarray

    @classmethod
    def over(cls, f: FactorAction, tile: Tile, base_points: np.ndarray) -> Tower:
        """The tower of ``tile`` over the increasing points ``base_points``
        under the action ``f``."""
        return cls(tile, f.tile_images(tile, base_points))

    @property
    def base(self) -> np.ndarray:
        """The base points in increasing order: the identity's level."""
        return self.levels[self.tile.identity_index]

    def trimmed(self, size: int) -> Tower:
        """The tower over the ``size`` lowest base points."""
        return Tower(self.tile, self.levels[:, :size])


@dataclass
class TowerReport:
    disjoint: bool
    coverage: Fraction
    avoid_clear: bool | None = None


def rohlin_avoiding(f: FactorAction, t: Tile, eps, avoid: PointSet) -> Tower:
    """Tower with disjoint levels, coverage > 1 - eps, and base disjoint
    from ``avoid``.

    Requires mass(avoid) < eps/2.  Stage one builds a plain tiling base W,
    whose coverage ``certify.coverage`` holds above 1 - eps/2; stage two
    shifts W by the tile element whose level meets ``avoid`` least (first
    minimizer in canonical tile order), which is that level of W's tower,
    and removes the leftover intersection.  ``certify.certify_pair`` holds
    the coverage and the base of both towers ``rewiring.build_pair`` builds.
    """
    eps = exact_fraction(eps)
    if measure(avoid) >= eps / 2:
        raise HypothesisViolated(
            f"avoidance set has mass {measure(avoid)} >= eps/2 = {eps / 2}"
        )
    n = f.space.n_points
    w = tiling_base(f, t)
    certify.coverage(w, n, certify.tiling_floor(eps), "tiling base")
    # per tile element, how much its copy of W meets the avoidance set
    hits = np.count_nonzero(avoid.mask[w.levels], axis=1)
    shifted = w.levels[int(np.argmin(hits))]
    tower = Tower.over(f, t, np.sort(shifted[~avoid.mask[shifted]]))
    if not tower_support(tower, n):
        raise CoverageShortfall("internal error: shifted base has overlapping levels")
    return tower


def verify_tower(tw: Tower, f: FactorAction, avoid: PointSet | None = None) -> TowerReport:
    """Re-check a tower on levels rebuilt from its base by ``tile_images``:
    disjointness by ``tower_support``, the coverage |T||B|/N that
    ``certify.coverage`` reads (the covered mass when the levels are
    disjoint), and (optionally) that the base misses ``avoid``."""
    rebuilt = Tower.over(f, tw.tile, tw.base)
    return TowerReport(
        disjoint=tower_support(rebuilt, f.space.n_points),
        coverage=Fraction(rebuilt.levels.size, f.space.n_points),
        avoid_clear=None if avoid is None else not avoid.mask[tw.base].any(),
    )
