"""Permutation actions of abelian factors and their free products.

The workhorse here is the cycle chart of each generator permutation: points
listed cycle by cycle with per-point positions.  Charts turn powers g^j other
than 1 into O(1) index arithmetic, which keeps every tower/name/window
computation linear in the space size instead of linear in |tile| * N.  Box
windows have one primitive, ``_slide``, which takes circular windows along
lines as differences of their doubled prefix: ``window_sum`` reads a chart's
cycles of each length as lines, in point order, and the tile search reads a
factor's orbits in product coordinates (``rewiring._OrbitBlock``), because
its bad counts do not depend on point order: ``rohlin.orbit_alignment``
groups the orbits by shape into C x d_0 x ... x d_{m-1} point arrays, built
by one chained ``consecutive_images`` pass per shape (for a single generator
the rows are its cycles).  Only a factor with an orbit that is not a product
of its generator cycles still sums box windows in point order, by
``FactorAction.window_counts``.

Window letters read the generators, not the charts: a power 1 is one
gather through the generator's forward array, the unit letter e_d is
generator d itself, and e_d^j fixes x exactly when j is a multiple of the
length of x's cycle, which the chart lists.  So charts serve the other
powers, the tiles and the orbits.

A chart is its cycle listing, ``order`` and ``cycle_len``; the per-point
arrays ``pos`` and ``cycle_of`` are scattered from it on first read, so a
chart nothing walks costs no O(N) pass beyond its listing.  A factor built
by code is its listings: the shift templates (rotations, grid shifts) write
theirs in closed form (``generate._shift``), and conjugation carries them,
since r maps the cycles of g onto those of r g r^-1, so the conjugate's
listing is the old one moved by r, each cycle rotated to its new minimum and
the cycles re-sorted.  Such a factor reads each generator off its listing
by one scatter (``FactorAction._of_charts``), so every chart lists the
cycles of its generator by construction and no run checks one against the
other.  Generators given as arrays (``explicit``, ``product_cycle``,
ergodized factors) get their listings from ``CycleChart.of``, O(N log L)
numpy passes with L the longest cycle: pointer doubling finds every point's
cycle minimum and list ranking along the inverse gives its position.

Orbits of a factor are the joins of its generators' cycles; for a single
generator they are the cycles themselves, otherwise minimum-label propagation
along cycles merges them.  Its fixpoint labels each orbit by its minimal
point, so a running count of the minima numbers the orbits in O(N), without
a sort.  Ergodicity of a finite factor model means transitivity, and the
ergodic decomposition is the uniform measure on each orbit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import IdentityInWindow, SpaceMismatch, SpecMismatch
from .groups import AbelianElement, AbelianGroupSpec, FreeWord, Tile
from .space import (
    FiniteSpace,
    Permutation,
    PointSet,
    same_space,
    sym_diff_mass,
)


def _slide(pref: np.ndarray, totals: np.ndarray, lo: int, side: int,
           stride: int = 1) -> np.ndarray:
    """Circular windows of ``side`` steps from ``lo`` along the last axis.

    ``pref[..., k]`` (0 <= k < 2d) counts the first k entries of each line of
    length d read twice round and ``totals`` is the int64 line count.  The
    result holds the int64 window of every stride-th position j = 0, stride,
    ...: position j < d - p, p = lo mod d, starts its window at p + j, the
    rest at p + j - d, so both are two strided slice differences, plus one
    line count per whole lap.
    """
    d = pref.shape[-1] // 2
    laps, rem = divmod(side, d)
    p = lo % d
    head = pref[..., p:d:stride]
    wrap = -(d - p) % stride  # the first wrapped start
    tail = pref[..., wrap:p:stride]
    cut = head.shape[-1]
    w = np.empty(pref.shape[:-1] + (cut + tail.shape[-1],), dtype=np.int64)
    np.subtract(pref[..., p + rem:d + rem:stride], head, out=w[..., :cut])
    np.subtract(pref[..., wrap + rem:p + rem:stride], tail, out=w[..., cut:])
    if laps:
        w += laps * totals
    return w


def _doubled_prefix(ind: np.ndarray, dtype) -> np.ndarray:
    """The doubled prefix of every line along the last axis, as ``_slide`` reads it."""
    d = ind.shape[-1]
    pref = np.zeros(ind.shape[:-1] + (2 * d,), dtype=dtype)
    np.cumsum(ind, axis=-1, dtype=dtype, out=pref[..., 1:d + 1])
    pref[..., d + 1:] = pref[..., 1:d] + pref[..., d:d + 1]
    return pref


class CycleChart:
    """Cycle structure of one permutation.

    ``order`` lists the points cycle by cycle; every cycle starts at its
    minimal point and steps through the permutation, and cycles appear by
    increasing minimal point.  ``pos[x]`` is the position of x inside its
    cycle, ``cycle_of[x]`` indexes ``cycle_start``/``cycle_len``.

    A chart is its listing: the constructor takes ``order`` and
    ``cycle_len``, without checking that the listing is the chart of
    anything, and ``pos``/``cycle_of`` are scattered from it on first read
    (a single cycle needs no scatter for ``cycle_of``).
    :meth:`forward_array` reads the permutation off the listing, :meth:`of`
    builds the listing of a forward array by pointer doubling, and
    :meth:`conjugated` carries it to a conjugate.
    """

    __slots__ = ("n", "order", "cycle_start", "cycle_len", "_pos", "_cycle_of")

    def __init__(self, order: np.ndarray, cycle_len: np.ndarray):
        order = np.asarray(order, dtype=np.int64)
        cycle_len = np.asarray(cycle_len, dtype=np.int64)
        n = order.shape[0]
        if n >= 2**31:
            raise ValueError("space too large for cycle charts")
        self.n = n
        self.order = order
        self.cycle_start = np.cumsum(cycle_len) - cycle_len
        self.cycle_len = cycle_len
        self._pos: np.ndarray | None = None
        self._cycle_of: np.ndarray | None = None

    @property
    def pos(self) -> np.ndarray:
        """Position of each point inside its cycle, scattered on first read."""
        if self._pos is None:
            pos = np.empty(self.n, dtype=np.int64)
            pos[self.order] = (np.arange(self.n, dtype=np.int64)
                               - np.repeat(self.cycle_start, self.cycle_len))
            self._pos = pos
        return self._pos

    @property
    def cycle_of(self) -> np.ndarray:
        """Cycle number of each point, scattered on first read."""
        if self._cycle_of is None:
            if self.n_cycles == 1:
                # untouched zero pages: no scatter, and gathers from it stay cheap
                cycle_of = np.zeros(self.n, dtype=np.int64)
            else:
                cycle_of = np.empty(self.n, dtype=np.int64)
                cycle_of[self.order] = np.repeat(np.arange(self.n_cycles, dtype=np.int64),
                                                 self.cycle_len)
            self._cycle_of = cycle_of
        return self._cycle_of

    def forward_array(self) -> np.ndarray:
        """The forward array of the permutation this listing charts: each
        listed point goes to the next one of its cycle, the last to the head."""
        step = np.empty_like(self.order)
        step[:-1] = self.order[1:]
        step[self.cycle_start + self.cycle_len - 1] = self.order[self.cycle_start]
        forward = np.empty_like(self.order)
        forward[self.order] = step
        return forward

    @classmethod
    def of(cls, forward: np.ndarray) -> "CycleChart":
        """The chart of a forward array, built by pointer doubling."""
        n = forward.shape[0]
        forward = np.asarray(forward, dtype=np.int64)
        points = np.arange(n, dtype=np.int64)
        # pointer doubling: after k rounds label[x] is the minimum of the
        # 2^k points x, g x, ..., and jump = g^(2^k).  Once a round changes
        # nothing, label is constant along every g^(2^k)-orbit, whose windows
        # cover the whole cycle, so label is the cycle minimum.
        label = points.copy()
        jump = forward
        while True:
            new = np.minimum(label, label[jump])
            if np.array_equal(new, label):
                break
            label = new
            jump = jump[jump]
        del jump, new
        # list ranking along the inverse: pos[x] is the number of g^-1 steps
        # from x back to its cycle minimum
        head = label == points
        pred = np.empty(n, dtype=np.int64)
        pred[forward] = points
        pred[head] = points[head]
        pos = (~head).astype(np.int64)
        while True:
            pred2 = pred[pred]
            if np.array_equal(pred2, pred):
                break
            pos += pos[pred]
            pred = pred2
        del pred, pred2
        # cycles are numbered by increasing minimum, like orbits
        cycles = _orbits_of_minima(label)
        cycle_of, cycle_len = cycles.orbit_id, cycles.sizes
        order = np.empty(n, dtype=np.int64)
        order[(np.cumsum(cycle_len) - cycle_len)[cycle_of] + pos] = points
        chart = cls(order, cycle_len)
        chart._pos, chart._cycle_of = pos, cycle_of
        return chart

    def conjugated(self, r: Permutation) -> "CycleChart":
        """The chart of r g r^-1, carried over from this chart of g.

        r maps each cycle (x0 x1 ...) of g onto the cycle (r x0, r x1, ...)
        of the conjugate, so ``r[order]`` lists the new cycles; each is
        rotated to start at its minimum and the cycles are re-sorted by it.
        No new chart is built from the conjugate's forward array.
        """
        moved = r.forward[self.order]
        mins = np.minimum.reduceat(moved, self.cycle_start)
        # each cycle's offset from its old start to its new minimum
        seg = np.repeat(np.arange(self.n_cycles, dtype=np.int64), self.cycle_len)
        rot = np.flatnonzero(moved == mins[seg]) - self.cycle_start
        by_min = np.argsort(mins)
        cycle_len = self.cycle_len[by_min]
        # new listing index i of new cycle j reads old cycle c = by_min[j]
        # at offset (rot[c] + i - new start of j) mod its length
        new_seg = np.repeat(np.arange(self.n_cycles, dtype=np.int64), cycle_len)
        c = by_min[new_seg]
        offs = np.arange(self.n, dtype=np.int64) - (np.cumsum(cycle_len) - cycle_len)[new_seg]
        offs += rot[c]
        offs %= self.cycle_len[c]
        return CycleChart(moved[self.cycle_start[c] + offs], cycle_len)

    def follows(self, forward: np.ndarray) -> bool:
        """Whether this chart is the chart of ``forward``, checked in O(N):
        the tests' oracle for listings built by code.

        Each cycle must start at its minimum and step through ``forward``
        back to its start, the cycles must appear by increasing minimum, and
        ``pos`` and ``cycle_of``, scattered from the listing, must index
        into it, which holds exactly when it lists every point once.
        """
        order, start, ln = self.order, self.cycle_start, self.cycle_len
        if order.shape != (self.n,) or int(ln.sum()) != self.n or np.any(ln < 1):
            return False
        if not np.array_equal(start, np.cumsum(ln) - ln):
            return False
        heads = order[start]
        if np.any(heads[1:] <= heads[:-1]):
            return False
        if not np.array_equal(np.minimum.reduceat(order, start), heads):
            return False
        step = np.empty_like(order)
        step[:-1] = order[1:]
        step[start + ln - 1] = heads
        if not np.array_equal(forward[order], step):
            return False
        seg = np.repeat(np.arange(len(ln), dtype=np.int64), ln)
        return (np.array_equal(self.cycle_of[order], seg)
                and np.array_equal(self.pos[order],
                                   np.arange(self.n, dtype=np.int64) - start[seg]))

    @property
    def n_cycles(self) -> int:
        return len(self.cycle_len)

    def power_image(self, power: int, points: np.ndarray) -> np.ndarray:
        """g^power applied to an array of points."""
        c = self.cycle_of[points]
        st = self.cycle_start[c]
        ln = self.cycle_len[c]
        return self.order[st + (self.pos[points] + power) % ln]

    def consecutive_images(self, points: np.ndarray, lo: int, width: int) -> np.ndarray:
        """Images under g^j for j in [lo, lo+width), j-major.

        Output index j*len(points) + i holds g^(lo+j) applied to points[i].
        """
        c = self.cycle_of[points]
        st = self.cycle_start[c]
        ln = self.cycle_len[c]
        offs = (self.pos[points][None, :] + lo + np.arange(width, dtype=np.int64)[:, None]) % ln[None, :]
        return self.order[st[None, :] + offs].ravel()

    def window_sum(self, values: np.ndarray, lo: int, width: int) -> np.ndarray:
        """out[x] = sum of values[g^j x] for j in [lo, lo+width), all x.

        ``_slide`` windows the cycles of each length as lines from their
        heads, where position j of a line is g^j of its head.
        """
        out = np.empty(self.n, dtype=np.int64)
        for length in np.unique(self.cycle_len).tolist():
            starts = self.cycle_start[self.cycle_len == length]
            lines = self.order[starts[:, None] + np.arange(length, dtype=np.int64)]
            pref = _doubled_prefix(values[lines], np.int64)
            out[lines] = _slide(pref, pref[..., length:length + 1], lo, width)
        return out


class FactorAction:
    """An action of one abelian factor: one commuting permutation per generator.

    The public constructor takes the generators, builds each chart by
    :meth:`CycleChart.of`, and validates eagerly: generators must commute
    pairwise and torsion generators must have order dividing their modulus.
    A factor made by code from cycle listings, a shift template's or a
    conjugate's, comes from :meth:`_of_charts` instead, which reads each
    generator off its listing and checks nothing.
    """

    __slots__ = ("spec", "space", "gens", "charts", "_orbits", "_memo")

    def __init__(self, spec: AbelianGroupSpec, space: FiniteSpace,
                 gens: Sequence[Permutation]):
        gens = tuple(gens)
        if len(gens) != spec.num_generators:
            raise ValueError(
                f"spec needs {spec.num_generators} generators, got {len(gens)}"
            )
        for p in gens:
            if p.space != space:
                raise SpaceMismatch("generator on a different space")
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                pq = gens[i].forward[gens[j].forward]
                qp = gens[j].forward[gens[i].forward]
                if not np.array_equal(pq, qp):
                    raise ValueError(f"generators {i} and {j} do not commute")
        charts = tuple(CycleChart.of(p.forward) for p in gens)
        for k, c in enumerate(spec.torsion_moduli):
            chart = charts[spec.rank + k]
            if np.any(c % chart.cycle_len != 0):
                raise ValueError(
                    f"torsion generator {k} has a cycle not dividing modulus {c}"
                )
        self._set(spec, space, gens, charts)

    def _set(self, spec: AbelianGroupSpec, space: FiniteSpace,
             gens: tuple[Permutation, ...], charts: tuple[CycleChart, ...]) -> None:
        self.spec = spec
        self.space = space
        self.gens = gens
        self.charts = charts
        self._orbits: OrbitDecomposition | None = None
        self._memo: dict = {}

    @classmethod
    def _of_charts(cls, spec: AbelianGroupSpec, space: FiniteSpace,
                   charts: Sequence[CycleChart]) -> "FactorAction":
        """The factor whose generators these listings chart, each read off
        its listing by one scatter, so every chart lists its generator's
        cycles by construction.  Nothing is checked: the callers' generators
        commute and keep their torsion by construction (shifts of distinct
        coordinates, or the conjugate of a checked factor)."""
        charts = tuple(charts)
        out = cls.__new__(cls)
        out._set(spec, space,
                 tuple(Permutation._trusted(space, c.forward_array()) for c in charts), charts)
        return out

    def element_image_points(self, g: AbelianElement, points: np.ndarray) -> np.ndarray:
        """g applied to an array of points: a power of 1 is one gather
        through the generator's forward array, other powers walk its chart."""
        if g.spec != self.spec:
            raise SpecMismatch("element from a different group spec")
        out = np.asarray(points, dtype=np.int64)
        for d, power in enumerate(g.coords):
            if power == 1:
                out = self.gens[d].forward[out]
            elif power:
                out = self.charts[d].power_image(power, out)
        return out

    def element_perm(self, g: AbelianElement) -> Permutation:
        """g's permutation of the space: the unit letter e_d is generator d
        itself, any other element is built from :meth:`element_image_points`."""
        if g.spec != self.spec:
            raise SpecMismatch("element from a different group spec")
        d = _single_coordinate(g.coords)
        if d is not None and g.coords[d] == 1:
            return self.gens[d]
        # the generators are bijections, so every g is one
        return Permutation._trusted(
            self.space,
            self.element_image_points(g, np.arange(self.space.n_points, dtype=np.int64)),
        )

    def element_image_set(self, g: AbelianElement, s: PointSet) -> PointSet:
        idx = self.element_image_points(g, s.indices())
        mask = np.zeros(self.space.n_points, dtype=bool)
        mask[idx] = True
        return PointSet(self.space, mask)

    def window_counts(self, tile: Tile, values: np.ndarray) -> np.ndarray:
        """out[x] = sum over tile elements t of values[t . x]."""
        if tile.spec != self.spec:
            raise SpecMismatch("tile from a different group spec")
        v = np.asarray(values, dtype=np.int64)
        for d, (lo, side) in enumerate(zip(tile.dim_lows, tile.sides)):
            v = self.charts[d].window_sum(v, lo, side)
        return v

    def tile_images(self, tile: Tile, points) -> np.ndarray:
        """Images t . x for all tile elements t, in canonical tile order.

        For a single point x this is the length-|T| vector of its levels.
        For an array of points it is the level array of the tower over them,
        shape (|T|, len(points)) with ``out[t, i] = t . points[i]``, built by
        one chained ``consecutive_images`` pass per generator.
        """
        if tile.spec != self.spec:
            raise SpecMismatch("tile from a different group spec")
        arr = np.atleast_1d(np.asarray(points, dtype=np.int64))
        lows = tile.dim_lows
        sides = tile.sides
        for d in range(len(sides) - 1, -1, -1):
            arr = self.charts[d].consecutive_images(arr, lows[d], sides[d])
        return arr if np.ndim(points) == 0 else arr.reshape(tile.size, -1)

    def orbits(self) -> "OrbitDecomposition":
        if self._orbits is None:
            self._orbits = _decompose(self.space, self.charts)
        return self._orbits

    def conjugate(self, r: Permutation) -> "FactorAction":
        """The action with every generator conjugated by r: each chart is
        carried through the conjugation, and the generators are read off
        the carried listings."""
        return FactorAction._of_charts(self.spec, self.space,
                                       [c.conjugated(r) for c in self.charts])

    def __repr__(self) -> str:
        return f"FactorAction(spec={self.spec}, N={self.space.n_points})"


@dataclass
class OrbitDecomposition:
    """Orbits of a factor action: the finite ergodic decomposition.

    Orbits are numbered by increasing minimal point; orbit_id maps each point
    to its orbit's number and sizes[o] counts the points of orbit o.
    """

    orbit_id: np.ndarray
    sizes: np.ndarray

    @property
    def n_orbits(self) -> int:
        return len(self.sizes)

    @property
    def is_transitive(self) -> bool:
        return self.n_orbits == 1

    def min_orbit_size(self) -> int:
        return int(self.sizes.min())


def _orbits_of_minima(label: np.ndarray) -> OrbitDecomposition:
    """The decomposition whose orbits are the classes of ``label``, where
    label[x] is the minimal point of x's orbit: minima ascend with their
    orbit numbers, so a running count of them numbers the orbits in O(N)."""
    head = label == np.arange(len(label), dtype=np.int64)
    orbit_id = (np.cumsum(head) - 1)[label]
    sizes = np.bincount(orbit_id, minlength=int(np.count_nonzero(head)))
    return OrbitDecomposition(orbit_id, sizes)


def _decompose(space: FiniteSpace, charts: Sequence[CycleChart]) -> OrbitDecomposition:
    if len(charts) == 1:
        chart = charts[0]
        return OrbitDecomposition(chart.cycle_of, chart.cycle_len)
    # vectorized label propagation: spread the minimum label along every
    # generator's cycles until nothing changes; the fixpoint labels each
    # orbit by its minimal point.  A visit leaves the labels constant on the
    # visited generator's cycles, so once the last len(charts) visits, one
    # per generator, changed nothing after the first of them, it is reached.
    label = np.arange(space.n_points, dtype=np.int64)
    quiet = 0
    for chart in itertools.cycle(charts):
        new = np.minimum.reduceat(label[chart.order], chart.cycle_start)[chart.cycle_of]
        if np.any(new < label):
            label, quiet = new, 1
        else:
            quiet += 1
        if quiet == len(charts):
            break
    return _orbits_of_minima(label)


def _single_coordinate(coords: tuple[int, ...]) -> int | None:
    """The index d when coords is a power of generator d alone, else None."""
    nonzero = [d for d, c in enumerate(coords) if c]
    return nonzero[0] if len(nonzero) == 1 else None


class FreeProductSystem:
    """A tuple of factor actions on one space: an action of the free product.

    No relation between distinct factors is imposed; a word acts by composing
    the factor actions of its letters right to left.
    """

    __slots__ = ("factors", "space")

    def __init__(self, factors: Sequence[FactorAction]):
        factors = tuple(factors)
        if not factors:
            raise ValueError("need at least one factor")
        space = factors[0].space
        for f in factors:
            if f.space != space:
                raise SpaceMismatch("factors live on different spaces")
        self.factors = factors
        self.space = space

    @property
    def k(self) -> int:
        return len(self.factors)

    def _check_word(self, w: FreeWord) -> None:
        for i, g in w.letters:
            if i >= len(self.factors):
                raise SpecMismatch(f"word references factor {i}, system has {len(self.factors)}")
            if g.spec != self.factors[i].spec:
                raise SpecMismatch(f"letter spec does not match factor {i}")

    def word_image_points(self, w: FreeWord, points: np.ndarray) -> np.ndarray:
        self._check_word(w)
        out = np.asarray(points, dtype=np.int64)
        for i, g in reversed(w.letters):
            out = self.factors[i].element_image_points(g, out)
        return out

    def word_perm(self, w: FreeWord) -> Permutation:
        """The word's permutation, composed from its letters' ``element_perm``."""
        self._check_word(w)
        return compose_letters(self.space, (self.factors[i].element_perm(g)
                                            for i, g in reversed(w.letters)))

    def word_image_set(self, w: FreeWord, s: PointSet) -> PointSet:
        idx = self.word_image_points(w, s.indices())
        mask = np.zeros(self.space.n_points, dtype=bool)
        mask[idx] = True
        return PointSet(self.space, mask)

    def conjugate(self, r: Permutation) -> "FreeProductSystem":
        return FreeProductSystem(tuple(f.conjugate(r) for f in self.factors))

    def full_orbit_decomposition(self) -> OrbitDecomposition:
        """Orbits of the whole free-product action (all generators joined)."""
        charts = [c for f in self.factors for c in f.charts]
        return _decompose(self.space, charts)

    def __repr__(self) -> str:
        return f"FreeProductSystem(k={self.k}, N={self.space.n_points})"


def compose_letters(space: FiniteSpace, letters: Iterable[Permutation]) -> Permutation:
    """The word of letter permutations listed in acting order, first acting
    first; the empty word is the identity and a one-letter word its letter."""
    out = None
    for p in letters:
        out = p if out is None else p.compose(out)
    return Permutation.identity(space) if out is None else out


def weak_discrepancy(a: FreeProductSystem, b: FreeProductSystem,
                     words: Sequence[FreeWord], sets: Sequence[PointSet]) -> Fraction:
    """max over (word, set) of mass(w^a A symdiff w^b A)."""
    same_space(a, b)
    worst = Fraction(0)
    for w in words:
        pa = a.word_perm(w)
        pb = b.word_perm(w)
        for s in sets:
            worst = max(worst, sym_diff_mass(pa.image(s), pb.image(s)))
    return worst


def freeness_defect(f, window) -> Fraction:
    """Mass of points fixed by some nontrivial window element.

    ``f`` is a FactorAction with a window of AbelianElement, or a
    FreeProductSystem with a window of FreeWord.  A factor element e_d^j
    fixes x exactly when the length of x's cycle under generator d divides
    j, which its chart's cycle lengths answer; every other element compares
    its images with the points.
    """
    if isinstance(f, FactorAction):
        image_points = f.element_image_points
    elif isinstance(f, FreeProductSystem):
        image_points = f.word_image_points
    else:
        raise TypeError("freeness_defect expects a FactorAction or FreeProductSystem")
    if any(w.is_identity() for w in window):
        raise IdentityInWindow("window contains the identity")
    points = np.arange(f.space.n_points, dtype=np.int64)
    fixed = np.zeros(f.space.n_points, dtype=bool)
    for w in window:
        d = None
        if isinstance(f, FactorAction):
            if w.spec != f.spec:
                raise SpecMismatch("element from a different group spec")
            d = _single_coordinate(w.coords)
        if d is None:
            fixed |= image_points(w, points) == points
        else:
            chart = f.charts[d]
            fixed |= (w.coords[d] % chart.cycle_len == 0)[chart.cycle_of]
    return Fraction(int(np.count_nonzero(fixed)), f.space.n_points)
