"""Finitely generated abelian groups, box tiles, and free-product words.

A group is Z^r (+) Z/c_1 (+) ... (+) Z/c_m, described by its rank and torsion
moduli.  The only tiles supported are boxes: a product of integer intervals
on the free coordinates times the full torsion part.  Boxes tile the group by
translates of the side-length lattice, which is all the pipeline needs, and
their invariance defects have closed forms.

Free-product words are alternating letter sequences in normal form (no
identity letters, no two adjacent letters from the same factor).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import SpecMismatch, TileCapExceeded

DEFAULT_TILE_CAP = 4_000_000


@dataclass(frozen=True)
class AbelianGroupSpec:
    """Z^rank (+) product of Z/c for c in torsion_moduli."""

    rank: int
    torsion_moduli: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        object.__setattr__(self, "torsion_moduli", tuple(int(c) for c in self.torsion_moduli))
        if any(c < 2 for c in self.torsion_moduli):
            raise ValueError("torsion moduli must be >= 2")
        if self.rank == 0 and not self.torsion_moduli:
            raise ValueError("trivial group spec not supported")

    @property
    def num_generators(self) -> int:
        return self.rank + len(self.torsion_moduli)

    def identity(self) -> "AbelianElement":
        return AbelianElement(self, (0,) * self.rank, (0,) * len(self.torsion_moduli))

    def element(self, coords: Sequence[int]) -> "AbelianElement":
        """Element from a flat coordinate list: free parts then torsion parts."""
        coords = [int(c) for c in coords]
        if len(coords) != self.num_generators:
            raise ValueError(f"expected {self.num_generators} coordinates, got {len(coords)}")
        free = tuple(coords[: self.rank])
        tors = tuple(c % m for c, m in zip(coords[self.rank:], self.torsion_moduli))
        return AbelianElement(self, free, tors)

    def generator(self, d: int) -> "AbelianElement":
        coords = [0] * self.num_generators
        coords[d] = 1
        return self.element(coords)


@dataclass(frozen=True)
class AbelianElement:
    spec: AbelianGroupSpec
    free: tuple[int, ...]
    torsion: tuple[int, ...]

    def __post_init__(self):
        if len(self.free) != self.spec.rank or len(self.torsion) != len(self.spec.torsion_moduli):
            raise ValueError("coordinate arity does not match spec")
        reduced = tuple(t % c for t, c in zip(self.torsion, self.spec.torsion_moduli))
        object.__setattr__(self, "free", tuple(int(v) for v in self.free))
        object.__setattr__(self, "torsion", reduced)

    @property
    def coords(self) -> tuple[int, ...]:
        return self.free + self.torsion

    def is_identity(self) -> bool:
        return not any(self.coords)

    def __add__(self, other: "AbelianElement") -> "AbelianElement":
        if other.spec != self.spec:
            raise SpecMismatch("cannot add elements of different groups")
        return AbelianElement(
            self.spec,
            tuple(a + b for a, b in zip(self.free, other.free)),
            tuple(a + b for a, b in zip(self.torsion, other.torsion)),
        )

    def __neg__(self) -> "AbelianElement":
        return AbelianElement(
            self.spec,
            tuple(-a for a in self.free),
            tuple(-a for a in self.torsion),
        )

    def __sub__(self, other: "AbelianElement") -> "AbelianElement":
        return self + (-other)

    def __repr__(self) -> str:
        return f"Abel{self.coords}"


class Tile:
    """A box tile: product of intervals [lo_d, hi_d] on the free coordinates
    times the full torsion part.

    Always contains the identity (each interval must straddle 0).  Canonical
    element order is row-major over the coordinate tuples, free dimensions
    first; ``element_at``/``coordinate_arrays`` expose it without
    materializing element objects.
    """

    __slots__ = ("spec", "lows", "highs", "size", "_coord_arrays", "_strides")

    def __init__(self, spec: AbelianGroupSpec, lows: Sequence[int], highs: Sequence[int],
                 cap: int = DEFAULT_TILE_CAP):
        lows = tuple(int(v) for v in lows)
        highs = tuple(int(v) for v in highs)
        if len(lows) != spec.rank or len(highs) != spec.rank:
            raise ValueError("need one interval per free dimension")
        if any(lo > 0 or hi < 0 for lo, hi in zip(lows, highs)):
            raise ValueError("box must contain the identity (lo <= 0 <= hi)")
        size = 1
        for lo, hi in zip(lows, highs):
            size *= hi - lo + 1
        for c in spec.torsion_moduli:
            size *= c
        if size > cap:
            raise TileCapExceeded(f"tile cardinality {size} exceeds cap {cap}")
        self.spec = spec
        self.lows = lows
        self.highs = highs
        self.size = size
        self._coord_arrays: list[np.ndarray] | None = None
        # row-major strides over (free dims..., torsion dims...)
        sides = self.sides
        strides = [1] * len(sides)
        for d in range(len(sides) - 2, -1, -1):
            strides[d] = strides[d + 1] * sides[d + 1]
        self._strides = tuple(strides)

    @property
    def sides(self) -> tuple[int, ...]:
        free_sides = tuple(hi - lo + 1 for lo, hi in zip(self.lows, self.highs))
        return free_sides + self.spec.torsion_moduli

    @property
    def dim_lows(self) -> tuple[int, ...]:
        return self.lows + (0,) * len(self.spec.torsion_moduli)

    @property
    def identity_index(self) -> int:
        idx = 0
        for lo, stride in zip(self.dim_lows, self._strides):
            idx += (-lo) * stride
        return idx

    def coordinate_arrays(self) -> list[np.ndarray]:
        """Per-dimension coordinate of every tile element, canonical order."""
        if self._coord_arrays is None:
            arrays = []
            idx = np.arange(self.size, dtype=np.int64)
            for lo, side, stride in zip(self.dim_lows, self.sides, self._strides):
                arrays.append(lo + (idx // stride) % side)
            self._coord_arrays = arrays
        return self._coord_arrays

    def element_at(self, index: int) -> AbelianElement:
        if not 0 <= index < self.size:
            raise IndexError("tile index out of range")
        coords = []
        for lo, side, stride in zip(self.dim_lows, self.sides, self._strides):
            coords.append(lo + (index // stride) % side)
        return self.spec.element(coords)

    def index_of_shift(self, g: AbelianElement) -> np.ndarray:
        """For each tile index t, the index of t - g, or -1 if t - g is
        outside the box.  Torsion coordinates wrap, free ones do not."""
        if g.spec != self.spec:
            raise SpecMismatch("element from a different group")
        coords = self.coordinate_arrays()
        out = np.zeros(self.size, dtype=np.int64)
        ok = np.ones(self.size, dtype=bool)
        r = self.spec.rank
        for d, stride in enumerate(self._strides):
            shifted = coords[d] - g.coords[d]
            if d < r:
                lo, hi = self.lows[d], self.highs[d]
                ok &= (shifted >= lo) & (shifted <= hi)
                out += (shifted - lo) * stride
            else:
                c = self.spec.torsion_moduli[d - r]
                out += (shifted % c) * stride
        return np.where(ok, out, -1)

    def elements(self) -> frozenset[AbelianElement]:
        ranges = [range(lo, hi + 1) for lo, hi in zip(self.lows, self.highs)]
        ranges += [range(c) for c in self.spec.torsion_moduli]
        return frozenset(self.spec.element(coords) for coords in itertools.product(*ranges))

    def __contains__(self, g: AbelianElement) -> bool:
        if g.spec != self.spec:
            return False
        return all(lo <= v <= hi for v, lo, hi in zip(g.free, self.lows, self.highs))

    def __repr__(self) -> str:
        box = "x".join(f"[{lo},{hi}]" for lo, hi in zip(self.lows, self.highs))
        if self.spec.torsion_moduli:
            box = (box + " x " if box else "") + "C" + str(self.spec.torsion_moduli)
        return f"Tile({box or '{e}'}, |T|={self.size})"


def box_tile(spec: AbelianGroupSpec, lows: Sequence[int], highs: Sequence[int],
             cap: int = DEFAULT_TILE_CAP) -> Tile:
    return Tile(spec, lows, highs, cap=cap)


def invariance_defect(t: Tile, g: AbelianElement) -> Fraction:
    """|T symdiff gT| / |T|, exactly.

    For a box, the overlap with its g-translate factors across dimensions:
    max(0, side - |shift|) on free coordinates, full on torsion ones.
    """
    if g.spec != t.spec:
        raise SpecMismatch("element from a different group")
    overlap = 1
    for d, (lo, hi) in enumerate(zip(t.lows, t.highs)):
        side = hi - lo + 1
        overlap *= max(0, side - abs(g.free[d]))
    for c in t.spec.torsion_moduli:
        overlap *= c
    return Fraction(2 * (t.size - overlap), t.size)


class FreeWord:
    """A free-product word in normal form.

    Letters are (factor_index, AbelianElement) pairs; construction merges
    adjacent same-factor letters and drops identities, so equality of words
    is equality in the free product.
    """

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[tuple[int, AbelianElement]] = ()):
        normal: list[tuple[int, AbelianElement]] = []
        for idx, g in letters:
            idx = int(idx)
            if idx < 0:
                raise ValueError("factor index must be non-negative")
            if g.is_identity():
                continue
            if normal and normal[-1][0] == idx:
                merged = normal[-1][1] + g
                normal.pop()
                if not merged.is_identity():
                    normal.append((idx, merged))
            else:
                normal.append((idx, g))
        self.letters = tuple(normal)

    @classmethod
    def identity(cls) -> "FreeWord":
        return cls(())

    @classmethod
    def letter(cls, factor_index: int, g: AbelianElement) -> "FreeWord":
        return cls(((factor_index, g),))

    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return FreeWord(self.letters + other.letters)

    def inverse(self) -> "FreeWord":
        return FreeWord(tuple((i, -g) for i, g in reversed(self.letters)))

    def __eq__(self, other) -> bool:
        return isinstance(other, FreeWord) and other.letters == self.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        if not self.letters:
            return "FreeWord(e)"
        return "FreeWord(" + " * ".join(f"G{i}:{g.coords}" for i, g in self.letters) + ")"

