"""Finite uniform probability spaces and exact measure bookkeeping.

A space is N equal-mass atoms indexed 0..N-1.  Point sets are boolean masks
over the atoms, labelings are integer code arrays, and every quantity that
feeds a verified inequality is an exact `fractions.Fraction` (denominator
dividing N).  Set algebra stays vectorized in numpy; only counts are promoted
to rationals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import SpaceMismatch


def exact_fraction(x) -> Fraction:
    """Coerce ``x`` to an exact Fraction.

    Floats are converted through their shortest decimal repr, so 0.24 means
    24/100 (as a config file intends), not the binary float it is stored as.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


def _int64_array(values, what: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":  # a cast would truncate floats, read bools
        raise ValueError(f"{what} array must hold integers, not {arr.dtype}")
    return arr.astype(np.int64, copy=False)


class FiniteSpace:
    """N uniform atoms, each of mass 1/N."""

    __slots__ = ("n_points",)

    def __init__(self, n_points: int):
        if not isinstance(n_points, (int, np.integer)) or n_points < 1:
            raise ValueError(f"n_points must be a positive integer, got {n_points!r}")
        self.n_points = int(n_points)

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteSpace) and other.n_points == self.n_points

    def __hash__(self) -> int:
        return hash(("FiniteSpace", self.n_points))

    def __repr__(self) -> str:
        return f"FiniteSpace({self.n_points})"


def same_space(*objs) -> FiniteSpace:
    """Return the common space of the arguments or raise SpaceMismatch."""
    spaces = {o.space.n_points for o in objs}
    if len(spaces) != 1:
        raise SpaceMismatch(f"objects live on different spaces: sizes {sorted(spaces)}")
    return objs[0].space


class PointSet:
    """A measurable subset of a FiniteSpace, stored as a boolean mask."""

    __slots__ = ("space", "mask", "_size")

    def __init__(self, space: FiniteSpace, mask: np.ndarray):
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (space.n_points,):
            raise ValueError("mask length does not match space size")
        mask.setflags(write=False)
        self.space = space
        self.mask = mask
        self._size: int | None = None

    @classmethod
    def from_indices(cls, space: FiniteSpace, indices: Iterable[int]) -> "PointSet":
        """The set of the given point indices: an array, or any iterable of ints."""
        mask = np.zeros(space.n_points, dtype=bool)
        if not isinstance(indices, np.ndarray):
            indices = list(indices)
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size:
            if idx.min() < 0 or idx.max() >= space.n_points:
                raise ValueError("point index outside space")
            mask[idx] = True
        return cls(space, mask)

    @classmethod
    def empty(cls, space: FiniteSpace) -> "PointSet":
        return cls(space, np.zeros(space.n_points, dtype=bool))

    @classmethod
    def full(cls, space: FiniteSpace) -> "PointSet":
        return cls(space, np.ones(space.n_points, dtype=bool))

    @property
    def size(self) -> int:
        if self._size is None:
            self._size = int(np.count_nonzero(self.mask))
        return self._size

    @property
    def members(self) -> frozenset:
        return frozenset(int(i) for i in np.nonzero(self.mask)[0])

    def indices(self) -> np.ndarray:
        return np.nonzero(self.mask)[0]

    def to_sorted_list(self) -> list[int]:
        return [int(i) for i in np.nonzero(self.mask)[0]]

    def __contains__(self, x: int) -> bool:
        return bool(self.mask[x])

    def __and__(self, other: "PointSet") -> "PointSet":
        same_space(self, other)
        return PointSet(self.space, self.mask & other.mask)

    def __or__(self, other: "PointSet") -> "PointSet":
        same_space(self, other)
        return PointSet(self.space, self.mask | other.mask)

    def __xor__(self, other: "PointSet") -> "PointSet":
        same_space(self, other)
        return PointSet(self.space, self.mask ^ other.mask)

    def __sub__(self, other: "PointSet") -> "PointSet":
        same_space(self, other)
        return PointSet(self.space, self.mask & ~other.mask)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PointSet)
            and other.space == self.space
            and bool(np.array_equal(other.mask, self.mask))
        )

    def __repr__(self) -> str:
        n = self.size
        if n <= 12:
            return f"PointSet(N={self.space.n_points}, {{{', '.join(map(str, self.to_sorted_list()))}}})"
        return f"PointSet(N={self.space.n_points}, |S|={n})"


def measure(s: PointSet) -> Fraction:
    """Exact mass |S|/N."""
    return Fraction(s.size, s.space.n_points)


def sym_diff_mass(a: PointSet, b: PointSet) -> Fraction:
    """Mass of the symmetric difference; the primitive behind weak distances."""
    same_space(a, b)
    return Fraction(int(np.count_nonzero(a.mask ^ b.mask)), a.space.n_points)


class Permutation:
    """A measure-preserving automorphism: a bijection of the atoms."""

    __slots__ = ("space", "forward", "_inverse")

    def __init__(self, space: FiniteSpace, forward: np.ndarray):
        forward = _int64_array(forward, "forward")
        if forward.shape != (space.n_points,):
            raise ValueError("forward array length does not match space size")
        # range first: bincount would allocate up to the largest entry
        if forward.size and (forward.min() < 0 or forward.max() >= space.n_points):
            raise ValueError("forward array maps outside the space")
        if not np.all(np.bincount(forward, minlength=space.n_points) == 1):
            raise ValueError("forward array is not a bijection")
        self._set(space, forward)

    def _set(self, space: FiniteSpace, forward: np.ndarray) -> None:
        forward.setflags(write=False)
        self.space = space
        self.forward = forward
        self._inverse: np.ndarray | None = None

    @classmethod
    def _trusted(cls, space: FiniteSpace, forward: np.ndarray) -> "Permutation":
        """A permutation from an array that is a bijection by construction."""
        out = cls.__new__(cls)
        out._set(space, forward)
        return out

    @classmethod
    def identity(cls, space: FiniteSpace) -> "Permutation":
        return cls(space, np.arange(space.n_points, dtype=np.int64))

    @property
    def inverse_array(self) -> np.ndarray:
        if self._inverse is None:
            inv = np.empty_like(self.forward)
            inv[self.forward] = np.arange(self.space.n_points, dtype=np.int64)
            inv.setflags(write=False)
            self._inverse = inv
        return self._inverse

    def apply(self, x: int) -> int:
        return int(self.forward[x])

    __call__ = apply

    def image(self, s: PointSet) -> PointSet:
        same_space(self, s)
        mask = np.empty_like(s.mask)
        mask[self.forward] = s.mask
        return PointSet(self.space, mask)

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(x) == self(other(x))."""
        same_space(self, other)
        return Permutation._trusted(self.space, self.forward[other.forward])

    def inverse(self) -> "Permutation":
        return Permutation._trusted(self.space, self.inverse_array)

    def conjugate(self, r: "Permutation") -> "Permutation":
        """r o self o r^-1."""
        same_space(self, r)
        out = np.empty_like(self.forward)
        out[r.forward] = r.forward[self.forward]
        return Permutation._trusted(self.space, out)

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.forward, np.arange(self.space.n_points)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Permutation)
            and other.space == self.space
            and bool(np.array_equal(other.forward, self.forward))
        )

    def __repr__(self) -> str:
        return f"Permutation(N={self.space.n_points})"


class Labeling:
    """A map from atoms to a finite ordered alphabet.

    Stored as an array of alphabet indices; the level sets of the codes are
    the cells of the partition the labeling induces.
    """

    __slots__ = ("space", "alphabet", "codes", "_code_of")

    def __init__(self, space: FiniteSpace, alphabet: Sequence, codes: np.ndarray):
        alphabet = tuple(alphabet)
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet has repeated symbols")
        if not alphabet:
            raise ValueError("alphabet must be non-empty")
        codes = _int64_array(codes, "codes")
        if codes.shape != (space.n_points,):
            raise ValueError("codes length does not match space size")
        if codes.size and (codes.min() < 0 or codes.max() >= len(alphabet)):
            raise ValueError("code outside alphabet range")
        codes.setflags(write=False)
        self.space = space
        self.alphabet = alphabet
        self.codes = codes
        self._code_of = {a: i for i, a in enumerate(alphabet)}

    @classmethod
    def constant(cls, space: FiniteSpace, symbol) -> "Labeling":
        return cls(space, (symbol,), np.zeros(space.n_points, dtype=np.int64))

    def code_of(self, symbol) -> int:
        return self._code_of[symbol]

    def cell(self, symbol) -> PointSet:
        return PointSet(self.space, self.codes == self._code_of[symbol])

    def cell_counts(self) -> np.ndarray:
        return np.bincount(self.codes, minlength=len(self.alphabet))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Labeling)
            and other.space == self.space
            and other.alphabet == self.alphabet
            and bool(np.array_equal(other.codes, self.codes))
        )

    def __repr__(self) -> str:
        return f"Labeling(N={self.space.n_points}, |A|={len(self.alphabet)})"


class Distribution:
    """A probability distribution on a finite ordered alphabet, with exact masses."""

    __slots__ = ("alphabet", "masses")

    def __init__(self, alphabet: Sequence, masses: dict):
        alphabet = tuple(alphabet)
        masses = {a: exact_fraction(masses[a]) for a in alphabet}
        if any(m < 0 for m in masses.values()):
            raise ValueError("negative mass")
        total = sum(masses.values(), Fraction(0))
        if total != 1:
            raise ValueError(f"masses sum to {total}, not 1")
        self.alphabet = alphabet
        self.masses = masses

    @classmethod
    def from_counts(cls, alphabet: Sequence, counts: Sequence[int], total: int) -> "Distribution":
        return cls(alphabet, {a: Fraction(int(c), total) for a, c in zip(alphabet, counts)})

    def mass(self, symbol) -> Fraction:
        return self.masses[symbol]

    def items(self):
        return ((a, self.masses[a]) for a in self.alphabet)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        return set(self.alphabet) == set(other.alphabet) and all(
            self.masses[a] == other.masses[a] for a in self.alphabet
        )

    def __repr__(self) -> str:
        parts = ", ".join(f"{a!r}: {m}" for a, m in self.items())
        return f"Distribution({parts})"


# membership patterns are packed into the bits of an int64 code
MAX_GENERATING_SETS = 62


def generated_partition(space: FiniteSpace, sets: Sequence[PointSet]) -> Labeling:
    """Partition generated by a family of sets.

    Two points share a label iff they lie in exactly the same members of the
    family.  Symbols are the membership patterns themselves (tuples of 0/1,
    one entry per input set), ordered lexicographically, so downstream
    tie-breaking is deterministic.  Only realized patterns enter the alphabet.
    """
    k = len(sets)
    for s in sets:
        if s.space != space:
            raise SpaceMismatch("generated_partition: set on a different space")
    if k == 0:
        return Labeling.constant(space, ())
    if k > MAX_GENERATING_SETS:
        raise ValueError(f"generated_partition supports at most {MAX_GENERATING_SETS} sets")
    codes = np.zeros(space.n_points, dtype=np.int64)
    for j, s in enumerate(sets):
        # bit j counted from the left so numeric order == lexicographic order
        codes |= s.mask.astype(np.int64) << (k - 1 - j)
    patterns, codes = np.unique(codes, return_inverse=True)
    alphabet = tuple(
        tuple(int(p >> (k - 1 - j)) & 1 for j in range(k)) for p in patterns
    )
    return Labeling(space, alphabet, codes)


def pushforward(l: Labeling) -> Distribution:
    """Distribution of label masses: mass(a) = |l^-1(a)| / N."""
    counts = l.cell_counts()
    return Distribution.from_counts(l.alphabet, counts, l.space.n_points)
