"""Seeded instance templates: factor actions, systems, and target sets.

Templates are deterministic given their parameters; the only randomness in a
run lives in the good-partition stage, so failures bisect cleanly.

Rotations and grid shifts are coordinate shifts, whose cycle listings have
a closed form (``_shift``); the factor is built from the listings, reading
each generator off its own, so nothing is written twice and nothing is left
to check.  ``product_cycle`` and ``explicit`` factors are given as arrays
and get their charts from the pointer-doubling build.  A product template's
dims are checked to be at least 1 before any array is built.
"""

from __future__ import annotations

import math

import numpy as np

from .actions import CycleChart, FactorAction, FreeProductSystem
from .config import _integer, _integers
from .errors import ConfigError
from .groups import AbelianElement, AbelianGroupSpec
from .space import FiniteSpace, Permutation, PointSet


def _shift(n: int, stride: int, m: int, step: int) -> CycleChart:
    """The cycle listing of the shift of the coordinate (x // stride) % m by
    ``step``, in closed form.

    With g = gcd(step, m) every cycle has length m / g and holds the points
    whose coordinate is congruent mod g; it starts at the one whose
    coordinate c is below g, which is its minimum, so listing those starts in
    increasing order lists the cycles by minimum.  Entry k of the cycle
    starting at x is x + ((c + k step) % m - c) stride.
    """
    step %= m
    g = math.gcd(step, m)
    c = np.arange(g, dtype=np.int64)[:, None]
    offsets = ((c + np.arange(m // g, dtype=np.int64) * step) % m - c) * stride
    points = np.arange(n, dtype=np.int64).reshape(-1, m, stride)
    order = points[:, :g, :, None] + offsets[None, :, None, :]
    return CycleChart(order.ravel(), np.full(n // (m // g), m // g, dtype=np.int64))


def _shift_factor(space: FiniteSpace, shifts: list[tuple[int, int, int]]) -> FactorAction:
    """The free abelian factor with one generator per (stride, m, step)
    shift; shifts of distinct coordinates commute."""
    return FactorAction._of_charts(AbelianGroupSpec(len(shifts)), space,
                                   [_shift(space.n_points, *s) for s in shifts])


def _dims_steps(n: int, dims: list[int], steps: list[int] | None,
                what: str) -> list[int]:
    """The steps of a product template, checked against its dims."""
    if any(m < 1 for m in dims):
        raise ConfigError(f"{what} template field 'dims' needs sizes >= 1, got {dims}")
    if math.prod(dims) != n:
        raise ConfigError(f"{what} dims {dims} do not multiply to space size {n}")
    if steps is None:
        return [1] * len(dims)
    if len(steps) != len(dims):
        raise ConfigError(f"{what} template needs one step per dimension")
    return steps


def _rotation(space: FiniteSpace, step: int) -> FactorAction:
    return _shift_factor(space, [(1, space.n_points, step)])


def _grid_shift(space: FiniteSpace, dims: list[int], steps: list[int] | None) -> FactorAction:
    steps = _dims_steps(space.n_points, dims, steps, "grid")
    strides = [math.prod(dims[d + 1:]) for d in range(len(dims))]
    return _shift_factor(space, list(zip(strides, dims, steps)))


def _product_cycle(space: FiniteSpace, dims: list[int], steps: list[int] | None) -> FactorAction:
    """One generator shifting every coordinate of a product of cycles at once."""
    n = space.n_points
    steps = _dims_steps(n, dims, steps, "product")
    idx = np.arange(n, dtype=np.int64)
    coords = []
    rem = idx
    for m in reversed(dims):
        coords.append(rem % m)
        rem = rem // m
    coords.reverse()
    flat = np.zeros(n, dtype=np.int64)
    for c, m, st in zip(coords, dims, steps):
        flat = flat * m + (c + st % m) % m
    return FactorAction(AbelianGroupSpec(1), space, (Permutation(space, flat),))


def _explicit(space: FiniteSpace, rank: int, torsion: list[int],
              arrays: list[list[int]]) -> FactorAction:
    spec = AbelianGroupSpec(rank, tuple(torsion))
    # numpy reads a bool among integers as 0 or 1, so bools are refused by a
    # scan of the lists; floats are refused whole, never truncated; integers
    # beyond int64 parse as unsigned or object arrays and are refused too
    if any(isinstance(v, (bool, np.bool_)) for a in arrays for v in a):
        raise ConfigError("explicit arrays take int64 integers, not booleans")
    parsed = [np.asarray(a) for a in arrays]
    if any(a.dtype.kind != "i" for a in parsed):
        raise ConfigError("explicit arrays take int64 integers")
    gens = tuple(Permutation(space, a) for a in parsed)
    return FactorAction(spec, space, gens)


def generate_factor(space: FiniteSpace, template: dict) -> FactorAction:
    """Build one factor action from a template description."""
    if not isinstance(template, dict) or "name" not in template:
        raise ConfigError(f"factor template must be a dict with a name: {template!r}")
    name = template["name"]
    try:
        if name == "rotation":
            return _rotation(space, _integer(template["step"], "step"))
        if name in ("grid_shift", "product_cycle"):
            build = _grid_shift if name == "grid_shift" else _product_cycle
            return build(space, _integers(template["dims"], "dims"),
                         _integers(template["steps"], "steps") if "steps" in template else None)
        if name == "explicit":
            return _explicit(space, _integer(template.get("rank", 0), "rank"),
                             _integers(template.get("torsion", []), "torsion"),
                             template["arrays"])
    except ConfigError:
        raise
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"invalid {name!r} template: {exc}") from exc
    raise ConfigError(f"unknown factor template {name!r}")


def generate_system(space: FiniteSpace, templates: list[dict]) -> FreeProductSystem:
    if not templates:
        raise ConfigError("system needs at least one factor template")
    return FreeProductSystem(tuple(generate_factor(space, t) for t in templates))


def default_window(spec: AbelianGroupSpec, radius: int = 2) -> list[AbelianElement]:
    """Small nontrivial elements used for freeness diagnostics."""
    elems = []
    for d in range(spec.num_generators):
        for j in range(-radius, radius + 1):
            if j == 0:
                continue
            coords = [0] * spec.num_generators
            coords[d] = j
            g = spec.element(coords)
            if not g.is_identity():
                elems.append(g)
    # dedupe (torsion coordinates may collapse |j| values)
    seen = {}
    for g in elems:
        seen.setdefault(g.coords, g)
    return [seen[c] for c in sorted(seen)]


def make_target_set(space: FiniteSpace, desc: dict) -> PointSet:
    """Target sets: intervals, residue classes, or explicit index lists."""
    if not isinstance(desc, dict) or "type" not in desc:
        raise ConfigError(f"target set must be a dict with a type: {desc!r}")
    kind = desc["type"]
    n = space.n_points
    try:
        if kind == "interval":
            start = _integer(desc["start"], "start") % n
            length = _integer(desc["length"], "length")
            if not 0 <= length <= n:
                raise ConfigError(f"interval length {length} out of range")
            idx = (start + np.arange(length, dtype=np.int64)) % n
            return PointSet.from_indices(space, idx)
        if kind == "residue":
            mod = _integer(desc["modulus"], "modulus")
            if mod < 1:
                raise ConfigError("modulus must be positive")
            residues = sorted({r % mod for r in _integers(desc["residues"], "residues")})
            mask = np.isin(np.arange(n, dtype=np.int64) % mod, residues)
            return PointSet(space, mask)
        if kind == "indices":
            return PointSet.from_indices(space, _integers(desc["members"], "members"))
    except ConfigError:
        raise
    except (KeyError, ValueError, TypeError, OverflowError) as exc:  # beyond int64
        raise ConfigError(f"invalid {kind!r} target set: {exc}") from exc
    raise ConfigError(f"unknown target set type {kind!r}")
