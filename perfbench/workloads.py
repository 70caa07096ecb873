"""Benchmark workloads: run configs per instance seed, and the regime guard.

Each workload is one family of `orbitrewire run` configs, chosen so that a
different layer of the pipeline does most of the work (see README.md).  The
only randomness in a run is the config ``seed`` (the good-partition stage),
so a workload seed fixes a stream of instance seeds and nothing else.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


def _rotation(step: int) -> dict:
    return {"name": "rotation", "step": step}


def _residue(modulus: int, residues: list[int]) -> dict:
    return {"type": "residue", "modulus": modulus, "residues": residues}


PARITY = _residue(2, [0])


def _rotations(n: int, seed: int, sets: list[dict], eps_prime: str | None) -> dict:
    """Two rotation factors: alpha steps (1, 3), beta steps (1, 7)."""
    cfg = {
        "space_size": n,
        "epsilon": "1/5",
        "seed": seed,
        "alpha": [_rotation(1), _rotation(3)],
        "beta": [_rotation(1), _rotation(7)],
        "window": [[[1]], [[1]]],
        "target_sets": sets,
    }
    if eps_prime is not None:
        cfg["eps_prime_override"] = eps_prime
    return cfg


def _grid_mixed(side: int, seed: int, eps_prime: str) -> dict:
    """A rank-2 grid shift factor and a rotation factor on side*side points."""
    return {
        "space_size": side * side,
        "epsilon": "1/5",
        "seed": seed,
        "alpha": [{"name": "grid_shift", "dims": [side, side], "steps": [1, 1]},
                  _rotation(3)],
        "beta": [{"name": "grid_shift", "dims": [side, side], "steps": [1, 3]},
                 _rotation(7)],
        "window": [[[1, 0], [0, 1]], [[1]]],
        "target_sets": [PARITY],
        "eps_prime_override": eps_prime,
    }


class RegimeError(RuntimeError):
    """An instance ran outside the regime its workload declares."""


def _guard_degenerate(report: dict) -> None:
    for fr in report["factors"]:
        if fr["column_count"] > 2:
            raise RegimeError(f"factor {fr['factor']} has {fr['column_count']} "
                              "columns; rot-degenerate must stay at <= 2")


def _guard_many_column(report: dict) -> None:
    for fr in report["factors"]:
        if fr["column_count"] < 100:
            raise RegimeError(f"factor {fr['factor']} has {fr['column_count']} "
                              "columns; rot-many-column must stay at >= 100")


def _guard_grid_mixed(report: dict) -> None:
    alpha0 = report["config"]["alpha"][0]
    fr = report["factors"][0]
    if alpha0["name"] != "grid_shift" or len(alpha0["dims"]) != 2:
        raise RegimeError("grid-mixed factor 0 must be a rank-2 grid shift")
    if fr["column_count"] < 2:
        raise RegimeError(f"grid-mixed rank-2 factor has {fr['column_count']} "
                          "column; it must keep more than one")


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int], dict]
    tiny_config: Callable[[int], dict]
    guard: Callable[[dict], None]


DEG_SETS = [PARITY, _residue(8, [0, 1, 2, 3])]

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rot-degenerate",
            lambda s: _rotations(10_000, s, DEG_SETS, None),
            lambda s: _rotations(4_000, s, DEG_SETS, None),
            _guard_degenerate,
        ),
        Workload(
            "rot-many-column",
            lambda s: _rotations(100_000, s, [PARITY], "1/25"),
            lambda s: _rotations(10_000, s, [PARITY], "1/10"),
            _guard_many_column,
        ),
        Workload(
            "grid-mixed",
            lambda s: _grid_mixed(256, s, "1/50"),
            lambda s: _grid_mixed(50, s, "1/20"),
            _guard_grid_mixed,
        ),
    )
}


def instance_seeds(workload_seed: int):
    """Endless stream of config seeds, fixed by the workload seed."""
    rng = random.Random(workload_seed)
    while True:
        yield rng.randrange(2**31)
