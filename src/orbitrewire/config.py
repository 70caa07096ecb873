"""Run configuration: JSON schema, validation, and rational encoding.

Config files are plain JSON.  Rationals may be written as "p/q" strings,
decimal strings, integers, or {"num": p, "den": q} objects; they are parsed
exactly (decimals through their decimal expansion, never binary floats).
A top-level key outside the schema is refused, as it may be a misspelling.

Schema (all masses exact rationals):

    {
      "space_size": 100000,
      "epsilon": "1/5",
      "seed": 7,
      "alpha": [{"name": "rotation", "step": 1}, ...]   # one per factor
      "beta":  [{"name": "rotation", "step": 1}, ...],
      "window": [[[1], [-1]], [[1]]],   # per factor: element coordinate rows
      "target_sets": [{"type": "interval", "start": 0, "length": 50000}, ...],
      "eps_prime_override": null,       # optional exact rational in (0, 1)
      "tile_cap": 4000000,              # optional, at least 1
      "max_retries": 3,                 # optional, good-partition retries
      "ergodize_budget": null           # optional: enable target ergodization
    }
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from fractions import Fraction

from .errors import ConfigError
from .groups import DEFAULT_TILE_CAP
from .space import exact_fraction


def parse_rational(value, what: str = "value") -> Fraction:
    try:
        if isinstance(value, dict):
            return Fraction(int(value["num"]), int(value["den"]))
        if isinstance(value, bool):
            raise ValueError("booleans are not rationals")
        return exact_fraction(value)
    except (ValueError, TypeError, KeyError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse {what} as a rational: {value!r}") from exc


def _integer(value, what: str) -> int:
    """An integer config value: an int, an integral float or an integer
    string, never a bool."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{what} takes integers, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} takes integers, got {value!r}") from exc


def _integers(values, what: str) -> list[int]:
    """A JSON array of integers, never a string or an object read as one."""
    if not isinstance(values, list):
        raise ConfigError(f"{what} takes a list of integers, got {values!r}")
    return [_integer(v, what) for v in values]


def rational_to_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator, "approx": float(x)}


@dataclass
class RunConfig:
    space_size: int
    epsilon: Fraction
    seed: int
    alpha: list[dict]
    beta: list[dict]
    window: list[list[list[int]]]
    target_sets: list[dict]
    eps_prime_override: Fraction | None = None
    tile_cap: int = DEFAULT_TILE_CAP
    max_retries: int = 3
    ergodize_budget: Fraction | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in d]
        if missing:
            raise ConfigError(f"config missing required keys: {missing}")
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"config has unknown keys: {sorted(map(str, unknown))}")
        n = d["space_size"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ConfigError(f"space_size must be a positive integer, got {n!r}")
        if n >= 2**31:  # the cycle charts' limit
            raise ConfigError(f"space_size must be below 2**31, got {n}")
        eps = parse_rational(d["epsilon"], "epsilon")
        if not 0 < eps < 1:
            raise ConfigError(f"epsilon must lie strictly between 0 and 1, got {eps}")
        seed = d["seed"]
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
        alpha, beta = d["alpha"], d["beta"]
        if not isinstance(alpha, list) or not alpha:
            raise ConfigError("alpha must be a non-empty list of factor templates")
        if not isinstance(beta, list) or not beta:
            raise ConfigError("beta must be a non-empty list of factor templates")
        if len(alpha) != len(beta):
            raise ConfigError("alpha and beta must have the same number of factors")
        window = d["window"]
        if not isinstance(window, list) or len(window) != len(alpha) or not all(
                isinstance(per_factor, list) for per_factor in window):
            raise ConfigError("window must list element coordinates per factor")
        window = [[_integers(coords, "window") for coords in per_factor] for per_factor in window]
        if any(not -2**63 <= c < 2**63 for per_factor in window
               for coords in per_factor for c in coords):
            raise ConfigError("window coordinates must fit in int64")
        tile_cap = _integer(d.get("tile_cap", DEFAULT_TILE_CAP), "tile_cap")
        if tile_cap < 1:
            raise ConfigError(f"tile_cap must be at least 1, got {tile_cap}")
        max_retries = _integer(d.get("max_retries", 3), "max_retries")
        sets = d["target_sets"]
        if not isinstance(sets, list) or not sets:
            raise ConfigError("target_sets must be a non-empty list")
        override = d.get("eps_prime_override")
        if override is not None:
            override = parse_rational(override, "eps_prime_override")
            if not 0 < override < 1:
                raise ConfigError(
                    f"eps_prime_override must lie strictly between 0 and 1, got {override}")
        if max_retries < 0:
            raise ConfigError("max_retries must be non-negative")
        ergodize = d.get("ergodize_budget")
        if ergodize is not None:
            ergodize = parse_rational(ergodize, "ergodize_budget")
        return cls(
            space_size=n,
            epsilon=eps,
            seed=seed,
            alpha=alpha,
            beta=beta,
            window=window,
            target_sets=sets,
            eps_prime_override=override,
            tile_cap=tile_cap,
            max_retries=max_retries,
            ergodize_budget=ergodize,
        )

    def to_dict(self) -> dict:
        out = {
            "space_size": self.space_size,
            "epsilon": f"{self.epsilon.numerator}/{self.epsilon.denominator}",
            "seed": self.seed,
            "alpha": self.alpha,
            "beta": self.beta,
            "window": self.window,
            "target_sets": self.target_sets,
            "tile_cap": self.tile_cap,
            "max_retries": self.max_retries,
        }
        if self.eps_prime_override is not None:
            out["eps_prime_override"] = (
                f"{self.eps_prime_override.numerator}/{self.eps_prime_override.denominator}"
            )
        if self.ergodize_budget is not None:
            out["ergodize_budget"] = (
                f"{self.ergodize_budget.numerator}/{self.ergodize_budget.denominator}"
            )
        return out
