"""Exception types shared across the package.

Every contract violation carries a stable machine-readable ``code`` so the
CLI can tag failures and batch harnesses can triage them without parsing
messages.  Pipeline stages additionally stamp ``stage`` on the way out.
"""

from __future__ import annotations


class OrbitRewireError(Exception):
    """Base class for all coded errors raised by this package."""

    code = "ERROR"

    def __init__(self, message: str = "", **details):
        super().__init__(message or self.code)
        self.details = details
        self.stage: str | None = None

    def __str__(self) -> str:
        base = super().__str__()
        if self.stage:
            return f"[{self.stage}] {self.code}: {base}"
        return f"{self.code}: {base}"


class SpaceMismatch(OrbitRewireError):
    code = "SPACE_MISMATCH"


class SpecMismatch(OrbitRewireError):
    code = "SPEC_MISMATCH"


class TileTooLarge(OrbitRewireError):
    code = "TILE_TOO_LARGE"


class TileCapExceeded(OrbitRewireError):
    code = "TILE_CAP_EXCEEDED"


class CoverageShortfall(OrbitRewireError):
    code = "COVERAGE_SHORTFALL"


class CoverageBelowFloor(CoverageShortfall):
    """A tower whose levels are disjoint covers too little: the shortfall
    of that tile alone, unlike a refused sweep or an overlap."""


class HypothesisViolated(OrbitRewireError):
    code = "HYPOTHESIS_VIOLATED"


class InfeasibleTarget(OrbitRewireError):
    code = "INFEASIBLE_PI"


class VerificationFailed(OrbitRewireError):
    code = "VERIFICATION_FAILED"


class PushforwardMismatch(OrbitRewireError):
    code = "PUSHFORWARD_MISMATCH"


class NoGoodTile(OrbitRewireError):
    code = "NO_GOOD_TILE"


class BaseSizeMismatch(OrbitRewireError):
    code = "BASE_SIZE_MISMATCH"


class DefectBoundViolated(OrbitRewireError):
    code = "DEFECT_BOUND_VIOLATED"


class LevelOverlap(OrbitRewireError):
    code = "LEVEL_OVERLAP"


class BudgetViolated(OrbitRewireError):
    code = "BUDGET_VIOLATED"


class RankUnsupported(OrbitRewireError):
    code = "RANK_UNSUPPORTED"


class BudgetExceeded(OrbitRewireError):
    code = "BUDGET_EXCEEDED"


class FinalDiscrepancyExceeded(OrbitRewireError):
    code = "FINAL_DISCREPANCY_EXCEEDED"


class IdentityInWindow(OrbitRewireError):
    code = "IDENTITY_IN_WINDOW"


class ConfigError(OrbitRewireError):
    code = "CONFIG_ERROR"


class ExactRangeExceeded(ConfigError):
    """eps' and the space size overflow the int64 exact comparisons."""

    code = "EXACT_RANGE_EXCEEDED"
