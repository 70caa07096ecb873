import numpy as np
import pytest

from orbitrewire import (
    AbelianGroupSpec,
    FactorAction,
    FiniteSpace,
    FreeProductSystem,
    Labeling,
    Permutation,
    PointSet,
)

# one line per acceptance criterion, echoed in the terminal summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

Z = AbelianGroupSpec(1)


def rotation(space: FiniteSpace, step: int) -> FactorAction:
    n = space.n_points
    fwd = (np.arange(n, dtype=np.int64) + step) % n
    return FactorAction(Z, space, (Permutation(space, fwd),))


def rotation_system(space: FiniteSpace, *steps: int) -> FreeProductSystem:
    return FreeProductSystem(tuple(rotation(space, s) for s in steps))


def pointset(space: FiniteSpace, *members: int) -> PointSet:
    return PointSet.from_indices(space, members)


def labeling(space: FiniteSpace, symbols, alphabet) -> Labeling:
    """The labeling that gives point x the symbol ``symbols[x]``."""
    return Labeling(space, alphabet, [alphabet.index(s) for s in symbols])


@pytest.fixture
def z12():
    return FiniteSpace(12)
