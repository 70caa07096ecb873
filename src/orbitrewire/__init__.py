"""Orbit-equivalence rewiring of free products of abelian group actions,
at desk scale with exact rational certification.

Core objects: finite uniform spaces with exact masses (:mod:`.space`), box
tiles and free-product words (:mod:`.groups`), chart-accelerated permutation
actions (:mod:`.actions`), Rohlin towers with avoidance (:mod:`.rohlin`),
orbit-balanced labelings (:mod:`.goodpart`), the rewiring pipeline
(:mod:`.rewiring`), and every certified bound (:mod:`.certify`).  The CLI
lives in :mod:`.cli`.
"""

from .space import (
    Distribution,
    FiniteSpace,
    Labeling,
    Permutation,
    PointSet,
    exact_fraction,
    generated_partition,
    measure,
    pushforward,
    sym_diff_mass,
)
from .groups import (
    AbelianElement,
    AbelianGroupSpec,
    FreeWord,
    Tile,
    box_tile,
    invariance_defect,
)
from .actions import (
    FactorAction,
    FreeProductSystem,
    OrbitDecomposition,
    freeness_defect,
    weak_discrepancy,
)
from .rohlin import Tower, rohlin_avoiding, tiling_base, verify_tower
from .goodpart import good_partition, verify_good_partition
from .rewiring import (
    ColumnData,
    OEWitness,
    build_rewiring,
    chain_extension,
    column_partitions,
    discrepancy_budget,
    make_factor_ergodic,
    match_labels_conjugator,
    oe_approximate,
    tile_matching,
    tower_pair,
    verify_orbit_equivalence,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
