"""Orbit-balanced labelings.

``good_partition`` builds a labeling whose global pushforward equals a target
distribution exactly while the empirical distribution on most orbits of every
factor stays within 2*eps of the target (sup norm), with the exceptional mass
below eps per factor.  The construction is randomized: i.i.d. labels from the
target, then a minimal exact-count rebalance that prefers moving labels out
of (into) orbits already over (under) their quota, then exact verification
with seed-incrementing retries: ``verify_good_partition`` measures each
factor's bad mass and ``certify.bad_mass_ok`` holds it to its bound.
Either the returned labeling certifiably satisfies the conclusion or the
operation fails loudly; long orbits make success overwhelmingly likely, many
short orbits make honest failure the expected outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import certify
from .actions import FreeProductSystem, OrbitDecomposition
from .errors import ExactRangeExceeded, InfeasibleTarget, VerificationFailed
from .space import Distribution, Labeling, exact_fraction


@dataclass
class FactorBadness:
    """Verification outcome for one factor."""

    bad_mass: Fraction
    # aggregated mass per distinct per-orbit sup deviation, sorted by deviation
    histogram: list[tuple[Fraction, Fraction]]


@dataclass
class GoodPartitionReport:
    per_factor: list[FactorBadness]

    @property
    def max_bad_mass(self) -> Fraction:
        return max((fb.bad_mass for fb in self.per_factor), default=Fraction(0))


def _check_exact_range(eps: Fraction, n: int, den: int = 1) -> None:
    """Vectorized comparisons stay in int64; keep their products in range.

    ``den`` is the common denominator the comparisons scale masses by.
    """
    if (eps.numerator + eps.denominator) * n * max(n, den) >= 2**60:
        raise ExactRangeExceeded(
            f"eps'={eps} is too fine for exact int64 arithmetic at space size {n}"
        )


def _orbit_counts(od: OrbitDecomposition, codes: np.ndarray, k_sym: int) -> np.ndarray:
    """The orbits x symbols table of how often each symbol occurs in each orbit."""
    return np.bincount(od.orbit_id * k_sym + codes,
                       minlength=od.n_orbits * k_sym).reshape(od.n_orbits, k_sym)


def verify_good_partition(s: FreeProductSystem, psi: Labeling, pi: Distribution,
                          eps) -> GoodPartitionReport:
    """Exact per-factor mass of orbits deviating from pi by more than 2*eps.

    An orbit of size L deviates by max_a |c_a/L - pi(a)| = dev/(L d), with
    c_a its symbol counts, d the common denominator of pi's masses and dev
    an int64, so the comparison with 2*eps needs no Fraction; the histogram
    builds one Fraction per distinct (dev, L).
    """
    eps = exact_fraction(eps)
    if set(psi.alphabet) != set(pi.alphabet):
        raise ValueError("labeling and target distribution use different alphabets")
    n = s.space.n_points
    masses = [pi.mass(a) for a in psi.alphabet]
    d = math.lcm(*(m.denominator for m in masses))
    _check_exact_range(eps, n, d)
    scaled = np.array([m.numerator * (d // m.denominator) for m in masses], dtype=np.int64)
    k_sym = len(masses)
    per_factor = []
    for f in s.factors:
        od = f.orbits()
        counts = _orbit_counts(od, psi.codes, k_sym)
        sizes = od.sizes
        dev = np.abs(counts * d - sizes[:, None] * scaled).max(axis=1)
        bad = certify.orbit_far(dev, sizes, d, eps)
        bad_mass = Fraction(int(sizes[bad].sum()), n)
        pairs, which = np.unique(np.stack([dev, sizes], axis=1), axis=0, return_inverse=True)
        orbits = np.bincount(which.reshape(-1), minlength=len(pairs))
        hist: dict[Fraction, Fraction] = {}
        for (dv, size), count in zip(pairs.tolist(), orbits.tolist()):
            key = Fraction(dv, size * d)
            hist[key] = hist.get(key, Fraction(0)) + Fraction(count * size, n)
        per_factor.append(FactorBadness(bad_mass, sorted(hist.items())))
    return GoodPartitionReport(per_factor)


def _targets(pi: Distribution, n: int) -> list[int]:
    targets = []
    for a in pi.alphabet:
        t = pi.mass(a) * n
        if t.denominator != 1:
            raise InfeasibleTarget(
                f"target mass {pi.mass(a)} for {a!r} is not a multiple of 1/{n}"
            )
        targets.append(int(t))
    return targets


def _rebalance(codes: np.ndarray, targets: list[int], system: FreeProductSystem) -> np.ndarray:
    """Move a minimal number of labels to reach exact per-symbol counts.

    Points are chosen preferentially from orbits already over quota in the
    label they lose and under quota in the label they gain, summed over all
    factors; ties break by index.
    """
    k_sym = len(targets)
    counts = np.bincount(codes, minlength=k_sym)
    if all(int(c) == t for c, t in zip(counts, targets)):
        return codes
    factor_orbit_counts = []
    for f in system.factors:
        od = f.orbits()
        factor_orbit_counts.append((od, _orbit_counts(od, codes, k_sym)))
    pool: list[np.ndarray] = []
    for a in range(k_sym):
        excess = int(counts[a]) - targets[a]
        if excess <= 0:
            continue
        cand = np.nonzero(codes == a)[0]
        score = np.zeros(len(cand), dtype=np.int64)
        for od, oc in factor_orbit_counts:
            # orbit over quota in a: oc/L > target_a/N  <=>  oc*N > target_a*L
            over = oc[:, a] * system.space.n_points > targets[a] * od.sizes
            score += over[od.orbit_id[cand]]
        take = cand[np.lexsort((cand, -score))[:excess]]
        pool.append(take)
    pool_idx = np.sort(np.concatenate(pool)) if pool else np.array([], dtype=np.int64)
    new_codes = codes.copy()
    remaining = pool_idx
    for b in range(k_sym):
        need = targets[b] - int(counts[b])
        if need <= 0:
            continue
        score = np.zeros(len(remaining), dtype=np.int64)
        for od, oc in factor_orbit_counts:
            under = oc[:, b] * system.space.n_points < targets[b] * od.sizes
            score += under[od.orbit_id[remaining]]
        order = np.lexsort((remaining, -score))
        chosen = remaining[order[:need]]
        new_codes[chosen] = b
        keep = np.ones(len(remaining), dtype=bool)
        keep[order[:need]] = False
        remaining = remaining[keep]
    return new_codes


def good_partition(s: FreeProductSystem, pi: Distribution, eps, seed: int,
                   max_retries: int = 3):
    """Labeling with pushforward exactly pi and per-factor bad mass < eps.

    Returns (labeling, report, retries_used).  Raises INFEASIBLE_PI when pi
    is not realizable with N atoms and VERIFICATION_FAILED when no attempt
    within the retry bound verifies (a sign the space is too small for the
    requested eps and orbit lengths).
    """
    eps = exact_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    n = s.space.n_points
    targets = _targets(pi, n)
    alphabet = pi.alphabet
    k_sym = len(alphabet)
    cum = np.cumsum([float(pi.mass(a)) for a in alphabet])
    cum[-1] = 1.0
    for attempt in range(max_retries + 1):
        rng = np.random.default_rng(seed + attempt)
        draws = rng.random(n)
        codes = np.searchsorted(cum, draws, side="right").astype(np.int64)
        codes = _rebalance(codes, targets, s)
        if np.bincount(codes, minlength=k_sym).tolist() != targets:
            raise VerificationFailed("internal error: rebalance missed exact counts")
        psi = Labeling(s.space, alphabet, codes)
        report = verify_good_partition(s, psi, pi, eps)
        if all(certify.bad_mass_ok(fb.bad_mass, eps) for fb in report.per_factor):
            return psi, report, attempt
    raise VerificationFailed(
        f"good partition failed after {max_retries} retries; "
        f"worst factor bad mass {report.max_bad_mass} >= {eps}",
        report=report,
    )
