"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (straight to the terminal, past
pytest's capture) and asserts the exact inequality it certifies.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import Z, rotation, rotation_system

from orbitrewire import (
    FactorAction,
    FiniteSpace,
    FreeProductSystem,
    FreeWord,
    Permutation,
    PointSet,
    box_tile,
    chain_extension,
    good_partition,
    make_factor_ergodic,
    oe_approximate,
    rohlin_avoiding,
    sym_diff_mass,
    verify_orbit_equivalence,
    verify_tower,
    weak_discrepancy,
)
from orbitrewire.cli import main as cli_main
from orbitrewire.rewiring import _full_partition_check
from orbitrewire.space import Distribution


def _line(num: int, ok: bool, detail: str) -> None:
    import conftest

    msg = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(msg)
    conftest.ACCEPTANCE_LINES.append(msg)
    assert ok, f"criterion {num}: {detail}"


def _parity_set(sp):
    return PointSet(sp, np.arange(sp.n_points) % 2 == 0)


def _mod_set(sp, mod, residues):
    return PointSet(sp, np.isin(np.arange(sp.n_points) % mod, residues))


# ---------------------------------------------------------------------------
# criterion 1: exhaustive avoidance oracle
# ---------------------------------------------------------------------------

def test_acceptance_1_rohlin_avoidance_exhaustive(z12):
    start = time.time()
    f = rotation(z12, 1)
    t = box_tile(Z, [0], [2])
    eps = Fraction(1, 2)
    cases = 0
    ok = True
    for k in (0, 1, 2):  # measure < eps/2 = 1/4 means at most 2 of 12 points
        for avoid in itertools.combinations(range(12), k):
            aset = PointSet.from_indices(z12, avoid)
            tower = rohlin_avoiding(f, t, eps, aset)
            rep = verify_tower(tower, f, avoid=aset)
            ok &= rep.disjoint and rep.coverage > 1 - eps and bool(rep.avoid_clear)
            cases += 1
    elapsed = time.time() - start
    ok &= cases == 79 and elapsed < 1.0
    _line(1, ok, f"{cases} avoid-sets, all towers disjoint/covering/avoiding "
                 f"({elapsed:.3f}s)")


# ---------------------------------------------------------------------------
# criteria 2 + 3: instance battery with defect and budget certification
# ---------------------------------------------------------------------------

BATTERY = []
_seed_counter = itertools.count(100)
for n_points in (10_000, 100_000):
    for sets_kind, expected_alpha in (("par2", 2), ("mod4", 4), ("mix8", 8)):
        for eps_str in ("3/10", "1/5"):
            BATTERY.append((n_points, sets_kind, eps_str, next(_seed_counter)))
# extra seeds to reach 20 instances
BATTERY += [
    (10_000, "par2", "3/10", 200),
    (10_000, "mix8", "1/5", 201),
    (100_000, "mod4", "3/10", 202),
    (100_000, "par2", "1/5", 203),
    (10_000, "mod4", "1/5", 204),
    (100_000, "mix8", "3/10", 205),
    (10_000, "par2", "1/5", 206),
    (100_000, "mix8", "1/5", 207),
]

SETS_BY_KIND = {
    "par2": lambda sp: [_mod_set(sp, 2, [0])],
    "mod4": lambda sp: [_mod_set(sp, 4, [0, 1])],
    "mix8": lambda sp: [_mod_set(sp, 2, [0]), _mod_set(sp, 8, [0, 1, 2, 3])],
}
ALPHA_SIZE_BY_KIND = {"par2": 2, "mod4": 4, "mix8": 8}


@pytest.fixture(scope="module")
def battery_results():
    results = []
    for n_points, kind, eps_str, seed in BATTERY:
        sp = FiniteSpace(n_points)
        alpha = rotation_system(sp, 1, 3)
        beta = rotation_system(sp, 1, 7)
        sets = SETS_BY_KIND[kind](sp)
        window = [[Z.element([1])], [Z.element([1])]]
        res = oe_approximate(alpha, beta, window, eps_str, sets, seed=seed)
        assert res.report.alphabet_size == ALPHA_SIZE_BY_KIND[kind]
        results.append(((n_points, kind, eps_str, seed), res))
    return results


def test_acceptance_2_tile_defect_bound(battery_results):
    ok = True
    worst = Fraction(0)
    for (n_points, kind, eps_str, seed), res in battery_results:
        rep = res.report
        k_sym = rep.alphabet_size
        for fr in rep.factors:
            bound = 7 * rep.eps_prime * k_sym * fr.tile_size
            ok &= Fraction(fr.max_defect) < bound
            if bound > 0:
                worst = max(worst, Fraction(fr.max_defect) / bound)
    _line(2, ok, f"{len(battery_results)} instances, every column defect below "
                 f"7*eps'*|A|*|T| (worst ratio {float(worst):.3f})")


def test_acceptance_3_budget_decomposition(battery_results):
    ok = True
    checked = 0
    for _, res in battery_results:
        rep = res.report
        k_sym = rep.alphabet_size
        e = rep.eps_prime
        for fr in rep.factors:
            for eb in fr.budget.per_element:
                ok &= eb.l0 < 8 * e
                ok &= eb.l1 < e
                ok &= eb.l2 < 15 * k_sym * e
                ok &= eb.residual_empty
                checked += 1
    _line(3, ok, f"{checked} (factor, element) budgets: L0<8e', L1<e', "
                 f"L2<15|A|e', residual empty")


# ---------------------------------------------------------------------------
# criterion 4: end-to-end rewiring instances
# ---------------------------------------------------------------------------

def test_acceptance_4_end_to_end():
    eps = Fraction(1, 5)
    runs = [(100_000, s) for s in range(10)] + [(1_000_000, 10)]
    ok = True
    worst = Fraction(0)
    for n_points, seed in runs:
        sp = FiniteSpace(n_points)
        alpha = rotation_system(sp, 1, 3)
        beta = rotation_system(sp, 1, 7)
        sets = [_parity_set(sp), _mod_set(sp, 8, [0, 1, 2, 3])]
        window = [[Z.element([1])], [Z.element([1])]]
        res = oe_approximate(alpha, beta, window, eps, sets, seed=seed)
        words = [FreeWord.letter(i, Z.element([1])) for i in range(2)]
        final = weak_discrepancy(res.witness.gamma(alpha), beta, words, sets)
        oe_ok, _ = verify_orbit_equivalence(alpha, res.witness)
        ok &= final < eps and oe_ok and final == res.report.final_discrepancy
        worst = max(worst, final)
    _line(4, ok, f"{len(runs)} seeded runs at N in [1e5, 1e6]: discrepancy < 1/5 "
                 f"(worst {float(worst):.5f}) and orbit equivalence verified")


# ---------------------------------------------------------------------------
# criterion 5: good partition certificate
# ---------------------------------------------------------------------------

def test_acceptance_5_good_partition():
    ok = True
    # transitive factors: zero bad mass exactly
    sp = FiniteSpace(100_000)
    sys_t = rotation_system(sp, 1, 3)
    pi8 = Distribution(tuple(range(8)), {a: Fraction(1, 8) for a in range(8)})
    _, rep_t, _ = good_partition(sys_t, pi8, Fraction(1, 200), seed=21)
    ok &= all(fb.bad_mass == 0 for fb in rep_t.per_factor)
    # multi-orbit factors with long orbits: bad mass < eps' at eps' = 1/200
    pi2 = Distribution(("a", "b"), {"a": Fraction(1, 2), "b": Fraction(1, 2)})
    worst = Fraction(0)
    retries_used = 0
    for n_points, step, seed in ((1_000_000, 10, 22), (500_000, 5, 23)):
        spm = FiniteSpace(n_points)
        sys_m = FreeProductSystem((rotation(spm, step),))
        _, rep_m, retries = good_partition(sys_m, pi2, Fraction(1, 200), seed=seed)
        ok &= rep_m.max_bad_mass < Fraction(1, 200) and retries <= 3
        worst = max(worst, rep_m.max_bad_mass)
        retries_used = max(retries_used, retries)
    _line(5, ok, f"transitive bad mass 0 exactly; orbit length 1e5 instances "
                 f"bad mass {float(worst):.5f} < 1/200 with <= {retries_used} retries")


# ---------------------------------------------------------------------------
# criterion 6: composition inequality
# ---------------------------------------------------------------------------

def test_acceptance_6_composition_inequality():
    rng = random.Random(60)
    n = 1000
    sp = FiniteSpace(n)
    ok = True
    for _ in range(1000):
        a = rotation_system(sp, rng.randrange(1, n), rng.randrange(1, n))
        b = rotation_system(sp, rng.randrange(1, n), rng.randrange(1, n))
        target = PointSet.from_indices(sp, rng.sample(range(n), rng.randrange(0, n)))

        def rand_word():
            return FreeWord(
                [(rng.randrange(0, 2), Z.element([rng.randrange(-3, 4)]))
                 for _ in range(rng.randrange(1, 4))]
            )

        g1, g2 = rand_word(), rand_word()
        lhs = sym_diff_mass(a.word_image_set(g2 * g1, target),
                            b.word_image_set(g2 * g1, target))
        mid = b.word_image_set(g1, target)
        rhs = sym_diff_mass(a.word_image_set(g1, target), b.word_image_set(g1, target)) \
            + sym_diff_mass(a.word_image_set(g2, mid), b.word_image_set(g2, mid))
        ok &= lhs <= rhs
    _line(6, ok, "1000 random (g1, g2, A, alpha, beta) instances at N=1000, "
                 "inequality exact in every case")


# ---------------------------------------------------------------------------
# criterion 7: ergodization cost
# ---------------------------------------------------------------------------

def test_acceptance_7_ergodization_cost():
    rng = np.random.default_rng(70)
    n = 1000
    sp = FiniteSpace(n)
    ok = True
    checked = 0
    for _ in range(100):
        perm = Permutation(sp, rng.permutation(n).astype(np.int64))
        f = FactorAction(Z, sp, (perm,))
        k = f.charts[0].n_cycles
        out = make_factor_ergodic(f, Fraction(1))
        changed = int(np.count_nonzero(out.gens[0].forward != perm.forward))
        ok &= changed == 2 * (k - 1)
        ok &= out.orbits().is_transitive
        d = weak_discrepancy(
            FreeProductSystem((out,)), FreeProductSystem((f,)),
            [FreeWord.letter(0, Z.element([1]))],
            [PointSet.from_indices(sp, range(0, n, 2))],
        )
        ok &= d <= Fraction(2 * (k - 1), n)
        checked += 1
    _line(7, ok, f"{checked} random permutations at N=1000: exactly 2(k-1) "
                 f"changed points and self-discrepancy <= 2(k-1)/N")


# ---------------------------------------------------------------------------
# criterion 8: chaining
# ---------------------------------------------------------------------------

def test_acceptance_8_chaining():
    n = 2048
    sp = FiniteSpace(n)
    alpha_full = rotation_system(sp, 2, 6, 4)
    beta_head = rotation_system(sp, 1, 3)
    alpha_head = FreeProductSystem(alpha_full.factors[:2])
    evens = _parity_set(sp)
    window = [[Z.element([1])], [Z.element([1])]]
    res = oe_approximate(alpha_head, beta_head, window, Fraction(19, 20), [evens], seed=4)
    gamma_full = chain_extension(alpha_full, res.witness.gamma(alpha_head),
                                 res.witness.conjugator, 2)
    tail_exact = gamma_full.factors[2].gens[0] == \
        alpha_full.factors[2].gens[0].conjugate(res.witness.conjugator)
    oe_ok, _ = _full_partition_check(alpha_full, gamma_full, res.witness.conjugator)
    nontrivial = alpha_full.full_orbit_decomposition().n_orbits == 2
    ok = tail_exact and oe_ok and nontrivial
    _line(8, ok, "3-factor chain: tail factor exact conjugate, full-system "
                 "orbit equality on a 2-orbit partition")


# ---------------------------------------------------------------------------
# criterion 9: determinism
# ---------------------------------------------------------------------------

def test_acceptance_9_determinism(tmp_path):
    config = {
        "space_size": 10_000,
        "epsilon": "3/10",
        "seed": 100,
        "alpha": [{"name": "rotation", "step": 1}, {"name": "rotation", "step": 3}],
        "beta": [{"name": "rotation", "step": 1}, {"name": "rotation", "step": 7}],
        "window": [[[1]], [[1]]],
        "target_sets": [{"type": "residue", "modulus": 2, "residues": [0]}],
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert cli_main(["run", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    same_json = (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    same_csv = (outs[0] / "summary.csv").read_bytes() == (outs[1] / "summary.csv").read_bytes()
    ok = same_json and same_csv
    _line(9, ok, "repeated run with the same seed: report.json and summary.csv "
                 "byte-identical")
