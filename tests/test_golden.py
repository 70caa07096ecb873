"""Golden bytes: ``report.json`` and ``summary.csv`` of nine fixed runs.

The configs are the small forms of the three benchmark workloads (two
rotation factors in the degenerate and the many-column regime, and a rank-2
grid shift with a rotation), each at config seeds 3, 11 and 12345.  Every
number a run certifies enters these bytes, so a refactor that claims to
change no output must keep the hashes; a change that means to alter the
output updates them and says why.
"""

import hashlib

import pytest

from orbitrewire.config import RunConfig
from orbitrewire.runner import execute, write_report_files


def _rotation(step):
    return {"name": "rotation", "step": step}


def _residue(modulus, residues):
    return {"type": "residue", "modulus": modulus, "residues": residues}


def _rotations(n, sets, eps_prime=None):
    cfg = {
        "space_size": n,
        "epsilon": "1/5",
        "alpha": [_rotation(1), _rotation(3)],
        "beta": [_rotation(1), _rotation(7)],
        "window": [[[1]], [[1]]],
        "target_sets": sets,
    }
    if eps_prime is not None:
        cfg["eps_prime_override"] = eps_prime
    return cfg


CONFIGS = {
    "rot-degenerate": _rotations(4_000, [_residue(2, [0]), _residue(8, [0, 1, 2, 3])]),
    "rot-many-column": _rotations(10_000, [_residue(2, [0])], "1/10"),
    "grid-mixed": {
        "space_size": 50 * 50,
        "epsilon": "1/5",
        "alpha": [{"name": "grid_shift", "dims": [50, 50], "steps": [1, 1]}, _rotation(3)],
        "beta": [{"name": "grid_shift", "dims": [50, 50], "steps": [1, 3]}, _rotation(7)],
        "window": [[[1, 0], [0, 1]], [[1]]],
        "target_sets": [_residue(2, [0])],
        "eps_prime_override": "1/20",
    },
}

# (config, seed) -> sha256 of (report.json, summary.csv)
GOLDEN = {
    ("rot-degenerate", 3): (
        "d82d9311e863125a0827142803cdf7e95981e811416517c26382aef525efd73e",
        "9d261762079672c4f91e6b680288fa60670d379f37872f528454c00b8f77f9eb"),
    ("rot-degenerate", 11): (
        "984e9504c7433e85b6443e6b75e386f9ef556b165c42b4c031d38ee9bc418d61",
        "faecb63efd003695a663112a2a8ee9a8cb931099052370b54425520c2a5d5685"),
    ("rot-degenerate", 12345): (
        "8f8c1034dbdf8d122b322b1f53593f3e55fc3dd5cfd4a245470a995fdbb2b7cf",
        "6c8a87132e038ab4ea6e28bfc9efdd0f45f7264a8ad02f5893788792496e48f4"),
    ("rot-many-column", 3): (
        "f1f2fa230dcbb7ac5dc1cbad2d1ac2c3c8da23bb2ed70be4b23541ea43761e26",
        "2005a331febb4390aee15fe0b7561b385bf01c7878c87ca63f2e5adc34005ce4"),
    ("rot-many-column", 11): (
        "f178cccda19f513659ae900382ceda9569c005b79120c9d59de99d8a28262291",
        "380540e6d44f249db3cf613b86a2b9b2dc57c5dacb6b1c3229f560800d68a1dd"),
    ("rot-many-column", 12345): (
        "dc27f99bdf27fdfed4757a58b56bb5130cc67c413493b470afa9e052bc273eed",
        "4564dd2b71011ad90b032f06bb39269f1b2c74e0487f4eb867d72f98f1a1e33b"),
    ("grid-mixed", 3): (
        "f1848bebdc5ff6142c6df965b5215a6412cc12f52763391568ef377b9d1ecf57",
        "2cb4b05515a62895c4b8060c56e3be475713570b61483dede5736463111a5d5c"),
    ("grid-mixed", 11): (
        "f4d362c404963a94557c4f4be9136e62db2325034a239a06d9afc3136b1a8122",
        "1d1d2aa5809492bca8c44bf63f8d9fc11050470c4e758606b5bcda7f83016e2c"),
    ("grid-mixed", 12345): (
        "f86d461d21f96cf2c2b6380b3ebaa24e89a41bd4e3fa50703627d5a4e6999ad2",
        "40897f5f08ec8e2f19e49380c7688a1b7b3ed2bf17514986f3b5041e881a30f5"),
}


@pytest.mark.parametrize("name, seed", sorted(GOLDEN), ids=lambda v: str(v))
def test_report_bytes_match_the_golden_hashes(tmp_path, name, seed):
    _, report = execute(RunConfig.from_dict({**CONFIGS[name], "seed": seed}))
    paths = write_report_files(report, tmp_path)
    assert tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths) == GOLDEN[name, seed]
