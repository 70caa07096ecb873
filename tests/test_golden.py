"""Golden bytes: ``report.json`` and ``summary.csv`` of nineteen fixed runs.

The configs are the small and the full-size forms of the three benchmark
workloads (two rotation factors in the degenerate and the many-column
regime, and a rank-2 grid shift with a rotation), each at config seeds 3,
11 and 12345; the ``-full`` configs are the sizes the benchmark runs.  The
nineteenth, at seed 3, is a Z^2 factor acting on Z/N by steps 1 and k with a
rotation: its orbit is not a product of its generator cycles, so it runs the
point-order good-set evaluation and the greedy sweep of the tiling.  Every
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


def _grid_mixed(side, eps_prime):
    return {
        "space_size": side * side,
        "epsilon": "1/5",
        "alpha": [{"name": "grid_shift", "dims": [side, side], "steps": [1, 1]}, _rotation(3)],
        "beta": [{"name": "grid_shift", "dims": [side, side], "steps": [1, 3]}, _rotation(7)],
        "window": [[[1, 0], [0, 1]], [[1]]],
        "target_sets": [_residue(2, [0])],
        "eps_prime_override": eps_prime,
    }


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


def _skewed_lattice(n, eps_prime):
    def steps(k):
        return {"name": "explicit", "rank": 2,
                "arrays": [[(x + 1) % n for x in range(n)], [(x + k) % n for x in range(n)]]}
    return {
        "space_size": n,
        "epsilon": "1/5",
        "alpha": [steps(101), _rotation(3)],
        "beta": [steps(211), _rotation(7)],
        "window": [[[1, 0], [0, 1]], [[1]]],
        "target_sets": [_residue(2, [0])],
        "eps_prime_override": eps_prime,
    }


DEG_SETS = [_residue(2, [0]), _residue(8, [0, 1, 2, 3])]

CONFIGS = {
    "rot-degenerate": _rotations(4_000, DEG_SETS),
    "rot-many-column": _rotations(10_000, [_residue(2, [0])], "1/10"),
    "grid-mixed": _grid_mixed(50, "1/20"),
    "rot-degenerate-full": _rotations(10_000, DEG_SETS),
    "rot-many-column-full": _rotations(100_000, [_residue(2, [0])], "1/25"),
    "grid-mixed-full": _grid_mixed(256, "1/50"),
    "skewed-lattice": _skewed_lattice(6_000, "1/10"),
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
    ("rot-degenerate-full", 3): (
        "7b82abc590b20b83f17aa09b5f26d1de1c5f08415d9520e7253761d292c79f1b",
        "20d27f681d32ec74b329fe8af2480bd05447aee6972c939d47343b9cd0313c24"),
    ("rot-degenerate-full", 11): (
        "db30e34a638b46f27cf81f6f03ee947ce6fe93c8931591b972487e62e5f6a04b",
        "4bf1ff73318a15796eb21a43c86b79fa750eec30313273af70b4744f40683029"),
    ("rot-degenerate-full", 12345): (
        "4693454e576d097046396aee9ad07de1d56668e81266a36e750d2d310058137d",
        "628b6f0309c61a6d28f4ffe66a433a970cb891f54ce8c399ce9265e451d8752f"),
    ("rot-many-column-full", 3): (
        "d483a9e928000a72fd1d0608b21923e7b711786dc05c27757e536d4028469cdc",
        "cfce60cd8ab8b7e5c5a4ac935cf668ccd3adbc119df11f5d64c772923364dfe4"),
    ("rot-many-column-full", 11): (
        "7e20f79e794b867f19da0daefecf7a29baec18c6ec7ad38b079585c9b5999dd4",
        "a5492307caefca7f2edd73120c2eb35222a33d515d7d780bd5a67cba89f1ea3f"),
    ("rot-many-column-full", 12345): (
        "91dbe89d5d738b9c18968f57e8ff10e580ee4d1914cf5010eaf9176ebe53d03d",
        "72d71789146222882389954de03fcc619f035843f42e35d725b790d147bf2c66"),
    ("grid-mixed-full", 3): (
        "4c3b2712a3594162c84948717362c2d8ddc95695d37bd169dcd5c389c82e1c23",
        "b978183278ade4562b6b3a139ca650a052e0173ba83088260a2c66bbc51a755e"),
    ("grid-mixed-full", 11): (
        "a45ffef44dab27232cc4211f593a419def55ed5f557d34f06ba893f3007a4304",
        "cae960b269b49ea7e0d308303bea5a843750bd0bb836d286039be9299fd452d5"),
    ("grid-mixed-full", 12345): (
        "9815f868f5f05fe17d276a43b4fdc826fdd3facd000d20fb8957d4826e74cdf9",
        "f99fb961deaba0e301a490e02c700b9741b376599f4b9b79f582fd9c4782f7e1"),
    ("skewed-lattice", 3): (
        "4d8bfbc706a3e3144ebfa1b266c049848ee75e7907e9f6aa23400cae59cd858e",
        "42895ebdaac4feb1589febd7f440f2c87c6a446fbbbf424e238dba8ce36b3ae0"),
}


@pytest.mark.parametrize("name, seed", sorted(GOLDEN), ids=lambda v: str(v))
def test_report_bytes_match_the_golden_hashes(tmp_path, name, seed):
    _, report = execute(RunConfig.from_dict({**CONFIGS[name], "seed": seed}))
    paths = write_report_files(report, tmp_path)
    assert tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths) == GOLDEN[name, seed]
