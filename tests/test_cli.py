import base64
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitrewire import runner
from orbitrewire.actions import CycleChart, FactorAction, FreeProductSystem
from orbitrewire.cli import main
from orbitrewire.config import RunConfig, parse_rational
from orbitrewire.errors import ConfigError, VerificationFailed
from orbitrewire.generate import generate_system, make_target_set
from orbitrewire.runner import execute, report_json_bytes, verify_report_file
from orbitrewire.space import FiniteSpace, Permutation


BASE_CONFIG = {
    "space_size": 2048,
    "epsilon": "4/5",
    "seed": 3,
    "alpha": [{"name": "rotation", "step": 1}, {"name": "rotation", "step": 3}],
    "beta": [{"name": "rotation", "step": 1}, {"name": "rotation", "step": 7}],
    "window": [[[1]], [[1]]],
    "target_sets": [{"type": "residue", "modulus": 2, "residues": [0]}],
}


def write_config(tmp_path: Path, overrides=None) -> Path:
    data = dict(BASE_CONFIG)
    data.update(overrides or {})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def test_parse_rational_forms():
    assert parse_rational("1/3") == Fraction(1, 3)
    assert parse_rational("0.24") == Fraction(6, 25)
    assert parse_rational(2) == 2
    assert parse_rational({"num": 3, "den": 7}) == Fraction(3, 7)
    with pytest.raises(ConfigError):
        parse_rational("x/y")


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({})
    bad = dict(BASE_CONFIG)
    bad["epsilon"] = "0"
    with pytest.raises(ConfigError):
        RunConfig.from_dict(bad)
    bad = dict(BASE_CONFIG)
    del bad["beta"]
    with pytest.raises(ConfigError):
        RunConfig.from_dict(bad)
    bad = dict(BASE_CONFIG)
    bad["space_size"] = -5
    with pytest.raises(ConfigError):
        RunConfig.from_dict(bad)
    bad = dict(BASE_CONFIG)
    bad["seed"] = -5
    with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
        RunConfig.from_dict(bad)
    # the cycle charts hold fewer than 2**31 points; the config is refused
    # before any array of that size is allocated
    bad = dict(BASE_CONFIG)
    bad["space_size"] = 2**31
    with pytest.raises(ConfigError, match="below 2"):
        RunConfig.from_dict(bad)


def test_generate_templates_validate():
    sp = FiniteSpace(36)
    sys = generate_system(sp, [{"name": "rotation", "step": 1}])
    assert sys.factors[0].orbits().is_transitive
    grid = generate_system(sp, [{"name": "grid_shift", "dims": [6, 6]}])
    assert grid.factors[0].orbits().is_transitive
    prod = generate_system(sp, [{"name": "product_cycle", "dims": [6, 6]}])
    assert prod.factors[0].orbits().n_orbits == 6
    with pytest.raises(ConfigError):
        generate_system(sp, [{"name": "grid_shift", "dims": [5, 5]}])
    with pytest.raises(ConfigError):
        generate_system(sp, [{"name": "nope"}])


@pytest.mark.parametrize("name", ["grid_shift", "product_cycle"])
@pytest.mark.parametrize("steps", [[1], [1, 1, 5]], ids=["short", "long"])
def test_product_templates_need_one_step_per_dimension(name, steps):
    with pytest.raises(ConfigError, match="one step per dimension"):
        generate_system(FiniteSpace(36), [{"name": name, "dims": [6, 6], "steps": steps}])


@pytest.mark.parametrize("name", ["grid_shift", "product_cycle"])
@pytest.mark.parametrize("dims", [[-6, -6], [-1, 6, -6]], ids=["two", "three"])
def test_product_templates_refuse_nonpositive_dims_by_name(name, dims):
    with pytest.raises(ConfigError, match="'dims' needs sizes >= 1"):
        generate_system(FiniteSpace(36), [{"name": name, "dims": dims}])


@pytest.mark.parametrize("template", [
    {"name": "rotation", "step": 2**70},
    {"name": "grid_shift", "dims": [6, 6], "steps": [2**70, -2**70]},
    {"name": "product_cycle", "dims": [6, 6], "steps": [2**70, -2**70]},
], ids=lambda t: t["name"])
def test_steps_beyond_int64_reduce_modulo_the_cycle(template):
    sp = FiniteSpace(36)
    small = {k: (v % 36 if k == "step" else [s % 6 for s in v] if k == "steps" else v)
             for k, v in template.items()}
    got = generate_system(sp, [template]).factors[0].gens
    assert got == generate_system(sp, [small]).factors[0].gens


@pytest.mark.parametrize("template", [
    {"name": "rotation", "step": 1.9},
    {"name": "rotation", "step": True},
    {"name": "grid_shift", "dims": [6, 6.5]},
    {"name": "grid_shift", "dims": [6, 6], "steps": [1, False]},
    {"name": "product_cycle", "dims": [True, 36]},
    {"name": "product_cycle", "dims": [6, 6], "steps": [0.5, 1]},
    # multiply to the space size, so only the dims check refuses them
    {"name": "grid_shift", "dims": [-6, -6]},
    {"name": "product_cycle", "dims": [-6, -6]},
    {"name": "explicit", "rank": 1.5, "arrays": [list(range(1, 36)) + [0]]},
    {"name": "explicit", "rank": 0, "torsion": [36.5], "arrays": [list(range(1, 36)) + [0]]},
    {"name": "explicit", "rank": 1, "arrays": [[1.9, 2.2, 3.0, 0.5] + list(range(4, 36))]},
    {"name": "explicit", "rank": 1, "arrays": [[float(i) for i in range(1, 36)] + [0.0]]},
    # on two points [true, false] would read as the swap [1, 0], and so
    # would [true, 0], whose numpy dtype is int64
    {"name": "explicit", "rank": 1, "arrays": [[True, False]]},
    {"name": "explicit", "rank": 1, "arrays": [[True, 0]]},
], ids=["step-float", "step-bool", "dims-float", "steps-bool", "product-dims-bool",
        "product-steps-float", "dims-negative", "product-dims-negative", "rank-float",
        "torsion-float", "arrays-float", "arrays-integral-float", "arrays-bool", "arrays-bool-and-int"])
def test_template_integers_are_never_truncated(tmp_path, template):
    n = len(template["arrays"][0]) if "arrays" in template else 36
    with pytest.raises(ConfigError):
        generate_system(FiniteSpace(n), [template])
    cfg = write_config(tmp_path, {"space_size": n, "alpha": [template] * 2})
    assert main(["run", str(cfg)]) == 2


@pytest.mark.parametrize("desc", [
    {"type": "interval", "start": 1.5, "length": 4},
    {"type": "interval", "start": 0, "length": True},
    {"type": "residue", "modulus": 2.5, "residues": [0]},
    {"type": "residue", "modulus": 2, "residues": [0.5]},
    {"type": "indices", "members": [1.7, True]},
    {"type": "indices", "members": [1, False]},
], ids=["start-float", "length-bool", "modulus-float", "residues-float",
        "members-float-and-bool", "members-bool"])
def test_target_set_integers_are_never_truncated(tmp_path, desc):
    with pytest.raises(ConfigError):
        make_target_set(FiniteSpace(10), desc)
    assert main(["run", str(write_config(tmp_path, {"target_sets": [desc]}))]) == 2


def test_make_target_set_kinds():
    sp = FiniteSpace(10)
    assert make_target_set(sp, {"type": "interval", "start": 8, "length": 4}).members == {8, 9, 0, 1}
    assert make_target_set(sp, {"type": "residue", "modulus": 2, "residues": [1]}).size == 5
    assert make_target_set(sp, {"type": "indices", "members": [1, 2]}).members == {1, 2}
    with pytest.raises(ConfigError):
        make_target_set(sp, {"type": "mystery"})


def test_cli_run_and_verify_and_report(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    report_path = out / "report.json"
    assert report_path.exists()
    assert (out / "summary.csv").exists()
    assert main(["verify", str(report_path)]) == 0
    assert main(["report", str(report_path), "--csv", str(tmp_path / "again.csv")]) == 0
    assert (tmp_path / "again.csv").read_bytes() == (out / "summary.csv").read_bytes()


def test_cli_exit_code_2_on_config_errors(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["run", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    bad.write_bytes(b"\xff\xfe{}")
    assert main(["run", str(bad)]) == 2
    noepsilon = write_config(tmp_path, {"epsilon": "0"})
    assert main(["run", str(noepsilon)]) == 2
    nobeta = dict(BASE_CONFIG)
    del nobeta["beta"]
    p = tmp_path / "nobeta.json"
    p.write_text(json.dumps(nobeta))
    assert main(["run", str(p)]) == 2
    # ill-typed integer fields: no string, non-integral float or bool is
    # truncated to an integer
    for key, value in (("window", [[["x"]], [[1]]]), ("tile_cap", "abc"),
                       ("window", [[[1.5]], [[1]]]), ("window", [[[True]], [[1]]]),
                       ("tile_cap", 2.5), ("tile_cap", True),
                       ("max_retries", 1.5), ("max_retries", False),
                       ("space_size", True), ("seed", True)):
        assert main(["run", str(write_config(tmp_path, {key: value}))]) == 2
    # a window coordinate beyond int64, and out-of-range tile_cap and eps'
    for key, value in (("window", [[[10**30]], [[1]]]), ("window", [[[-2**63 - 1]], [[1]]]),
                       ("tile_cap", 0), ("tile_cap", -5),
                       ("eps_prime_override", "2"), ("eps_prime_override", "1"),
                       ("eps_prime_override", "0"), ("seed", -5)):
        assert main(["run", str(write_config(tmp_path, {key: value}))]) == 2
    # a string or an object where a list of integers belongs is refused, not
    # read as the list of its characters or keys; so are indices, moduli and
    # torsion orders beyond int64
    grid = {"name": "grid_shift", "dims": [32, 64]}
    for overrides in (
            {"alpha": [grid, grid], "beta": [grid, grid],
             "window": [["10", [0, 1]], [[1, 0]]]},
            {"alpha": [dict(grid, steps="13"), grid], "beta": [grid, grid],
             "window": [[[1, 0]], [[1, 0]]]},
            {"target_sets": [{"type": "residue", "modulus": 4, "residues": "13"}]},
            {"target_sets": [{"type": "indices", "members": {"1": 2}}]},
            {"target_sets": [{"type": "indices", "members": [10**30]}]},
            {"target_sets": [{"type": "residue", "modulus": 2**63, "residues": [0]}]},
            {"alpha": [{"name": "explicit", "torsion": [2**70],
                        "arrays": [list(range(1, 2048)) + [0]]},
                       {"name": "rotation", "step": 3}]}):
        assert main(["run", str(write_config(tmp_path, overrides))]) == 2
    # a negative seed is refused before generate writes the config, and by
    # run's --seed override
    gen = tmp_path / "negative-seed.json"
    assert main(["generate", "--seed", "-5", "--space-size", "2000", "--out", str(gen)]) == 2
    assert not gen.exists()
    assert main(["run", str(write_config(tmp_path)), "--seed", "-5"]) == 2
    # eps' too fine for exact int64 arithmetic at this space size
    cfg = write_config(tmp_path)
    assert main(["run", str(cfg), "--space-size", "100000",
                 "--override-eps-prime", "1/1000000000"]) == 2
    # 21 target sets and 2 window elements make a phi family of 21 * 3 = 63
    # sets, one more than generated_partition supports
    residues = [{"type": "residue", "modulus": 64, "residues": [r]} for r in range(21)]
    assert main(["run", str(write_config(tmp_path, {"target_sets": residues}))]) == 2
    # a directory where a file is expected
    assert main(["run", str(tmp_path)]) == 2
    assert main(["verify", str(tmp_path)]) == 2
    assert main(["report", str(tmp_path)]) == 2
    # a report of an old schema, and one without the fields a run writes
    for schema in ("orbitrewire-report/1", "orbitrewire-report/2", "orbitrewire-report/3"):
        stub = tmp_path / "stub.json"
        stub.write_text(json.dumps({"schema": schema}))
        assert main(["verify", str(stub)]) == 2
        assert main(["report", str(stub)]) == 2


def test_cli_exit_code_2_on_a_misspelled_key(tmp_path, capsys):
    # a misspelled optional key would otherwise run at the key's default
    assert main(["run", str(write_config(tmp_path, {"eps_prime_overide": "1/25"}))]) == 2
    assert "eps_prime_overide" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def _edit_packed(edit):
    """A tamper that replaces rewiring 0's decoded bytes by ``edit(raw, w)``."""
    def tamper(r):
        w = runner._entry_width(r["config"]["space_size"])
        raw = bytearray(base64.b64decode(r["witness"]["rewirings"][0]))
        r["witness"]["rewirings"][0] = base64.b64encode(bytes(edit(raw, w))).decode()
    return tamper


def _as_entries(packed: str) -> list[int]:
    return runner._unpack_permutation(
        packed, FiniteSpace(BASE_CONFIG["space_size"]), "test").forward.tolist()


def _set_entry(raw: bytearray, w: int, index: int, value: int) -> bytearray:
    raw[index * w:(index + 1) * w] = value.to_bytes(w, "little")
    return raw


def test_verify_report_file_rejects_malformed_fields(tmp_path, capsys):
    _, report = execute(RunConfig.from_dict(dict(BASE_CONFIG)))
    n = BASE_CONFIG["space_size"]
    tamperings = [
        lambda r: r.pop("witness"),
        lambda r: r["final"].update(weak_discrepancy="1/2"),
        lambda r: r["config"]["target_sets"][0].update(modulus=0),
        lambda r: r["witness"]["rewirings"].pop(),
        # a list, a number or a bool where a packed string belongs; the
        # schema-2 int list, with or without a float entry, is refused too
        lambda r: r["witness"].update(conjugator=_as_entries(r["witness"]["conjugator"])),
        lambda r: r["witness"].update(
            conjugator=[_as_entries(r["witness"]["conjugator"])[0] + 0.25]
            + _as_entries(r["witness"]["conjugator"])[1:]),
        lambda r: r["witness"]["rewirings"].__setitem__(1, 0.0),
        lambda r: r["witness"]["rewirings"].__setitem__(1, 7),
        lambda r: r["witness"]["rewirings"].__setitem__(0, True),
        lambda r: r["witness"].update(conjugator=None),
        # invalid base64: spaces, a foreign character, missing padding,
        # the URL-safe alphabet and a non-ASCII character
        lambda r: r["witness"].update(conjugator="0 1 2"),
        lambda r: r["witness"]["rewirings"].__setitem__(0, r["witness"]["rewirings"][0] + "@@"),
        lambda r: r["witness"]["rewirings"].__setitem__(0, r["witness"]["rewirings"][0].rstrip("=")),
        lambda r: r["witness"].update(conjugator=r["witness"]["conjugator"]
                                      .replace("+", "-").replace("/", "_") + "-_"),
        lambda r: r["witness"].update(conjugator="\u00e9" + r["witness"]["conjugator"][1:]),
        # a decoded length other than N entries of w bytes
        _edit_packed(lambda raw, w: raw[:-w]),
        _edit_packed(lambda raw, w: raw + raw[:w]),
        _edit_packed(lambda raw, w: raw[:-1]),
        _edit_packed(lambda raw, w: b""),
        # an entry >= N, and the largest entry w bytes can hold
        _edit_packed(lambda raw, w: _set_entry(raw, w, 0, n)),
        _edit_packed(lambda raw, w: _set_entry(raw, w, 5, 256 ** w - 1)),
        # a non-bijection: entry 0 repeats entry 1
        _edit_packed(lambda raw, w: _set_entry(raw, w, 0, int.from_bytes(raw[w:2 * w], "little"))),
    ]
    for i, tamper in enumerate(tamperings):
        bad = json.loads(json.dumps(report))
        tamper(bad)
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ConfigError):
            verify_report_file(path)
        capsys.readouterr()
        assert main(["verify", str(path)]) == 2, i
        err = capsys.readouterr().err
        assert err.startswith("config error: CONFIG_ERROR: ") and "Traceback" not in err, err


@settings(max_examples=40, deadline=None)
@given(n=st.one_of(st.sampled_from([1, 2, 255, 256, 257, 65535, 65536, 65537]),
                   st.integers(1, 70_000)),
       seed=st.integers(0, 2**32 - 1))
def test_packed_witness_round_trips(n, seed):
    space = FiniteSpace(n)
    p = Permutation(space, np.random.default_rng(seed).permutation(n))
    packed = runner._pack_permutation(p)
    w = 1 if n <= 256 else 2 if n <= 65536 else 3
    assert len(base64.b64decode(packed)) == n * w
    assert runner._unpack_permutation(packed, space, "test").forward.tolist() == p.forward.tolist()


def test_entry_width():
    widths = {1: 1, 2: 1, 256: 1, 257: 2, 65536: 2, 65537: 3,
              2**24: 3, 2**24 + 1: 4, 2**32: 4, 2**32 + 1: 5}
    assert {n: runner._entry_width(n) for n in widths} == widths


def test_verify_catches_a_tampered_rewiring(tmp_path):
    # a well-formed witness that does not reproduce the report fails (exit 1)
    _, report = execute(RunConfig.from_dict(dict(BASE_CONFIG)))
    identity = runner._pack_permutation(Permutation.identity(FiniteSpace(BASE_CONFIG["space_size"])))
    assert report["witness"]["rewirings"][0] != identity
    report["witness"]["rewirings"][0] = identity
    path = tmp_path / "report.json"
    path.write_bytes(report_json_bytes(report))
    assert verify_report_file(path) is False
    assert main(["verify", str(path)]) == 1


GRID_CONFIG = {
    "space_size": 50 * 50,
    "epsilon": "1/5",
    "alpha": [{"name": "grid_shift", "dims": [50, 50], "steps": [1, 1]},
              {"name": "rotation", "step": 3}],
    "beta": [{"name": "grid_shift", "dims": [50, 50], "steps": [1, 3]},
             {"name": "rotation", "step": 7}],
    "window": [[[1, 0], [0, 1]], [[1]]],
    "eps_prime_override": "1/20",
}


@pytest.mark.parametrize("overrides", [
    {},
    {"alpha": [{"name": "product_cycle", "dims": [2, 1024]}, {"name": "rotation", "step": 3}]},
    {"beta": [{"name": "rotation", "step": 2}, {"name": "rotation", "step": 7}],
     "ergodize_budget": "1/100"},
    GRID_CONFIG,
], ids=["rotation", "product_cycle", "ergodize_budget", "grid_shift"])
def test_witness_gamma_is_the_two_step_conjugation(overrides):
    # gamma_i = S_i (R alpha_i R^-1) S_i^-1: conjugating by S_i o R at once
    # gives the generators and the carried charts of the two steps
    config = RunConfig.from_dict({**BASE_CONFIG, **overrides})
    result, _ = execute(config)
    alpha = generate_system(FiniteSpace(config.space_size), config.alpha)
    witness = result.witness
    two_step = [f.conjugate(s) for f, s in zip(alpha.conjugate(witness.conjugator).factors,
                                               witness.rewirings, strict=True)]
    for f, g in zip(witness.gamma(alpha).factors, two_step, strict=True):
        assert f.gens == g.gens
        for a, b in zip(f.charts, g.charts, strict=True):
            assert np.array_equal(a.order, b.order)
            assert np.array_equal(a.cycle_len, b.cycle_len)


def test_empty_window_runs_and_verifies_without_writing_to_stderr(tmp_path):
    # an empty window certifies a final discrepancy of 0 with no warning, in
    # the pipeline's final stage and in the witness check alike
    cfg = write_config(tmp_path, {"window": [[], []]})
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH", "")])}
    for args in (["run", str(cfg)], ["verify", str(tmp_path / "report.json")]):
        proc = subprocess.run([sys.executable, "-W", "default", "-m", "orbitrewire", *args],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")


def test_a_phi_family_of_35_sets_certifies_and_verifies(tmp_path):
    # seven target sets and four window elements give 7 * (1 + 4) = 35
    # family sets, whose membership patterns reach 2^34
    residue = [{"type": "residue", "modulus": 8, "residues": r}
               for r in ([0], [1], [2], [3], [0, 1], [2, 5], [0, 1, 2, 3])]
    config = RunConfig.from_dict({**BASE_CONFIG, "space_size": 4000, "epsilon": "1/5",
                                  "window": [[[1], [2]], [[1], [2]]],
                                  "target_sets": residue})
    _, report = execute(config)
    assert report["alphabet_size"] == 8
    json_path, _ = runner.write_report_files(report, tmp_path)
    assert verify_report_file(json_path)


def test_cli_exit_code_1_on_stage_failure(tmp_path):
    # non-transitive target factor with no ergodization: pipeline error
    cfg = write_config(tmp_path, {"beta": [{"name": "rotation", "step": 2},
                                           {"name": "rotation", "step": 7}]})
    assert main(["run", str(cfg)]) == 1


def test_cli_generate_subcommand(tmp_path):
    out_cfg = tmp_path / "gen.json"
    assert main(["generate", "--scenario", "two-rotations", "--space-size", "4096",
                 "--epsilon", "1/2", "--seed", "5", "--out", str(out_cfg)]) == 0
    data = json.loads(out_cfg.read_text())
    assert data["space_size"] == 4096
    RunConfig.from_dict(data)


def test_cli_flag_overrides(tmp_path):
    cfg = write_config(tmp_path)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["run", str(cfg), "--seed", "9", "--out", str(out1)]) == 0
    assert main(["run", str(cfg), "--seed", "10", "--out", str(out2)]) == 0
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert r1["config"]["seed"] == 9
    assert r2["config"]["seed"] == 10


def test_run_reports_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert main(["run", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()


def test_execute_report_consistency(tmp_path):
    config = RunConfig.from_dict(dict(BASE_CONFIG))
    result, report = execute(config)
    wd = report["final"]["weak_discrepancy"]
    assert Fraction(wd["num"], wd["den"]) == result.report.final_discrepancy
    assert report["final"]["orbit_equivalence"] is True
    # serialized witness re-verifies from disk
    out = tmp_path / "out"
    from orbitrewire.runner import write_report_files
    json_path, _ = write_report_files(report, out)
    assert verify_report_file(json_path)


def test_ergodize_budget_path(tmp_path):
    cfg = write_config(tmp_path, {
        "beta": [{"name": "rotation", "step": 2}, {"name": "rotation", "step": 7}],
        "ergodize_budget": "1/100",
    })
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["final"]["orbit_equivalence"] is True


def test_cli_override_eps_prime_flag(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--override-eps-prime", "1/50",
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["eps_prime"] == {"num": 1, "den": 50, "approx": 0.02}


def test_explicit_template_and_serialization():
    sp = FiniteSpace(6)
    sys = generate_system(sp, [{
        "name": "explicit", "rank": 1, "torsion": [],
        "arrays": [[1, 2, 3, 4, 5, 0]],
    }])
    assert sys.factors[0].orbits().is_transitive
    from orbitrewire import PointSet
    assert PointSet.from_indices(sp, [4, 1]).to_sorted_list() == [1, 4]


def test_many_column_run_certifies_and_verifies(tmp_path):
    # rotations at N=1e5 with eps'=1/25: tiles of 625 and 500 elements and
    # 153 and 190 columns, the regime where the construction splits the
    # bases into many columns and rewires inside each
    config = RunConfig.from_dict({**BASE_CONFIG, "space_size": 100_000, "epsilon": "1/5",
                                  "eps_prime_override": "1/25"})
    _, report = execute(config)
    columns = [fr["column_count"] for fr in report["factors"]]
    assert min(columns) >= 100, columns
    final = report["final"]["weak_discrepancy"]
    assert Fraction(final["num"], final["den"]) < Fraction(1, 5)
    path = tmp_path / "report.json"
    path.write_bytes(report_json_bytes(report))
    assert verify_report_file(path) is True


def test_execute_builds_each_system_once(monkeypatch):
    calls = []
    build = runner.generate_system

    def counted(space, templates):
        calls.append(templates)
        return build(space, templates)

    monkeypatch.setattr(runner, "generate_system", counted)
    config = RunConfig.from_dict(dict(BASE_CONFIG))
    execute(config)
    assert calls == [config.alpha, config.beta]


@pytest.mark.parametrize("overrides", [{}, GRID_CONFIG], ids=["rotation", "grid_shift"])
def test_shift_templates_never_build_charts_by_doubling(monkeypatch, tmp_path, overrides):
    def refuse(cls, forward):
        raise AssertionError("pointer-doubling chart build reached")

    monkeypatch.setattr(CycleChart, "of", classmethod(refuse))
    _, report = execute(RunConfig.from_dict({**BASE_CONFIG, **overrides}))
    path = tmp_path / "report.json"
    path.write_bytes(report_json_bytes(report))
    assert verify_report_file(path) is True


@pytest.mark.parametrize("overrides", [{}, GRID_CONFIG], ids=["rotation", "grid_shift"])
def test_witness_checks_never_rebuild_gamma(monkeypatch, tmp_path, overrides):
    # the self-verify and verify read gamma through alpha's charts and check
    # the orbits factor by factor: no conjugation, no full-partition labels
    def refuse(*args):
        raise AssertionError("gamma rebuilt or full orbit partition computed")

    monkeypatch.setattr(FreeProductSystem, "full_orbit_decomposition", refuse)
    _, report = execute(RunConfig.from_dict({**BASE_CONFIG, **overrides}))
    path = tmp_path / "report.json"
    path.write_bytes(report_json_bytes(report))
    monkeypatch.setattr(FactorAction, "conjugate", refuse)
    assert verify_report_file(path) is True


def test_aligned_grid_runs_never_read_windows_in_point_order(monkeypatch, tmp_path):
    def refuse(self, tile, values):
        raise AssertionError("point-order window_counts reached")

    monkeypatch.setattr(FactorAction, "window_counts", refuse)
    _, report = execute(RunConfig.from_dict({**BASE_CONFIG, **GRID_CONFIG}))
    assert report["final"]["orbit_equivalence"] is True
    path = tmp_path / "report.json"
    path.write_bytes(report_json_bytes(report))
    assert verify_report_file(path) is True


def _tampered(monkeypatch, tamper) -> None:
    """Patch ``runner.build_report`` so every report it builds is tampered."""
    build = runner.build_report

    def tampered(config, result, freeness):
        report = build(config, result, freeness)
        tamper(report)
        return report

    monkeypatch.setattr(runner, "build_report", tampered)


def test_execute_rejects_a_tampered_rewiring(monkeypatch):
    identity = runner._pack_permutation(Permutation.identity(FiniteSpace(BASE_CONFIG["space_size"])))
    _tampered(monkeypatch, lambda r: r["witness"]["rewirings"].__setitem__(0, identity))
    with pytest.raises(VerificationFailed):
        execute(RunConfig.from_dict(dict(BASE_CONFIG)))


@pytest.mark.parametrize("key, value", [("seed", 4), ("epsilon", "1/2"), ("max_retries", 0)])
def test_execute_rejects_a_config_echo_that_does_not_round_trip(monkeypatch, key, value):
    _tampered(monkeypatch, lambda r: r["config"].update({key: value}))
    with pytest.raises(VerificationFailed):
        execute(RunConfig.from_dict(dict(BASE_CONFIG)))
