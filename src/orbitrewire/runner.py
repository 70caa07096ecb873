"""Run orchestration and report emission.

A run builds the two systems from a config, executes the rewiring pipeline,
and writes a machine-readable JSON report plus a CSV summary of every
certified bound.  Reports are canonical: sorted keys, exact rationals as
num/den pairs (float renderings are annotations only), no timestamps, so the
same config and seed produce byte-identical files.

The JSON report embeds the witness: the conjugator R and the per-factor
rewirings S_i.  Each is one base64 string (RFC 4648 standard alphabet,
padded) of N little-endian unsigned entries of w bytes, where
w = max(1, ceil(bit_length(N - 1) / 8)) is fixed by the config's
``space_size`` and is not stored.  A witness that is not such a string,
decodes to another length, or holds no bijection of the N points is a
ConfigError.  Verification rebuilds alpha, beta and the target sets from
the embedded config and checks the witness without building gamma: the
final discrepancy is recomputed from gamma's word permutations read through
alpha's letters (``OEWitness.gamma_words``), and the orbit check asks factor
by factor whether each S_i keeps the orbits of R alpha_i R^-1
(``verify_orbit_equivalence``).  A run checks its report before writing it:
the config echo must parse back to the run's config, and the packed witness
is decoded and checked the same way on the systems the run already built.
"""

from __future__ import annotations

import base64
import csv
import functools
import io
import json
from pathlib import Path

import numpy as np

from . import certify
from .actions import FreeProductSystem, freeness_defect, weak_discrepancy
from .config import RunConfig, parse_rational, rational_to_json
from .errors import ConfigError, VerificationFailed
from .generate import default_window, generate_system, make_target_set
from .groups import FreeWord
from .rewiring import (
    OEWitness,
    PipelineResult,
    make_factor_ergodic,
    oe_approximate,
    verify_orbit_equivalence,
)
from .space import FiniteSpace, Permutation

REPORT_SCHEMA = "orbitrewire-report/3"


def _window_elements(system: FreeProductSystem, window: list[list[list[int]]]):
    out = []
    for i, per_factor in enumerate(window):
        spec = system.factors[i].spec
        elems = []
        for coords in per_factor:
            if len(coords) != spec.num_generators:
                raise ConfigError(
                    f"window element {coords} has wrong arity for factor {i}"
                )
            g = spec.element(coords)
            if g.is_identity():
                raise ConfigError(f"window of factor {i} contains the identity")
            elems.append(g)
        out.append(elems)
    return out


def _build_systems(config: RunConfig):
    """The space, the alpha and beta systems and the target sets of a config;
    beta's non-transitive factors are ergodized when the config sets a budget."""
    space = FiniteSpace(config.space_size)
    alpha = generate_system(space, config.alpha)
    beta = generate_system(space, config.beta)
    if config.ergodize_budget is not None:
        beta = FreeProductSystem(
            tuple(
                f if f.orbits().is_transitive else make_factor_ergodic(f, config.ergodize_budget)
                for f in beta.factors
            )
        )
    sets = [make_target_set(space, d) for d in config.target_sets]
    return space, alpha, beta, sets


def execute(config: RunConfig) -> tuple[PipelineResult, dict]:
    """Run the pipeline for a config; returns the result and the report dict.

    The report is checked before it is returned: its config echo must parse
    back to ``config``, and its witness must reproduce the reported
    discrepancy and orbit equivalence on the systems this run built.
    """
    space, alpha, beta, sets = _build_systems(config)
    window = _window_elements(alpha, config.window)
    freeness = [
        rational_to_json(freeness_defect(f, default_window(f.spec)))
        for f in alpha.factors
    ]
    result = oe_approximate(
        alpha,
        beta,
        window,
        config.epsilon,
        sets,
        config.seed,
        eps_prime_override=config.eps_prime_override,
        tile_cap=config.tile_cap,
        max_retries=config.max_retries,
    )
    report = build_report(config, result, freeness)
    if RunConfig.from_dict(report["config"]) != config:
        raise VerificationFailed("report config does not parse back to the run's config")
    if not _verify_report_payload(report, config, space, alpha, beta, sets):
        raise VerificationFailed(
            "serialized witness does not reproduce the reported discrepancy"
        )
    return result, report


def build_report(config: RunConfig, result: PipelineResult,
                 freeness: list[dict]) -> dict:
    rep = result.report
    wit = result.witness
    factors = []
    for fr in rep.factors:
        factors.append({
            "factor": fr.factor_index,
            "tile_side": fr.tile_side,
            "tile_size": fr.tile_size,
            "good_mass_rewired": rational_to_json(fr.good_mass_alpha),
            "good_mass_target": rational_to_json(fr.good_mass_beta),
            "avoid_mass": rational_to_json(fr.avoid_mass),
            "coverage_rewired": rational_to_json(fr.coverage_alpha),
            "coverage_target": rational_to_json(fr.coverage_beta),
            "base_size": fr.base_size,
            "column_count": fr.column_count,
            "column_defects": list(fr.column_defects),
            "max_column_defect": fr.max_defect,
            "defect_bound": rational_to_json(fr.defect_bound),
            "budget": [
                {
                    "element": list(eb.element),
                    "l0": rational_to_json(eb.l0),
                    "l1": rational_to_json(eb.l1),
                    "l2": rational_to_json(eb.l2),
                    "bound_l0": rational_to_json(eb.bound_l0),
                    "bound_l1": rational_to_json(eb.bound_l1),
                    "bound_l2": rational_to_json(eb.bound_l2),
                    "discrepancies": [rational_to_json(d) for d in eb.discrepancies],
                    "residual_empty": eb.residual_empty,
                }
                for eb in fr.budget.per_element
            ],
        })
    return {
        "schema": REPORT_SCHEMA,
        "config": config.to_dict(),
        "alphabet_size": rep.alphabet_size,
        "cell_masses": [rational_to_json(m) for m in rep.cell_masses],
        "eps": rational_to_json(rep.eps),
        "eps_prime": rational_to_json(rep.eps_prime),
        "min_space_estimate": rep.min_space_estimate,
        "good_partition": {
            "retries": rep.good_partition_retries,
            "bad_masses": [rational_to_json(m) for m in rep.good_partition_bad_masses],
            "deviation_histograms": [
                [[rational_to_json(dev), rational_to_json(mass)] for dev, mass in hist]
                for hist in rep.good_partition_histograms
            ],
        },
        "alpha_freeness_defects": freeness,
        "factors": factors,
        "final": {
            "weak_discrepancy": rational_to_json(rep.final_discrepancy),
            "epsilon_ok": certify.final_ok(rep.final_discrepancy, rep.eps),
            "orbit_equivalence": rep.orbit_check,
        },
        "witness": {
            "conjugator": _pack_permutation(wit.conjugator),
            "rewirings": [_pack_permutation(s) for s in wit.rewirings],
        },
    }


def _field(d, key: str, kind: type):
    """d[key] when d is a dict holding a ``kind`` there; ConfigError otherwise."""
    value = d.get(key) if isinstance(d, dict) else None
    if not isinstance(value, kind):
        raise ConfigError(f"report field {key!r} is missing or not a {kind.__name__}")
    return value


def _entry_width(n: int) -> int:
    """Bytes per packed witness entry on an n-point space: enough for n - 1."""
    return max(1, ((n - 1).bit_length() + 7) // 8)


def _pack_permutation(p: Permutation) -> str:
    """p's forward array as base64 of its entries' low little-endian bytes."""
    n = p.space.n_points
    raw = p.forward.astype("<i8", copy=False).view(np.uint8).reshape(n, 8)
    return base64.b64encode(raw[:, :_entry_width(n)].tobytes()).decode("ascii")


def _unpack_permutation(text, space: FiniteSpace, name: str) -> Permutation:
    """The permutation a packed witness string holds; ConfigError if malformed."""
    if not isinstance(text, str):
        raise ConfigError(f"report witness {name} is not a packed string")
    n = space.n_points
    w = _entry_width(n)
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII str
        raise ConfigError(f"report witness {name} is not base64: {exc}") from exc
    if len(raw) != n * w:
        raise ConfigError(f"report witness {name} decodes to {len(raw)} bytes, "
                          f"not {n} entries of {w}")
    wide = np.zeros((n, 8), dtype=np.uint8)
    wide[:, :w] = np.frombuffer(raw, dtype=np.uint8).reshape(n, w)
    try:
        return Permutation(space, wide.view("<i8").reshape(n))
    except ValueError as exc:
        raise ConfigError(f"report witness {name} is malformed: {exc}") from exc


def _witness_from_report(report: dict, space: FiniteSpace, k: int) -> OEWitness:
    """The conjugator and the k rewirings a report holds; ConfigError if malformed."""
    wit = _field(report, "witness", dict)
    rewirings = _field(wit, "rewirings", list)
    if len(rewirings) != k:
        raise ConfigError(f"report has {len(rewirings)} rewirings, its config {k} factors")
    return OEWitness(
        _unpack_permutation(wit.get("conjugator"), space, "conjugator"),
        tuple(_unpack_permutation(s, space, f"rewiring {i}") for i, s in enumerate(rewirings)),
    )


def _verify_report_payload(report: dict, config: RunConfig, space: FiniteSpace,
                           alpha: FreeProductSystem, beta: FreeProductSystem,
                           sets: list) -> bool:
    """Whether the report's witness reproduces its final discrepancy (below
    eps) and the orbit equivalence, on the systems and sets of ``config``."""
    witness = _witness_from_report(report, space, alpha.k)
    window = _window_elements(alpha, config.window)
    words = [FreeWord.letter(i, g) for i, elems in enumerate(window) for g in elems]
    reported = parse_rational(_field(_field(report, "final", dict), "weak_discrepancy", dict),
                              "final weak_discrepancy")
    final = weak_discrepancy(witness.gamma_words(alpha), beta, words, sets)
    if final != reported or not certify.final_ok(final, config.epsilon):
        return False
    ok, _ = verify_orbit_equivalence(alpha, witness)
    return ok


def load_report(path: str | Path) -> dict:
    """A report file of the current schema; ConfigError on any other."""
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    schema = _field(report, "schema", str)
    if schema != REPORT_SCHEMA:
        raise ConfigError(f"unknown report schema: {schema!r}")
    return report


def verify_report_file(path: str | Path) -> bool:
    """Re-check a serialized run: discrepancy and orbit equivalence of the
    gamma its witness derives.

    Alpha, beta and the target sets are rebuilt from the report's config.
    A report without the fields a run writes raises ConfigError.
    """
    report = load_report(path)
    config = RunConfig.from_dict(_field(report, "config", dict))
    return _verify_report_payload(report, config, *_build_systems(config))


def report_json_bytes(report: dict) -> bytes:
    return json.dumps(report, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def _reads_report(fn):
    """fn(report), with a missing or ill-typed report field raised as ConfigError."""
    @functools.wraps(fn)
    def wrapper(report: dict):
        try:
            return fn(report)
        except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"report field missing or ill-typed: {exc!r}") from exc
    return wrapper


@_reads_report
def summary_rows(report: dict) -> list[list[str]]:
    """Flat rows (component, factor, element, set, value, bound, ok) for CSV;
    each ok is ``certify``'s predicate on the reported numbers."""
    rows = [["component", "factor", "element", "set", "value", "bound", "ok"]]

    def rat(d):
        return f"{d['num']}/{d['den']}"

    eps_prime = parse_rational(report["eps_prime"])
    rows.append(["eps_prime", "", "", "", rat(report["eps_prime"]), "", ""])
    for i, m in enumerate(report["good_partition"]["bad_masses"]):
        rows.append(["good_partition_bad_mass", str(i), "", "", rat(m), rat(report["eps_prime"]),
                     str(certify.bad_mass_ok(parse_rational(m), eps_prime))])
    for fr in report["factors"]:
        fi = str(fr["factor"])
        rows.append(["tile_size", fi, "", "", str(fr["tile_size"]), "", ""])
        rows.append(["base_size", fi, "", "", str(fr["base_size"]), "", ""])
        rows.append(["max_column_defect", fi, "", "", str(fr["max_column_defect"]),
                     rat(fr["defect_bound"]), str(certify.defects_ok(
                         fr["max_column_defect"], parse_rational(fr["defect_bound"])))])
        for eb in fr["budget"]:
            el = str(tuple(eb["element"]))
            for name in ("l0", "l1", "l2"):
                bound = eb["bound_" + name]
                rows.append([name, fi, el, "", rat(eb[name]), rat(bound), str(certify.loss_ok(
                    name, parse_rational(eb[name]), parse_rational(bound)))])
            for j, d in enumerate(eb["discrepancies"]):
                rows.append(["element_discrepancy", fi, el, str(j), rat(d), "", ""])
            rows.append(["residual_empty", fi, el, "", str(eb["residual_empty"]),
                         "True", str(eb["residual_empty"])])
    fin = report["final"]
    rows.append(["final_weak_discrepancy", "", "", "", rat(fin["weak_discrepancy"]),
                 rat(report["eps"]), str(fin["epsilon_ok"])])
    rows.append(["orbit_equivalence", "", "", "", str(fin["orbit_equivalence"]),
                 "True", str(fin["orbit_equivalence"])])
    return rows


def summary_csv_bytes(report: dict) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(summary_rows(report))
    return buf.getvalue().encode()


def write_report_files(report: dict, out_dir: str | Path) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "report.json"
    csv_path = out / "summary.csv"
    json_path.write_bytes(report_json_bytes(report))
    csv_path.write_bytes(summary_csv_bytes(report))
    return json_path, csv_path


@_reads_report
def render_summary(report: dict) -> str:
    """Short human-readable digest of a report."""
    lines = []
    fin = report["final"]
    lines.append(f"space size      : {report['config']['space_size']}")
    lines.append(f"alphabet size   : {report['alphabet_size']}")
    lines.append(f"eps / eps'      : {report['eps']['num']}/{report['eps']['den']}"
                 f" / {report['eps_prime']['num']}/{report['eps_prime']['den']}")
    lines.append(f"good partition  : retries={report['good_partition']['retries']}")
    for fr in report["factors"]:
        lines.append(
            f"factor {fr['factor']}: tile side {fr['tile_side']} (|T|={fr['tile_size']}), "
            f"base {fr['base_size']}, columns {fr['column_count']}, "
            f"max defect {fr['max_column_defect']}"
        )
    wd = fin["weak_discrepancy"]
    lines.append(f"final discrepancy: {wd['num']}/{wd['den']} (~{wd['approx']:.6g})"
                 f" < eps: {fin['epsilon_ok']}")
    lines.append(f"orbit equivalence: {fin['orbit_equivalence']}")
    return "\n".join(lines)
