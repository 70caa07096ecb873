"""Command line interface: generate configs, run, verify, and render reports.

Exit codes: 0 success; 1 pipeline stage failure (stage tag printed) or a
report that fails verification; 2 config errors: a config or report that
cannot be read (missing path, directory, invalid UTF-8 or JSON), fails
validation, has another report schema or lacks the fields a run writes, a
report whose witness is not a well-formed packed permutation (not a base64
string, another length than the space size, an entry outside the space, no
bijection), or an eps' too fine for exact int64 arithmetic at the space
size (EXACT_RANGE_EXCEEDED).  A well-formed witness that does not reproduce
the report's discrepancy or orbit equivalence fails verification (exit 1).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import RunConfig
from .errors import ConfigError, OrbitRewireError
from .runner import (execute, load_report, render_summary, summary_csv_bytes,
                     verify_report_file, write_report_files)

SCENARIOS = {
    "two-rotations": {
        "description": "Z * Z via two rotations each, parity target sets",
        "alpha": [{"name": "rotation", "step": 1}, {"name": "rotation", "step": 3}],
        "beta": [{"name": "rotation", "step": 1}, {"name": "rotation", "step": 7}],
        "window": [[[1]], [[1]]],
        "target_sets": [
            {"type": "residue", "modulus": 2, "residues": [0]},
            {"type": "residue", "modulus": 8, "residues": [0, 1, 2, 3]},
        ],
    },
    "interval-sets": {
        "description": "Z * Z rotations with one interval and one residue set",
        "alpha": [{"name": "rotation", "step": 1}, {"name": "rotation", "step": 3}],
        "beta": [{"name": "rotation", "step": 1}, {"name": "rotation", "step": 7}],
        "window": [[[1]], [[1]]],
        "target_sets": [
            {"type": "interval", "start": 0, "length_fraction_of_n": 2},
            {"type": "residue", "modulus": 2, "residues": [0]},
        ],
    },
}


def _build_config_dict(scenario: str, space_size: int, epsilon: str, seed: int) -> dict:
    if scenario not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {scenario!r}; available: {sorted(SCENARIOS)}"
        )
    base = SCENARIOS[scenario]
    target_sets = []
    for d in base["target_sets"]:
        d = dict(d)
        if "length_fraction_of_n" in d:
            d["length"] = space_size // d.pop("length_fraction_of_n")
        target_sets.append(d)
    return {
        "space_size": space_size,
        "epsilon": epsilon,
        "seed": seed,
        "alpha": base["alpha"],
        "beta": base["beta"],
        "window": base["window"],
        "target_sets": target_sets,
    }


def _apply_overrides(data: dict, args: argparse.Namespace) -> dict:
    if args.seed is not None:
        data["seed"] = args.seed
    if args.epsilon is not None:
        data["epsilon"] = args.epsilon
    if args.space_size is not None:
        data["space_size"] = args.space_size
    if args.override_eps_prime is not None:
        data["eps_prime_override"] = args.override_eps_prime
    if args.max_retries is not None:
        data["max_retries"] = args.max_retries
    return data


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="orbitrewire",
        description="Orbit-equivalence rewiring simulator for free products "
                    "of abelian group actions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a config file from a named scenario")
    p_gen.add_argument("--scenario", default="two-rotations",
                       choices=sorted(SCENARIOS), help="instance family")
    p_gen.add_argument("--space-size", type=int, default=100_000)
    p_gen.add_argument("--epsilon", default="1/5")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="config file path to write")

    p_run = sub.add_parser("run", help="execute a config and write reports")
    p_run.add_argument("config", help="config JSON path")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--epsilon", default=None)
    p_run.add_argument("--space-size", type=int, default=None)
    p_run.add_argument("--override-eps-prime", default=None)
    p_run.add_argument("--max-retries", type=int, default=None)
    p_run.add_argument("--out", default=None,
                       help="output directory (default: alongside the config)")

    p_ver = sub.add_parser("verify", help="re-check a serialized run report")
    p_ver.add_argument("report", help="report.json path")

    p_rep = sub.add_parser("report", help="render a report summary")
    p_rep.add_argument("report", help="report.json path")
    p_rep.add_argument("--csv", default=None, help="also write the summary CSV here")

    args = parser.parse_args(argv)

    try:
        if args.command == "generate":
            data = _build_config_dict(args.scenario, args.space_size, args.epsilon,
                                      args.seed)
            RunConfig.from_dict(data)  # validate before writing
            out = Path(args.out)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
            print(f"wrote {out}")
            return 0

        if args.command == "run":
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ConfigError("config must be a JSON object")
            data = _apply_overrides(data, args)
            config = RunConfig.from_dict(data)
            out_dir = Path(args.out) if args.out else Path(args.config).parent
            _, report = execute(config)
            json_path, csv_path = write_report_files(report, out_dir)
            print(render_summary(report))
            print(f"wrote {json_path} and {csv_path}")
            return 0

        if args.command == "verify":
            ok = verify_report_file(args.report)
            print("verification passed" if ok else "verification FAILED")
            return 0 if ok else 1

        if args.command == "report":
            report = load_report(args.report)
            print(render_summary(report))
            if args.csv:
                Path(args.csv).write_bytes(summary_csv_bytes(report))
                print(f"wrote {args.csv}")
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"config error: invalid JSON: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OrbitRewireError as exc:
        print(f"pipeline failure: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
