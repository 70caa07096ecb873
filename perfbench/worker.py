"""Run one workload in this process and print its raw results as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Started by ``run.py`` in a fresh process per run, so that the peak RSS it
reports belongs to this workload alone.  After set-up it prints ``ready``;
then it runs instances until ``--seconds`` would be exceeded and prints one
JSON object as its last line.  One instance does what ``orbitrewire run``
and ``orbitrewire verify`` do: ``runner.execute``,
``runner.write_report_files`` and ``runner.verify_report_file``.

With ``--trace 1`` every instance seed runs twice, once plain and once with
the stage trace installed, in alternating order; the plain runs give the
tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from orbitrewire import runner
from orbitrewire.config import RunConfig
from orbitrewire.errors import OrbitRewireError

import stagetrace
from workloads import WORKLOADS, RegimeError, Workload, instance_seeds

ROOT = Path(__file__).resolve().parent.parent
E2E_UNITS = {"run_s": "s", "verify_s": "s", "peak_rss_mb": "MB",
             "report_bytes": "bytes", "certified_frac": "ratio"}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_instance(workload: Workload, seed: int, out_dir: Path) -> dict:
    """One `run` + `verify` with the correctness gate; returns its record.

    A coded pipeline error or a failed gate makes the instance failed.  An
    instance outside the workload's regime raises ``RegimeError``.
    """
    config = RunConfig.from_dict(workload.config(seed))
    rec: dict = {"seed": seed}
    try:
        t0 = time.perf_counter()
        _, report = runner.execute(config)
        json_path, csv_path = runner.write_report_files(report, out_dir)
        t1 = time.perf_counter()
        verified = runner.verify_report_file(json_path)
        t2 = time.perf_counter()
    except OrbitRewireError as exc:
        rec["error"] = str(exc)
        return rec
    workload.guard(report)
    final = report["final"]
    wd = Fraction(final["weak_discrepancy"]["num"], final["weak_discrepancy"]["den"])
    problems = []
    if verified is not True:
        problems.append("verify_report_file did not return True")
    if not wd < config.epsilon:
        problems.append(f"final weak discrepancy {wd} not below eps {config.epsilon}")
    if final["orbit_equivalence"] is not True:
        problems.append("orbit_equivalence is not true")
    if problems:
        rec["error"] = "; ".join(problems)
    rec.update(
        run_s=t1 - t0,
        verify_s=t2 - t1,
        report_bytes=json_path.stat().st_size,
        report_sha256=_sha256(json_path),
        summary_sha256=_sha256(csv_path),
        retries=report["good_partition"]["retries"],
        factors=[{key: fr[key] for key in ("tile_side", "base_size", "column_count")}
                 for fr in report["factors"]],
    )
    return rec


def describe(rec: dict, traced: bool = False) -> str:
    head = f"instance seed={rec['seed']}{' traced' if traced else ''}"
    if "run_s" not in rec:
        return f"{head} FAILED: {rec['error']}"
    regime = " ".join(f"f{k}:side={fr['tile_side']},base={fr['base_size']},"
                      f"columns={fr['column_count']}" for k, fr in enumerate(rec["factors"]))
    status = f" FAILED: {rec['error']}" if "error" in rec else ""
    return (f"{head} run_s={rec['run_s']:.4f} verify_s={rec['verify_s']:.4f} "
            f"report_bytes={rec['report_bytes']} {regime} "
            f"report_sha256={rec['report_sha256']} summary_sha256={rec['summary_sha256']}"
            f"{status}")


def timing_line(name: str, values: list[float]) -> str:
    """Median, quartiles, and the highest percentile with ten samples above it."""
    v = sorted(values)
    q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
    tail = f"max {v[-1]:.4f} s"
    if len(v) >= 20:
        p = 100 * (len(v) - 10) // len(v)
        tail = f"p{p} {statistics.quantiles(v, n=100)[p - 1]:.4f} s, {tail}"
    return (f"{name}: median {q[1]:.4f} s, quartiles {q[0]:.4f}-{q[2]:.4f} s, "
            f"{tail}, n={len(v)}")


def plain_metrics(records: list[dict]) -> dict:
    done = [r for r in records if "run_s" in r]
    ok = [r for r in records if "error" not in r]
    return {
        "run_s": statistics.median(r["run_s"] for r in done),
        "verify_s": statistics.median(r["verify_s"] for r in done),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "report_bytes": statistics.median(r["report_bytes"] for r in done),
        "certified_frac": len(ok) / len(records),
    }


def traced_metrics(plain: list[dict], traced: list[dict], recorder) -> dict:
    per = stagetrace.instance_metrics(
        recorder.spans, {i: r for i, r in enumerate(traced) if "error" not in r})
    names = stagetrace.layer_metric_names()
    out = {name: statistics.fmean(m[name] for m in per.values())
           for name in names if name != "trace.overhead_frac"}
    pairs = [(p, t) for p, t in zip(plain, traced) if "run_s" in p and "run_s" in t]
    out["trace.overhead_frac"] = (
        sum(t["run_s"] for _, t in pairs) / sum(p["run_s"] for p, _ in pairs) - 1)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up (used to sample set-up time)")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    seeds = instance_seeds(args.seed)
    first = next(seeds)
    RunConfig.from_dict(workload.config(first))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    out_root = ROOT / ".perfbench_out" / str(os.getpid())
    deadline = time.perf_counter() + args.seconds
    plain: list[dict] = []
    traced: list[dict] = []
    recorder = stagetrace.Recorder()
    took: list[float] = []
    seed = first
    try:
        while True:
            t = time.perf_counter()
            out_dir = out_root / str(len(took))
            if not args.trace:
                plain.append(run_instance(workload, seed, out_dir))
            else:
                order = (False, True) if len(took) % 2 == 0 else (True, False)
                for with_trace in order:
                    if with_trace:
                        recorder.instance = len(traced)
                        recorder.install()
                        try:
                            traced.append(run_instance(workload, seed, out_dir / "t"))
                        finally:
                            recorder.uninstall()
                    else:
                        plain.append(run_instance(workload, seed, out_dir / "p"))
            shutil.rmtree(out_dir, ignore_errors=True)
            took.append(time.perf_counter() - t)
            if time.perf_counter() + statistics.median(took) > deadline:
                break
            seed = next(seeds)
    except RegimeError as exc:
        print(f"{args.workload}: regime guard: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        try:
            out_root.parent.rmdir()
        except OSError:  # another worker still writes there
            pass

    records = plain + traced
    done = [r for r in plain if "run_s" in r]
    if not done or (args.trace and all("error" in r for r in traced)):
        for r in records:
            print(describe(r), file=sys.stderr)
        print(f"{args.workload}: every instance failed", file=sys.stderr)
        return 1
    lines = [describe(r) for r in plain] + [describe(r, True) for r in traced]
    lines.append(timing_line("run_s", [r["run_s"] for r in done]))
    lines.append(timing_line("verify_s", [r["verify_s"] for r in done]))
    digest = hashlib.sha256()
    for r in done:
        digest.update(f"{r['seed']}:{r['report_sha256']}:{r['summary_sha256']}\n".encode())
    lines.append(f"outputs_sha256={digest.hexdigest()} over {len(done)} instances")
    metrics = traced_metrics(plain, traced, recorder) if args.trace else plain_metrics(plain)
    print(json.dumps({
        "attempted": len(records),
        "failed": sum(1 for r in records if "error" in r),
        "metrics": {name: {"value": value,
                           "unit": E2E_UNITS.get(name) or stagetrace.metric_unit(name)}
                    for name, value in metrics.items()},
        "lines": lines,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
