"""orbitrewire benchmark: `run` + `verify` time, peak RSS and report size.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each run starts the workload in a
fresh worker process (``worker.py``) with numeric libraries pinned to one
thread, after sampling set-up time with a few set-up-only workers.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of the stage trace with ``--trace 1``.  Without the
package sources beside it, it exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
# on top of --seconds: set-up, the instance that crosses the deadline, exit
WORKER_GRACE_S = 100


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(args, extra: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and its set-up time (spawn until `ready`)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not finish set-up (exit code {proc.returncode})")
    return proc, setup


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "orbitrewire" / "__init__.py").is_file():
        print(f"no package sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    setups = []
    proc = None
    try:
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup = start_worker(args, ["--setup-only"])
            proc.communicate(timeout=60)
            setups.append(setup)
        proc = None
        proc, setup = start_worker(args, [])
        setups.append(setup)
        out, _ = proc.communicate(timeout=args.seconds + WORKER_GRACE_S)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        print(f"benchmark worker exited with code {proc.returncode}", file=sys.stderr)
        return proc.returncode
    raw = json.loads(out.strip().splitlines()[-1])
    metrics = raw["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}

    for line in raw["lines"]:
        print(line)
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": dict(sorted(metrics.items())),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
