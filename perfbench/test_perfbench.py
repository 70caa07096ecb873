"""Self-test of the benchmark.

    python3 -m pytest -q perfbench

Runs a tiny version of each workload through the traced path and checks
that every per-layer metric named in BENCHMARK.json is emitted, that the
spans nest, and that self times add up to durations.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import stagetrace  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, RegimeError  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    layer = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert layer == {n: stagetrace.metric_unit(n) for n in stagetrace.layer_metric_names()}
    e2e = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert e2e == {"setup_s": "s", **worker.E2E_UNITS}


def _check_span_tree(spans: list[stagetrace.Span]) -> None:
    selfs = stagetrace.self_times(spans)
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        assert s.start <= s.end
        if s.parent >= 0:
            p = spans[s.parent]
            assert p.start <= s.start and s.end <= p.end, (p.name, s.name)
            children.setdefault(s.parent, []).append(i)
    for i, s in enumerate(spans):
        kids = children.get(i, [])
        for a, b in zip(kids, kids[1:]):
            assert spans[a].end <= spans[b].start
        assert selfs[i] >= -1e-9, s.name
        duration = s.end - s.start
        assert selfs[i] + sum(spans[k].end - spans[k].start for k in kids) == pytest.approx(duration)
    # self times of a whole subtree add up to its root's duration
    subtree = list(selfs)
    for i in range(len(spans) - 1, -1, -1):
        if spans[i].parent >= 0:
            subtree[spans[i].parent] += subtree[i]
    for i, s in enumerate(spans):
        assert subtree[i] == pytest.approx(s.end - s.start, abs=1e-9)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_tiny_workload(name, tmp_path):
    tiny = dataclasses.replace(WORKLOADS[name], config=WORKLOADS[name].tiny_config,
                               guard=lambda report: None)
    recorder = stagetrace.Recorder()
    recorder.instance = 0
    recorder.install()
    try:
        rec = worker.run_instance(tiny, 3, tmp_path)
    finally:
        recorder.uninstall()
    assert "error" not in rec, rec.get("error")
    assert not recorder.missing
    seen = {s.name for s in recorder.spans}
    assert seen == {name for _, _, name in stagetrace.TRACE_POINTS}
    _check_span_tree(recorder.spans)
    metrics = stagetrace.instance_metrics(recorder.spans, {0: rec})[0]
    expected = set(stagetrace.layer_metric_names()) - {"trace.overhead_frac"}
    assert set(metrics) == expected
    assert metrics["rewiring.tile_candidates"] >= 2
    assert 0 < metrics["rewiring.tile_accept_ratio"] <= 1
    assert metrics["runner.self_verify_s"] > 0


def test_uninstall_restores_originals():
    before = [owner.__dict__[attr] for owner, attr, _ in stagetrace.TRACE_POINTS]
    recorder = stagetrace.Recorder()
    recorder.install()
    assert any(owner.__dict__[attr] is not orig for (owner, attr, _), orig
               in zip(stagetrace.TRACE_POINTS, before))
    recorder.uninstall()
    assert [owner.__dict__[attr] for owner, attr, _ in stagetrace.TRACE_POINTS] == before


def _report(columns: list[int], alpha0: dict) -> dict:
    return {"config": {"alpha": [alpha0, {"name": "rotation", "step": 3}]},
            "factors": [{"factor": i, "column_count": c} for i, c in enumerate(columns)]}


def test_regime_guards():
    rot = {"name": "rotation", "step": 1}
    grid = {"name": "grid_shift", "dims": [320, 320]}
    WORKLOADS["rot-degenerate"].guard(_report([1, 2], rot))
    WORKLOADS["rot-many-column"].guard(_report([150, 240], rot))
    WORKLOADS["grid-mixed"].guard(_report([4, 40], grid))
    for name, report in (("rot-degenerate", _report([1, 3], rot)),
                         ("rot-many-column", _report([150, 40], rot)),
                         ("grid-mixed", _report([1, 40], grid)),
                         ("grid-mixed", _report([4, 40], rot))):
        with pytest.raises(RegimeError):
            WORKLOADS[name].guard(report)


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rot-degenerate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
