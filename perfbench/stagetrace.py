"""Outside-in stage trace: spans recorded around orbitrewire's public calls.

``Recorder.install`` replaces the module attributes that ``runner``,
``rewiring`` and ``rohlin`` call through, and a few public methods, with
wrappers that record one span per call: name, parent span, start, end and
the instance it belongs to.  Spans stay in memory until the run ends.
Nothing in the package itself changes; ``uninstall`` puts the originals back.

A span's self time is its duration minus the durations of its direct
children.  Calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

from orbitrewire import actions, rewiring, rohlin, runner, space

# (owner, attribute, span name).  Module attributes are the names the caller
# looks up at call time, so each caller module is listed where it calls.
TRACE_POINTS = [
    (runner, "execute", "runner.execute"),
    (runner, "write_report_files", "runner.write_report_files"),
    (runner, "verify_report_file", "runner.verify_report_file"),
    (runner, "generate_system", "generate.system"),
    (runner, "freeness_defect", "actions.freeness_defect"),
    (runner, "oe_approximate", "rewiring.oe_approximate"),
    (runner, "build_report", "runner.build_report"),
    (runner, "_verify_report_payload", "runner.verify_payload"),
    (runner, "report_json_bytes", "runner.encode"),
    (runner, "weak_discrepancy", "actions.weak_discrepancy"),
    (runner, "verify_orbit_equivalence", "rewiring.orbit_check"),
    (rewiring, "generated_partition", "space.generated_partition"),
    (rewiring, "good_partition", "goodpart.good_partition"),
    (rewiring, "match_labels_conjugator", "rewiring.conjugator"),
    (rewiring, "tower_pair", "rewiring.tower_pair"),
    (rewiring, "box_tile", "groups.box_tile"),
    (rewiring, "orbit_alignment", "rohlin.orbit_alignment"),
    (rewiring, "rohlin_avoiding", "rohlin.rohlin_avoiding"),
    (rewiring, "column_partitions", "rewiring.columns"),
    (rewiring, "tile_matching", "rewiring.matching"),
    (rewiring, "build_rewiring", "rewiring.build_rewiring"),
    (rewiring, "discrepancy_budget", "rewiring.budget"),
    (rewiring, "weak_discrepancy", "actions.weak_discrepancy"),
    (rewiring, "verify_orbit_equivalence", "rewiring.orbit_check"),
    (rohlin, "orbit_alignment", "rohlin.orbit_alignment"),
    (rohlin, "tiling_base", "rohlin.tiling_base"),
    (rohlin, "tower_support", "rohlin.tower_support"),
    (actions.CycleChart, "__init__", "actions.chart_build"),
    (actions.FactorAction, "conjugate", "actions.conjugate"),
    (actions.FactorAction, "tile_images", "actions.tile_images"),
    (space.Permutation, "__init__", "space.permutation_build"),
]

# per-layer metric -> (statistic, span name); "self" and "total" are seconds
SPAN_METRICS = {
    "generate.system_s": ("total", "generate.system"),
    "actions.chart_build_s": ("self", "actions.chart_build"),
    "actions.chart_builds": ("count", "actions.chart_build"),
    "actions.conjugate_s": ("self", "actions.conjugate"),
    "actions.tile_images_calls": ("count", "actions.tile_images"),
    "actions.tile_images_s": ("self", "actions.tile_images"),
    "actions.weak_discrepancy_s": ("self", "actions.weak_discrepancy"),
    "actions.freeness_defect_s": ("self", "actions.freeness_defect"),
    "space.generated_partition_s": ("self", "space.generated_partition"),
    "space.permutation_builds": ("count", "space.permutation_build"),
    "space.permutation_build_s": ("self", "space.permutation_build"),
    "goodpart.good_partition_s": ("self", "goodpart.good_partition"),
    "rewiring.oe_approximate_s": ("total", "rewiring.oe_approximate"),
    "rewiring.conjugator_s": ("self", "rewiring.conjugator"),
    "rewiring.tower_pair_s": ("self", "rewiring.tower_pair"),
    "rewiring.columns_s": ("self", "rewiring.columns"),
    "rewiring.matching_s": ("self", "rewiring.matching"),
    "rewiring.build_rewiring_s": ("self", "rewiring.build_rewiring"),
    "rewiring.budget_s": ("self", "rewiring.budget"),
    "rewiring.orbit_check_s": ("self", "rewiring.orbit_check"),
    "rohlin.orbit_alignment_s": ("self", "rohlin.orbit_alignment"),
    "rohlin.rohlin_avoiding_s": ("self", "rohlin.rohlin_avoiding"),
    "rohlin.tiling_base_s": ("self", "rohlin.tiling_base"),
    "rohlin.tower_support_s": ("self", "rohlin.tower_support"),
    "rohlin.tower_support_calls": ("count", "rohlin.tower_support"),
    "runner.build_report_s": ("self", "runner.build_report"),
    "runner.encode_s": ("self", "runner.encode"),
    "runner.verify_parse_s": ("self", "runner.verify_report_file"),
}

# metrics read from each instance's report, per factor
REPORT_METRICS = ("column_count", "base_size")
FACTORS = 2


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def layer_metric_names() -> list[str]:
    names = list(SPAN_METRICS)
    names += ["goodpart.retries", "rewiring.tile_candidates",
              "rewiring.tile_accept_ratio", "runner.self_verify_s",
              "trace.overhead_frac"]
    names += [f"rewiring.{key}.f{i}" for key in REPORT_METRICS for i in range(FACTORS)]
    return names


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float
    instance: int


class Recorder:
    """Collects spans from wrapped calls; one recorder per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.instance = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = Span(name, stack[-1] if stack else -1, clock(), 0.0, self.instance)
            spans.append(span)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()

        return traced

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        self.missing = []
        for owner, attr, name in TRACE_POINTS:
            orig = owner.__dict__.get(attr)
            if orig is None:
                # a later refactor removed the call site; its metrics read 0
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            if id(orig) not in wrapped:
                wrapped[id(orig)] = self._wrap(orig, name)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, wrapped[id(orig)])
        if self.missing and self.instance <= 0:
            print(f"trace: not recorded, attributes gone: {self.missing}", file=sys.stderr)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()


def self_times(spans: list[Span]) -> list[float]:
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def instance_metrics(spans: list[Span], records: dict[int, dict]) -> dict[int, dict]:
    """Per-layer metrics of each traced instance, from its spans and record.

    A record carries the instance's deterministic report counters:
    ``retries`` and, per factor, ``column_count`` and ``base_size``.
    """
    selfs = self_times(spans)
    stats: dict[int, dict] = {i: defaultdict(float) for i in records}
    for s, own in zip(spans, selfs):
        if s.instance not in stats:
            continue
        stat = stats[s.instance]
        stat["count", s.name] += 1
        stat["self", s.name] += own
        # a recursive call would count twice in "total"; none of the traced
        # functions calls itself
        stat["total", s.name] += s.end - s.start
        parent = spans[s.parent].name if s.parent >= 0 else None
        if s.name == "groups.box_tile" and parent == "rewiring.tower_pair":
            stat["count", "tile_candidate"] += 1
        if s.name == "runner.verify_payload" and parent == "runner.execute":
            stat["total", "self_verify"] += s.end - s.start
    out = {}
    for i, record in records.items():
        stat = stats[i]
        m = {key: stat[kind, name] for key, (kind, name) in SPAN_METRICS.items()}
        candidates = stat["count", "tile_candidate"]
        m["rewiring.tile_candidates"] = candidates
        m["rewiring.tile_accept_ratio"] = (
            stat["count", "rewiring.tower_pair"] / candidates if candidates else 0.0)
        m["runner.self_verify_s"] = stat["total", "self_verify"]
        m["goodpart.retries"] = record["retries"]
        for k, fr in enumerate(record["factors"]):
            for key in REPORT_METRICS:
                m[f"rewiring.{key}.f{k}"] = fr[key]
        out[i] = m
    return out
