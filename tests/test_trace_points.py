"""The benchmark's stage trace (``perfbench/stagetrace.py``) wraps package
attributes by name, and an attribute that a refactor renames or removes
makes its per-layer metric read 0 without an error.  These tests fail
instead: every ``(owner, attribute)`` the trace names must still exist, and
the spans a derived metric reads must keep their parents.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
from test_golden import CONFIGS

from orbitrewire.config import RunConfig
from orbitrewire.runner import execute

STAGETRACE = Path(__file__).resolve().parent.parent / "perfbench" / "stagetrace.py"


@pytest.fixture(scope="module")
def stagetrace():
    spec = importlib.util.spec_from_file_location("stagetrace_under_test", STAGETRACE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_trace_point_exists(stagetrace):
    gone = [f"{getattr(owner, '__name__', owner)}.{attr} ({name})"
            for owner, attr, name in stagetrace.TRACE_POINTS
            if attr not in owner.__dict__]
    assert not gone, "trace points without an attribute: " + ", ".join(gone)



def test_tile_candidates_are_box_tiles_of_tower_pair(stagetrace):
    # ``rewiring.tile_candidates`` counts the box_tile spans whose parent is
    # tower_pair: a search run outside tower_pair would make it read 0
    recorder = stagetrace.Recorder()
    recorder.install()
    try:
        execute(RunConfig.from_dict({**CONFIGS["rot-degenerate"], "seed": 3}))
    finally:
        recorder.uninstall()
    spans = recorder.spans
    parents = [spans[s.parent].name if s.parent >= 0 else None
               for s in spans if s.name == "groups.box_tile"]
    assert parents and set(parents) == {"rewiring.tower_pair"}
