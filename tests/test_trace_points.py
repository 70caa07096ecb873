"""The benchmark's stage trace (``perfbench/stagetrace.py``) wraps package
attributes by name, and an attribute that a refactor renames or removes
makes its per-layer metric read 0 without an error.  This test fails
instead: every ``(owner, attribute)`` the trace names must still exist.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

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

