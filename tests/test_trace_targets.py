"""The traced benchmark run wraps package functions by name; a refactor
that renames or drops one would silently remove a layer from its report."""

import importlib.util
import inspect
import pathlib

from nearcomm import projections

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_target_resolves():
    tracing = load_tracing()
    with tracing.Tracer() as tracer:
        pass
    assert tracer.missing == []
    assert len(tracing.WRAPS) > 0


def test_window_core_takes_cut_point_fourth():
    # the edge span names its cut point from the 4th positional argument
    assert list(inspect.signature(projections._window_core).parameters)[3] == "t"
