"""The traced benchmark run wraps package functions by name; a refactor
that renames or drops one would silently remove a layer from its report."""

import importlib.util
import inspect
import pathlib
import sys

import numpy as np
import pytest

from nearcomm import projections

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_wrap_target_resolves():
    tracing = load_perfbench("tracing")
    with tracing.Tracer() as tracer:
        pass
    assert tracer.missing == []
    assert len(tracing.WRAPS) > 0


def test_window_core_takes_cut_point_fourth():
    # the edge span names its cut point from the 4th positional argument
    assert list(inspect.signature(projections._window_core).parameters)[3] == "t"


@pytest.fixture(scope="module")
def core_op_spans():
    """Spans of one traced full-size core-mix op.  The tiny op deflates
    almost every coordinate and makes no edge solve to trace."""
    workloads = load_perfbench("workloads")
    work = workloads.make_workload("core-mix", False, ROOT)
    inp = work.make_input(np.random.default_rng([7, 0]))
    with load_perfbench("tracing").Tracer() as tracer:
        work.run(inp)
    return tracer.spans


def test_traced_core_op_records_edge_solves(core_op_spans):
    # the per-layer edge metrics read the sweeps of the wrapped edge solve;
    # an edge built without calling it would read zero
    edges = [s for s in core_op_spans if s[0] == "jointdiag.edge"]
    assert edges and all("sweeps" in (s[4] or {}) for s in edges)


def test_traced_core_op_checks_each_correction_once(core_op_spans):
    # the tridiagonal layer metrics read this span: one per correction,
    # inside it; a check that bypassed the module attribute would read zero
    corrections = [i for i, s in enumerate(core_op_spans)
                   if s[0] == "pipeline.theorem_c_correct"]
    parents = [s[3] for s in core_op_spans if s[0] == "pipeline.tridiagonal_check"]
    assert corrections and parents == corrections


def test_traced_edges_name_their_cut_points(core_op_spans):
    # projections.edges counts distinct t per partition span; t must be the
    # integer cut point, rising edge by edge, not eps or the spectral scale
    by_partition: dict = {}
    for name, _, _, parent, attrs in core_op_spans:
        if name == "projections.window_core":
            assert core_op_spans[parent][0] == "projections.partition"
            by_partition.setdefault(parent, []).append(attrs["t"])
    assert by_partition
    for ts in by_partition.values():
        assert all(isinstance(t, float) and t == int(t) for t in ts)
        assert all(lo < hi for lo, hi in zip(ts, ts[1:]))


def test_traced_labs_op_records_kms_and_wick_spans():
    # the labs per-layer metrics read these spans; a call that bypasses the
    # module attribute would read zero
    workloads = load_perfbench("workloads")
    work = workloads.make_workload("labs", True, ROOT)
    inp = work.make_input(np.random.default_rng([7, 0]))
    with load_perfbench("tracing").Tracer() as tracer:
        work.run(inp)
    names = [s[0] for s in tracer.spans]
    assert names.count("kms.theorem_b_inequality") == len(inp.kms_instances)
    assert names.count("car.wick_unitary") == 1
