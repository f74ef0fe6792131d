"""The benchmark's output checks, run in-process at the tiny sizes: the
evolve-versus-lift bound, the Wick unitarity defect, the KMS margin and the
core certificates guard every change to the code the benchmark times."""

import importlib.util
import pathlib
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("seed", [7, 918273])
@pytest.mark.parametrize("name", sorted(workloads.TINY_SIZES))
def test_tiny_op_passes_its_check(name, seed):
    work = workloads.make_workload(name, True, ROOT)
    inp = work.make_input(np.random.default_rng([seed, 0]))
    quality = work.check(inp, work.run(inp))
    assert np.isfinite(quality)


def test_core_mix_op_skips_the_uncoupled_coordinates(monkeypatch):
    """Work by counts on the full-size core-mix op of seed [1, 0].  Each
    diagonal n=16, ||a|| = 100 pair has no coupled coordinate at s = 16: no
    partition call and no Jacobi run (before deflation: one partition, 8 and
    10 edge solves, 16 and 15 block solves).  The rotated n=64 pair makes 13
    edge solves and 29 Jacobi runs, edge and block, against 23 and 38 before
    deflation."""
    from nearcomm import jointdiag, pipeline, projections

    counts = {}

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args):
            counts[name] = counts.get(name, 0) + 1
            return original(*args)
        monkeypatch.setattr(module, name, counted)

    counting(pipeline, "partition")
    counting(projections, "commuting_approximation")
    counting(jointdiag, "joint_diagonalize")
    work = workloads.make_workload("core-mix", False, ROOT)
    inp = work.make_input(np.random.default_rng([1, 0]))
    seen = []
    for a, b, haar in inp:
        counts.clear()
        work.run(((a, b, haar),))
        seen.append((haar, dict(counts)))
    assert seen == [(True, {"partition": 1, "commuting_approximation": 13,
                            "joint_diagonalize": 29}),
                    (False, {}), (False, {})]
