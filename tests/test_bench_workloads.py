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
