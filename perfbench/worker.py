"""One benchmark process: cold set-up, seeded inputs, a closed loop of ops.

Started by run.py with BLAS pinned and `src` on the path; not meant to be
run by hand.  Prints one JSON line `{"ready": ...}` as soon as the process
can issue its first op (the launcher timestamps it for `setup_s`), and,
unless --setup-only, one `{"result": ...}` line when the run ends.

Untraced (--trace 0): after one untimed warm-up op, one client issues ops
back to back until the ops' summed wall time reaches --seconds; the output
checks and digest run outside each op's timed region.  Traced (--trace 1):
each of the first `traced_ops` inputs runs once untraced and once under the
tracer, so counts repeat exactly for a seed and the two sides give the
tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIGEST_OPS = 3      # the output digest covers this many leading ops


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _emit(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def cold_setup(workload: str, tiny: bool):
    """Import the package and build the lazy constants the workload needs."""
    t0 = time.perf_counter()
    import nearcomm
    t1 = time.perf_counter()
    nearcomm.build_mollifier()
    t2 = time.perf_counter()
    nearcomm.build_step()
    t3 = time.perf_counter()
    setup = {"import_s": t1 - t0, "build_mollifier_s": t2 - t1,
             "build_step_s": t3 - t2, "isometry_constant_s": 0.0}
    if workload == "labs":
        nearcomm.isometry_function_constant()
        setup["isometry_constant_s"] = time.perf_counter() - t3
    else:
        nearcomm.load_calibration()
    import workloads
    return workloads.make_workload(workload, tiny, ROOT), setup


def environment() -> dict:
    import numpy
    import scipy
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _run_op(work, inp):
    """Time one op; returns (seconds, result or None, failure text or None)."""
    start = time.perf_counter()
    try:
        result = work.run(inp)
    except Exception:      # an op that raises is a failed op; keep the loop going
        traceback.print_exc()
        return time.perf_counter() - start, None, traceback.format_exc(limit=1)
    return time.perf_counter() - start, result, None


def _check_op(work, inp, result):
    """Check an op's output; returns (quality or None, failure text or None)."""
    from workloads import OpFailed
    try:
        return work.check(inp, result), None
    except OpFailed as exc:
        return None, str(exc)


def untraced_run(work, inputs, seconds: float) -> dict:
    times, quality, failures = [], [], []
    digest = hashlib.sha256()
    # warm-up: fills the package's small caches before timing starts
    _run_op(work, inputs[-1])
    while not times or sum(times) < seconds:
        i = len(times)
        inp = inputs[i % len(inputs)]
        elapsed, result, failure = _run_op(work, inp)
        times.append(elapsed)
        if failure is None:
            q, failure = _check_op(work, inp, result)
        if failure is not None:
            failures.append(f"op {i}: {failure}")
            continue
        quality.append(q)
        if i < DIGEST_OPS:
            digest.update(work.digest(result))
    return {"op_times": times, "quality": quality, "failures": failures,
            "digest": digest.hexdigest(), "digest_ops": min(len(times), DIGEST_OPS)}


def traced_run(work, inputs, spans_path) -> dict:
    from tracing import Tracer, layer_metrics
    tracer = Tracer((work, "run", "op"), *work.trace_wraps())
    untraced = traced = 0.0
    failures = []
    # each input runs untraced, then traced, so that drift in machine speed
    # falls on both sides of trace.overhead_frac alike; checks run untraced
    for i, inp in enumerate(inputs):
        untraced += _run_op(work, inp)[0]
        with tracer:
            elapsed, result, failure = _run_op(work, inp)
        traced += elapsed
        if failure is None:
            failure = _check_op(work, inp, result)[1]
        if failure is not None:
            failures.append(f"op {i}: {failure}")
    metrics = layer_metrics(tracer.spans)
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    spans_path.parent.mkdir(exist_ok=True)
    tracer.dump(spans_path)
    return {"layers": metrics, "failures": failures, "ops": len(inputs),
            "unwrapped": tracer.missing, "spans_file": str(spans_path.relative_to(ROOT))}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    work, setup = cold_setup(args.workload, args.tiny)
    _emit({"ready": {"at": _now(), "setup": setup}})
    if args.setup_only:
        return 0

    import numpy as np
    count = work.size.traced_ops if args.trace else work.size.pool
    inputs = [work.make_input(np.random.default_rng([args.seed, i])) for i in range(count)]
    if args.trace:
        spans = ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.json"
        out = traced_run(work, inputs, spans)
    else:
        out = untraced_run(work, inputs, args.seconds)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = environment()
    _emit({"result": out})
    return 0


if __name__ == "__main__":
    sys.exit(main())
