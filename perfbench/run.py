"""nearcomm benchmark launcher.

    python3 perfbench/run.py --workload core-mix --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55

Runs from the root of a source checkout and imports the package from its
`src`.  Each workload runs in fresh processes (see worker.py) with BLAS
pinned to one thread, because a second OpenBLAS thread made the n=64
corrections slower on a 2-core machine.  `setup_s` is the median, over
SETUP_SAMPLES fresh processes, of the wall time from process start until
the first op could be issued.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics of a separate traced run with
--trace 1.  The line before it records what the result alone does not
show: the failure fraction, the tail percentile and its sample counts,
the output digest, the environment, and the held-out seed.
`--workload all` runs both workloads untraced and prints a table.

Exits non-zero without a result when the package source is missing or a
process fails or overruns.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("core-mix", "labs")
SETUP_SAMPLES = 3
HELD_OUT_SEED = 918273   # later claims must also hold on this seed
DEADLINE_S = 170.0
# Tail percentile per workload: the highest whole percentile that leaves
# at least ten ops beyond it in a 55 s run at this commit's speed, even in
# the slowest phases measured on a shared 2-core machine.  Kept
# fixed so that a faster change is compared at the same percentile.
TAIL_PERCENTILE = {"core-mix": 55, "labs": 97}
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _with_units(values: dict, spec_metrics: list) -> dict:
    """The metrics BENCHMARK.json names, in its order and with its units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


class Launcher:
    def __init__(self, seconds: float, tiny: bool, budget_s: float):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.deadline = _now() + budget_s
        self.seconds = seconds
        self.tiny = tiny
        self.env = dict(os.environ, **PINNED)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")

    def _process(self, *flags):
        """Run one worker process; returns (setup seconds, set-up breakdown, result)."""
        cmd = [sys.executable, str(HERE / "worker.py"), *flags]
        if self.tiny:
            cmd.append("--tiny")
        remaining = self.deadline - _now()
        if remaining <= 0:
            raise BenchError("out of time before starting a process")
        started = _now()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"process overran the deadline: {' '.join(cmd)}") from exc
        if proc.returncode != 0:
            raise BenchError(f"process exited with {proc.returncode}: {' '.join(cmd)}")
        records = {}
        for line in proc.stdout.splitlines():
            if line.startswith("{"):
                records.update(json.loads(line))
        if "ready" not in records:
            raise BenchError(f"process never became ready: {' '.join(cmd)}")
        ready = records["ready"]
        return ready["at"] - started, ready["setup"], records.get("result")

    def run(self, workload: str, seed: int, trace: bool):
        flags = ["--workload", workload, "--seed", str(seed),
                 "--seconds", repr(self.seconds), "--trace", str(int(trace))]
        setup_s, setup, result = self._process(*flags)
        setup_times, setups = [setup_s], [setup]
        for _ in range(1 if self.tiny else SETUP_SAMPLES - 1):
            setup_s, setup, _ = self._process("--workload", workload, "--seed", str(seed),
                                              "--setup-only")
            setup_times.append(setup_s)
            setups.append(setup)
        detail = {"workload": workload, "seed": seed, "held_out_seed": HELD_OUT_SEED,
                  "git_commit": _git_commit(), "env": result.pop("env"),
                  "setup_samples_s": setup_times}
        if trace:
            values = {f"setup.{key}": statistics.median(s[key] for s in setups)
                      for key in setups[0]}
            values.update(result["layers"])
            metrics = _with_units(values, self.spec["per_layer"])
            detail.update(traced_ops=result["ops"], unwrapped=result["unwrapped"],
                          spans_file=result["spans_file"])
            attempted = result["ops"]
        else:
            values, extra = end_to_end(workload, result, setup_times)
            metrics = _with_units(values, self.spec["end_to_end"])
            detail.update(extra)
            attempted = len(result["op_times"])
        failed = len(result["failures"])
        detail["failed_frac"] = failed / attempted
        detail["failures"] = result["failures"][:5]
        return detail, {"correct": failed == 0, "attempted": attempted, "failed": failed,
                        "metrics": metrics}


def end_to_end(workload: str, result: dict, setup_times) -> tuple[dict, dict]:
    times = result["op_times"]
    if not result["quality"]:
        raise BenchError(f"no op passed its output check; first failure: {result['failures'][0]}")
    pct = TAIL_PERCENTILE[workload]
    tail = (statistics.quantiles(times, n=100, method="inclusive")[pct - 1]
            if len(times) > 1 else times[0])
    values = {
        "ops_per_s": len(times) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": result["peak_rss_mb"],
        "dist_median": statistics.median(result["quality"]),
    }
    extra = {"ops": len(times), "op_tail_percentile": pct,
             "op_tail_beyond": sum(1 for t in times if t > tail),
             "digest": result["digest"], "digest_ops": result["digest_ops"]}
    return values, extra


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="nearcomm benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small sizes and one set-up sample, for the smoke test")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "nearcomm" / "__init__.py").is_file():
        print(f"benchmark: no package source at {ROOT / 'src' / 'nearcomm'}", file=sys.stderr)
        return 2
    budget = DEADLINE_S * (len(WORKLOADS) if args.workload == "all" else 1)
    launcher = Launcher(args.seconds, args.tiny, budget)
    try:
        if args.workload == "all":
            return run_all(launcher, args.seed)
        detail, out = launcher.run(args.workload, args.seed, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps(out))
    return 0


def run_all(launcher: Launcher, seed: int) -> int:
    rows = {}
    for workload in WORKLOADS:
        detail, out = launcher.run(workload, seed, trace=False)
        print(json.dumps({"detail": detail}))
        rows[workload] = (detail, out)
    units = [(m["name"], m["unit"]) for m in launcher.spec["end_to_end"]]
    print(f"{'metric':<14}{'unit':<6}" + "".join(f"{w:>16}" for w in WORKLOADS))
    for name, unit in units + [("failed_frac", "1")]:
        cells = []
        for w in WORKLOADS:
            detail, out = rows[w]
            value = detail[name] if name == "failed_frac" else out["metrics"][name]["value"]
            cells.append(f"{value:>16.6g}")
        print(f"{name:<14}{unit:<6}" + "".join(cells))
    return 0 if all(out["correct"] for _, out in rows.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
