"""Command-line interface: corrections, sweeps, KMS and measure-path runs.

Every command writes machine-readable output (JSON or CSV) that embeds the
resolved configuration and the kernel constants in use, so a result file is
reproducible from its own header.  Exit codes: 0 success, 2 for a flagged
result (out-of-regime input, violated inequality, excessive drift), 1 for
errors, usage errors included.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import calibration, kms, measurepath, pipeline
from .errors import DegenerateMeasure, NearcommError
from .kernels import build_mollifier, build_step
from .serialize import csv_text, dump_json, fmt_float, hermitian_from_json, load_json

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FLAGGED = 2

DRIFT_LIMIT = 1e-9
KMS_TOL = 1e-8

_COMMANDS = ("correct", "sweep", "kms", "car-path", "calibrate")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; unknown keys are rejected at construction."""

    command: str
    input_path: str | None = None
    output_path: str | None = None
    seed: int = 20240915
    eps: float | None = None
    nu: float | None = None
    c: float = 1.0
    dims: tuple = ()
    nu_targets: tuple = ()
    trials: int = 1
    timings: bool = False

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command '{self.command}'")
        if self.eps is not None and not 0 < self.eps < math.inf:
            raise ValueError(f"eps must be finite and positive, got {self.eps}")
        if not math.isfinite(self.c):
            raise ValueError(f"c must be finite, got {self.c}")
        if self.nu is not None and not 0 <= self.nu < math.inf:
            raise ValueError(f"nu must be finite and nonnegative, got {self.nu}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if any(int(d) < 1 for d in self.dims):
            raise ValueError(f"dims must be positive integers, got {self.dims}")
        if not all(0 <= t < math.inf for t in self.nu_targets):
            raise ValueError(
                f"nu_targets must be finite and nonnegative, got {self.nu_targets}")
        if self.command == "kms" and self.c == 0:
            raise ValueError("c must be nonzero for the kms command")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(mapping) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        coerced = dict(mapping)
        for key in ("dims", "nu_targets"):
            if key in coerced and coerced[key] is not None:
                coerced[key] = tuple(coerced[key])
        return cls(**coerced)

    def to_payload(self) -> dict:
        out = dataclasses.asdict(self)
        out["dims"] = list(self.dims)
        out["nu_targets"] = list(self.nu_targets)
        return out

    def embed_payload(self) -> dict:
        """Config as embedded in outputs: the output destination is omitted
        so identical runs written to different paths produce byte-identical
        files."""
        out = self.to_payload()
        del out["output_path"]
        return out


def _constants_payload() -> dict:
    return {"k1": build_mollifier().k1, "c_const": build_step().c_const}


def _write_csv(config: RunConfig, text: str) -> None:
    """Write CSV text to the output path behind '# config' and '# constants' lines."""
    cfg = json.dumps(config.embed_payload(), sort_keys=True)
    consts = json.dumps(_constants_payload(), sort_keys=True)
    with open(config.output_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config: {cfg}\n# constants: {consts}\n{text}")


def cmd_correct(config: RunConfig) -> int:
    """Correct one almost-commuting pair from JSON {a, b} to a commuting pair."""
    payload = load_json(config.input_path)
    if not isinstance(payload, dict):
        raise ValueError("input JSON must be an object with fields 'a' and 'b'")
    for field in ("a", "b"):
        if field not in payload:
            raise ValueError(f"input JSON is missing field '{field}'")
    a = hermitian_from_json(payload["a"], "a")
    b = hermitian_from_json(payload["b"], "b")
    eps = config.eps if config.eps is not None else 0.05
    result = pipeline.theorem_c_correct(a, b, eps)
    dump_json(config.output_path, {
        "config": config.embed_payload(),
        "constants": _constants_payload(),
        "result": result.to_payload(),
    })
    return EXIT_FLAGGED if result.out_of_regime else EXIT_OK


def cmd_sweep(config: RunConfig) -> int:
    """Seeded ensemble sweep; CSV rows plus a per-(n, nu) median summary."""
    rows = pipeline.modulus_sweep(config.dims, config.nu_targets, config.trials,
                                  config.seed, eps=config.eps,
                                  timings=config.timings)
    _write_csv(config, pipeline.sweep_rows_to_csv(rows))
    medians = pipeline.sweep_medians(rows)
    summary = " ".join(
        f"n={n},nu={fmt_float(nu)}:{fmt_float(med)}"
        for (n, nu), med in medians.items())
    print(f"medians {summary}")
    return EXIT_OK


def cmd_kms(config: RunConfig) -> int:
    """Two-state inequality ensemble; flags a margin below -KMS_TOL max(1, M)."""
    dims = config.dims if config.dims else kms.DEFAULT_KMS_DIMS
    scale = config.nu if config.nu is not None else 0.05
    rows = kms.kms_experiment(config.trials, config.c, config.seed, dims=dims,
                              perturb_scale=scale)
    _write_csv(config, kms.kms_rows_to_csv(rows))
    worst = min(row[6] for row in rows)
    violated = any(row[6] < -KMS_TOL * max(1.0, row[7]) for row in rows)
    print(f"kms rows={len(rows)} worst_margin={fmt_float(worst)}"
          + (" VIOLATED" if violated else ""))
    return EXIT_FLAGGED if violated else EXIT_OK


def cmd_car_path(config: RunConfig) -> int:
    """Three-point measure path; trace CSV plus drift check."""
    state = measurepath.load_measure(config.input_path)
    path = measurepath.three_point_path(state)
    rows = ([stage, *map(fmt_float, (t, mean, var)), support, *map(fmt_float, masses)]
            for stage, t, mean, var, support, *masses in measurepath.trace_rows(path))
    _write_csv(config, csv_text(measurepath.trace_header(state.atoms.size), rows))
    d_mean, d_var, d_norm = path.drift()
    drift = max(d_mean, d_var, d_norm)
    print(f"path states={len(path.states)} targets={path.target_atoms} "
          f"max_drift={fmt_float(drift)}")
    return EXIT_FLAGGED if drift > DRIFT_LIMIT else EXIT_OK


def cmd_calibrate(config: RunConfig) -> int:
    """Regenerate the admissible-nu table fixture."""
    dims = config.dims if config.dims else (8, 16, 32)
    table = calibration.build_calibration(dims=dims, trials=config.trials,
                                          seed=config.seed)
    path = calibration.save_calibration(table, config.output_path)
    print(f"calibration written to {path}")
    return EXIT_OK


def _int_list(text: str) -> tuple:
    return tuple(int(part) for part in text.split(",") if part)


def _float_list(text: str) -> tuple:
    return tuple(float(part) for part in text.split(",") if part)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, the code reserved here for flagged
    results; raising instead lets main report it as an error (exit 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nearcomm",
        description="Almost-commuting matrix correction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_correct = sub.add_parser("correct", help="correct one pair from JSON input")
    p_correct.add_argument("--input", required=True)
    p_correct.add_argument("--output", required=True)
    p_correct.add_argument("--eps", type=float, default=None)

    p_sweep = sub.add_parser("sweep", help="seeded ensemble sweep to CSV")
    p_sweep.add_argument("--output", required=True)
    p_sweep.add_argument("--dims", type=_int_list, default=(8, 16))
    p_sweep.add_argument("--nu-targets", type=_float_list,
                         default=(1e-1, 1e-2, 1e-4))
    p_sweep.add_argument("--trials", type=int, default=10)
    p_sweep.add_argument("--seed", type=int, default=20240915)
    p_sweep.add_argument("--eps", type=float, default=None)
    p_sweep.add_argument("--timings", action="store_true")

    p_kms = sub.add_parser("kms", help="two-state inequality ensemble to CSV")
    p_kms.add_argument("--output", required=True)
    p_kms.add_argument("--c", type=float, default=1.0)
    p_kms.add_argument("--trials", type=int, default=50)
    p_kms.add_argument("--seed", type=int, default=20240915)
    p_kms.add_argument("--nu", type=float, default=None,
                       help="scale of the b1-b2 difference (0 for b1 = b2)")
    p_kms.add_argument("--dims", type=_int_list, default=())

    p_car = sub.add_parser("car-path", help="three-point measure path trace")
    p_car.add_argument("--input", required=True)
    p_car.add_argument("--output", required=True)

    p_cal = sub.add_parser("calibrate", help="regenerate the admissible-nu table")
    p_cal.add_argument("--output", default=None)
    p_cal.add_argument("--dims", type=_int_list, default=())
    p_cal.add_argument("--trials", type=int, default=12)
    p_cal.add_argument("--seed", type=int, default=20240915)

    return parser


def _config_from_args(ns: argparse.Namespace) -> RunConfig:
    mapping = {"command": ns.command}
    translate = {"input": "input_path", "output": "output_path"}
    for key, value in vars(ns).items():
        if key == "command":
            continue
        mapping[translate.get(key, key)] = value
    return RunConfig.from_mapping(mapping)


_DISPATCH = {
    "correct": cmd_correct,
    "sweep": cmd_sweep,
    "kms": cmd_kms,
    "car-path": cmd_car_path,
    "calibrate": cmd_calibrate,
}


def main(argv=None) -> int:
    try:
        config = _config_from_args(_build_parser().parse_args(argv))
        return _DISPATCH[config.command](config)
    except DegenerateMeasure as exc:
        print(f"error: degenerate measure: {exc}; a single-atom state is "
              "already concentrated, so there is no path to construct",
              file=sys.stderr)
        return EXIT_ERROR
    except (NearcommError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
