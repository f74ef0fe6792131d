"""Command-line interface: corrections, sweeps, KMS and measure-path runs.

The parser is the whole configuration: each subcommand holds its flags,
their defaults and their checks, and registers its handler.  Every command
writes machine-readable output (JSON or CSV) that embeds its own flags with
the values used (the output path aside) and the constants its result
depends on: k1 and c_const for `correct` and `sweep`, the isometry constant
C for `kms`, none for `car-path`; `calibrate` writes its flags into the
table's `meta`.  So a result file is reproducible from its own header.
Exit codes: 0 success, 2 for a flagged result (out-of-regime input,
violated inequality, excessive drift), 1 for errors, usage errors included.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import calibration, kms, measurepath, pipeline
from .errors import DegenerateMeasure, NearcommError
from .kernels import build_mollifier, build_step
from .serialize import csv_text, dump_json, fmt_float, load_json, matrix_from_json

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FLAGGED = 2

DRIFT_LIMIT = 1e-9
KMS_TOL = 1e-8


def _kernel_constants() -> dict:
    return {"k1": build_mollifier().k1, "c_const": build_step().c_const}


def _run_config(ns: argparse.Namespace) -> dict:
    """The command's flags with the values used.  The output path is left
    out so identical runs written to different paths give identical bytes."""
    return {k: v for k, v in vars(ns).items() if k not in ("output", "handler")}


def _write_csv(ns: argparse.Namespace, constants: dict, text: str) -> None:
    """Write CSV text to the output path behind '# config' and '# constants' lines."""
    cfg = json.dumps(_run_config(ns), sort_keys=True)
    consts = json.dumps(constants, sort_keys=True)
    with open(ns.output, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config: {cfg}\n# constants: {consts}\n{text}")


def cmd_correct(ns: argparse.Namespace) -> int:
    """Correct one almost-commuting pair from JSON {a, b} to a commuting pair."""
    payload = load_json(ns.input)
    if not isinstance(payload, dict):
        raise ValueError("input JSON must be an object with fields 'a' and 'b'")
    for field in ("a", "b"):
        if field not in payload:
            raise ValueError(f"input JSON is missing field '{field}'")
    a, b = (matrix_from_json(payload[field], field) for field in ("a", "b"))
    result = pipeline.theorem_c_correct(a, b, ns.eps)
    dump_json(ns.output, {
        "config": _run_config(ns),
        "constants": _kernel_constants(),
        "result": result.to_payload(),
    })
    return EXIT_FLAGGED if result.out_of_regime else EXIT_OK


def cmd_sweep(ns: argparse.Namespace) -> int:
    """Seeded ensemble sweep; CSV rows plus a per-(n, nu) median summary."""
    rows = pipeline.modulus_sweep(ns.dims, ns.nu_targets, ns.trials, ns.seed,
                                  eps=ns.eps, timings=ns.timings)
    _write_csv(ns, _kernel_constants(), pipeline.sweep_rows_to_csv(rows))
    medians = pipeline.sweep_medians(rows)
    summary = " ".join(
        f"n={n},nu={fmt_float(nu)}:{fmt_float(med)}"
        for (n, nu), med in medians.items())
    print(f"medians {summary}")
    return EXIT_OK


def cmd_kms(ns: argparse.Namespace) -> int:
    """Two-state inequality ensemble; flags a margin below -KMS_TOL max(1, M)."""
    rows = kms.kms_experiment(ns.trials, ns.c, ns.seed, dims=ns.dims,
                              perturb_scale=ns.nu)
    _write_csv(ns, {"C": kms.isometry_function_constant()}, kms.kms_rows_to_csv(rows))
    worst = min(row[6] for row in rows)
    violated = any(row[6] < -KMS_TOL * max(1.0, row[7]) for row in rows)
    print(f"kms rows={len(rows)} worst_margin={fmt_float(worst)}"
          + (" VIOLATED" if violated else ""))
    return EXIT_FLAGGED if violated else EXIT_OK


def cmd_car_path(ns: argparse.Namespace) -> int:
    """Three-point measure path; trace CSV plus drift check."""
    state = measurepath.load_measure(ns.input)
    path = measurepath.three_point_path(state)
    rows = ([stage, *map(fmt_float, (t, mean, var)), support, *map(fmt_float, masses)]
            for stage, t, mean, var, support, *masses in measurepath.trace_rows(path))
    _write_csv(ns, {}, csv_text(measurepath.trace_header(state.atoms.size), rows))
    d_mean, d_var, d_norm = path.drift()
    drift = max(d_mean, d_var, d_norm)
    print(f"path states={len(path.states)} targets={path.target_atoms} "
          f"max_drift={fmt_float(drift)}")
    return EXIT_FLAGGED if drift > DRIFT_LIMIT else EXIT_OK


def cmd_calibrate(ns: argparse.Namespace) -> int:
    """Regenerate the admissible-nu table fixture; its meta records the flags."""
    table = calibration.build_calibration(dims=ns.dims, trials=ns.trials,
                                          seed=ns.seed)
    path = calibration.save_calibration(table, ns.output)
    print(f"calibration written to {path}")
    return EXIT_OK


def _checked(name: str, parse, ok, rule: str):
    """argparse type= converter: parse the text and require ok(value); a
    rejection reads 'argument --flag: <name> must be <rule>, got <text>'."""
    def convert(text: str):
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{name} must be {rule}, got {text!r}")
    return convert


def _listed(parse):
    return lambda text: tuple(parse(part) for part in text.split(",") if part)


def _nonneg(x) -> bool:
    return 0 <= x < math.inf


_EPS = _checked("eps", float, lambda x: 0 < x < math.inf, "finite and positive")
_TRIALS = _checked("trials", int, lambda n: n >= 1, ">= 1")
_SEED = _checked("seed", int, lambda n: n >= 0, "a nonnegative integer")
_DIMS = _checked("dims", _listed(int), lambda v: v and min(v) >= 1,
                 "positive integers, comma-separated and at least one")
_NU_TARGETS = _checked("nu_targets", _listed(float),
                       lambda v: v and all(map(_nonneg, v)),
                       "finite and nonnegative, comma-separated and at least one")


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
    sub = parser.add_subparsers(required=True)

    p_correct = sub.add_parser("correct", help="correct one pair from JSON input")
    p_correct.set_defaults(handler=cmd_correct)
    p_correct.add_argument("--input", required=True)
    p_correct.add_argument("--output", required=True)
    p_correct.add_argument("--eps", type=_EPS, default=0.05)

    p_sweep = sub.add_parser("sweep", help="seeded ensemble sweep to CSV")
    p_sweep.set_defaults(handler=cmd_sweep)
    p_sweep.add_argument("--output", required=True)
    p_sweep.add_argument("--dims", type=_DIMS, default=(8, 16))
    p_sweep.add_argument("--nu-targets", type=_NU_TARGETS, default=(1e-1, 1e-2, 1e-4))
    p_sweep.add_argument("--trials", type=_TRIALS, default=10)
    p_sweep.add_argument("--seed", type=_SEED, default=20240915)
    p_sweep.add_argument("--eps", type=_EPS, default=None,
                         help="commutator budget (default: calibrated per nu)")
    p_sweep.add_argument("--timings", action="store_true")

    p_kms = sub.add_parser("kms", help="two-state inequality ensemble to CSV")
    p_kms.set_defaults(handler=cmd_kms)
    p_kms.add_argument("--output", required=True)
    p_kms.add_argument("--c", default=1.0, type=_checked(
        "c", float, lambda x: math.isfinite(x) and x != 0, "finite and nonzero"))
    p_kms.add_argument("--trials", type=_TRIALS, default=50)
    p_kms.add_argument("--seed", type=_SEED, default=20240915)
    p_kms.add_argument("--nu", default=0.05,
                       type=_checked("nu", float, _nonneg, "finite and nonnegative"),
                       help="scale of the b1-b2 difference (0 for b1 = b2)")
    p_kms.add_argument("--dims", type=_DIMS, default=kms.DEFAULT_KMS_DIMS)

    p_car = sub.add_parser("car-path", help="three-point measure path trace")
    p_car.set_defaults(handler=cmd_car_path)
    p_car.add_argument("--input", required=True)
    p_car.add_argument("--output", required=True)

    p_cal = sub.add_parser("calibrate", help="regenerate the admissible-nu table")
    p_cal.set_defaults(handler=cmd_calibrate)
    p_cal.add_argument("--output", default=None)
    p_cal.add_argument("--dims", type=_DIMS, default=calibration.DEFAULT_DIMS)
    p_cal.add_argument("--trials", type=_TRIALS, default=12)
    p_cal.add_argument("--seed", type=_SEED, default=20240915)

    return parser


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        return ns.handler(ns)
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
