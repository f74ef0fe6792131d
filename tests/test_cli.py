"""Command-line interface: exit codes, embedded config, determinism."""

import argparse
import inspect
import json
import pathlib
import shlex
import subprocess
import sys

import numpy as np
import pytest

from nearcomm import calibration
from nearcomm.cli import EXIT_ERROR, EXIT_FLAGGED, EXIT_OK, _build_parser, main
from nearcomm.ensembles import instance_rng, pair_instance
from nearcomm.serialize import matrix_to_json

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
GAUSSIAN_FIXTURE = REPO_ROOT / "demos" / "measure_gaussian16.json"
CALIBRATION_FIXTURE = REPO_ROOT / "src" / "nearcomm" / "data" / "calibration.json"


def write_pair(path, n=6, nu=1e-3, seed=42):
    inst = pair_instance(n, nu, instance_rng(seed, 0, 0, 0))
    payload = {"a": matrix_to_json(inst.a), "b": matrix_to_json(inst.b)}
    path.write_text(json.dumps(payload))
    return inst


def header_config(path):
    first = path.read_text().splitlines()[0]
    assert first.startswith("# config: ")
    return json.loads(first[len("# config: "):])


def subcommands() -> dict:
    """Subcommand name -> its subparser."""
    parser = _build_parser()
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


def replay_flags(config: dict) -> list:
    """Turn an embedded config back into command-line flags."""
    argv = []
    for key, value in sorted(config.items()):
        flag = "--" + key.replace("_", "-")
        if value is None or value is False:
            continue
        if value is True:
            argv.append(flag)
        elif isinstance(value, list):
            argv += [flag, ",".join(map(str, value))]
        else:
            argv += [flag, str(value)]
    return argv


class TestRunConfig:
    # the run configuration is the parsed namespace: the converters reject
    # a bad value by its flag, and each output embeds the command's own flags

    @pytest.mark.parametrize("argv, message", [
        (["dance"], "invalid choice: 'dance'"),
        (["sweep", "--seed", "-1"],
         "argument --seed: seed must be a nonnegative integer, got '-1'"),
        (["kms", "--seed", "-1"], "argument --seed: seed must be a nonnegative"),
        (["sweep", "--dims", ""], "argument --dims: dims must be positive integers"),
        (["sweep", "--nu-targets", ""], "argument --nu-targets: nu_targets must be"),
        (["kms", "--dims", ""], "argument --dims: dims must be positive integers"),
        (["calibrate", "--dims", "4,0"], "argument --dims: dims must be positive"),
        (["correct", "--input", "pair.json", "--eps", "-1"],
         "argument --eps: eps must be finite and positive, got '-1'"),
        (["sweep", "--trials", "0"], "argument --trials: trials must be >= 1"),
        (["kms", "--c", "0"], "argument --c: c must be finite and nonzero"),
        (["kms", "--trials", "two"], "argument --trials: trials must be >= 1, got 'two'"),
    ], ids=["unknown-command", "sweep-seed", "kms-seed", "sweep-dims-empty",
            "sweep-nu-targets-empty", "kms-dims-empty", "calibrate-dims-zero",
            "correct-eps", "sweep-trials", "kms-c-zero", "kms-trials-text"])
    def test_rejected_by_flag_name(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert main([*argv, "--output", str(out)]) == EXIT_ERROR
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error: ")]
        assert len(errors) == 1 and message in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("argv, field", [
        (["kms", "--c", "nan"], "c"),
        (["kms", "--c", "inf"], "c"),
        (["kms", "--nu", "nan"], "nu"),
        (["sweep", "--dims", "4", "--nu-targets", "nan"], "nu_targets"),
        (["sweep", "--dims", "4", "--nu-targets", "1e-3,inf"], "nu_targets"),
        (["sweep", "--dims", "4", "--eps", "inf"], "eps"),
    ], ids=["kms-c-nan", "kms-c-inf", "kms-nu-nan", "sweep-nu-nan", "sweep-nu-inf",
            "sweep-eps-inf"])
    def test_non_finite_parameter_is_named(self, tmp_path, capsys, argv, field):
        out = tmp_path / "out.csv"
        code = main([*argv, "--output", str(out), "--trials", "1"])
        assert code == EXIT_ERROR
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["correct", "sweep", "kms", "car-path",
                                         "calibrate"])
    def test_header_replays_the_run(self, tmp_path, command):
        # defaults are left to the parser, so the header must carry the
        # values it resolved; replaying the header reproduces every byte
        pair = tmp_path / "pair.json"
        write_pair(pair)
        argv = {"correct": ["--input", str(pair)],
                "sweep": ["--dims", "4", "--nu-targets", "1e-3", "--trials", "1"],
                "kms": ["--trials", "2"],
                "car-path": ["--input", str(GAUSSIAN_FIXTURE)],
                "calibrate": ["--dims", "4", "--trials", "1", "--seed", "2"]}[command]
        first, second = tmp_path / "first", tmp_path / "second"
        assert main([command, *argv, "--output", str(first)]) != EXIT_ERROR
        flags = {action.dest for action in subcommands()[command]._actions} \
            - {"help", "output"}
        if command == "correct":
            config = json.loads(first.read_text())["config"]
        elif command == "calibrate":
            # the table's meta is its header: the flags plus the grid it ran
            meta = json.loads(first.read_text())["meta"]
            config = {key: meta[key] for key in flags}
        else:
            config = header_config(first)
        assert set(config) == flags
        assert main([command, *replay_flags(config), "--output", str(second)]) \
            != EXIT_ERROR
        assert first.read_bytes() == second.read_bytes()

    def test_rejects_unknown_keys(self, tmp_path, capsys):
        # a config key the command does not know becomes a flag it does not
        # know when the header is replayed, and the parser refuses it
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        argv = ["--dims", "4", "--nu-targets", "1e-3", "--trials", "1"]
        assert main(["sweep", *argv, "--output", str(first)]) != EXIT_ERROR
        config = {**header_config(first), "bogus": 1}
        capsys.readouterr()
        assert main(["sweep", *replay_flags(config), "--output", str(second)]) \
            == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert "error: unrecognized arguments: --bogus 1" in err
        assert not second.exists()


class TestUsageErrors:
    # exit code 2 means "finished but flagged", so a bad command line must
    # not share it with argparse's default

    def test_missing_required_flag(self, capsys):
        assert main(["correct", "--input", "pair.json"]) == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert "error: the following arguments are required: --output" in err

    def test_unknown_flag(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--output", str(out), "--workers", "3"]) == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert "error: unrecognized arguments: --workers 3" in err
        assert not out.exists()

    def test_seed_rejected_where_nothing_is_drawn(self, tmp_path, capsys):
        # correct and car-path draw no random numbers, so they take no --seed
        inp, out = tmp_path / "pair.json", tmp_path / "res.json"
        write_pair(inp)
        assert main(["correct", "--input", str(inp), "--output", str(out),
                     "--seed", "5"]) == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert "error: unrecognized arguments: --seed 5" in err
        assert not out.exists()
        assert main(["car-path", "--input", str(GAUSSIAN_FIXTURE),
                     "--output", str(out), "--seed", "5"]) == EXIT_ERROR

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--help"])
        assert exc.value.code == 0
        assert "--nu-targets" in capsys.readouterr().out

    def test_readme_examples_parse(self):
        text = (REPO_ROOT / "README.md").read_text()
        block = text.split("## Command line", 1)[1].split("```")[1]
        lines = block.replace("\\\n", " ").splitlines()
        examples = [shlex.split(line)[1:] for line in lines
                    if line.startswith("nearcomm ")]
        parser = _build_parser()
        handlers = [parser.parse_args(args).handler.__name__ for args in examples]
        assert sorted(args[0] for args in examples) == sorted(subcommands())
        assert len(set(handlers)) == len(subcommands())


class TestCorrectCommand:
    def test_commuting_pair(self, tmp_path):
        inp, out = tmp_path / "pair.json", tmp_path / "res.json"
        write_pair(inp, nu=0.0)
        code = main(["correct", "--input", str(inp), "--output", str(out)])
        assert code == EXIT_OK
        result = json.loads(out.read_text())
        assert result["result"]["dist_a"] < 1e-8
        assert result["result"]["dist_b"] < 1e-8
        assert not result["result"]["out_of_regime"]
        assert set(result) == {"config", "constants", "result"}
        assert result["constants"]["k1"] > 0

    def test_small_commutator(self, tmp_path):
        inp, out = tmp_path / "pair.json", tmp_path / "res.json"
        write_pair(inp, nu=1e-3)
        code = main(["correct", "--input", str(inp), "--output", str(out),
                     "--eps", "0.05"])
        assert code == EXIT_OK
        result = json.loads(out.read_text())["result"]
        assert result["nu"] == pytest.approx(1e-3, rel=0.06)
        assert result["block_count"] == len(result["block_comms"])

    def test_out_of_regime_flag(self, tmp_path):
        inp, out = tmp_path / "pair.json", tmp_path / "res.json"
        write_pair(inp, n=8, nu=0.5)
        code = main(["correct", "--input", str(inp), "--output", str(out)])
        assert code == EXIT_FLAGGED
        assert json.loads(out.read_text())["result"]["out_of_regime"]

    def test_missing_calibration_is_an_error(self, tmp_path, monkeypatch, capsys):
        # without the table the regime flag cannot be set, so the run must
        # not read as in regime; the packaged table flags this pair (exit 2)
        from nearcomm.calibration import DATA_ENV_VAR
        inp, out = tmp_path / "pair.json", tmp_path / "res.json"
        write_pair(inp, n=8, nu=0.3)
        assert main(["correct", "--input", str(inp), "--output", str(out),
                     "--eps", "0.05"]) == EXIT_FLAGGED
        empty = tmp_path / "empty"
        empty.mkdir()
        monkeypatch.setenv(DATA_ENV_VAR, str(empty))
        out.unlink()
        code = main(["correct", "--input", str(inp), "--output", str(out),
                     "--eps", "0.05"])
        assert code == EXIT_ERROR
        assert str(empty / "calibration.json") in capsys.readouterr().err
        assert not out.exists()

    def test_missing_field_is_named(self, tmp_path, capsys):
        inp, out = tmp_path / "pair.json", tmp_path / "res.json"
        inp.write_text(json.dumps({"a": matrix_to_json(np.eye(2))}))
        code = main(["correct", "--input", str(inp), "--output", str(out)])
        assert code == EXIT_ERROR
        assert "'b'" in capsys.readouterr().err

    def test_nan_input_is_an_error_line(self, tmp_path):
        # Python's json reads NaN, so the value reaches the matrix reader
        inp, out = tmp_path / "pair.json", tmp_path / "res.json"
        inst = write_pair(inp)
        payload = {"a": matrix_to_json(inst.a), "b": matrix_to_json(inst.b)}
        payload["b"]["re"][1][1] = float("nan")
        inp.write_text(json.dumps(payload))
        proc = subprocess.run(
            [sys.executable, "-m", "nearcomm.cli", "correct", "--input",
             str(inp), "--output", str(out)], capture_output=True, text=True)
        assert proc.returncode == EXIT_ERROR
        # the pipeline checks and names b; the reader checks only the layout
        assert proc.stderr.startswith("error: b has non-finite entries (NaN or inf)")
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        inp = tmp_path / "pair.json"
        write_pair(inp, nu=1e-3)
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert main(["correct", "--input", str(inp),
                         "--output", str(out)]) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestSweepCommand:
    def test_single_commuting_row(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--output", str(out), "--dims", "4",
                     "--nu-targets", "0", "--trials", "1"])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1].startswith("# constants: ")
        assert lines[2].split(",")[0] == "n"
        assert len(lines) == 4
        assert float(lines[3].split(",")[3]) <= 1e-8
        assert "medians" in capsys.readouterr().out

    def test_byte_identical_across_workers(self, tmp_path):
        texts = []
        for name in ("s1.csv", "s2.csv"):
            out = tmp_path / name
            assert main(["sweep", "--output", str(out), "--dims", "6",
                         "--nu-targets", "1e-2,1e-3", "--trials", "2"]) == EXIT_OK
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    def test_failed_trial_keeps_other_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--output", str(out), "--dims", "1,8",
                     "--nu-targets", "1e-2", "--trials", "1"])
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
        assert (rows[0][0], rows[0][-1]) == ("1", "error:ValueError")
        assert rows[1][0] == "8" and rows[1][-1] in ("", "out-of-regime")
        assert float(rows[1][4]) >= 0.0

    def test_embedded_config_omits_workers(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--output", str(out), "--dims", "4",
              "--nu-targets", "1e-3", "--trials", "1"])
        cfg = header_config(out)
        assert "workers" not in cfg and "output" not in cfg
        assert cfg["seed"] == 20240915


class TestKmsCommand:
    def test_default_small_run(self, tmp_path, capsys):
        out = tmp_path / "kms.csv"
        code = main(["kms", "--output", str(out), "--trials", "4",
                     "--c", "-1.0", "--seed", "3"])
        assert code == EXIT_OK
        assert "worst_margin" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[2].split(",")[0] == "trial"

    def test_equal_perturbations_zero_lhs(self, tmp_path):
        out = tmp_path / "kms.csv"
        code = main(["kms", "--output", str(out), "--trials", "3",
                     "--nu", "0", "--seed", "4"])
        assert code == EXIT_OK
        rows = out.read_text().splitlines()[3:]
        assert all(float(r.split(",")[4]) < 1e-10 for r in rows)

    def test_large_c_is_not_flagged(self, tmp_path, capsys):
        # |c| spread(K) exceeds 30 here: F(z) must not cancel e^{-cK}
        # against e^{cK}, or rounding reads as a violation
        out = tmp_path / "kms.csv"
        assert main(["kms", "--output", str(out), "--c", "5",
                     "--trials", "14"]) == EXIT_OK
        assert "VIOLATED" not in capsys.readouterr().out

    def test_partition_beyond_float_range(self, tmp_path, capsys):
        # Z = sum e^{-c lambda} overflows at c = 400; log Z does not
        out = tmp_path / "kms.csv"
        assert main(["kms", "--output", str(out), "--c", "400",
                     "--trials", "14"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "VIOLATED" not in captured.out
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("margin, m_norm, code", [(-1e-3, 1e40, EXIT_OK),
                                                      (-1e-6, 0.5, EXIT_FLAGGED)])
    def test_tolerance_relative_to_m(self, tmp_path, monkeypatch, margin, m_norm, code):
        # rounding of an rhs near M = 1e40 is not a violation; a margin of
        # -1e-6 at M below 1 is
        from nearcomm import kms
        rows = [(0, 2, 1.0, 0.05, 2.0 - margin, 2.0, margin, m_norm)]
        monkeypatch.setattr(kms, "kms_experiment", lambda *args, **kwargs: rows)
        assert main(["kms", "--output", str(tmp_path / "kms.csv")]) == code

    def test_byte_identical_across_workers(self, tmp_path):
        texts = []
        for name in ("k1.csv", "k2.csv"):
            out = tmp_path / name
            assert main(["kms", "--output", str(out), "--trials", "4",
                         "--seed", "9"]) == EXIT_OK
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]


class TestCarPathCommand:
    def test_gaussian_fixture(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(["car-path", "--input", str(GAUSSIAN_FIXTURE),
                     "--output", str(out)])
        assert code == EXIT_OK
        assert "max_drift" in capsys.readouterr().out
        rows = out.read_text().splitlines()
        assert rows[2].startswith("stage,t,mean,variance,support_size")
        assert rows[-1].split(",")[4] == "3"  # final support size

    def test_single_atom_guidance(self, tmp_path, capsys):
        inp, out = tmp_path / "m.json", tmp_path / "trace.csv"
        inp.write_text(json.dumps({"atoms": [0.0, 1.0], "weights": [0.5, 0.5],
                                   "xi_re": [1.4142135623730951, 0.0],
                                   "xi_im": [0.0, 0.0]}))
        code = main(["car-path", "--input", str(inp), "--output", str(out)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "degenerate measure" in err and "single-atom" in err


    def test_nan_weight_is_named(self, tmp_path, capsys):
        inp, out = tmp_path / "m.json", tmp_path / "trace.csv"
        inp.write_text(json.dumps({"atoms": [0.0, 1.0, 2.0],
                                   "weights": [0.5, float("nan"), 0.5],
                                   "xi_re": [1.0, 1.0, 1.0], "xi_im": [0.0, 0.0, 0.0]}))
        code = main(["car-path", "--input", str(inp), "--output", str(out)])
        assert code == EXIT_ERROR
        assert "error: weights has non-finite entries" in capsys.readouterr().err


class TestCalibrateCommand:
    def test_writes_to_env_override(self, tmp_path, monkeypatch, capsys):
        from nearcomm.calibration import DATA_ENV_VAR
        monkeypatch.setenv(DATA_ENV_VAR, str(tmp_path))
        code = main(["calibrate", "--dims", "4", "--trials", "1", "--seed", "2"])
        assert code == EXIT_OK
        written = tmp_path / "calibration.json"
        assert written.exists()
        payload = json.loads(written.read_text())
        assert payload["meta"]["dims"] == [4]
        assert str(written) in capsys.readouterr().out

    def test_defaults_match_fixture_meta(self):
        # a flag-free `nearcomm calibrate` regenerates the packaged table
        ns = _build_parser().parse_args(["calibrate"])
        meta = json.loads(CALIBRATION_FIXTURE.read_text())["meta"]
        assert (list(ns.dims), ns.trials, ns.seed) == \
            (meta["dims"], meta["trials"], meta["seed"])
        defaults = inspect.signature(calibration.build_calibration).parameters
        assert {key: defaults[key].default for key in ("dims", "trials", "seed")} \
            == {"dims": ns.dims, "trials": ns.trials, "seed": ns.seed}

    def test_defaults_reproduce_fixture_table(self):
        # the packaged table is what the defaults measure, so a change that
        # moves an edge commutator across a grid budget shows here
        fixture = json.loads(CALIBRATION_FIXTURE.read_text())
        table = calibration.build_calibration()
        assert (list(table.eps_grid), list(table.nu_admissible)) == \
            (fixture["eps_grid"], fixture["nu_admissible"])

    def test_explicit_output_path(self, tmp_path):
        out = tmp_path / "table.json"
        code = main(["calibrate", "--dims", "4", "--trials", "1",
                     "--seed", "2", "--output", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["meta"]["trials"] == 1


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "nearcomm.cli", "sweep", "--output",
             str(out), "--dims", "4", "--nu-targets", "1e-3", "--trials", "1"],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_OK
        assert "medians" in proc.stdout
        assert out.exists()

    def test_import_loads_no_unused_scipy(self):
        # every scipy submodule is imported only inside the functions that
        # call it
        code = ("import sys, nearcomm.cli; "
                "print(sorted(m for m in ('scipy.optimize', 'scipy.special', "
                "'scipy.linalg', 'scipy.sparse', 'scipy.sparse.csgraph') "
                "if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_core_correction_loads_no_scipy_sparse(self):
        # a fresh process, since this one loaded scipy.sparse long ago: the
        # core never touches it, and the CAR lab still loads it on first use
        code = (
            "import sys, numpy as np, nearcomm\n"
            "a = np.diag([0.0, 0.5, 1.0, 1.5])\n"
            "b = np.diag([0.3, -0.2, 0.1, 0.4]) + 1e-3 * (np.eye(4, k=1) + np.eye(4, k=-1))\n"
            "nearcomm.theorem_c_correct(a, b, 0.1)\n"
            "print('scipy.sparse' in sys.modules)\n"
            "from nearcomm import a_star, fock_rep\n"
            "x = a_star(fock_rep(2), [1, 0])\n"
            "print('scipy.sparse' in sys.modules, x.shape, np.count_nonzero(x.toarray()))\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["False", "True (4, 4) 2"]
