"""JSON matrix layout, float formatting, calibration table plumbing."""

import json
import math
import os

import numpy as np
import pytest

from nearcomm.calibration import (DATA_ENV_VAR, CalibrationTable,
                                  build_calibration, fixture_path,
                                  load_calibration, save_calibration)
from nearcomm.hermitian import checked_hermitian
from nearcomm.kms import kms_rows_to_csv
from nearcomm.pipeline import SweepRow, sweep_rows_to_csv
from nearcomm.serialize import dump_json, fmt_float, load_json, matrix_from_json, matrix_to_json


class TestMatrixJson:
    def test_round_trip(self):
        rng = np.random.default_rng(101)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        back = matrix_from_json(matrix_to_json(m))
        np.testing.assert_array_equal(back, m)

    def test_im_optional(self):
        obj = {"n": 2, "re": [[1.0, 0.0], [0.0, 2.0]]}
        np.testing.assert_array_equal(matrix_from_json(obj),
                                      np.diag([1.0, 2.0]).astype(complex))

    def test_missing_key_named(self):
        with pytest.raises(ValueError, match="'a' missing key 're'"):
            matrix_from_json({"n": 2}, field="a")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="2x2"):
            matrix_from_json({"n": 2, "re": [[1.0]]})

    def test_hermitian_check(self):
        # the reader checks the layout only; the entries are checked, under the
        # field's name, by the function that takes the matrix
        obj = {"n": 2, "re": [[0.0, 1.0], [0.0, 0.0]]}
        m = matrix_from_json(obj, field="b")
        np.testing.assert_array_equal(m, [[0, 1], [0, 0]])
        with pytest.raises(ValueError, match="^b is not self-adjoint"):
            checked_hermitian(m, "b", (2, 2))
        ok = matrix_from_json({"n": 2, "re": [[0.0, 1.0], [1.0, 0.0]]})
        np.testing.assert_array_equal(checked_hermitian(ok, "b", (2, 2)), [[0, 1], [1, 0]])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected_with_field(self, bad):
        m = matrix_from_json({"n": 2, "re": [[0.0, 1.0], [1.0, bad]]}, field="b")
        with pytest.raises(ValueError, match=r"^b has non-finite entries \(NaN or inf\)"):
            checked_hermitian(m, "b", (2, 2))

    def test_fmt_float_round_trips(self):
        for x in (0.1, 1e-17, 5.389243043554071, -3.0, 0.0):
            assert float(fmt_float(x)) == x

    def test_dump_json_sorted_and_newline(self, tmp_path):
        path = tmp_path / "out.json"
        dump_json(path, {"b": 1, "a": 2})
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")
        assert load_json(path) == {"a": 2, "b": 1}


class TestCsvText:
    def test_sweep_and_kms_bytes(self):
        # bare newline line ends, quotes only where a field needs them,
        # floats in fmt_float form, the kms row's last field left out
        rows = [SweepRow(8, 0.1, 0.10000000000000003, 1e-300, math.nan, 3, 0.0, 'error:X, "y"')]
        assert sweep_rows_to_csv(rows) == (
            "n,nu_target,nu_measured,dist_a,dist_b,seed,runtime_ms,flag\n"
            '8,0.1,0.10000000000000003,1e-300,nan,3,0.0,"error:X, ""y"""\n')
        assert kms_rows_to_csv([(0, 2, -1.0, 0.5, 1.25, 2.0, 0.75, 3.0)]) == (
            "trial,n,c,norm_b_diff,lhs,rhs,margin\n0,2,-1.0,0.5,1.25,2.0,0.75\n")


class TestCalibrationTable:
    def test_admissible_nu_monotone_use(self):
        table = CalibrationTable(eps_grid=(0.01, 0.1, 1.0),
                                 nu_admissible=(1e-4, 1e-2, 0.3), meta={})
        assert table.admissible_nu(0.05) == 1e-4
        assert table.admissible_nu(0.1) == 1e-2
        assert table.admissible_nu(5.0) == 0.3
        assert table.admissible_nu(0.001) == 0.0

    def test_epsilon_for(self):
        table = CalibrationTable(eps_grid=(0.01, 0.1, 1.0),
                                 nu_admissible=(1e-4, 1e-2, 0.3), meta={})
        assert table.epsilon_for(1e-4) == 0.01
        assert table.epsilon_for(5e-3) == 0.1
        assert table.epsilon_for(0.9) is None

    def test_payload_round_trip(self):
        table = CalibrationTable(eps_grid=(0.1, 0.2), nu_admissible=(0.0, 1e-3),
                                 meta={"trials": 2})
        back = CalibrationTable.from_payload(table.to_payload())
        assert back == table

    def test_from_payload_validates(self):
        with pytest.raises(Exception, match="mismatched"):
            CalibrationTable.from_payload({"eps_grid": [0.1], "nu_admissible": []})
        with pytest.raises(Exception, match="increasing"):
            CalibrationTable.from_payload({"eps_grid": [0.2, 0.1],
                                           "nu_admissible": [0.0, 0.0]})

    def test_packaged_fixture_loads(self):
        table = load_calibration()
        assert len(table.eps_grid) == len(table.nu_admissible)
        assert table.admissible_nu(0.05) > 0.0

    def test_env_var_override(self, tmp_path, monkeypatch):
        table = CalibrationTable(eps_grid=(0.5,), nu_admissible=(0.123,),
                                 meta={})
        monkeypatch.setenv(DATA_ENV_VAR, str(tmp_path))
        assert fixture_path() == os.path.join(str(tmp_path), "calibration.json")
        save_calibration(table)
        assert load_calibration().nu_admissible == (0.123,)

    @pytest.mark.parametrize("grid", ["eps_grid", "nu_grid", "dims"])
    def test_build_calibration_rejects_empty_grid(self, grid):
        with pytest.raises(ValueError, match=f"{grid} must be nonempty"):
            build_calibration(**{grid: ()}, trials=1)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_build_calibration_rejects_no_trials(self, trials):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            build_calibration(dims=(4,), trials=trials)

    def test_build_calibration_small(self, tmp_path):
        # tiny grid, checks the statistic wiring rather than the numbers
        table = build_calibration(eps_grid=(0.1, 1.0), nu_grid=(1e-4, 1e-3),
                                  dims=(4,), trials=2, seed=3)
        assert len(table.nu_admissible) == 2
        assert table.nu_admissible[0] <= table.nu_admissible[1]
        assert table.meta["trials"] == 2
        path = save_calibration(table, str(tmp_path / "cal.json"))
        with open(path) as fh:
            assert json.load(fh)["eps_grid"] == [0.1, 1.0]
