"""End-to-end correction pipeline and the sweep harness."""

import math

import numpy as np
import pytest

from nearcomm.calibration import load_calibration
from nearcomm.ensembles import instance_rng, pair_instance
from nearcomm.hermitian import commutator, op_norm
from nearcomm.pipeline import (SWEEP_HEADER, modulus_sweep, sweep_medians,
                               sweep_rows_to_csv, theorem_c_correct,
                               tridiagonal_check)
from nearcomm.projections import partition
from nearcomm.kernels import band_smooth


class TestEnsembles:
    def test_pair_instance_contracts(self):
        rng = instance_rng(1, 0, 0, 0)
        inst = pair_instance(8, 1e-3, rng)
        assert op_norm(inst.b) <= 1.0 + 1e-12
        assert inst.nu_measured == pytest.approx(1e-3, rel=0.06)
        # the diagonal ground pair certifies a commuting pair within reach
        assert op_norm(commutator(inst.a, inst.ground_b)) < 1e-13
        assert inst.ground_distance < 10 * 1e-3

    def test_zero_nu_is_exactly_commuting(self):
        inst = pair_instance(6, 0.0, instance_rng(2, 0, 0, 0))
        assert op_norm(commutator(inst.a, inst.b)) == 0.0

    def test_instance_rng_reproducible(self):
        a = pair_instance(5, 1e-2, instance_rng(9, 1, 2, 3))
        b = pair_instance(5, 1e-2, instance_rng(9, 1, 2, 3))
        np.testing.assert_array_equal(a.a, b.a)
        np.testing.assert_array_equal(a.b, b.b)


class TestTheoremCCorrect:
    def test_commuting_input(self):
        inst = pair_instance(6, 0.0, instance_rng(3, 0, 0, 0))
        res = theorem_c_correct(inst.a, inst.b, eps=0.05)
        assert res.pair.dist_a < 1e-8
        assert res.pair.dist_b < 1e-8
        assert not res.out_of_regime
        assert res.nu == 0.0

    def test_output_commutes_and_defects_bounded(self):
        eps = 0.05
        for trial in range(3):
            inst = pair_instance(8, 1e-3, instance_rng(4, 0, 0, trial))
            res = theorem_c_correct(inst.a, inst.b, eps=eps)
            scale = max(1.0, op_norm(inst.a), op_norm(inst.b))
            assert res.pair.commutation_residual() <= 1e-11 * scale
            assert res.compress_defect_a < 4 * eps + 1e-8
            assert res.compress_defect_b < 4 * eps + 1e-8
            assert all(c <= 2 * eps + res.nu + 1e-8 for c in res.block_comms)
            assert res.tridiag_residual <= 1e-9
            assert res.block_count == len(res.block_comms)

    def test_distance_comparable_to_ground_truth(self):
        inst = pair_instance(8, 1e-3, instance_rng(5, 0, 0, 0))
        res = theorem_c_correct(inst.a, inst.b, eps=0.05)
        # the planted commuting pair is ~nu away; the output must be in the
        # same small-distance regime, not order 1
        assert res.pair.dist_a + res.pair.dist_b < 0.05

    def test_b_rescaling_round_trip(self):
        inst = pair_instance(6, 1e-3, instance_rng(6, 0, 0, 0))
        big_b = 5.0 * inst.b
        res = theorem_c_correct(inst.a, big_b, eps=0.05)
        assert res.b_rescale == pytest.approx(op_norm(big_b), abs=1e-9)
        # distances are reported in original units
        assert op_norm(big_b - res.pair.b1().m) == pytest.approx(
            res.pair.dist_b, abs=1e-10)
        assert res.pair.dist_b < 5.0 * 0.05

    def test_out_of_regime_flag(self):
        table = load_calibration()
        inst = pair_instance(8, 0.5, instance_rng(7, 0, 0, 0))
        res = theorem_c_correct(inst.a, inst.b, eps=0.05, table=table)
        assert res.out_of_regime
        ok = pair_instance(8, 1e-3, instance_rng(7, 0, 0, 1))
        assert not theorem_c_correct(ok.a, ok.b, eps=0.05, table=table).out_of_regime

    def test_rejects_bad_eps(self):
        inst = pair_instance(4, 0.0, instance_rng(8, 0, 0, 0))
        with pytest.raises(ValueError, match="eps"):
            theorem_c_correct(inst.a, inst.b, eps=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_input(self, bad):
        inst = pair_instance(4, 1e-3, instance_rng(8, 0, 0, 0))
        b = inst.b.copy()
        b[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            theorem_c_correct(inst.a, b, eps=0.05)

    def test_tridiagonal_check_measures_far_blocks(self):
        # diagonal a with well-separated spectrum: far blocks of b vanish
        # only after smoothing; the raw b has a visible far entry
        a = np.diag([0.0, 1.0, 2.5]).astype(complex)
        b = np.zeros((3, 3), dtype=complex)
        b[0, 2] = b[2, 0] = 0.5
        smoothed = band_smooth(a, b).m
        part = partition(a, smoothed, eps=0.5)
        assert tridiagonal_check(part, a, smoothed) < 1e-12
        # control: the unsmoothed b keeps the far entry
        assert tridiagonal_check(part, a, b) > 0.4


class TestModulusSweep:
    def test_row_grid_and_zero_nu(self):
        rows = modulus_sweep(dims=(4,), nu_targets=(0.0,), trials=1, seed=11)
        assert len(rows) == 1
        assert rows[0].dist_a <= 1e-8 and rows[0].dist_b <= 1e-8
        assert rows[0].flag == ""

    def test_deterministic_across_workers(self):
        kw = dict(dims=(6,), nu_targets=(1e-2, 1e-3), trials=2, seed=12)
        rows1 = modulus_sweep(**kw)
        rows2 = modulus_sweep(**kw)
        assert rows1 == rows2
        assert sweep_rows_to_csv(rows1) == sweep_rows_to_csv(rows2)

    def test_csv_layout(self):
        rows = modulus_sweep(dims=(4,), nu_targets=(1e-3,), trials=2, seed=13)
        text = sweep_rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(SWEEP_HEADER)
        assert len(lines) == 3
        # runtime stays zeroed unless timings are requested
        assert all(line.split(",")[6] == "0.0" for line in lines[1:])

    def test_timings_opt_in(self):
        rows = modulus_sweep(dims=(4,), nu_targets=(1e-3,), trials=1, seed=13,
                             timings=True)
        assert rows[0].runtime_ms > 0.0

    def test_medians_skip_error_rows(self):
        rows = modulus_sweep(dims=(4, 6), nu_targets=(1e-3,), trials=2, seed=14)
        med = sweep_medians(rows)
        assert set(med) == {(4, 1e-3), (6, 1e-3)}
        assert all(v >= 0.0 for v in med.values())

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials"):
            modulus_sweep(dims=(4,), nu_targets=(1e-3,), trials=0, seed=15)
