"""End-to-end correction pipeline and the sweep harness."""

import dataclasses
import math

import numpy as np
import pytest

from nearcomm import pipeline, projections
from nearcomm.calibration import load_calibration
from nearcomm.ensembles import haar_unitary, instance_rng, pair_instance
from nearcomm.errors import BlockNormViolation
from nearcomm.hermitian import commutator, op_norm, spectral_decomp
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
        assert op_norm(big_b - res.pair.b1()) == pytest.approx(
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

    def test_rejects_nan_eps(self):
        # NaN must not reach the partition, where it read as a sandwich
        # violation of inputs with zero commutator
        inst = pair_instance(4, 0.0, instance_rng(8, 0, 0, 0))
        with pytest.raises(ValueError, match="eps must be positive, got nan"):
            theorem_c_correct(inst.a, inst.b, eps=math.nan)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_input(self, bad):
        inst = pair_instance(4, 1e-3, instance_rng(8, 0, 0, 0))
        b = inst.b.copy()
        b[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            theorem_c_correct(inst.a, b, eps=0.05)

    def test_duplicated_basis_column_is_named(self, monkeypatch):
        # two equal block basis columns make the Gram matrix singular; the
        # polar step names the Gram spectrum instead of failing in an SVD
        real = pipeline.commuting_approximation

        def duplicating(a, b):
            pair = real(a, b)
            basis = pair.basis.copy()
            if basis.shape[1] > 1:
                basis[:, 1] = basis[:, 0]
            return dataclasses.replace(pair, basis=basis)

        monkeypatch.setattr(pipeline, "commuting_approximation", duplicating)
        inst = pair_instance(8, 1e-3, instance_rng(8, 0, 0, 0))
        with pytest.raises(BlockNormViolation,
                           match=r"Gram eigenvalues span \[\S+, 2\.000e\+00\]"):
            theorem_c_correct(inst.a, inst.b, eps=0.05)

    def test_tridiagonal_check_measures_far_blocks(self):
        # diagonal a with well-separated spectrum: far blocks of b vanish
        # only after smoothing; the raw b has a visible far entry
        a = np.diag([0.0, 1.0, 2.5]).astype(complex)
        b = np.zeros((3, 3), dtype=complex)
        b[0, 2] = b[2, 0] = 0.5
        smoothed = band_smooth(a, b)
        part = partition(a, smoothed, eps=0.5)
        assert tridiagonal_check(part, a, smoothed) < 1e-12
        # control: the unsmoothed b keeps the far entry
        assert tridiagonal_check(part, a, b) > 0.4


def _rotated(a, b, u):
    def conj(x):
        y = u @ x @ u.conj().T
        return 0.5 * (y + y.conj().T)
    return conj(a), conj(b)


def _rotated_instance(n, a_norm, seed):
    rng = instance_rng(seed, n, 0, int(a_norm))
    inst = pair_instance(n, 1e-3, rng, a_norm=a_norm)
    return inst, _rotated(inst.a, inst.b, haar_unitary(n, rng))


class TestEigenbasisCore:
    """The correction runs in the eigenbasis of a, whatever basis the input
    arrives in."""

    def test_stages_receive_diagonal_a(self, monkeypatch):
        seen = []

        def capture(name):
            original = getattr(pipeline, name)

            def wrapper(a, *args):
                seen.append((name, np.array(a)))
                return original(a, *args)
            return wrapper

        for name in ("band_smooth", "partition"):
            monkeypatch.setattr(pipeline, name, capture(name))
        _, (a, b) = _rotated_instance(12, 3.0, 21)
        theorem_c_correct(a, b, eps=0.1)
        lam = np.linalg.eigvalsh(a)
        assert [name for name, _ in seen] == ["band_smooth", "partition"]
        for _, captured in seen:
            assert np.all(captured[~np.eye(12, dtype=bool)] == 0.0)
            np.testing.assert_allclose(np.diag(captured).real, lam, rtol=0, atol=1e-12)

    def test_rotated_edge_sweeps_match_diagonal(self, monkeypatch):
        sweeps = []
        original = projections.commuting_approximation

        def record(*args):
            pair = original(*args)
            sweeps.append(pair.report.sweeps)
            return pair

        monkeypatch.setattr(projections, "commuting_approximation", record)
        inst, (a, b) = _rotated_instance(32, 3.0, 22)
        mean = {}
        for label, pair in (("diagonal", (inst.a, inst.b)), ("rotated", (a, b))):
            sweeps.clear()
            theorem_c_correct(*pair, eps=0.1)
            mean[label] = float(np.mean(sweeps))
        assert mean["rotated"] <= mean["diagonal"] + 1.0, mean

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("a_norm", [3.0, 100.0])
    def test_unitary_covariance(self, n, a_norm):
        inst, (a, b) = _rotated_instance(n, a_norm, 23)
        plain = theorem_c_correct(inst.a, inst.b, eps=0.1)
        rotated = theorem_c_correct(a, b, eps=0.1)
        tol = 1e-12 * max(1.0, a_norm)
        for field in ("compress_defect_a", "compress_defect_b"):
            assert getattr(rotated, field) == pytest.approx(getattr(plain, field), abs=tol)
        assert rotated.pair.dist_a == pytest.approx(plain.pair.dist_a, abs=tol)
        assert rotated.pair.dist_b == pytest.approx(plain.pair.dist_b, abs=tol)
        assert rotated.block_count == plain.block_count
        np.testing.assert_allclose(rotated.block_comms, plain.block_comms, rtol=0, atol=tol)

    @pytest.mark.parametrize("a_norm", [1e5, 1e6])
    def test_large_norm_rotation_is_self_adjoint(self, a_norm):
        # the rounding of u a u* grows with ||a||, beyond an absolute 1e-12
        # at these norms; the input is not symmetrized before the check
        n = 16
        rng = instance_rng(23, n, 0, int(a_norm))
        inst = pair_instance(n, 1e-3, rng, a_norm=a_norm)
        u = haar_unitary(n, rng)
        a, b = (u @ x @ u.conj().T for x in (inst.a, inst.b))
        assert np.max(np.abs(a - a.conj().T)) > 1e-12
        plain = theorem_c_correct(inst.a, inst.b, eps=0.1)
        rotated = theorem_c_correct(a, b, eps=0.1)
        tol = 1e-12 * a_norm
        for field in ("compress_defect_a", "compress_defect_b"):
            assert getattr(rotated, field) == pytest.approx(getattr(plain, field), abs=tol)
        assert rotated.pair.dist_a == pytest.approx(plain.pair.dist_a, abs=tol)
        assert rotated.pair.dist_b == pytest.approx(plain.pair.dist_b, abs=tol)
        assert rotated.block_count == plain.block_count
        assert not rotated.out_of_regime
        np.testing.assert_allclose(rotated.block_comms, plain.block_comms, rtol=0, atol=tol)


def all_pairs_tridiagonal(part, a, b):
    """max ||q_i^* x q_j|| over every block pair with k_j - k_i > 1."""
    return max((op_norm(bi.q.conj().T @ x @ bj.q)
                for bi in part.blocks for bj in part.blocks if bj.k - bi.k > 1
                for x in (a, b)), default=0.0)


def eigenbasis_partition(n, a_norm, haar, seed):
    """(a, smoothed b, partition) as theorem_c_correct builds them."""
    inst, rotated = _rotated_instance(n, a_norm, seed)
    a, b = rotated if haar else (inst.a, inst.b)
    dec = spectral_decomp(a)
    a_diag = np.diag(dec.eigenvalues).astype(complex)
    smoothed = band_smooth(a_diag, dec.basis.conj().T @ b @ dec.basis)
    return a_diag, smoothed, partition(a_diag, smoothed, 0.1)


def counting_op_norm(monkeypatch):
    calls = []

    def counted(x):
        calls.append(x.shape)
        return op_norm(x)

    monkeypatch.setattr(pipeline, "op_norm", counted)
    return calls


class TestTridiagonalCheck:
    """Block pairs whose supports meet no nonzero entry are skipped, and the
    value equals the all-pairs one."""

    @pytest.mark.parametrize("n, a_norm, haar", [(16, 100.0, False), (64, 30.0, False),
                                                 (32, 3.0, True)])
    def test_pipeline_partition_skips_every_pair(self, n, a_norm, haar, monkeypatch):
        a, b, part = eigenbasis_partition(n, a_norm, haar, 31)
        assert any(bj.k - bi.k > 1 for bi in part.blocks for bj in part.blocks)
        expected = all_pairs_tridiagonal(part, a, b)
        calls = counting_op_norm(monkeypatch)
        assert tridiagonal_check(part, a, b) == expected == 0.0
        assert calls == []

    def test_rotated_blocks_measure_every_pair(self, monkeypatch):
        # blocks rotated by a Haar unitary have full supports: nothing is
        # skipped and the far products are no longer zero
        a, b, part = eigenbasis_partition(16, 100.0, False, 31)
        u = haar_unitary(16, np.random.default_rng(37))
        part = dataclasses.replace(part, blocks=tuple(
            dataclasses.replace(blk, q=u @ blk.q) for blk in part.blocks))
        far = sum(bj.k - bi.k > 1 for bi in part.blocks for bj in part.blocks)
        expected = all_pairs_tridiagonal(part, a, b)
        calls = counting_op_norm(monkeypatch)
        assert tridiagonal_check(part, a, b) == expected
        assert expected > 1e-3
        assert len(calls) == 2 * far


class TestSolverWork:
    def test_payload_carries_no_solver_report(self):
        # rotation and sweep counts are for inspection only: the payload
        # keeps exactly its fields, so its bytes do not depend on them
        inst = pair_instance(12, 1e-3, instance_rng(31, 0, 0, 0))
        result = theorem_c_correct(inst.a, inst.b, eps=0.1)
        assert result.pair.report is None
        assert sorted(result.to_payload()) == [
            "b_rescale", "basis", "block_comms", "block_count", "compress_defect_a",
            "compress_defect_b", "diag_a", "diag_b", "dist_a", "dist_b", "eps_used",
            "nu", "out_of_regime", "tridiag_residual"]


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

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError, match="eps"):
            modulus_sweep(dims=(4,), nu_targets=(1e-3,), trials=1, seed=15, eps=0.0)

    @pytest.mark.parametrize("grid", ["dims", "nu_targets"])
    def test_rejects_empty_grid(self, grid):
        grids = {"dims": (4,), "nu_targets": (1e-3,), grid: ()}
        with pytest.raises(ValueError, match=f"{grid} must be nonempty"):
            modulus_sweep(**grids, trials=1, seed=15)

    def test_bad_trial_is_a_flagged_row(self):
        # pair_instance raises ValueError at n=1: that row is flagged and the
        # n=8 rows still run
        rows = modulus_sweep(dims=(1, 8), nu_targets=(1e-2,), trials=2, seed=16)
        assert [r.n for r in rows] == [1, 1, 8, 8]
        for r in rows[:2]:
            assert r.flag == "error:ValueError"
            assert math.isnan(r.dist_a) and math.isnan(r.dist_b)
        assert all(math.isfinite(r.dist_a) and math.isfinite(r.dist_b) for r in rows[2:])
        assert set(sweep_medians(rows)) == {(8, 1e-2)}

    def test_linalg_error_is_a_flagged_row(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(pipeline, "theorem_c_correct", fail)
        rows = modulus_sweep(dims=(4,), nu_targets=(1e-3,), trials=1, seed=17)
        assert rows[0].flag == "error:LinAlgError"
        assert math.isnan(rows[0].dist_b)
