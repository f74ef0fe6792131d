"""End-to-end correction pipeline and the sweep harness."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from nearcomm import pipeline, projections
from nearcomm.calibration import load_calibration
from nearcomm.ensembles import haar_unitary, instance_rng, pair_instance
from nearcomm.errors import BlockNormViolation, NearcommError
from nearcomm.hermitian import (_spectral_decomp, commutator, hermitian_part, op_norm,
                                spectral_decomp)
from nearcomm.pipeline import (SWEEP_HEADER, modulus_sweep, sweep_medians,
                               sweep_rows_to_csv, theorem_c_correct,
                               tridiagonal_check)
from nearcomm.projections import partition
from nearcomm.kernels import band_smooth
from test_projections import correction_outcome, spin_pair


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

    @pytest.mark.parametrize("nu", [np.nan, np.inf])
    def test_rejects_non_finite_nu_target(self, nu):
        with pytest.raises(ValueError, match="nu_target must be finite"):
            pair_instance(4, nu, instance_rng(3, 0, 0, 0))

    @pytest.mark.parametrize("n", [0, 1])
    def test_rejects_size_below_two_with_positive_nu(self, n):
        with pytest.raises(ValueError, match=rf"n = {n} < 2 admits no nonzero commutator"):
            pair_instance(n, 1e-3, instance_rng(4, 0, 0, 0))

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
        inst = pair_instance(8, 0.5, instance_rng(7, 0, 0, 0))
        res = theorem_c_correct(inst.a, inst.b, eps=0.05)
        assert res.out_of_regime
        assert inst.nu_measured > load_calibration().admissible_nu(0.05)
        ok = pair_instance(8, 1e-3, instance_rng(7, 0, 0, 1))
        assert not theorem_c_correct(ok.a, ok.b, eps=0.05).out_of_regime

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
        value = tridiagonal_check(*block_frame(part, a, smoothed))
        assert value == pytest.approx(far_part_norm(part, a, smoothed), abs=1e-12)
        assert value < 1e-12
        # control: the unsmoothed b keeps the far entry
        value = tridiagonal_check(*block_frame(part, a, b))
        assert value == pytest.approx(far_part_norm(part, a, b), abs=1e-12)
        assert value > 0.4


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
        """band_smooth sees s diag(lambda) on every coordinate, and partition
        sees it on the coupled coordinates only.  The rotated n=32, ||a|| = 3
        input of seed 21 couples 15 of its 32 coordinates at s = 16."""
        seen = []

        def capture(name):
            original = getattr(pipeline, name)

            def wrapper(a, *args):
                result = original(a, *args)
                seen.append((name, np.array(a), result))
                return result
            return wrapper

        for name in ("band_smooth", "partition"):
            monkeypatch.setattr(pipeline, name, capture(name))
        _, (a, b) = _rotated_instance(32, 3.0, 21)
        res = theorem_c_correct(a, b, eps=0.1)
        # both stages see s diag(lambda), for the power of two s reported
        s = res.scale
        assert s > 1 and math.frexp(s)[0] == 0.5
        lam = s * np.linalg.eigvalsh(a)
        assert [name for name, _, _ in seen] == ["band_smooth", "partition"]
        coupled = coupled_coordinates(seen[0][2])
        assert 0 < np.count_nonzero(coupled) < 32
        for (_, captured, _), want in zip(seen, (lam, lam[coupled])):
            assert np.all(captured[~np.eye(len(want), dtype=bool)] == 0.0)
            np.testing.assert_allclose(np.diag(captured).real, want, rtol=0, atol=1e-12 * s)

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

    def test_block_solves_start_diagonal_in_a(self, monkeypatch):
        """Each block solve receives its a-block as a real ascending diagonal.
        On the rotated n=64, ||a|| = 3 instance of seed 25, at its window
        scale s = 16, the 25 block solves of the coupled coordinates take 36
        sweeps in all, as many as when each block starts in the basis that
        the partition hands over (before deflation, 34 solves took 35; at
        s = 1, 9 against 13)."""
        seen = []
        original = pipeline.commuting_approximation

        def record(a, b):
            pair = original(a, b)
            seen.append((np.array(a), pair.report.sweeps))
            return pair

        monkeypatch.setattr(pipeline, "commuting_approximation", record)
        _, (a, b) = _rotated_instance(64, 3.0, 25)
        assert theorem_c_correct(a, b, eps=0.1).scale == 16.0
        assert seen
        for a_blk, _ in seen:
            assert np.isrealobj(a_blk)
            np.testing.assert_array_equal(a_blk, np.diag(np.diag(a_blk)))
            assert np.all(np.diff(np.diag(a_blk)) >= 0.0)
        assert sum(sweeps for _, sweeps in seen) <= 36

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


def coupled_coordinates(smoothed):
    """The coordinates whose row of the smoothed b is nonzero off the diagonal."""
    return np.any((smoothed != 0) & ~np.eye(len(smoothed), dtype=bool), axis=1)


def block_frame(part, a, b):
    """(ks, Q* a Q, Q* b Q) for the block basis Q = [q_1 ... q_m], with ks
    the k of each column's block, as theorem_c_correct forms them."""
    q = np.concatenate([blk.q for blk in part.blocks], axis=1)
    ks = np.repeat([blk.k for blk in part.blocks], [blk.q.shape[1] for blk in part.blocks])
    return ks, hermitian_part(q.conj().T @ a @ q), hermitian_part(q.conj().T @ b @ q)


def far_part_norm(part, a, b):
    """The n x n definition: max over x in {a, b} of the norm of the sum of
    p_i x p_j over block pairs with |k_i - k_j| > 1, where p_i = q_i q_i*."""
    projs = [(blk.k, blk.q @ blk.q.conj().T) for blk in part.blocks]
    return max(op_norm(sum((pi @ x @ pj for ki, pi in projs for kj, pj in projs
                            if abs(kj - ki) > 1), np.zeros_like(x)))
               for x in (a, b))


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
    """The far part of the pair in the block basis: the n x n far-part norm,
    exactly zero on pipeline partitions, where it costs no norm."""

    @pytest.mark.parametrize("n, a_norm, haar", [(16, 100.0, False), (64, 30.0, False),
                                                 (32, 3.0, True)])
    def test_pipeline_partition_skips_every_pair(self, n, a_norm, haar, monkeypatch):
        a, b, part = eigenbasis_partition(n, a_norm, haar, 31)
        assert any(bj.k - bi.k > 1 for bi in part.blocks for bj in part.blocks)
        expected = far_part_norm(part, a, b)
        frame = block_frame(part, a, b)
        calls = counting_op_norm(monkeypatch)
        assert tridiagonal_check(*frame) == expected == 0.0
        assert calls == []

    def test_rotated_blocks_measure_every_pair(self, monkeypatch):
        # blocks rotated by a Haar unitary have full supports: the far part
        # is no longer zero, and its norm bounds every single block pair's
        a, b, part = eigenbasis_partition(16, 100.0, False, 31)
        u = haar_unitary(16, np.random.default_rng(37))
        part = dataclasses.replace(part, blocks=tuple(
            dataclasses.replace(blk, q=u @ blk.q) for blk in part.blocks))
        expected = far_part_norm(part, a, b)
        frame = block_frame(part, a, b)
        calls = counting_op_norm(monkeypatch)
        value = tridiagonal_check(*frame)
        assert abs(value - expected) <= 1e-12 * max(1.0, op_norm(a))
        assert value >= all_pairs_tridiagonal(part, a, b) > 1e-3
        assert len(calls) == 2


class TestCompressionDefects:
    """compress_defect_x equals ||x - sum_k p_k x p_k||, formed n x n from
    the blocks of the coupled coordinates and the rank-1 projections of the
    deflated ones, in the eigenbasis of a where the blocks live."""

    @pytest.mark.parametrize("n, a_norm, haar", [(16, 100.0, False), (64, 30.0, False),
                                                 (32, 3.0, True)])
    def test_defects_match_the_n_by_n_oracle(self, n, a_norm, haar, monkeypatch):
        smoothed, parts = record_smoothing_and_partition(monkeypatch)
        inst, rotated = _rotated_instance(n, a_norm, 41)
        res = theorem_c_correct(*(rotated if haar else (inst.a, inst.b)), eps=0.1)
        ((a_scaled, b),) = smoothed
        assert res.scale > 1
        coupled = coupled_coordinates(b)
        if not np.any(coupled):
            # at s = 16 the smoothed b joins no two eigenvalues of the wide
            # spectrum: every coordinate is deflated, and nothing is partitioned
            assert parts == []
            assert res.compress_defect_a == res.compress_defect_b == 0.0
            return
        (part,) = parts
        # the partition sees s a; compress_defect_a is in a's own units
        a = a_scaled / res.scale
        embed = np.eye(n)[:, coupled]
        projs = [embed @ blk.q @ blk.q.conj().T @ embed.T for blk in part.blocks]
        projs += [np.diag(np.eye(n)[i]) for i in np.flatnonzero(~coupled)]
        tol = 1e-12 * max(1.0, op_norm(a))
        for x, got in ((a, res.compress_defect_a), (b, res.compress_defect_b)):
            expected = op_norm(x - sum(p @ x @ p for p in projs))
            assert abs(got - expected) <= tol
        if all(blk.q.shape[1] == 1 for blk in part.blocks):
            assert res.compress_defect_a == res.compress_defect_b == 0.0
        else:
            assert res.compress_defect_a > 0.0 and res.compress_defect_b > 0.0


def record_smoothing_and_partition(monkeypatch):
    """Lists that fill with (s diag(lambda), smoothed b) per band_smooth call
    and with the partition of each partition call of theorem_c_correct."""
    smoothed, parts = [], []
    original_smooth, original_partition = pipeline.band_smooth, pipeline.partition

    def smooth(a, b):
        result = original_smooth(a, b)
        smoothed.append((np.array(a), result))
        return result

    def record(a, b, eps):
        parts.append(original_partition(a, b, eps))
        return parts[-1]

    monkeypatch.setattr(pipeline, "band_smooth", smooth)
    monkeypatch.setattr(pipeline, "partition", record)
    return smoothed, parts


class TestSolverWork:
    def test_each_block_makes_one_eigensolve(self, monkeypatch):
        # per coupled block: one unchecked decomposition of the rescaled
        # a-block, whose eigenvalues also give the norm gate, and one op_norm,
        # of the block commutator; a deflated coordinate makes neither.  The
        # other op_norm calls are four of n x n arrays (nu, ||b||, dist_a,
        # dist_b) and the two compression defects on the m coupled
        # coordinates; this partition's far part is exactly zero, so its
        # check takes no norm
        decomps = []

        def counted(x):
            decomps.append(x.shape)
            return _spectral_decomp(x)

        monkeypatch.setattr(pipeline, "_spectral_decomp", counted)
        norms = counting_op_norm(monkeypatch)
        _, parts = record_smoothing_and_partition(monkeypatch)
        _, (a, b) = _rotated_instance(32, 3.0, 31)
        res = theorem_c_correct(a, b, eps=0.1)
        (part,) = parts
        coupled_blocks = len(part.blocks)
        m = sum(blk.q.shape[1] for blk in part.blocks)
        assert 1 < coupled_blocks < res.block_count and 0 < m < 32
        assert res.block_count == coupled_blocks + 32 - m
        assert decomps[0] == (32, 32) and len(decomps) == 1 + coupled_blocks
        assert len(norms) == 6 + coupled_blocks
        assert sum(shape == (32, 32) for shape in norms) == 4
        assert sum(shape == (m, m) for shape in norms) == 2

    def test_block_norm_gate_reads_the_block_spectrum(self, monkeypatch):
        # the gate's norm is max |eigenvalue| of the block decomposition
        # that the solve starts from: pushing those eigenvalues past 1
        # raises, and the message carries the norm read
        calls, norms = [], []

        def shifted(x):
            dec = _spectral_decomp(x)
            calls.append(x.shape)
            if len(calls) == 1:         # the decomposition of a itself
                return dec
            norms.append(float(np.max(np.abs(dec.eigenvalues + 2.0))))
            return dataclasses.replace(dec, eigenvalues=dec.eigenvalues + 2.0)

        # n = 16 of this seed couples 8 coordinates into blocks; n = 8 couples
        # none, so no block solve and no gate would run
        inst = pair_instance(16, 1e-3, instance_rng(7, 0, 0, 1))
        monkeypatch.setattr(pipeline, "_spectral_decomp", shifted)
        with pytest.raises(BlockNormViolation, match=r"norm \d\.\d{8} exceeds 1") as info:
            theorem_c_correct(inst.a, inst.b, eps=0.05)
        assert len(calls) == 2 and norms[0] > 1.0 + pipeline.BLOCK_NORM_SLACK
        assert f"norm {norms[0]:.8f} exceeds 1" in str(info.value)

    def test_payload_carries_no_solver_report(self):
        # rotation and sweep counts are for inspection only: the payload
        # keeps exactly its fields, so its bytes do not depend on them
        inst = pair_instance(12, 1e-3, instance_rng(31, 0, 0, 0))
        result = theorem_c_correct(inst.a, inst.b, eps=0.1)
        assert result.pair.report is None
        assert sorted(result.to_payload()) == [
            "b_rescale", "basis", "block_comms", "block_count", "compress_defect_a",
            "compress_defect_b", "diag_a", "diag_b", "dist_a", "dist_b", "eps_used",
            "nu", "out_of_regime", "scale", "tridiag_residual"]


def payload_digest(res):
    """sha256 of the payload without scale, which is new, and without nu,
    dist_a and dist_b, which moved by rounding when they left the SVD path."""
    payload = res.to_payload()
    for key in ("scale", "nu", "dist_a", "dist_b"):
        del payload[key]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def is_power_of_two_scale(s):
    return 1.0 <= s <= pipeline.SCALE_CEILING and math.frexp(s)[0] == 0.5


class TestWindowScale:
    """One power of two s per run: the windows are unit windows of s a."""

    # (case, scale, b_rescale, digest, nu, dist_a, dist_b) of the parent code,
    # pinned on numpy 2.4.6 / scipy 1.17.1 with OpenBLAS on one thread.
    # flagged-b3 has a coordinate that the smoothed b couples to no other:
    # deflated, it is a block of its own (block_count 5 -> 6) whose column is
    # exactly its eigenvector of a, which the polar step used to round, so
    # its digest is the deflating code's; nu, dist_a and dist_b are the parent's
    PINNED = (
        ("nu-0.05", 1.0, 1.0,
         "ba226b4c8b1ab50fd888a3fcb1f6ab89300d191a0aaaa72793d589f62fddd62b",
         0.04950617815794839, 0.0019050999735375556, 0.04665861142725005),
        ("flagged-b3", 1.0, 3.0000000000000013,
         "1e594fa09804f73c7b20ea1bc01d3426c8e0f1b04c94028969bd02976f7c7f3d",
         1.4617541638500615, 0.011348607497196194, 0.6091010798469283),
    )

    @staticmethod
    def pinned_input(case):
        if case == "nu-0.05":       # 2 nu > eps/4
            inst = pair_instance(8, 0.05, instance_rng(5, 0, 0, 0))
            return inst.a, inst.b, 0.1
        inst = pair_instance(12, 0.5, instance_rng(6, 0, 0, 0), a_norm=5.0)
        return inst.a, 3.0 * inst.b, 0.05

    @pytest.mark.parametrize("case, scale, b_rescale, digest, nu, dist_a, dist_b", PINNED,
                             ids=[row[0] for row in PINNED])
    def test_unit_scale_reproduces_parent_bytes(self, case, scale, b_rescale, digest,
                                                nu, dist_a, dist_b):
        res = theorem_c_correct(*self.pinned_input(case))
        assert res.scale == scale and res.b_rescale == b_rescale
        assert payload_digest(res) == digest
        for got, want in ((res.nu, nu), (res.pair.dist_a, dist_a), (res.pair.dist_b, dist_b)):
            assert got == pytest.approx(want, rel=1e-14)

    EDGE_CASES = (
        (16, 3.0, 0.0, 2.0 ** 10), (16, 1e-8, 0.0, 2.0 ** 10), (16, 1e4, 0.0, 2.0 ** 10),
        (16, 1e4, 1e-3, 16.0), (16, 1e9, 1e-3, 8.0), (16, 1e11, 1e-3, 1.0),
        # every coordinate is deflated here, so no partition runs; before
        # deflation each lost an eigenvalue, a BlockNormViolation (n = 1: a
        # numpy ValueError)
        *((8, a_norm, nu, 1.0) for a_norm in (1e12, 1e15, 1e16, 1e300) for nu in (0.0, 1e-3)),
        (1, 1e15, 0.0, 1.0), (1, 1e300, 0.0, 1.0))

    @pytest.mark.parametrize("n, a_norm, nu, expected", EDGE_CASES, ids=[
        "-".join(map(str, case[1:] if case[0] == 16 else case)) for case in EDGE_CASES])
    def test_edge_cases_commute(self, n, a_norm, nu, expected, monkeypatch):
        seen = []
        original = pipeline.band_smooth

        def record(a, b):
            seen.append(np.diag(a).real)
            return original(a, b)

        monkeypatch.setattr(pipeline, "band_smooth", record)
        inst = pair_instance(n, nu, instance_rng(7, 0, 0, 0), a_norm=a_norm)
        res = theorem_c_correct(inst.a, inst.b, eps=0.1)
        # s ||a|| stays below SCALED_NORM_LIMIT unless s = 1: at 1e11 a larger
        # s would push the windows' endpoint band past a quarter window
        assert res.scale == expected and is_power_of_two_scale(res.scale)
        (lam,) = seen
        assert np.all(np.isfinite(lam))
        pair = res.pair
        scale = (max(1.0, float(np.max(np.abs(pair.diag_a))))
                 * max(1.0, float(np.max(np.abs(pair.diag_b)))))
        assert pair.commutation_residual() <= 1e-12 * scale

    def test_coupled_pair_at_large_norm_is_a_named_error(self):
        """Open: partition still loses an eigenvalue of a coupled pair once
        s ||a|| reaches about 1e12, where the endpoint band 1e-12 s ||a||
        takes a quarter window; it is named, not a numpy error.  At 1e11 the
        same pair is corrected."""
        b = np.array([[0.2, 0.1, 0.0], [0.1, -0.3, 0.0], [0.0, 0.0, 0.5]])
        for base, gap in ((1e11, 0.3), (1e12, 0.1)):
            res = theorem_c_correct(np.diag([base, base + gap, base + 7.0]), b, eps=0.1)
            assert res.block_count == 2 and res.pair.commutation_residual() == 0.0
        for base in (1e12, 1e13, 1e16):
            with pytest.raises(BlockNormViolation, match="partition incomplete"):
                theorem_c_correct(np.diag([base, base + 0.3, base + 7.0]), b, eps=0.1)

    @pytest.mark.parametrize("a_norm", [1e300, 1.7e308])
    @pytest.mark.parametrize("nu", [0.0, 1e-3, math.inf])
    def test_rule_stays_finite_at_the_float_range(self, a_norm, nu):
        s = pipeline._window_scale(nu, 0.1, 0.3, a_norm)
        assert s == 1.0 and math.isfinite(s * a_norm)

    def test_flag_compares_the_unscaled_nu(self):
        """s nu > admissible exactly when nu > admissible, on the calibrated
        grid and on either side of each admissible value."""
        table = load_calibration()
        nus = sorted({*table.meta["nu_grid"], 0.0, *(f * adm for adm in table.nu_admissible
                                                      for f in (0.5, 1.0, 1.0 + 1e-15, 2.0))})
        for eps in table.eps_grid:
            adm = table.admissible_nu(eps)
            for nu in nus:
                s = pipeline._window_scale(nu, eps, adm, 3.0)
                assert is_power_of_two_scale(s)
                assert (s * nu > adm) == (nu > adm), (eps, nu, s)
        ran = 0
        for i_eps, eps in enumerate(table.eps_grid):
            for i_nu, nu in enumerate(table.meta["nu_grid"]):
                inst = pair_instance(8, nu, instance_rng(13, i_eps, i_nu, 0))
                try:
                    res = theorem_c_correct(inst.a, inst.b, eps)
                except NearcommError:
                    continue
                ran += 1
                assert res.out_of_regime == (res.nu > table.admissible_nu(eps))
        assert ran >= 60

    def test_edge_solves_stay_small_on_a_dense_spectrum(self, monkeypatch):
        # diagonal n=128, ||a|| = 3: at s = 1 the largest edge solve had 69
        # coordinates; at the chosen s = 16 it has 9
        sizes = []
        original = projections.commuting_approximation

        def record(x, c):
            sizes.append(x.shape[0])
            return original(x, c)

        monkeypatch.setattr(projections, "commuting_approximation", record)
        inst = pair_instance(128, 1e-3, instance_rng(3, 0, 0, 0), a_norm=3.0)
        assert theorem_c_correct(inst.a, inst.b, eps=0.1).scale == 16.0
        assert 0 < max(sizes) <= 16

    @pytest.mark.parametrize("spin", [4, 8, 16])
    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0])
    def test_spin_scale_is_never_needlessly_trivial(self, spin, eps, monkeypatch):
        """Against s in {1, 2, 4}: the chosen s returns the trivial answer
        (dist_b >= 0.999 ||b||) only where no other s does better, and fails
        only where every other s fails or is trivial.  At S = 16, nu reads
        1/16 up to rounding, so 2 nu sits on the 1/8 line; it counts as on
        it (SCALE_LINE_RTOL) and s = 2 is chosen, where s = 1 fails."""
        a, b = spin_pair(spin)
        _, chosen = correction_outcome(a, b, eps)
        others = {}
        for s in (1.0, 2.0, 4.0):
            monkeypatch.setattr(pipeline, "_window_scale", lambda *args, s=s: s)
            others[s] = correction_outcome(a, b, eps)[1]
        answers = [res.pair.dist_b for res in others.values() if res is not None]
        if chosen is None:
            assert all(d >= 0.999 for d in answers), others
            return
        if chosen.pair.dist_b >= 0.999:
            assert all(d >= 0.999 for d in answers), others
        if spin == 16 and eps >= 1.0:
            assert chosen.scale == 2.0 and chosen.pair.dist_b < 0.6


class TestDeflation:
    """A coordinate whose row of the smoothed b is zero off the diagonal is
    an exact joint eigenvector of (s diag(lambda), smoothed b): it is its own
    rank-1 block, after the coupled blocks, in ascending lambda."""

    def test_no_isolated_coordinate_keeps_parent_bytes(self, monkeypatch):
        # the rotated n=32, ||a|| = 0.5 input of seed 10 couples all of its
        # coordinates at s = 16; sha256 of its whole payload at the parent,
        # pinned on numpy 2.4.6 / scipy 1.17.1 with OpenBLAS on one thread
        smoothed, _ = record_smoothing_and_partition(monkeypatch)
        _, (a, b) = _rotated_instance(32, 0.5, 10)
        res = theorem_c_correct(a, b, eps=0.1)
        assert res.scale == 16.0 and np.all(coupled_coordinates(smoothed[0][1]))
        payload = json.dumps(res.to_payload(), sort_keys=True).encode()
        assert hashlib.sha256(payload).hexdigest() == (
            "e7ba52160a1bae4d4129909d2bb5c05e73b05f70c4e1267c7394e95775c078b6")

    @pytest.mark.parametrize("n, a_norm, haar, b_scale", [(32, 3.0, True, 1.0),
                                                          (16, 100.0, False, 1.0),
                                                          (24, 3.0, True, 2.5)])
    def test_deflated_coordinates_are_exact(self, n, a_norm, haar, b_scale, monkeypatch):
        smoothed, _ = record_smoothing_and_partition(monkeypatch)
        inst, rotated = _rotated_instance(n, a_norm, 43)
        a, b = rotated if haar else (inst.a, inst.b)
        res = theorem_c_correct(a, b_scale * b, eps=0.1)
        ((_, b_smooth),) = smoothed
        single = np.flatnonzero(~coupled_coordinates(b_smooth))
        assert single.size > 0
        dec = spectral_decomp(a)
        tail = slice(n - single.size, n)
        pair = res.pair
        assert pair.basis[:, tail].tobytes() == dec.basis[:, single].tobytes()
        assert pair.diag_a[tail].tobytes() == dec.eigenvalues[single].tobytes()
        want_b = b_smooth.real[single, single] * res.b_rescale
        assert pair.diag_b[tail].tobytes() == want_b.tobytes()
        assert res.block_comms[-single.size:] == (0.0,) * single.size
        assert np.all(np.diff(pair.diag_a[tail]) > 0)


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

    @pytest.mark.parametrize("dims, nu_targets, message", [
        ((0,), (1e-3,), r"^dims must be nonempty, each >= 1, got \(0,\)$"),
        ((4,), (math.nan,), r"^nu_targets must be nonempty, each finite and >= 0, got \(nan,\)$"),
        ((4,), (-1.0,), r"^nu_targets must be nonempty, each finite and >= 0, got \(-1\.0,\)$"),
    ], ids=["dims-zero", "nu-nan", "nu-negative"])
    def test_rejects_malformed_grid_before_any_trial(self, dims, nu_targets, message,
                                                     monkeypatch):
        # a grid no trial can run is the caller's error, not a row of data;
        # pair_instance is removed, so a trial that started would raise TypeError
        monkeypatch.setattr(pipeline, "pair_instance", None)
        with pytest.raises(ValueError, match=message):
            modulus_sweep(dims=dims, nu_targets=nu_targets, trials=1, seed=7)

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
