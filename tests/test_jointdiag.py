"""Joint Jacobi diagonalization: optimality, monotonicity, determinism."""

import numpy as np
import pytest

from nearcomm.hermitian import commutator, op_norm
from nearcomm.jointdiag import (_apply_round, _round_rotations, _schedule,
                                commuting_approximation, joint_diagonalize)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(n, rng):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (g + g.conj().T)


def banded_pair(n, rng, width=4, scale=1e-2):
    """Diagonal a and diagonal-plus-banded b: most Jacobi pairs stay idle."""
    a = np.diag(np.sort(rng.uniform(0.0, 3.0, n))).astype(complex)
    offset = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    b = np.diag(rng.uniform(-1.0, 1.0, n)) + scale * random_hermitian(n, rng) * (offset <= width)
    return a, b


def all_pairs_round(stack, u, idx_i, idx_j, c, s):
    """Every-pair round update, kept as the reference for `_apply_round`."""
    sc = np.conj(s)
    ci, cj = stack[:, :, idx_i], stack[:, :, idx_j]
    stack[:, :, idx_i] = ci * c + cj * s
    stack[:, :, idx_j] = cj * c - ci * sc
    ri, rj = stack[:, idx_i, :], stack[:, idx_j, :]
    stack[:, idx_i, :] = ri * c[:, None] + rj * sc[:, None]
    stack[:, idx_j, :] = rj * c[:, None] - ri * s[:, None]
    ui, uj = u[:, idx_i], u[:, idx_j]
    u[:, idx_i] = ui * c + uj * s
    u[:, idx_j] = uj * c - ui * sc


def blocks_from_vectors(w):
    """Stack whose round (0,1), (2,3), ... has the 3-vectors w[m, p].

    The 2x2 block of matrix m at pair p is [[d/2, q], [conj q, -d/2]] with
    w[m, p] = (d, 2 Re q, -2 Im q).
    """
    count = w.shape[1]
    stack = np.zeros((2, 2 * count, 2 * count), dtype=complex)
    idx_i, idx_j = np.arange(0, 2 * count, 2), np.arange(1, 2 * count, 2)
    q = 0.5 * (w[..., 1] - 1j * w[..., 2])
    stack[:, idx_i, idx_i] = 0.5 * w[..., 0]
    stack[:, idx_j, idx_j] = -0.5 * w[..., 0]
    stack[:, idx_i, idx_j] = q
    stack[:, idx_j, idx_i] = q.conj()
    return stack, idx_i, idx_j


def rotation_axis(c, s):
    """The unit 3-vector v a rotation (c, s) aligns with the first axis."""
    return np.stack([2.0 * c * c - 1.0, 2.0 * c * s.real, 2.0 * c * s.imag], axis=-1)


def almost_commuting_pair(n, scale, rng):
    a = np.diag(rng.uniform(-1.0, 1.0, n)).astype(complex)
    b = np.diag(rng.uniform(-1.0, 1.0, n)).astype(complex)
    b += scale * random_hermitian(n, rng)
    return a, 0.5 * (b + b.conj().T)


class TestSchedule:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_round_robin_covers_all_pairs(self, n):
        rounds = _schedule(n)
        seen = set()
        for idx_i, idx_j in rounds:
            # pairs within one round are disjoint
            touched = list(idx_i) + list(idx_j)
            assert len(touched) == len(set(touched))
            seen.update(zip(idx_i.tolist(), idx_j.tolist()))
        assert seen == {(i, j) for i in range(n) for j in range(i + 1, n)}


class TestRoundKernels:
    @pytest.mark.parametrize("n", [5, 16, 64])
    def test_active_pairs_update_matches_all_pairs(self, n):
        rng = np.random.default_rng(71 + n)
        a, b = banded_pair(n, rng, width=2)
        a = a + 1e-3 * random_hermitian(n, rng)
        stack = np.stack([a, b])
        u = np.eye(n, dtype=complex) + 1e-2 * random_hermitian(n, rng)
        ref_stack, ref_u = stack.copy(), u.copy()
        idle_rounds = 0
        for sweep in range(2):
            for idx_i, idx_j in _schedule(n):
                c, s = _round_rotations(stack, idx_i, idx_j)
                if sweep == 0:
                    # idle some pairs by hand as well
                    drop = rng.random(len(s)) < 0.3
                    c, s = np.where(drop, 1.0, c), np.where(drop, 0.0, s)
                idle_rounds += bool(np.any(s == 0))
                applied = _apply_round(stack, u, idx_i, idx_j, c, s)
                all_pairs_round(ref_stack, ref_u, idx_i, idx_j, c, s)
                assert applied == np.count_nonzero(s)
                np.testing.assert_array_equal(stack, ref_stack)
                np.testing.assert_array_equal(u, ref_u)
        assert idle_rounds > 0

    def test_closed_form_axis_matches_eigh(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            w = rng.normal(size=(2, 100, 3)) * 10.0 ** rng.uniform(-3, 3, size=(2, 100, 1))
            stack, idx_i, idx_j = blocks_from_vectors(w)
            v = rotation_axis(*_round_rotations(stack, idx_i, idx_j))
            g = np.einsum("mpi,mpj->pij", w, w)
            top = np.linalg.eigh(g)[1][:, :, 2]
            err = np.minimum(np.linalg.norm(v - top, axis=1), np.linalg.norm(v + top, axis=1))
            assert np.max(err) < 1e-13
            np.testing.assert_allclose(np.linalg.norm(v, axis=1), 1.0, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("w0, w1, expected", [
        ((0, 0, 0), (0, 0, 0), (1, 0, 0)),                       # w = 0: identity
        ((0.3, -1.2, 0.7), (0, 0, 0), (0.3, -1.2, 0.7)),          # rank 1
        ((-0.3, 1.2, 0.7), (0.6, -2.4, -1.4), (0.3, -1.2, -0.7)),  # w0 parallel to w1
        ((0, 2, 0), (2, 0, 0), (1, 0, 0)),                       # (sigma_x, sigma_z)
        ((1, 2, 2), (2, 1, -2), (5, 4, -2)),                     # tie: project e_0
        ((0, 0, -3), (0, 3, 0), (0, 1, 0)),                      # tie orthogonal to e_0
    ], ids=["zero", "rank-one", "collinear", "pauli-tie", "tie", "tie-e1"])
    def test_closed_form_special_cases(self, w0, w1, expected):
        w = np.array([[w0], [w1]], dtype=float)
        stack, idx_i, idx_j = blocks_from_vectors(w)
        c, s = _round_rotations(stack, idx_i, idx_j)
        expected = np.asarray(expected, dtype=float) / np.linalg.norm(expected)
        np.testing.assert_allclose(rotation_axis(c, s)[0], expected, rtol=0, atol=1e-13)
        if expected[0] == 1.0:
            assert c[0] == 1.0 and s[0] == 0.0


class TestJointDiagonalize:
    def test_two_by_two_matches_brute_force(self):
        # scan the full plane-rotation family (angle, phase) and compare the
        # reachable off-diagonal energy with the solver's one-shot answer
        rng = np.random.default_rng(37)
        theta_grid = np.linspace(0.0, np.pi / 2, 241)
        phi_grid = np.linspace(-np.pi, np.pi, 240, endpoint=False)
        theta, phi = np.meshgrid(theta_grid, phi_grid, indexing="ij")
        c = np.cos(theta).astype(complex)
        s = np.sin(theta) * np.exp(1j * phi)
        v = np.stack([np.stack([c, s], -1), np.stack([-np.conj(s), c], -1)], -2)
        vh = np.conj(np.swapaxes(v, -1, -2))
        for _ in range(3):
            a = random_hermitian(2, rng)
            b = random_hermitian(2, rng)
            u, report = joint_diagonalize(a, b)
            energy = 0.0
            for m in (a, b):
                rotated = vh @ m @ v
                energy = energy + np.abs(rotated[..., 0, 1]) ** 2 + np.abs(rotated[..., 1, 0]) ** 2
            best = float(np.min(energy))
            # the scanned minimum can only overestimate the true optimum, so
            # the solver must land at or below it
            assert report.offdiag_energy <= best + 1e-6

    def test_unitarity(self):
        rng = np.random.default_rng(41)
        for n in (2, 4, 7):
            a, b = almost_commuting_pair(n, 0.05, rng)
            u, _ = joint_diagonalize(a, b)
            assert op_norm(u.conj().T @ u - np.eye(n)) < 1e-12

    def test_energy_trace_nonincreasing(self):
        rng = np.random.default_rng(43)
        a, b = almost_commuting_pair(6, 0.1, rng)
        _, report = joint_diagonalize(a, b)
        trace = np.asarray(report.trace)
        assert np.all(np.diff(trace) <= 1e-12 * max(1.0, trace[0]))

    def test_banded_energy_trace_nonincreasing(self):
        # most pairs stay idle in every round
        a, b = banded_pair(64, np.random.default_rng(67))
        _, report = joint_diagonalize(a, b)
        trace = np.asarray(report.trace)
        assert len(trace) > 2
        assert np.all(np.diff(trace) <= 1e-12 * max(1.0, trace[0]))

    def test_commuting_input_converges_immediately(self):
        a = np.diag([1.0, 2.0, 3.0]).astype(complex)
        b = np.diag([0.5, -0.5, 0.25]).astype(complex)
        _, report = joint_diagonalize(a, b)
        assert report.converged
        assert report.offdiag_energy == 0.0
        assert report.rotations == 0
        assert "rotations=0" in repr(report)

    def test_banded_pair_skips_idle_rotations(self):
        n = 64
        a, b = banded_pair(n, np.random.default_rng(61))
        _, report = joint_diagonalize(a, b)
        assert report.converged
        assert 0 < report.rotations < report.sweeps * n * (n - 1) // 2

    @pytest.mark.parametrize("pair", [(SX, SZ), (SZ, SX)], ids=["x-z", "z-x"])
    def test_exact_tie_keeps_identity(self, pair):
        # the optimal rotations form a circle that contains the identity;
        # ties break toward the smaller rotation angle
        u, report = joint_diagonalize(*pair)
        np.testing.assert_array_equal(u, np.eye(2))
        assert report.offdiag_energy == 2.0

    def test_deterministic(self):
        rng = np.random.default_rng(47)
        a, b = almost_commuting_pair(8, 0.02, rng)
        u1, r1 = joint_diagonalize(a.copy(), b.copy())
        u2, r2 = joint_diagonalize(a.copy(), b.copy())
        np.testing.assert_array_equal(u1, u2)
        assert r1.trace == r2.trace

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            joint_diagonalize(np.eye(2), np.eye(3))


class TestCommutingApproximation:
    def test_result_commutes_structurally(self):
        rng = np.random.default_rng(53)
        for n in (3, 6):
            a, b = almost_commuting_pair(n, 0.05, rng)
            pair = commuting_approximation(a, b)
            scale = max(op_norm(a), op_norm(b), 1.0)
            assert pair.commutation_residual() < 1e-13 * scale
            assert op_norm(commutator(pair.a1().m, pair.b1().m)) < 1e-13 * scale

    def test_small_perturbation_small_distance(self):
        # sigma_z paired with a slightly tilted sigma_z: the pair is within
        # O(0.01) of commuting, the solver must not move farther than that
        a = SZ
        b = SZ + 0.01 * SX
        pair = commuting_approximation(a, b)
        assert pair.dist_a < 0.02
        assert pair.dist_b < 0.02
        assert pair.dist_a + pair.dist_b > 0  # inputs do not commute

    def test_exact_input_distance_zero(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        b = np.diag([3.0, 4.0]).astype(complex)
        pair = commuting_approximation(a, b)
        assert pair.dist_a < 1e-14 and pair.dist_b < 1e-14

    def test_reconstruction_matches_diagonals(self):
        rng = np.random.default_rng(59)
        a, b = almost_commuting_pair(5, 0.03, rng)
        pair = commuting_approximation(a, b)
        u = pair.basis
        assert op_norm(pair.a1().m - (u * pair.diag_a) @ u.conj().T) < 1e-13
        assert op_norm(a - pair.a1().m) == pytest.approx(pair.dist_a, abs=1e-12)
        assert op_norm(b - pair.b1().m) == pytest.approx(pair.dist_b, abs=1e-12)

    def test_distance_scales_with_perturbation(self):
        dist = {}
        for scale in (1e-2, 1e-4):
            a, b = almost_commuting_pair(6, scale, np.random.default_rng(7))
            pair = commuting_approximation(a, b)
            dist[scale] = pair.dist_a + pair.dist_b
        assert dist[1e-4] < dist[1e-2]
