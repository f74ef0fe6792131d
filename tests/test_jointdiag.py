"""Joint Jacobi diagonalization: optimality, monotonicity, determinism."""

import math
import warnings

import numpy as np
import pytest

from nearcomm import jointdiag
from nearcomm.hermitian import as_array, commutator, op_norm
from nearcomm.jointdiag import (DEFAULT_MAX_SWEEPS, DEFAULT_TOL, SolverReport,
                                _apply_round, _entry_index, _off_energy,
                                _round_rotations, _schedule,
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


def frozen_rotations(stack, idx_i, idx_j):
    """`_round_rotations` for every pair of a round of the (2, n, n) stack,
    with the pairs it drops frozen at c=1, s=0."""
    n = stack.shape[1]
    work = np.concatenate([stack, np.eye(n, dtype=complex)[None]])
    idx, c, s = _round_rotations(work, np.concatenate([idx_i, idx_j]),
                                 _entry_index(n, idx_i, idx_j))
    active = np.isin(idx_i, idx[:len(s)])
    c_all, s_all = np.ones(len(idx_i)), np.zeros(len(idx_i), dtype=complex)
    c_all[active], s_all[active] = c, s
    return c_all, s_all


def reference_round_rotations(stack, idx_i, idx_j):
    """The per-round angle code the work-array kernel replaced, kept as its
    reference: full-length c, s with aligned pairs frozen at c=1, s=0."""
    diag = stack.diagonal(axis1=1, axis2=2)
    d = (diag[:, idx_i] - diag[:, idx_j]).real
    q = stack[:, idx_i, idx_j]
    g = d * d + 4.0 * (q * q.conj()).real
    g_ab = d[0] * d[1] + 4.0 * (q[0] * q[1].conj()).real
    t = 0.5 * np.arctan2(2.0 * g_ab, g[0] - g[1])
    k0, k1 = np.cos(t), np.sin(t)
    tie = (g[0] == g[1]) & (g_ab == 0.0)
    if tie.any():
        first = (d[0] != 0.0) | (d[1] != 0.0)
        k0 = np.where(tie, np.where(first, d[0], 2.0 * q[0].real), k0)
        k1 = np.where(tie, np.where(first, d[1], 2.0 * q[1].real), k1)
    vx = k0 * d[0] + k1 * d[1]
    z = k0 * q[0] + k1 * q[1]
    r = np.sqrt(vx * vx + 4.0 * (z * z.conj()).real)
    r = np.where(r > 0.0, r, 1.0)
    sign = np.sign(np.where(vx != 0.0, vx, np.where(z.real != 0.0, z.real, -z.imag)))
    h = r + np.abs(vx)
    c = np.sqrt(h / (2.0 * r))
    s = (2.0 * sign) * z.conj() / np.sqrt(2.0 * r * h)
    idle = np.abs(s) < 1e-15
    c = np.where(idle, 1.0, c)
    s = np.where(idle, 0.0, s)
    return c, s


def reference_apply_round(stack, u, idx_i, idx_j, c, s) -> int:
    """The per-round update the work-array kernel replaced: the active
    pairs of the stack and of u, mixed in three separate passes."""
    active = s != 0
    k = int(np.count_nonzero(active))
    if k == 0:
        return 0
    idx = np.concatenate([idx_i[active], idx_j[active]])
    c, s = c[active], s[active]
    col_mix = np.concatenate([s, -s.conj()]).reshape(2, k)
    row_mix = col_mix.conj()[:, :, None]
    n = u.shape[0]
    x = stack.take(idx, axis=2).reshape(2, n, 2, k)
    stack[:, :, idx] = (x * c + x[:, :, ::-1] * col_mix).reshape(2, n, 2 * k)
    x = stack.take(idx, axis=1).reshape(2, 2, k, n)
    stack[:, idx, :] = (x * c[:, None] + x[:, ::-1] * row_mix).reshape(2, 2 * k, n)
    x = u.take(idx, axis=1).reshape(n, 2, k)
    u[:, idx] = (x * c + x[:, ::-1] * col_mix).reshape(n, 2 * k)
    return k


def reference_joint_diagonalize(a, b):
    """The sweep loop over a separate stack and u, with the reference round."""
    stack = np.stack([as_array(a), as_array(b)]).astype(np.complex128)
    n = stack.shape[1]
    u = np.eye(n, dtype=np.complex128)
    frob2 = float(np.sum(np.abs(stack) ** 2))
    floor = (1e-15 * max(1.0, np.sqrt(frob2))) ** 2
    energy = _off_energy(stack)
    trace = [energy]
    converged = energy <= floor or n == 1
    sweeps = rotations = 0
    rounds = [pairs.reshape(2, -1) for pairs, _ in _schedule(n)] if n > 1 else ()
    while not converged and sweeps < DEFAULT_MAX_SWEEPS:
        for idx_i, idx_j in rounds:
            c, s = reference_round_rotations(stack, idx_i, idx_j)
            rotations += reference_apply_round(stack, u, idx_i, idx_j, c, s)
        sweeps += 1
        prev, energy = energy, _off_energy(stack)
        trace.append(energy)
        if energy <= floor or (prev - energy) <= DEFAULT_TOL * max(prev, floor):
            converged = True
    return u, tuple(trace), sweeps, rotations


def zero_block_pair(rng):
    """n=7 pair whose (3, 4) block has d = 0 in both matrices and q != 0 in
    a only (the vx = 0 fix-up), and whose (5, 6) blocks are exactly zero in
    both (the tie with r = 0)."""
    a = np.zeros((7, 7), dtype=complex)
    b = np.zeros((7, 7), dtype=complex)
    a[:3, :3], b[:3, :3] = random_hermitian(3, rng), random_hermitian(3, rng)
    a[3:5, 3:5] = [[0.4, 0.3 - 0.2j], [0.3 + 0.2j, 0.4]]
    b[3:5, 3:5] = np.diag([-0.2, -0.2])
    a[5:, 5:], b[5:, 5:] = np.diag([1.5, 1.5]), np.diag([0.7, 0.7])
    return a, b


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
        for pairs, entries in rounds:
            idx_i, idx_j = pairs.reshape(2, -1)
            np.testing.assert_array_equal(entries, _entry_index(n, idx_i, idx_j))
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
        u = np.eye(n, dtype=complex) + 1e-2 * random_hermitian(n, rng)
        work = np.stack([a, b, u])
        ref_stack, ref_u = work[:2].copy(), u.copy()
        idle_rounds = 0
        for sweep in range(2):
            for pairs, _ in _schedule(n):
                idx_i, idx_j = pairs.reshape(2, -1)
                c, s = frozen_rotations(work[:2], idx_i, idx_j)
                if sweep == 0:
                    # idle some pairs by hand as well
                    drop = rng.random(len(s)) < 0.3
                    c, s = np.where(drop, 1.0, c), np.where(drop, 0.0, s)
                idle_rounds += bool(np.any(s == 0))
                active = s != 0
                applied = _apply_round(work, np.concatenate([idx_i[active], idx_j[active]]),
                                       c[active], s[active])
                all_pairs_round(ref_stack, ref_u, idx_i, idx_j, c, s)
                assert applied == np.count_nonzero(s)
                np.testing.assert_array_equal(work[:2], ref_stack)
                np.testing.assert_array_equal(work[2], ref_u)
        assert idle_rounds > 0

    def test_closed_form_axis_matches_eigh(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            w = rng.normal(size=(2, 100, 3)) * 10.0 ** rng.uniform(-3, 3, size=(2, 100, 1))
            stack, idx_i, idx_j = blocks_from_vectors(w)
            v = rotation_axis(*frozen_rotations(stack, idx_i, idx_j))
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
        ((1e-100, 2e-100, 2e-100), (2e-100, 1e-100, -2e-100), (5, 4, -2)),  # tie, no underflow
    ], ids=["zero", "rank-one", "collinear", "pauli-tie", "tie", "tie-e1", "tie-tiny"])
    def test_closed_form_special_cases(self, w0, w1, expected):
        w = np.array([[w0], [w1]], dtype=float)
        stack, idx_i, idx_j = blocks_from_vectors(w)
        c, s = frozen_rotations(stack, idx_i, idx_j)
        expected = np.asarray(expected, dtype=float) / np.linalg.norm(expected)
        np.testing.assert_allclose(rotation_axis(c, s)[0], expected, rtol=0, atol=1e-13)
        if expected[0] == 1.0:
            assert c[0] == 1.0 and s[0] == 0.0


class TestReferenceKernel:
    """The work-array round is the same float operation on every element as
    the reference loop above, so every result matches it bit for bit."""

    @staticmethod
    def assert_same_run(a, b):
        u, report = joint_diagonalize(a, b)
        ref_u, trace, sweeps, rotations = reference_joint_diagonalize(a, b)
        assert u.tobytes() == ref_u.tobytes()
        assert report.trace == trace
        assert (report.sweeps, report.rotations) == (sweeps, rotations)
        return report

    @pytest.mark.parametrize("n", [2, 3, 7, 16, 23, 40])
    def test_almost_commuting(self, n):
        a, b = almost_commuting_pair(n, 0.05, np.random.default_rng(90 + n))
        assert self.assert_same_run(a, b).rotations > 0

    def test_banded_pair_with_idle_pairs(self):
        a, b = banded_pair(64, np.random.default_rng(61))
        report = self.assert_same_run(a, b)
        assert 0 < report.rotations < report.sweeps * 64 * 63 // 2

    @pytest.mark.parametrize("pair", [(SX, SZ), (SZ, SX)], ids=["x-z", "z-x"])
    def test_exact_ties(self, pair):
        self.assert_same_run(*pair)

    def test_zero_blocks_take_the_fix_ups(self):
        a, b = zero_block_pair(np.random.default_rng(97))
        # the blocks never couple, so (3, 4) is still untouched when its
        # round comes and (5, 6) stays exactly zero: rotated, then dropped
        for pairs, _ in _schedule(7):
            idx_i, idx_j = pairs.reshape(2, -1)
            c, s = frozen_rotations(np.stack([a, b]), idx_i, idx_j)
            for i, j, c_ij, s_ij in zip(idx_i, idx_j, c, s):
                if (i, j) == (3, 4):
                    assert s_ij != 0
                elif (i, j) == (5, 6):
                    assert (c_ij, s_ij) == (1.0, 0.0)
        self.assert_same_run(a, b)


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

    @pytest.mark.parametrize("scale", [1e77, 1e150])
    @pytest.mark.parametrize("pair", [(SX, SZ), (SZ, SX)], ids=["x-z", "z-x"])
    def test_exact_tie_at_large_scale(self, pair, scale):
        # the tie's k = (d_a, d_b) is brought to order 1 before vx * vx,
        # which overflowed from 1e77 on when k was taken unnormalized
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, _ = joint_diagonalize(*(scale * m for m in pair))
        np.testing.assert_array_equal(u, np.eye(2))

    def test_deterministic(self):
        rng = np.random.default_rng(47)
        a, b = almost_commuting_pair(8, 0.02, rng)
        u1, r1 = joint_diagonalize(a.copy(), b.copy())
        u2, r2 = joint_diagonalize(a.copy(), b.copy())
        np.testing.assert_array_equal(u1, u2)
        assert r1.trace == r2.trace

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"^b has shape \(3, 3\), expected \(2, 2\)$"):
            joint_diagonalize(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("solve", [joint_diagonalize, commuting_approximation])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", ["a", "b"])
    @pytest.mark.parametrize("bad, message", [
        (np.nan, r"has non-finite entries \(NaN or inf\)"),
        (np.inf, r"has non-finite entries \(NaN or inf\)"),
        (2e154, r"has entries too large to rotate: .* \(max \|[ab]_ij\| = 2\.000e\+154\)"),
    ], ids=["nan", "inf", "square_overflows"])
    def test_rejects_unusable_entries_by_name(self, solve, n, name, bad, message):
        # checked before the first sweep: at the parent a square above the
        # float range ran 200 sweeps to offdiag_energy=nan, warning each round
        pair = {"a": np.diag(np.arange(n, dtype=float)), "b": 0.1 * np.ones((n, n))}
        pair[name][0, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name} {message}"):
                solve(pair["a"], pair["b"])

    def test_rotation_headroom(self):
        # every square is finite at 3e153, but a round's 2 r h would overflow
        # (a RuntimeWarning at the parent); at 1e153 the pair solves cleanly
        pair = np.array([[1.0, 2 / 3], [2 / 3, -1.0]]), np.array([[0.0, 1 / 6], [1 / 6, 0.3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^a has entries too large to rotate"):
                joint_diagonalize(*(3e153 * m for m in pair))
            assert joint_diagonalize(*(1e153 * m for m in pair))[1].converged


class TestCommutingApproximation:
    def test_scalar_pair_runs_no_sweep(self, monkeypatch):
        def no_solver(*args):
            raise AssertionError("a 1x1 pair ran the Jacobi solver")

        monkeypatch.setattr(jointdiag, "joint_diagonalize", no_solver)
        pair = commuting_approximation([[2.5 + 1e-3j]], [[-0.0]])
        assert pair.basis.dtype == np.complex128 and pair.basis.tolist() == [[1]]
        assert pair.diag_a.tolist() == [2.5] and pair.diag_b.tolist() == [0.0]
        assert math.copysign(1.0, pair.diag_b[0]) == 1.0     # as u* b u gives
        assert (pair.dist_a, pair.dist_b) == (1e-3, 0.0)
        assert not pair.diag_a.flags.writeable and not pair.diag_b.flags.writeable
        assert pair.report == SolverReport(sweeps=0, rotations=0, offdiag_energy=0.0,
                                           converged=True, trace=(0.0,))

    @pytest.mark.parametrize("a, b", [(-1.75, 0.3), (0.0, -2e-17), (1e3, -0.0)])
    def test_scalar_pair_matches_the_solver(self, a, b):
        am, bm = np.array([[a]], dtype=complex), np.array([[b]], dtype=complex)
        u, report = joint_diagonalize(am, bm)
        pair = commuting_approximation(am, bm)
        assert pair.report == report and pair.basis.tobytes() == u.tobytes()
        for got, m in ((pair.diag_a, am), (pair.diag_b, bm)):
            assert got.tobytes() == np.real(np.diagonal(u.conj().T @ m @ u)).tobytes()
        assert pair.dist_a == op_norm(am - pair.a1()) and pair.dist_b == op_norm(bm - pair.b1())

    def test_result_commutes_structurally(self):
        rng = np.random.default_rng(53)
        for n in (3, 6):
            a, b = almost_commuting_pair(n, 0.05, rng)
            pair = commuting_approximation(a, b)
            scale = max(op_norm(a), op_norm(b), 1.0)
            assert pair.commutation_residual() < 1e-13 * scale
            assert op_norm(commutator(pair.a1(), pair.b1())) < 1e-13 * scale

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
        assert op_norm(pair.a1() - (u * pair.diag_a) @ u.conj().T) < 1e-13
        assert op_norm(a - pair.a1()) == pytest.approx(pair.dist_a, abs=1e-12)
        assert op_norm(b - pair.b1()) == pytest.approx(pair.dist_b, abs=1e-12)

    def test_distance_scales_with_perturbation(self):
        dist = {}
        for scale in (1e-2, 1e-4):
            a, b = almost_commuting_pair(6, scale, np.random.default_rng(7))
            pair = commuting_approximation(a, b)
            dist[scale] = pair.dist_a + pair.dist_b
        assert dist[1e-4] < dist[1e-2]
