"""Window projections and the subordinate partition of unity."""

import dataclasses
import math

import numpy as np
import pytest

from nearcomm import projections
from nearcomm.ensembles import haar_unitary, instance_rng, pair_instance
from nearcomm.errors import (LinSolverFailure, MonotonicityViolation, NearcommError,
                             SandwichViolation)
from nearcomm.hermitian import commutator, hermitian_part, op_norm, spectral_decomp
from nearcomm.jointdiag import commuting_approximation
from nearcomm.kernels import _step_eval, band_smooth
from nearcomm.pipeline import theorem_c_correct, tridiagonal_check
from nearcomm.projections import partition, window_projection

CERT_TOL = 1e-9


def random_hermitian(n, rng):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (g + g.conj().T)


def smoothed_pair(n, nu, rng, spread=3.0):
    """(a, smoothed b) with ||[a, b]|| ~ nu; smoothing keeps the partition
    inputs in the banded regime the construction expects."""
    a = np.diag(rng.uniform(0.0, spread, n)).astype(complex)
    b = np.diag(rng.uniform(-1.0, 1.0, n)).astype(complex)
    if nu > 0:
        d = random_hermitian(n, rng)
        d /= op_norm(commutator(a, d))
        b = b + nu * d
        b /= max(1.0, op_norm(b))
    return a, band_smooth(a, 0.5 * (b + b.conj().T))


class TestWindowProjection:
    def test_commuting_diagonal_literal(self):
        # spectrum {0.5, 1.5, 2.5}, cut at t=1: p = projection above 1.25
        a = np.diag([0.5, 1.5, 2.5]).astype(complex)
        b = np.diag([0.3, -0.2, 0.9]).astype(complex)
        res = window_projection(a, b, t=1.0, eps=1e-6)
        np.testing.assert_allclose(res.cols @ res.cols.conj().T, np.diag([0.0, 1.0, 1.0]),
                                   atol=1e-12)
        assert res.comm_a < 1e-12 and res.comm_b < 1e-12
        assert res.sandwich_lo < 1e-12 and res.sandwich_hi < 1e-12

    def test_empty_window_shortcut(self):
        # no eigenvalue inside (t - 1/4, t + 1/4): p is the plain spectral
        # projection and no inner solve happens
        a = np.diag([0.0, 2.0]).astype(complex)
        b = np.array([[0.1, 0.05], [0.05, -0.2]], dtype=complex)
        res = window_projection(a, b, t=1.0, eps=10.0)
        np.testing.assert_allclose(res.cols @ res.cols.conj().T, np.diag([0.0, 1.0]),
                                   atol=1e-12)
        assert res.inner_report is None

    def test_certificates_on_random_pairs(self):
        rng = np.random.default_rng(67)
        for _ in range(8):
            a, b1 = smoothed_pair(8, 1e-3, rng)
            t = float(np.median(np.linalg.eigvalsh(a).real))
            res = window_projection(a, b1, t=t, eps=0.05)
            p = res.cols @ res.cols.conj().T
            assert op_norm(p @ p - p) < 1e-10
            assert res.sandwich_lo <= CERT_TOL
            assert res.sandwich_hi <= CERT_TOL
            assert res.comm_a < 0.05 and res.comm_b < 0.05

    def test_budget_violation_raises(self):
        # strongly non-commuting pair cannot meet a tiny budget
        rng = np.random.default_rng(71)
        a = random_hermitian(6, rng)
        b = random_hermitian(6, rng)
        t = float(np.median(np.linalg.eigvalsh(a).real))
        with pytest.raises(SandwichViolation, match="budget"):
            window_projection(a, b, t=t, eps=1e-10)

    def test_enforce_off_reports_instead(self):
        # an infinite budget rejects nothing, so the large commutator is
        # reported rather than raised
        rng = np.random.default_rng(71)
        a = random_hermitian(6, rng)
        b = random_hermitian(6, rng)
        t = float(np.median(np.linalg.eigvalsh(a).real))
        res = window_projection(a, b, t=t, eps=np.inf)
        assert res.comm_b > 1e-10

    @pytest.mark.parametrize("inside", [True, False])
    def test_whole_window_takes_identity_columns(self, inside):
        # every window eigenvalue on one side of t: q0 is the whole window
        # or 0, and its basis is the window's identity columns, not the one
        # eigh picks for a degenerate eigenvalue from rounding noise
        lam = np.array([0.2, 1.05, 1.1, 1.15, 1.2, 1.9])
        if not inside:
            lam[1:5] -= 0.25
        rng = np.random.default_rng(3)
        g = random_hermitian(lam.size, rng)
        b = band_smooth(np.diag(lam).astype(complex),
                        np.diag(rng.uniform(-1.0, 1.0, lam.size)) + 2e-3 * g)
        res = projections._window_core(lam, b, float(np.max(lam)), 1.0, 0.1)
        _, win, _ = projections._split_masks(lam, 1.0, float(np.max(lam)))
        whole, empty = (res.win_in, res.win_out) if inside else (res.win_out, res.win_in)
        assert whole.dtype == complex and empty.shape == (lam.size, 0)
        assert whole.tobytes() == projections._embed(win).tobytes()


class TestPartition:
    def test_sums_to_identity(self):
        rng = np.random.default_rng(73)
        a, b1 = smoothed_pair(8, 1e-3, rng)
        part = partition(a, b1, eps=0.05)
        assert part.sum_residual() <= CERT_TOL
        assert part.orthogonality_residual() <= CERT_TOL
        assert part.chain_residual <= CERT_TOL

    def test_comm_bounds_within_budget(self):
        rng = np.random.default_rng(79)
        eps = 0.05
        a, b1 = smoothed_pair(8, 1e-4, rng)
        part = partition(a, b1, eps=eps)
        assert part.edge_comm < eps / 2
        for blk in part.blocks:
            assert blk.comm_a <= eps and blk.comm_b <= eps
            pk = blk.q @ blk.q.conj().T
            assert blk.comm_a == pytest.approx(op_norm(commutator(a, pk)), abs=1e-12)
            assert blk.comm_b == pytest.approx(op_norm(commutator(b1, pk)), abs=1e-12)

    def test_projections_subordinate_to_windows(self):
        # p_k lives inside the window (k - 1/4, k + 5/4) of the spectrum of a
        rng = np.random.default_rng(83)
        a, b1 = smoothed_pair(8, 1e-4, rng)
        part = partition(a, b1, eps=0.05)
        lam, v = np.linalg.eigh(a)
        for blk in part.blocks:
            outside = (lam <= blk.k - 0.25 - 1e-9) | (lam >= blk.k + 1.25 + 1e-9)
            cols = v[:, outside]
            assert op_norm(cols.conj().T @ blk.q) <= 1e-8

    def test_commuting_input_recovers_spectral_partition(self):
        a = np.diag([0.1, 0.9, 1.5, 2.6]).astype(complex)
        b = np.diag([0.2, -0.1, 0.4, -0.3]).astype(complex)
        part = partition(a, b, eps=1e-6)
        assert sum(blk.q.shape[1] for blk in part.blocks) == 4
        # eigenvalues 0.1 and 0.9 end up split across the k=0 edge cuts;
        # whatever the split, each projection commutes with both inputs
        for blk in part.blocks:
            pk = blk.q @ blk.q.conj().T
            assert op_norm(commutator(a, pk)) < 1e-9
            assert op_norm(commutator(b, pk)) < 1e-9


    def test_rejects_a_outside_its_eigenbasis(self):
        a = np.diag([0.1, 1.2, 2.3]).astype(complex)
        a[0, 2] = a[2, 0] = 1e-3
        with pytest.raises(ValueError, match=r"off-diagonal \|a_ij\| = 1\.000e-03"):
            partition(a, np.zeros((3, 3)), eps=0.1)

    def test_rejects_complex_diagonal(self):
        # a diagonal a with an imaginary entry is not even Hermitian
        a = np.diag([0.1, 1.2 + 1e-6j, 2.3])
        with pytest.raises(ValueError, match=r"not self-adjoint: .* = 2\.000e-06"):
            partition(a, np.zeros((3, 3)), eps=0.1)

    def test_correction_decomposes_nothing_here(self, monkeypatch):
        # theorem_c_correct hands partition the diagonal a it decomposed;
        # window_projection, the any-basis entry, is the one caller left
        calls = []
        real = projections.spectral_decomp

        def counted(a):
            calls.append(a.shape)
            return real(a)

        monkeypatch.setattr(projections, "spectral_decomp", counted)
        rng = np.random.default_rng(89)
        inst = pair_instance(16, 1e-3, rng)
        u = haar_unitary(16, rng)
        a, b = u @ inst.a @ u.conj().T, u @ inst.b @ u.conj().T
        theorem_c_correct(a, b, eps=0.1)
        assert calls == []
        window_projection(a, b, t=1.0, eps=np.inf)
        assert calls == [(16, 16)]


def _diag(*vals):
    return np.diag(vals).astype(complex)


BAD_INPUTS = {
    "t-nan": (lambda: window_projection(_diag(0.0, 1.0), 0.5 * np.eye(2), t=np.nan, eps=0.1),
              "t must be finite"),
    "t-inf": (lambda: window_projection(_diag(0.0, 1.0), 0.5 * np.eye(2), t=np.inf, eps=0.1),
              "t must be finite"),
    "eps-zero": (lambda: partition(_diag(0.0, 1.0), 0.5 * np.eye(2), eps=0.0),
                 "eps must be positive"),
    "eps-nan": (lambda: window_projection(_diag(0.0, 1.0), 0.5 * np.eye(2), t=1.0, eps=np.nan),
                "eps must be positive"),
    "shape-mismatch": (lambda: partition(np.eye(3), np.eye(4), 0.1), "one shape"),
    "b-not-square": (lambda: window_projection(np.eye(2), np.ones((2, 3)), t=1.0, eps=0.1),
                     "square"),
    "a-nan": (lambda: partition(_diag(np.nan, 1.0), 0.5 * np.eye(2), 0.1), "finite"),
    "b-nan": (lambda: partition(_diag(0.0, 1.0), _diag(np.nan, 0.5), 0.1), "finite"),
    "empty-pair": (lambda: theorem_c_correct(np.zeros((0, 0)), np.zeros((0, 0)), 0.1),
                   "n >= 1"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_raises_value_error(case):
    call, message = BAD_INPUTS[case]
    with pytest.raises(ValueError, match=message):
        call()


class TestBlockStorage:
    """Only nonempty blocks are stored, however wide the spectrum of a."""

    @pytest.mark.parametrize("a_norm", [100.0, 1000.0, 1e4])
    def test_wide_spectrum_diagonal_pair(self, a_norm, monkeypatch):
        n = 16
        inst = pair_instance(n, 1e-3, instance_rng(5, 0, 0, int(a_norm)), a_norm=a_norm)
        smoothed = band_smooth(inst.a, inst.b)
        built = recording_window_core(monkeypatch)
        part = partition(inst.a, smoothed, eps=0.1)
        # time scales with n too: one build per reachable cut point, plus one
        assert len(built) <= 2 * n + 1
        assert len(part.blocks) <= n
        assert sum(blk.q.shape[1] for blk in part.blocks) == n
        ks = [blk.k for blk in part.blocks]
        assert ks == sorted(set(ks))
        # the n x n definition: max ||p_i x p_j|| over k_j - k_i > 1; the
        # unsmoothed b keeps far entries, so that comparison is not 0 = 0
        projs = [(blk.k, blk.q @ blk.q.conj().T) for blk in part.blocks]
        for b in (smoothed, inst.b):
            expected = max(op_norm(pi @ x @ pj)
                           for ki, pi in projs for kj, pj in projs if kj - ki > 1
                           for x in (inst.a, b))
            assert tridiagonal_check(part, inst.a, b) == pytest.approx(expected, abs=1e-12)
        assert tridiagonal_check(part, inst.a, inst.b) > 1e-9


def recording_window_core(monkeypatch, edit=None):
    """Route partition's edge builds through a wrapper of the real
    _window_core; returns the list of (t, result) it built, in order.
    edit(lam, t, result) may replace a result before partition sees it."""
    real = projections._window_core
    built = []

    def wrapper(lam, bm, scale, t, eps):
        res = real(lam, bm, scale, t, eps)
        if edit is not None:
            res = edit(lam, t, res)
        built.append((t, res))
        return res

    monkeypatch.setattr(projections, "_window_core", wrapper)
    return built


def certificate_pairs():
    rng = np.random.default_rng(103)
    a, b1 = smoothed_pair(8, 1e-3, rng)
    u = haar_unitary(8, rng)
    inst = pair_instance(16, 1e-3, instance_rng(5, 0, 0, 100), a_norm=100.0)
    return {"diagonal": (a, b1),
            "haar": (u @ a @ u.conj().T, u @ b1 @ u.conj().T),
            "wide": (inst.a, band_smooth(inst.a, inst.b))}


class TestColumnCertificates:
    """The certificates computed on n x rank arrays equal their n x n
    definitions with p = cols cols^*, in the basis the input arrives in:
    partition's edges for a diagonal a, window_projection's at the same
    cut points for a Haar-rotated one."""

    @pytest.mark.parametrize("name", ["diagonal", "haar", "wide"])
    def test_match_nxn_definitions(self, name, monkeypatch):
        a, b = certificate_pairs()[name]
        decomp = spectral_decomp(a)
        lam, v = decomp.eigenvalues, decomp.basis
        if name == "haar":
            ks = projections._cut_points(lam)
            built = [(float(t), window_projection(a, b, t=float(t), eps=0.05))
                     for t in [ks[0]] + [k + 1 for k in ks]]
        else:
            built = recording_window_core(monkeypatch)
            part = partition(a, b, eps=0.1)
        scale = float(np.max(np.abs(lam)))
        eye = np.eye(a.shape[0])
        edges = []
        for t, res in built:
            lo, _, hi = projections._split_masks(lam, t, scale)
            p = res.cols @ res.cols.conj().T
            e_lo = v[:, lo] @ v[:, lo].conj().T
            e_hi = v[:, hi] @ v[:, hi].conj().T
            assert res.sandwich_lo == pytest.approx(op_norm(e_hi @ (eye - p)), abs=1e-12)
            assert res.sandwich_hi == pytest.approx(op_norm(p @ e_lo), abs=1e-12)
            assert res.comm_a == pytest.approx(op_norm(commutator(a, p)), abs=1e-12)
            assert res.comm_b == pytest.approx(op_norm(commutator(b, p)), abs=1e-12)
            edges.append(p)
        chain = max(op_norm(hi @ (eye - lo)) for lo, hi in zip(edges, edges[1:]))
        if name == "haar":
            assert chain <= CERT_TOL
        else:
            assert part.chain_residual == pytest.approx(chain, abs=1e-12)


def tail_sum_invariants(lam, part):
    """Worst chain and sandwich residuals of the edges e_k = sum_{j>=k} p_j
    for a = diag(lam), at every integer cut point k from floor(min lam) - 1
    to ceil(max lam) + 2, skipped or not."""
    eye = np.eye(lam.size)
    edges = []
    for k in range(math.floor(lam.min()) - 1, math.ceil(lam.max()) + 3):
        e_k = sum((blk.q @ blk.q.conj().T for blk in part.blocks if blk.k >= k),
                  np.zeros((lam.size, lam.size), dtype=complex))
        edges.append((k, e_k))
    chain = max(op_norm(e_hi @ (eye - e_lo))
                for (_, e_lo), (_, e_hi) in zip(edges, edges[1:]))
    sandwich = max(max(op_norm(np.diag(lam >= k + 0.25) @ (eye - e_k)),
                       op_norm(e_k @ np.diag(lam <= k - 0.25)))
                   for k, e_k in edges)
    return chain, sandwich


class TestEdgeBuilds:
    def test_one_build_per_cut_point(self, monkeypatch):
        # each built edge is at a new cut point, in increasing order, and
        # the spectrum bounds their number, not the width of the spectrum
        rng = np.random.default_rng(73)
        a, b1 = smoothed_pair(8, 1e-3, rng)
        built = recording_window_core(monkeypatch)
        partition(a, b1, eps=0.05)
        ts = [t for t, _ in built]
        assert all(lo < hi for lo, hi in zip(ts, ts[1:]))
        assert len(ts) <= 2 * 8 + 1
        # the first edge is 1, the last 0
        assert built[0][1].cols.shape[1] == 8 and built[-1][1].cols.shape[1] == 0

    def test_non_nested_edge_raises_with_residual(self, monkeypatch):
        # the last edge sits above the spectrum, so e_k there is 0; giving
        # it the columns of E_a(-oo, t-1/4] instead breaks e_{k+1} <= e_k
        rng = np.random.default_rng(73)
        a, b1 = smoothed_pair(8, 1e-3, rng)
        last = float(projections._cut_points(np.linalg.eigvalsh(a))[-1] + 1)

        def swap(lam, t, res):
            if t != last:
                return res
            return dataclasses.replace(res, cols=np.eye(lam.size)[:, lam < t - 0.25])

        recording_window_core(monkeypatch, edit=swap)
        with pytest.raises(MonotonicityViolation, match=r"residual \d\.\d{3}e[+-]\d+"):
            partition(a, b1, eps=0.05)

    def test_eigenvalues_on_window_ends_in_far_clusters(self, monkeypatch):
        # eigenvalues exactly on k -/+ 1/4, clusters up to 1e4 apart: the
        # skipped cut points in between still get the right edges
        lam = np.array([0.75, 1.25, 2.25, 7.75, 50.3, 1e4 - 0.25, 1e4 + 0.25])
        rng = np.random.default_rng(109)
        a = np.diag(lam).astype(complex)
        d = random_hermitian(lam.size, rng)
        b = np.diag(rng.uniform(-0.5, 0.5, lam.size)) + 1e-3 * d / op_norm(commutator(a, d))
        smoothed = band_smooth(a, b)
        built = recording_window_core(monkeypatch)
        part = partition(a, smoothed, eps=0.1)
        assert len(built) <= 2 * lam.size + 1
        assert sum(blk.q.shape[1] for blk in part.blocks) == lam.size
        assert part.sum_residual() <= CERT_TOL
        assert part.orthogonality_residual() <= CERT_TOL
        assert max(tail_sum_invariants(lam, part)) <= CERT_TOL


def full_window_core(lam, bm, scale, t, eps):
    """The edge built with Jacobi on the full n x n pair (b, step(a - t)):
    the reference for the local solve on the coordinates near t."""
    lo, win, hi = projections._split_masks(lam, t, scale)
    eye = np.eye(lam.size, dtype=complex)
    e_win, e_hi = eye[:, win], eye[:, hi]
    report = None
    if not np.any(win):
        win_in = win_out = e_win
    else:
        pair = commuting_approximation(bm, np.diag(_step_eval(lam - t)).astype(complex))
        report = pair.report
        if not report.converged:
            raise LinSolverFailure(f"full edge solve stalled at t={t}")
        q_cols = pair.basis[:, pair.diag_b > 0.5]
        mu, w = np.linalg.eigh(hermitian_part(e_win.T @ q_cols @ q_cols.conj().T @ e_win))
        win_in, win_out = e_win @ w[:, mu > 0.5], e_win @ w[:, mu <= 0.5]
    cols = np.concatenate([win_in, e_hi], axis=1)
    sandwich_lo = projections._outside_norm(e_hi, cols)
    sandwich_hi = op_norm(cols.conj().T @ eye[:, lo])
    proj_defect = op_norm(cols.conj().T @ cols - np.eye(cols.shape[1]))
    if (sandwich_lo > projections.CERTIFICATE_TOL or sandwich_hi > projections.CERTIFICATE_TOL
            or proj_defect > projections.PROJECTION_TOL):
        raise SandwichViolation(f"full edge at t={t} failed certificates")
    comm_a = projections._outside_norm(np.diag(lam) @ cols, cols)
    comm_b = projections._outside_norm(bm @ cols, cols)
    if not (comm_a < eps and comm_b < eps):
        raise SandwichViolation(f"full edge at t={t} exceeds budget")
    return projections.WindowProjectionResult(
        cols=cols, comm_a=comm_a, comm_b=comm_b, sandwich_lo=sandwich_lo,
        sandwich_hi=sandwich_hi, win_in=win_in, win_out=win_out, inner_report=report)


def spin_pair(s):
    """(S_x / S, S_y / S) for spin s: ||[a, b]|| = 1/S with ||a|| = ||b|| = 1."""
    m = np.arange(s, -s - 1, -1.0)
    raise_op = np.diag(np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1)), 1).astype(complex)
    return ((raise_op + raise_op.conj().T) / (2 * s),
            (raise_op - raise_op.conj().T) / (2j * s))


def local_versus_full_cases():
    cases = {}
    for haar in (False, True):
        for n in (32, 64):
            for a_norm in (3.0, 30.0):
                for i_nu, nu in enumerate((1e-3, 3e-2)):
                    rng = instance_rng(11, n, i_nu, int(a_norm) + 100 * haar)
                    inst = pair_instance(n, nu, rng, a_norm=a_norm)
                    a, b = inst.a, inst.b
                    if haar:
                        u = haar_unitary(n, rng)
                        a, b = u @ a @ u.conj().T, u @ b @ u.conj().T
                    name = f"{'haar' if haar else 'diag'}-n{n}-a{a_norm:g}-nu{nu:g}"
                    cases[name] = (a, b, 0.1)
    # four eigenvalues of multiplicity 8, in a Haar-rotated basis
    rng = np.random.default_rng(5)
    a = np.diag(np.repeat([0.3, 1.1, 1.8, 2.7], 8)).astype(complex)
    d = random_hermitian(32, rng)
    b = np.diag(rng.uniform(-1.0, 1.0, 32)) + 1e-3 * d / op_norm(commutator(a, d))
    b /= max(1.0, op_norm(b))
    u = haar_unitary(32, rng)
    cases["clustered"] = (u @ a @ u.conj().T, u @ b @ u.conj().T, 0.1)
    inst = pair_instance(32, 1e-3, instance_rng(11, 0, 0, 10**4), a_norm=1e4)
    cases["norm-1e4"] = (inst.a, inst.b, 0.1)
    for s in (4, 8):
        for eps in (0.1, 0.5):
            cases[f"spin{s}-eps{eps:g}"] = (*spin_pair(s), eps)
    return cases


LOCAL_CASES = local_versus_full_cases()


def correction_outcome(a, b, eps):
    try:
        res = theorem_c_correct(a, b, eps)
    except NearcommError as exc:
        return type(exc).__name__, None
    return "ok", res


class TestLocalEdgeSolve:
    """Each edge runs Jacobi only on the coordinates with |lambda - t| < 3/4;
    the correction agrees with the one built from full n x n edge solves."""

    @pytest.mark.parametrize("name", sorted(LOCAL_CASES))
    def test_matches_full_solve(self, name, monkeypatch):
        a, b, eps = LOCAL_CASES[name]
        local_kind, local = correction_outcome(a, b, eps)
        monkeypatch.setattr(projections, "_window_core", full_window_core)
        full_kind, full = correction_outcome(a, b, eps)
        assert local_kind == full_kind
        if full is None:
            return
        assert local.out_of_regime == full.out_of_regime
        assert local.block_count == full.block_count
        # distances at rounding level (a commuting cluster) compare absolutely
        for got, want, scale in ((local.pair.dist_a, full.pair.dist_a, op_norm(a)),
                                 (local.pair.dist_b, full.pair.dist_b, op_norm(b))):
            assert got == pytest.approx(want, rel=1e-7, abs=1e-12 * max(1.0, scale))

    def test_solve_sees_only_near_coordinates(self, monkeypatch):
        rng = np.random.default_rng(67)
        a, b1 = smoothed_pair(16, 1e-3, rng, spread=6.0)
        lam = np.linalg.eigvalsh(a)
        t = float(np.median(lam))
        sizes = []
        real = projections.commuting_approximation

        def record(x, c):
            sizes.append(x.shape[0])
            return real(x, c)

        monkeypatch.setattr(projections, "commuting_approximation", record)
        window_projection(a, b1, t=t, eps=0.05)
        assert sizes == [int(np.sum(np.abs(lam - t) < projections.LOCAL_RADIUS))]
        assert sizes[0] < 16

    def test_corrupted_local_basis_raises(self, monkeypatch):
        # a wrong local eigenbasis still yields a projection inside the window,
        # so only the commutators, measured on the full matrices, can catch it;
        # the window (3/4, 5/4) holds four eigenvalues for it to mix
        rng = np.random.default_rng(67)
        a = np.diag(np.linspace(0.0, 2.0, 16)).astype(complex)
        d = random_hermitian(16, rng)
        b1 = band_smooth(a, np.diag(rng.uniform(-1.0, 1.0, 16))
                         + 1e-3 * d / op_norm(commutator(a, d)))
        t = 1.0
        assert window_projection(a, b1, t=t, eps=0.05).comm_a < 1e-3
        real = projections.commuting_approximation

        def corrupt(x, c):
            pair = real(x, c)
            return dataclasses.replace(pair, basis=haar_unitary(x.shape[0], rng))

        monkeypatch.setattr(projections, "commuting_approximation", corrupt)
        with pytest.raises(SandwichViolation, match="budget"):
            window_projection(a, b1, t=t, eps=0.05)
