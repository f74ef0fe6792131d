"""Gibbs states, KMS boundary identities, and the two-state comparison."""

import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from nearcomm import ensembles, kms
from nearcomm.errors import NearcommError, QuadratureError, SpectralGapMissing
from nearcomm.hermitian import SpectralDecomposition, ad_evolve, commutator, op_norm
from nearcomm.kms import (DEFAULT_KMS_DIMS, KMS_HEADER, _PERIOD, _taper_sup,
                          _taper_transform,
                          boundary_residual, close_projection_isometry,
                          gibbs, isometry_function_constant,
                          kms_experiment, kms_rows_to_csv, kms_verify,
                          perturbed_functional, symmetry_action, taper,
                          theorem_b_inequality, trace_norm, two_state_instance)
from nearcomm._quad import gl_nodes

SZ = np.array([[1, 0], [0, -1]], dtype=complex)
UPPER = np.array([[0, 1], [0, 0]], dtype=complex)   # not self-adjoint
C_EXPECTED = 11.443736192108899


def random_hermitian(n, scale, rng):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (g + g.conj().T)


def random_unitary(n, rng):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


class TestGibbs:
    def test_single_spin_literal(self):
        state = gibbs(SZ, c=1.0)
        assert np.trace(state.density @ SZ).real == pytest.approx(-math.tanh(1.0), abs=1e-14)
        assert np.trace(state.density).real == pytest.approx(1.0, abs=1e-14)

    def test_density_properties(self):
        rng = np.random.default_rng(103)
        for c in (-2.0, -0.5, 0.5, 2.0):
            h = random_hermitian(5, 1.0, rng)
            state = gibbs(h, c)
            assert np.min(np.linalg.eigvalsh(state.density)) > 0
            assert op_norm(commutator(h, state.density)) < 1e-14
            assert np.trace(state.density).real == pytest.approx(1.0, abs=1e-12)

    def test_extreme_spectrum_no_overflow(self):
        # exponent shift keeps exp(-c h) finite for spread-out spectra
        h = np.diag([-300.0, 0.0, 300.0]).astype(complex)
        state = gibbs(h, c=2.0)
        np.testing.assert_allclose(np.diag(state.density).real, [1.0, 0.0, 0.0],
                                   atol=1e-200)
        assert math.isfinite(state.log_z)

    def test_log_partition_beyond_float_range(self):
        # Z = e^800 + 1 overflows a float; log Z does not
        state = gibbs(np.diag([-800.0, 0.0]), 1.0)
        assert state.log_z == pytest.approx(800.0, rel=1e-15)
        np.testing.assert_allclose(np.diag(state.density).real, [1.0, 0.0],
                                   atol=1e-300)

    def test_rejects_zero_c(self):
        with pytest.raises(ValueError, match="nonzero"):
            gibbs(SZ, 0.0)

    @pytest.mark.parametrize("c", (math.nan, math.inf, -math.inf))
    def test_rejects_non_finite_c(self, c):
        with pytest.raises(ValueError, match="c must be finite"):
            gibbs(SZ, c)

    def test_rejects_non_self_adjoint(self):
        with pytest.raises(ValueError, match="self-adjoint"):
            gibbs(UPPER, 1.0)


class TestBoundaryResidual:
    def test_gibbs_satisfies_kms(self):
        rng = np.random.default_rng(107)
        for n in (2, 4, 6):
            for c in (-1.0, 0.5, 2.0):
                h = random_hermitian(n, 1.0, rng)
                state = gibbs(h, c)
                x = random_hermitian(n, 1.0, rng)
                y = random_hermitian(n, 1.0, rng)
                # exp(|c| ||h||) amplifies rounding; 1e-9 is the contract
                assert kms_verify(state, x, y) < 1e-9

    def test_complex_time_flow_matches_expm_oracle(self):
        rng = np.random.default_rng(109)
        h = random_hermitian(4, 1.0, rng)
        y = random_hermitian(4, 1.0, rng)
        x = random_hermitian(4, 1.0, rng)
        c, t = 0.7, 1.3
        state = gibbs(h, c)
        z = t + 1j * c
        e = scipy.linalg.expm(1j * z * h)
        e_inv = scipy.linalg.expm(-1j * z * h)
        lhs = np.trace(state.density @ x @ (e @ y @ e_inv))
        et = scipy.linalg.expm(1j * t * h)
        rhs = np.trace(state.density @ (et @ y @ et.conj().T) @ x)
        assert abs(lhs - rhs) < 1e-12
        assert boundary_residual(state.density, h, c, x, y, (t,)) < 1e-12

    @pytest.mark.parametrize("c", (5.0, -5.0, 20.0))
    def test_kms_verify_exact_at_large_c(self, c):
        # spread(h) = 15, so alpha_{t+ic} has entries up to e^{15 |c|}; in the
        # state's eigenbasis its density is diagonal and nothing cancels
        rng = np.random.default_rng(179)
        for _ in range(5):
            h = random_hermitian(6, 1.0, rng)
            lam = np.linalg.eigvalsh(h)
            state = gibbs((h - lam[0] * np.eye(6)) * (15.0 / (lam[-1] - lam[0])), c)
            x, y = (rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)) for _ in "xy")
            assert kms_verify(state, x, y) <= 1e-12
            # control: the same density is not KMS at half its c
            assert kms_verify(dataclasses.replace(state, c=c / 2), x, y) > 1e-3

    def test_wrong_state_fails_kms(self):
        # the maximally mixed state is KMS only for h proportional to 1
        rho = np.eye(2) / 2.0
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        assert boundary_residual(rho, SZ, 1.0, x, x, (0.0,)) > 1e-2

    def test_rejects_non_self_adjoint_generator(self):
        rho = np.eye(2) / 2.0
        with pytest.raises(ValueError, match="self-adjoint"):
            boundary_residual(rho, UPPER, 1.0, SZ, SZ, (0.0,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["x", "y"])
    def test_kms_verify_rejects_non_finite_operands(self, name, bad):
        # max(worst, nan) keeps worst, so a NaN would read as residual 0.0
        state = gibbs(np.diag([0.0, 1.0, 2.0]), 1.0)
        ops = {"x": np.ones((3, 3), dtype=complex), "y": np.eye(3, dtype=complex)}
        ops[name][0, 1] = bad
        with pytest.raises(ValueError, match=f"^{name} has non-finite"):
            kms_verify(state, ops["x"], ops["y"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["x", "y"])
    def test_boundary_residual_rejects_non_finite_operands(self, name, bad):
        state = gibbs(SZ, 1.0)
        ops = {"x": UPPER.copy(), "y": UPPER.T.copy()}
        ops[name][1, 1] = bad
        with pytest.raises(ValueError, match=f"^{name} has non-finite"):
            boundary_residual(state.density, SZ, 1.0, ops["x"], ops["y"], (0.0, 1.0))


class TestPerturbedFunctional:
    def test_matches_gibbs_closed_form(self):
        rng = np.random.default_rng(113)
        for c in (-1.0, 1.0, 2.0):
            h = random_hermitian(4, 1.0, rng)
            b = random_hermitian(4, 0.3, rng)
            fn = perturbed_functional(gibbs(h, c), b)
            target = gibbs(h + b, c)
            assert op_norm(fn.normalized_density() - target.density) < 1e-12
            z_ratio = math.exp(target.log_z - gibbs(h, c).log_z)
            assert fn.weight == pytest.approx(z_ratio, rel=1e-12)
            assert complex(fn.value(np.eye(4))).real == pytest.approx(
                fn.weight, rel=1e-12)
            spectral = (fn.basis * fn.spectrum) @ fn.basis.conj().T
            assert op_norm(spectral - fn.density) < 1e-14

    def test_matches_gns_purification_oracle(self):
        # purify the base state as a Hilbert-Schmidt vector, perturb its
        # modular Hamiltonian by left multiplication, and take expectations
        # through scipy's expm; fully independent of the eigh-based path
        rng = np.random.default_rng(127)
        n, c = 3, 1.2
        h = random_hermitian(n, 1.0, rng)
        b = random_hermitian(n, 0.4, rng)
        z_h = float(np.sum(np.exp(-c * np.linalg.eigvalsh(h))))
        left = lambda m: np.kron(m, np.eye(n))
        right = lambda m: np.kron(np.eye(n), m.T)
        k_gns = left(h) - right(h)
        omega = scipy.linalg.expm(-0.5 * c * h).reshape(-1) / math.sqrt(z_h)
        assert np.linalg.norm(k_gns @ omega) < 1e-12  # base vector is fixed
        omega_b = scipy.linalg.expm(-0.5 * c * (k_gns + left(b))) @ omega
        fn = perturbed_functional(gibbs(h, c), b)
        assert np.vdot(omega_b, omega_b).real == pytest.approx(fn.weight,
                                                               rel=1e-11)
        for _ in range(5):
            x = random_hermitian(n, 1.0, rng)
            oracle = np.vdot(omega_b, left(x) @ omega_b)
            assert abs(fn.value(x) - oracle) < 1e-11

    def test_weight_beyond_float_range_is_named(self):
        # weight = (e^800 + 1) / 2 cannot be a float; the error carries its log
        state = gibbs(np.zeros((2, 2)), 1.0)
        with pytest.raises(NearcommError, match=r"exp\(799\.3"):
            perturbed_functional(state, np.diag([-800.0, 0.0]))

    def test_rejects_non_self_adjoint_perturbation(self):
        with pytest.raises(ValueError, match="self-adjoint"):
            perturbed_functional(gibbs(SZ, 1.0), UPPER)

    @pytest.mark.parametrize("b", ([[0.5]], np.zeros((2, 2)), np.zeros((4, 4))))
    def test_rejects_perturbation_of_another_shape(self, b):
        # a 1x1 b would broadcast over every entry of h
        with pytest.raises(ValueError, match=r"^b has shape \(\d, \d\), expected \(3, 3\)$"):
            perturbed_functional(gibbs(np.diag([0.0, 1.0, 2.0]), 1.0), b)

    def test_zero_perturbation_is_identity(self):
        state = gibbs(SZ, 1.0)
        fn = perturbed_functional(state, np.zeros((2, 2)))
        assert op_norm(fn.density - state.density) < 1e-14
        assert fn.weight == pytest.approx(1.0, abs=1e-14)


class TestOneDecomposition:
    def test_state_quantities_reuse_its_eigenbasis(self, monkeypatch):
        # gibbs decomposes h once; verifying and acting on the state reuse
        # that basis, and a perturbed functional decomposes only h + b
        rng = np.random.default_rng(181)
        state = gibbs(random_hermitian(4, 1.0, rng), 1.5)
        sizes = []
        eigh = np.linalg.eigh

        def counting(m, *args, **kwargs):
            sizes.append(m.shape[0])
            return eigh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        kms_verify(state, random_hermitian(4, 1.0, rng), random_hermitian(4, 1.0, rng))
        symmetry_action(state, random_unitary(4, rng))
        assert sizes == []
        perturbed_functional(state, random_hermitian(4, 0.3, rng))
        assert sizes == [4]


class TestSymmetryAction:
    def test_inner_symmetries_fix_the_state(self):
        rng = np.random.default_rng(131)
        for n in (2, 4, 6):
            h = random_hermitian(n, 1.0, rng)
            state = gibbs(h, 1.0)
            res = symmetry_action(state, random_unitary(n, rng))
            assert res.residual < 1e-9
            assert np.trace(res.density).real == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_unitary(self):
        state = gibbs(SZ, 1.0)
        with pytest.raises(ValueError, match="unitary"):
            symmetry_action(state, np.diag([2.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_w(self, bad):
        # not numpy's LinAlgError from the unitarity norm's SVD
        w = np.eye(2, dtype=complex)
        w[0, 1] = bad
        with pytest.raises(ValueError, match="^w has non-finite"):
            symmetry_action(gibbs(SZ, 1.0), w)

    def test_uncorrected_action_moves_the_state(self):
        # control: plain w rho w* differs, the cocycle is doing real work
        rng = np.random.default_rng(137)
        h = random_hermitian(3, 1.0, rng)
        state = gibbs(h, 1.0)
        w = random_unitary(3, rng)
        assert trace_norm(w @ state.density @ w.conj().T - state.density) > 1e-2


class TestTaper:
    def test_shape_literals(self):
        assert taper(0.4) == 0.0
        assert taper(0.5) == 0.0
        assert taper(1.0) == pytest.approx(1.0, abs=1e-15)
        assert taper(0.75) == pytest.approx(0.75 ** -0.5, abs=1e-14)
        assert taper(1.125) == pytest.approx(1.125 ** -0.5, abs=1e-14)
        assert taper(1.375) == 0.0
        assert taper(2.0) == 0.0

    def test_exact_region_covers_gap_interval(self):
        # f(t) = t^(-1/2) must hold on [3/4, 9/8] so that f applied to the
        # overlap spectrum inverts the square root exactly
        t = np.linspace(0.75, 1.125, 101)
        np.testing.assert_allclose(taper(t), t ** -0.5, atol=1e-14)

    def test_c1_across_knots(self):
        eps = 1e-6
        for knot in (0.5, 0.75, 1.125, 1.375):
            left = (taper(knot) - taper(knot - eps)) / eps
            right = (taper(knot + eps) - taper(knot)) / eps
            assert abs(float(left) - float(right)) < 1e-3

    def test_transform_matches_fine_quadrature(self):
        # resolve the oscillation explicitly on each smooth piece
        knots = (0.5, 0.75, 1.125, 1.375)
        for t in (3.0, 10.0, 100.0):
            acc = 0.0 + 0.0j
            for lo, hi in zip(knots[:-1], knots[1:]):
                x, w = gl_nodes(lo, hi, 96)
                acc += np.sum(taper(x) * np.exp(-1j * t * x) * w)
            oracle = acc / (2.0 * np.pi)
            ours = complex(_taper_transform(np.array([t]))[0])
            assert abs(ours - oracle) < 1e-13

    def test_transform_hermitian_symmetry(self):
        # f is real, so the transform at -t is the conjugate
        vals = _taper_transform(np.array([5.0, -5.0]))
        assert vals[1] == pytest.approx(np.conj(vals[0]), abs=1e-16)

    def test_constant_pinned(self):
        c = isometry_function_constant()
        assert c == pytest.approx(C_EXPECTED, abs=1e-9)
        assert c > 2.0 / math.sqrt(3.0)  # sup |f| alone

    def test_sup_matches_dense_grid(self):
        sup = _taper_sup()
        grid = np.linspace(0.5, 1.375, 200001)
        coarse = np.abs(taper(grid))
        assert np.max(coarse) <= sup
        peak = grid[np.argmax(coarse)]
        fine = np.abs(taper(np.linspace(peak - 1e-5, peak + 1e-5, 20001)))
        assert abs(float(np.max(fine)) - sup) < 1e-12

    def test_constant_against_extrapolated_panel_oracle(self):
        # no closed-form tail and no closed-form sup: order-8 panels of width
        # 1/2 out to T = 40P, 80P, 160P, extrapolated quadratically in 1/T to
        # T = inf (the tail is mean/T + O(T^-2) when T is a multiple of P)
        moments, total, lo = [], 0.0, 0.0
        for cutoff in (40 * _PERIOD, 80 * _PERIOD, 160 * _PERIOD):
            edges = np.linspace(lo, cutoff, int(round(2 * (cutoff - lo))) + 1)[:, None]
            for i in range(0, len(edges) - 1, 2048):
                t, w = gl_nodes(edges[:-1][i:i + 2048], edges[1:][i:i + 2048], 8)
                total += float(np.sum(w * np.abs(t * _taper_transform(t.ravel())
                                                 .reshape(t.shape))))
            moments.append(total)
            lo = cutoff
        extrapolated = moments[0] / 3 - 2 * moments[1] + 8 * moments[2] / 3
        peak = scipy.optimize.minimize_scalar(
            lambda x: -float(taper(x)), bounds=(0.5, 0.75), method="bounded",
            options={"xatol": 1e-12})
        oracle = -peak.fun + 2.0 * extrapolated
        assert isometry_function_constant() == pytest.approx(oracle, abs=2e-8)

    def test_refinement_gate_is_live(self, monkeypatch):
        # 16 panels per period leave the small-t panels unresolved: the rule
        # and its refinement then disagree by ~1e-5, far past the 1e-8 gate
        isometry_function_constant.cache_clear()
        monkeypatch.setattr(kms, "_C_PANELS", 16)
        try:
            with pytest.raises(QuadratureError, match="isometry constant C"):
                isometry_function_constant()
        finally:
            monkeypatch.undo()
            isometry_function_constant.cache_clear()
            isometry_function_constant()


class TestCloseProjectionIsometry:
    @staticmethod
    def rotated_pair(theta):
        # e2 rotates the plane span{e1, e2} by theta toward span{e3, e4}
        e1 = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        g = np.zeros((4, 4))
        g[0, 2], g[2, 0] = -1.0, 1.0
        g[1, 3], g[3, 1] = -1.0, 1.0
        u = scipy.linalg.expm(theta * g)
        return e1, u @ e1 @ u.T

    def test_partial_isometry_blocks(self):
        e1, e2 = self.rotated_pair(0.1)
        v = close_projection_isometry(e1, e2)
        n = 4
        vv = v @ v.conj().T
        assert op_norm(vv[:n, :n] - e1) < 1e-12
        assert op_norm(vv[n:, n:]) < 1e-12
        ww = v.conj().T @ v
        assert op_norm(ww[n:, n:] - e2) < 1e-12
        assert op_norm(ww[:n, :n]) < 1e-12

    def test_equal_projections(self):
        e1 = np.diag([1.0, 0.0]).astype(complex)
        v = close_projection_isometry(e1, e1)
        assert op_norm(v @ v.conj().T - scipy.linalg.block_diag(e1, 0 * e1)) < 1e-12

    def test_gap_present_for_close_projections(self):
        # ||e1 - e2|| = sin(theta) < 1/2 guarantees the overlap spectrum
        # clusters above 3/4; theta = 0.45 is near the boundary and passes
        e1, e2 = self.rotated_pair(0.45)
        assert op_norm(e1 - e2) < 0.5
        v = close_projection_isometry(e1, e2)
        assert op_norm((v @ v.conj().T)[:4, :4] - e1) < 1e-10

    def test_gap_missing_raises(self):
        e1, e2 = self.rotated_pair(1.0)
        with pytest.raises(SpectralGapMissing, match="e1-e2"):
            close_projection_isometry(e1, e2)

    def test_rejects_non_projection(self):
        with pytest.raises(ValueError, match="projection"):
            close_projection_isometry(np.diag([0.5, 0.0]), np.diag([1.0, 0.0]))

    @staticmethod
    def _with_entry(name, bad):
        es = {key: np.diag([1.0, 0.0]).astype(complex) for key in ("e1", "e2")}
        es[name][1, 1] = bad
        return es["e1"], es["e2"]

    @pytest.mark.parametrize("name", ["e1", "e2"])
    def test_rejects_nan_projection(self, name):
        # NaN > tol is False: the entries are checked by name before any gate
        with pytest.raises(ValueError, match=rf"^{name} has non-finite entries \(NaN or inf\)"):
            close_projection_isometry(*self._with_entry(name, np.nan))

    @pytest.mark.parametrize("name", ["e1", "e2"])
    def test_rejects_inf_projection(self, name):
        # inf * 0 in e @ e would warn first; under the suite's warning filter
        # only a check before the first product surfaces the named error
        with pytest.raises(ValueError, match=rf"^{name} has non-finite entries \(NaN or inf\)"):
            close_projection_isometry(*self._with_entry(name, np.inf))


class TestTheoremB:
    def test_equal_perturbations_flat(self):
        rng = np.random.default_rng(139)
        res = two_state_instance(4, 1.0, rng, perturb_scale=0.0)
        assert res.norm_b_diff == 0.0
        assert res.rhs == 0.0
        assert res.lhs < 1e-11

    def test_ensemble_no_violations(self):
        for c in (1.0, -2.0):
            for trial in range(6):
                rng = np.random.default_rng([211, trial])
                n = 2 + trial % 4
                res = two_state_instance(n, c, rng)
                assert res.lhs <= res.rhs + 1e-8
                assert res.delta_v_norm <= res.c_upper * res.norm_b_diff + 1e-8
                assert res.boundary_consistency < 1e-9

    def test_endpoints_are_state_values(self):
        # F(0) = omega_1(e1) and F(ic) = omega_2(e2); the reported
        # consistency measures exactly that
        rng = np.random.default_rng(149)
        res = two_state_instance(5, 0.5, rng)
        assert res.boundary_consistency < 1e-10
        assert res.m_norm > 0.0

    def test_interior_bounded_by_rectangle_boundary(self):
        # F is entire, so max |F| over the open rectangle is attained on its
        # boundary; a grid check is a strong smoke test of the continuation
        rng = np.random.default_rng(151)
        n, c = 3, 1.0
        h = random_hermitian(n, 1.0, rng)
        b1 = random_hermitian(n, 0.2, rng)
        b2 = b1 + random_hermitian(n, 0.05, rng)
        flow = SpectralDecomposition(*np.linalg.eigh(
            scipy.linalg.block_diag(h + b1, h + b2)))
        e1 = np.linalg.eigh(h + b1)[1][:, :1]
        e2 = np.linalg.eigh(h + b2)[1][:, :1]
        v = close_projection_isometry(e1 @ e1.conj().T, e2 @ e2.conj().T)
        base = gibbs(h, c)
        rho = scipy.linalg.block_diag(perturbed_functional(base, b1).density,
                                      perturbed_functional(base, b2).density)
        f = lambda z: abs(np.trace(rho @ v @ ad_evolve(z, v.conj().T, flow, flow)))
        ts = np.linspace(-1.0, 1.0, 9)
        ss = np.linspace(0.0, c, 9)
        interior = max(f(t + 1j * s) for t in ts[1:-1] for s in ss[1:-1])
        boundary = max(max(f(t + 0j) for t in ts),
                       max(f(t + 1j * c) for t in ts),
                       max(f(ts[0] + 1j * s) for s in ss),
                       max(f(ts[-1] + 1j * s) for s in ss))
        assert interior <= boundary + 1e-12

    @pytest.mark.parametrize("c", (5.0, -5.0, 10.0, -10.0, 20.0, -20.0))
    def test_large_c_no_false_violations(self, c):
        # |c| spread(K) reaches ~200: F(z) must be a sum of positive terms,
        # not e^{-cK} and e^{cK} multiplied after forming each apart
        seed = 20240915
        rows = kms_experiment(50, c, seed)
        assert min(r[6] for r in rows) >= 0.0
        for trial in range(50):
            n = DEFAULT_KMS_DIMS[trial % len(DEFAULT_KMS_DIMS)]
            res = two_state_instance(n, c, np.random.default_rng([seed, trial]))
            assert res.boundary_consistency <= 1e-10 * max(1.0, res.m_norm)

    @pytest.mark.parametrize("c", (1.0, -1.0, 5.0, -5.0))
    def test_matches_doubled_flow_oracle(self, c):
        # oracle: the doubled flow in one eigenbasis (lambda, V) of
        # K = (h+b1) (+) (h+b2), W = V* v V, p = exp(-c lambda - log Z_h).
        # At c = -5 the endpoints fall far below M, where a dense trace of
        # the densities against X X* misses the 1e-10 tolerance
        rng = np.random.default_rng([179, int(10 + c)])
        for trial in range(20):
            n = 2 + trial % 7
            h = ensembles.random_hermitian(n, rng)
            b1 = 0.2 * ensembles.random_hermitian(n, rng)
            b2 = b1 + 0.05 * ensembles.random_hermitian(n, rng)
            e1 = kms._bottom_projection(h + b1, max(1, n // 2))
            e2 = kms._bottom_projection(h + b2, max(1, n // 2))
            res = theorem_b_inequality(h, b1, b2, e1, e2, c)

            base = gibbs(h, c)
            k = scipy.linalg.block_diag(h + b1, h + b2)
            lam, vk = np.linalg.eigh(k)
            v = close_projection_isometry(e1, e2)
            w_sq = np.abs(vk.conj().T @ v @ vk) ** 2
            p = np.exp(-c * lam - base.log_z)
            lhs = abs(float(p @ w_sq.sum(axis=0)) - float(p @ w_sq.sum(axis=1)))
            m_norm = max(perturbed_functional(base, b1).weight,
                         perturbed_functional(base, b2).weight)
            rhs = abs(c) * isometry_function_constant() * m_norm * op_norm(b1 - b2)

            assert res.lhs == pytest.approx(lhs, rel=1e-10, abs=0.0)
            assert res.delta_v_norm == pytest.approx(
                op_norm(1j * commutator(k, v)), rel=1e-12, abs=0.0)
            assert res.m_norm == m_norm
            assert res.rhs == rhs

    def test_eigendecompositions_are_n_by_n(self, monkeypatch):
        # the functionals' own eigenbases carry both endpoints; nothing
        # decomposes the 2n x 2n doubled generator
        sizes = []
        eigh = np.linalg.eigh

        def counting(m, *args, **kwargs):
            sizes.append(m.shape[0])
            return eigh(m, *args, **kwargs)

        # the generators' norms come from the functionals' eigenvalues: no
        # eigvalsh repeats them, and the projection and invariance checks
        # are Frobenius norms, so only ||b1 - b2|| is an eigvalsh; C is
        # computed first, since a cold C makes two more eigvalsh calls for
        # its Gauss-Legendre nodes
        isometry_function_constant()
        norm_sizes = []
        eigvalsh = np.linalg.eigvalsh

        def counting_norms(m, *args, **kwargs):
            norm_sizes.append(m.shape[0])
            return eigvalsh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_norms)
        two_state_instance(4, 1.0, np.random.default_rng(167))
        assert sizes == [4] * 6
        assert norm_sizes == [4]

    def test_inconsistent_endpoints_raise(self, monkeypatch):
        # a breakdown of the continuation is an error, never a "violation"
        exact = kms.close_projection_isometry
        monkeypatch.setattr(kms, "close_projection_isometry",
                            lambda e1, e2: (1.0 + 1e-6) * exact(e1, e2))
        with pytest.raises(NearcommError, match=r"c = 1\.5.*> 1\.0+e-08"):
            two_state_instance(4, 1.5, np.random.default_rng(173))

    def test_nan_corner_raises(self, monkeypatch):
        # NaN endpoints fail the consistency gate instead of slipping past it
        exact = kms.close_projection_isometry
        monkeypatch.setattr(kms, "close_projection_isometry",
                            lambda e1, e2: np.full_like(exact(e1, e2), np.nan))
        with pytest.raises(NearcommError, match="disagree"):
            two_state_instance(4, 1.5, np.random.default_rng(173))

    def test_rejects_non_invariant_projection(self):
        rng = np.random.default_rng(157)
        h = random_hermitian(4, 1.0, rng)
        b = random_hermitian(4, 0.2, rng)
        e_bad = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="flow-invariant"):
            theorem_b_inequality(h, b, b, e_bad, e_bad, 1.0)

    @staticmethod
    def _invariant_projections(name, bad):
        """(h, b, e1, e2) with e1 = e2 invariant under h + b, then entry [0, 0]
        of the one called name set to bad."""
        rng = np.random.default_rng(157)
        h = random_hermitian(4, 1.0, rng)
        b = random_hermitian(4, 0.2, rng)
        e = np.linalg.eigh(h + b)[1][:, :2]
        es = {key: e @ e.conj().T for key in ("e1", "e2")}
        es[name][0, 0] = bad
        return h, b, es["e1"], es["e2"]

    def test_rejects_nan_projection_by_name(self):
        # a NaN e1 is rejected by name before the invariance gate; it never
        # reaches the endpoint check as a disagreement "by nan"
        h, b, e1, e2 = self._invariant_projections("e1", np.nan)
        with pytest.raises(ValueError, match=r"^e1 has non-finite entries \(NaN or inf\)"):
            theorem_b_inequality(h, b, b, e1, e2, 1.0)

    @pytest.mark.parametrize("name", ["e1", "e2"])
    def test_rejects_inf_projection_by_name(self, name):
        # inf * 0 in [h+b, e] would warn first under the suite's warning filter
        h, b, e1, e2 = self._invariant_projections(name, np.inf)
        with pytest.raises(ValueError, match=rf"^{name} has non-finite entries \(NaN or inf\)"):
            theorem_b_inequality(h, b, b, e1, e2, 1.0)

    def test_rejects_zero_c(self):
        rng = np.random.default_rng(163)
        with pytest.raises(ValueError, match="nonzero"):
            two_state_instance(3, 0.0, rng)

    @pytest.mark.parametrize("c", (math.nan, math.inf))
    def test_rejects_non_finite_c(self, c):
        rng = np.random.default_rng(163)
        with pytest.raises(ValueError, match="c must be finite"):
            two_state_instance(3, c, rng)

    def test_rejects_non_self_adjoint_input(self):
        e = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="self-adjoint"):
            theorem_b_inequality(SZ, UPPER, UPPER, e, e, 1.0)

    @staticmethod
    def _instance(n=3, seed=191):
        rng = np.random.default_rng(seed)
        h = ensembles.random_hermitian(n, rng)
        b1 = 0.2 * ensembles.random_hermitian(n, rng)
        b2 = b1 + 0.05 * ensembles.random_hermitian(n, rng)
        k = max(1, n // 2)
        return [h, b1, b2, kms._bottom_projection(h + b1, k), kms._bottom_projection(h + b2, k)]

    @pytest.mark.parametrize("position", (0, 1, 2))
    @pytest.mark.parametrize("bad, message", (
        (UPPER, r"is not self-adjoint: max \|A - A\*\| entry = 1\.000e\+00"),
        (np.diag([np.nan, 0.0]), r"has non-finite entries \(NaN or inf\)"),
        (np.diag([np.inf, 0.0]), r"has non-finite entries \(NaN or inf\)"),
    ), ids=("non_self_adjoint", "nan", "inf"))
    def test_each_generator_input_is_checked(self, position, bad, message):
        # h, b1 and b2 are checked once, at the entry, with the messages of
        # checked_hermitian under their own names
        args = self._instance(n=2)
        args[position] = bad
        name = ("h", "b1", "b2")[position]
        with pytest.raises(ValueError, match=f"^{name} {message}"):
            theorem_b_inequality(*args, 1.0)

    @pytest.mark.parametrize("position, name", ((1, "b1"), (2, "b2"), (3, "e1"), (4, "e2")))
    @pytest.mark.parametrize("shape", ((1, 1), (4, 4)))
    def test_rejects_inputs_of_another_shape(self, position, name, shape):
        args = self._instance()
        args[position] = np.full(shape, 0.5)
        message = f"{name} has shape {shape}, expected (3, 3)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            theorem_b_inequality(*args, 1.0)

    def test_checks_each_generator_input_once(self, monkeypatch):
        # h, b1 and b2 are checked at the entry and passed inward checked
        calls = []
        checked = kms.checked_hermitian

        def counting(m, name, shape):
            calls.append((name, np.shape(m)))
            return checked(m, name, shape)

        monkeypatch.setattr(kms, "checked_hermitian", counting)
        theorem_b_inequality(*self._instance(n=4), 1.0)
        assert calls == [("h", (4, 4)), ("b1", (4, 4)), ("b2", (4, 4))]

    @pytest.mark.parametrize("c", (1.0, -1.0, 5.0, -5.0))
    def test_matches_public_functionals_bit_for_bit(self, c):
        # reference: the comparison composed from the public gibbs and
        # perturbed_functional entries, each checking its own inputs
        for trial in range(8):
            h, b1, b2, e1, e2 = self._instance(n=2 + trial % 7, seed=trial)
            res = theorem_b_inequality(h, b1, b2, e1, e2, c)
            base = gibbs(h, c)
            om1, om2 = perturbed_functional(base, b1), perturbed_functional(base, b2)
            corner = close_projection_isometry(e1, e2)[:len(h), len(h):]
            f0 = float(om1.spectrum @ np.sum(np.abs(om1.basis.conj().T @ corner) ** 2, axis=1))
            fic = float(om2.spectrum @ np.sum(np.abs(corner @ om2.basis) ** 2, axis=0))
            m_norm = max(om1.weight, om2.weight)
            norm_b_diff = op_norm(b1 - b2)
            expected = kms.TheoremBResult(
                lhs=abs(fic - f0),
                rhs=abs(c) * isometry_function_constant() * m_norm * norm_b_diff,
                delta_v_norm=op_norm(om1.h @ corner - corner @ om2.h),
                c_upper=isometry_function_constant(), m_norm=m_norm, norm_b_diff=norm_b_diff,
                boundary_consistency=float(np.max(np.abs(
                    [f0 - om1.value(e1), fic - om2.value(e2)]))))
            for field in dataclasses.fields(expected):
                got, want = getattr(res, field.name), getattr(expected, field.name)
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), field.name


class TestKmsExperiment:
    def test_rows_and_determinism(self):
        rows1 = kms_experiment(6, 1.0, seed=5)
        assert rows1 == kms_experiment(6, 1.0, seed=5)
        assert len(rows1) == 6
        assert [r[1] for r in rows1] == list(DEFAULT_KMS_DIMS[:6])
        assert all(r[6] >= -1e-8 for r in rows1)

    def test_csv_layout(self):
        text = kms_rows_to_csv(kms_experiment(2, -1.0, seed=6))
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(KMS_HEADER)
        assert len(lines) == 3
        assert lines[1].split(",")[2] == "-1.0"

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials"):
            kms_experiment(0, 1.0, seed=7)

    def test_rejects_empty_dims(self):
        with pytest.raises(ValueError, match="dims must be nonempty"):
            kms_experiment(1, 1.0, seed=7, dims=())
