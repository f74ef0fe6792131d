"""Smoothing kernels: constants, band limiting, Lipschitz transfer."""

import numpy as np
import pytest

from nearcomm._quad import simpson_uniform
from nearcomm.kernels import (BAND_HALF_WIDTH, RAMP_HALF_WIDTH,
                              _abs_transform_integral, band_smooth,
                              build_mollifier, build_step, kernel_dump,
                              lipschitz_commutator_check)
from nearcomm.hermitian import commutator, op_norm, spectral_decomp

# constants pinned after convergence studies; the oracles below recompute
# them from the defining integrals by independent quadratures
K1_EXPECTED = 5.389243043554071
C_CONST_EXPECTED = 4.072004582206982


def random_hermitian(n, rng):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (g + g.conj().T)


class TestMollifierConstants:
    def test_k1_pinned(self):
        assert build_mollifier().k1 == pytest.approx(K1_EXPECTED, abs=2e-9)

    def test_unit_mass(self):
        assert build_mollifier().unit_mass_check == pytest.approx(1.0, abs=1e-9)

    def test_k1_against_trapezoid_oracle(self):
        # same defining integral, different rule (trapezoid on its own grid)
        kern = build_mollifier()
        t = np.linspace(0.0, 1200.0, 600001)
        f = kern.time_profile(t)
        k1_oracle = 2.0 * np.trapezoid(f * t, t)
        assert kern.k1 == pytest.approx(k1_oracle, abs=1e-6)

    def test_grid_refinement_stable(self):
        # the same Simpson rule on a time grid of half the density
        kern = build_mollifier()
        t = np.linspace(0.0, 1200.0, 51201)
        coarse = 2.0 * simpson_uniform(kern.time_profile(t) * t, t[1])
        assert coarse == pytest.approx(kern.k1, abs=1e-7)


class TestMollifierShape:
    def test_multiplier_exactly_zero_outside_band(self):
        kern = build_mollifier()
        omega = np.array([-2.0, -0.75, -0.5, 0.5, 0.75, 3.0])
        np.testing.assert_array_equal(kern.multiplier(omega), np.zeros(6))

    def test_multiplier_normalized_at_zero(self):
        kern = build_mollifier()
        assert kern.multiplier(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_multiplier_positive_inside(self):
        kern = build_mollifier()
        omega = np.linspace(-0.49, 0.49, 99)
        assert np.all(kern.multiplier(omega) > 0)

    def test_time_profile_nonnegative(self):
        kern = build_mollifier()
        t = np.linspace(-30.0, 30.0, 2001)
        assert np.all(kern.time_profile(t) >= 0)

    def test_dump_payload(self):
        d = build_mollifier().dump()
        assert set(d) == {"grid", "values", "k1"}
        assert len(d["grid"]) == len(d["values"]) == 256
        assert d["values"][0] == 0.0 and d["values"][-1] == 0.0


class TestStepKernel:
    def test_c_const_pinned(self):
        assert build_step().c_const == pytest.approx(C_CONST_EXPECTED, abs=2e-9)

    def test_c_const_against_finer_quadrature(self):
        oracle = _abs_transform_integral(scan_step=0.0625, gl_order=64,
                                         transform_order=512)
        assert build_step().c_const == pytest.approx(oracle, abs=1e-7)

    def test_ramp_endpoints_and_monotone(self):
        step = build_step()
        assert step(-RAMP_HALF_WIDTH) == 0.0
        assert step(RAMP_HALF_WIDTH) == 1.0
        x = np.linspace(-0.3, 0.3, 301)
        # per-point quadrature may wiggle at rounding level
        assert np.all(np.diff(step(x)) >= -1e-13)
        assert np.all(step(x) >= 0.0) and np.all(step(x) <= 1.0)

    def test_ramp_symmetry(self):
        # the slope is even, so step(x) + step(-x) = 1
        step = build_step()
        x = np.linspace(-0.24, 0.24, 49)
        np.testing.assert_allclose(step(x) + step(-x), np.ones_like(x), atol=1e-12)

    def test_dump_payload(self):
        d = build_step().dump()
        assert set(d) == {"grid", "values", "c_const"}
        assert d["values"][0] == 0.0 and d["values"][-1] == 1.0

    def test_kernel_dump_combined(self):
        d = kernel_dump()
        assert set(d) == {"grid", "values", "k1", "c_const"}


class TestBandSmooth:
    def test_banding_entries_exactly_zero(self):
        rng = np.random.default_rng(23)
        kern = build_mollifier()
        for _ in range(5):
            a = np.diag(rng.uniform(0.0, 3.0, 8)).astype(complex)
            b = random_hermitian(8, rng)
            dec = spectral_decomp(a)
            delta = dec.eigenvalues[:, None] - dec.eigenvalues[None, :]
            bt = dec.basis.conj().T @ b @ dec.basis
            banded = bt * kern.multiplier(delta)
            outside = np.abs(delta) >= BAND_HALF_WIDTH
            assert np.all(banded[outside] == 0.0)
            # the assembled matrix agrees with the banded representation
            assembled = dec.basis @ banded @ dec.basis.conj().T
            assert op_norm(band_smooth(a, b).m - assembled) < 1e-13

    def test_distance_and_commutator_bounds(self):
        rng = np.random.default_rng(29)
        kern = build_mollifier()
        for n in (4, 8, 16):
            for _ in range(10):
                a = random_hermitian(n, rng)
                b = random_hermitian(n, rng)
                b /= op_norm(b)
                nu = op_norm(commutator(a, b))
                b1 = band_smooth(a, b).m
                assert op_norm(b - b1) <= kern.k1 * nu + 1e-10
                assert op_norm(commutator(a, b1)) <= nu + 1e-10

    def test_commuting_pair_fixed(self):
        # [a, b] = 0 with spectrum of a inside the band: smoothing is identity
        a = np.diag([0.0, 0.1, 0.2]).astype(complex)
        b = np.diag([1.0, -1.0, 0.5]).astype(complex)
        assert op_norm(band_smooth(a, b).m - b) < 1e-12

    def test_wide_spectrum_commuting_pair(self):
        # commuting but spread out: off-diagonal (here zero) entries outside
        # the band are killed, the diagonal survives exactly
        a = np.diag([0.0, 5.0, 10.0]).astype(complex)
        b = np.diag([1.0, 2.0, 3.0]).astype(complex)
        assert op_norm(band_smooth(a, b).m - b) < 1e-12


class TestLipschitzCheck:
    def test_bound_holds_on_ensemble(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(2, 10))
            a = random_hermitian(n, rng)
            b = random_hermitian(n, rng)
            lhs, rhs = lipschitz_commutator_check(a, b)
            assert lhs <= rhs + 1e-8

    def test_commuting_pair_gives_zero(self):
        a = np.diag([0.0, 1.0]).astype(complex)
        b = np.diag([2.0, 3.0]).astype(complex)
        lhs, rhs = lipschitz_commutator_check(a, b)
        assert lhs < 1e-12 and rhs < 1e-12
