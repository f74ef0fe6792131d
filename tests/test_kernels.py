"""Smoothing kernels: constants, band limiting, Lipschitz transfer."""

import numpy as np
import pytest
import scipy.optimize

from nearcomm import kernels
from nearcomm.errors import QuadratureError
from nearcomm.kernels import (BAND_HALF_WIDTH, RAMP_HALF_WIDTH, _FREQ_CUTOFF,
                              _abs_transform_integral, _sign_cuts,
                              _slope_transform, band_smooth, build_mollifier,
                              build_step, kernel_dump,
                              lipschitz_commutator_check)
from nearcomm.hermitian import commutator, op_norm, spectral_decomp

# constants pinned after convergence studies; the oracles below recompute
# them from the defining integrals by independent quadratures
K1_EXPECTED = 5.389243043554071
C_CONST_EXPECTED = 4.072004582206982


def simpson(y, h):
    """Composite Simpson on a uniform grid with an odd number of samples."""
    return float((y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2])
                  + 2.0 * np.sum(y[2:-2:2])) * h / 3.0)


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
        # a different rule (composite Simpson on a uniform grid) agrees with
        # the Gauss-Legendre panels that build_mollifier sums
        kern = build_mollifier()
        t = np.linspace(0.0, 1200.0, 51201)
        coarse = 2.0 * simpson(kern.time_profile(t) * t, t[1])
        assert coarse == pytest.approx(kern.k1, abs=1e-7)

    def test_constants_are_python_floats(self):
        kern = build_mollifier()
        assert type(kern.k1) is float and type(kern.unit_mass_check) is float
        assert type(build_step().c_const) is float

    def test_refinement_gate_is_live(self, monkeypatch):
        # 8 panels leave 16 nodes per 150 time units: orders 16 and 32 then
        # disagree far beyond the 1e-8 gate
        build_mollifier.cache_clear()
        monkeypatch.setattr(kernels, "_K1_PANELS", 8)
        try:
            with pytest.raises(QuadratureError, match="k1"):
                build_mollifier()
        finally:
            monkeypatch.undo()
            build_mollifier.cache_clear()
            build_mollifier()


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

    def test_refinement_gate_is_live(self, monkeypatch):
        # unrefined cuts (bracket midpoints) move c1 and c2 apart past 1e-6
        build_step.cache_clear()
        monkeypatch.setattr(kernels, "_BISECTIONS", 0)
        try:
            with pytest.raises(QuadratureError, match="c_const"):
                build_step()
        finally:
            monkeypatch.undo()
            build_step.cache_clear()
            build_step()

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
            assert op_norm(band_smooth(a, b) - assembled) < 1e-13

    def test_distance_and_commutator_bounds(self):
        rng = np.random.default_rng(29)
        kern = build_mollifier()
        for n in (4, 8, 16):
            for _ in range(10):
                a = random_hermitian(n, rng)
                b = random_hermitian(n, rng)
                b /= op_norm(b)
                nu = op_norm(commutator(a, b))
                b1 = band_smooth(a, b)
                assert op_norm(b - b1) <= kern.k1 * nu + 1e-10
                assert op_norm(commutator(a, b1)) <= nu + 1e-10

    def test_commuting_pair_fixed(self):
        # [a, b] = 0 with spectrum of a inside the band: smoothing is identity
        a = np.diag([0.0, 0.1, 0.2]).astype(complex)
        b = np.diag([1.0, -1.0, 0.5]).astype(complex)
        assert op_norm(band_smooth(a, b) - b) < 1e-12

    def test_wide_spectrum_commuting_pair(self):
        # commuting but spread out: off-diagonal (here zero) entries outside
        # the band are killed, the diagonal survives exactly
        a = np.diag([0.0, 5.0, 10.0]).astype(complex)
        b = np.diag([1.0, 2.0, 3.0]).astype(complex)
        assert op_norm(band_smooth(a, b) - b) < 1e-12


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


# An absolute error the computed slope transform stays below (its rounding
# noise near the zeros is about 1e-16).  A zero where the transform has slope
# s is therefore fixed only to NOISE / |s|: about 2e-13 at t = 20, but 2e-6
# near the cutoff, where the slope is ~5e-10.
NOISE = 1e-15


@pytest.mark.parametrize("scan_step, order", [(0.25, 256), (0.125, 384)],
                         ids=["c1", "c2"])
class TestSignCuts:
    def brackets(self, scan_step, order):
        grid = np.arange(0.0, _FREQ_CUTOFF + scan_step, scan_step)
        vals = _slope_transform(grid, order)
        idx = np.where(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        return grid[idx], grid[idx + 1], np.sign(vals[idx])

    @staticmethod
    def slope(t, order, h=1e-3):
        return (_slope_transform(t + h, order) - _slope_transform(t - h, order)) / (2 * h)

    def test_cuts_match_brentq(self, scan_step, order):
        lo, hi, _ = self.brackets(scan_step, order)
        cuts = _sign_cuts(scan_step, order)
        assert len(cuts) == len(lo) > 50
        f = lambda t: float(_slope_transform(np.array([t]), order)[0])
        ref = np.array([scipy.optimize.brentq(f, a, b, xtol=1e-13)
                        for a, b in zip(lo, hi)])
        tol = 1e-12 + NOISE / np.abs(self.slope(ref, order))
        assert np.all(np.abs(cuts - ref) <= tol)
        # the ten zeros below t = 150 are well conditioned: 1e-12 flat
        well = ref < 150.0
        assert np.count_nonzero(well) >= 10
        assert np.all(np.abs(cuts - ref)[well] <= 1e-12)

    def test_transform_changes_sign_across_each_cut(self, scan_step, order):
        lo, hi, sign_lo = self.brackets(scan_step, order)
        cuts = _sign_cuts(scan_step, order)
        assert np.all((lo < cuts) & (cuts < hi))
        delta = 1e-12 + 10.0 * NOISE / np.abs(self.slope(cuts, order))
        left = np.sign(_slope_transform(cuts - delta, order))
        right = np.sign(_slope_transform(cuts + delta, order))
        np.testing.assert_array_equal(left, sign_lo)
        np.testing.assert_array_equal(right, -sign_lo)
