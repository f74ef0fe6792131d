"""Core Hermitian layer: input checks, norms, functional calculus."""

import numpy as np
import pytest
import scipy.linalg

from nearcomm.errors import FunctionDomainError
from nearcomm.hermitian import (SpectralDecomposition, as_array, checked_hermitian,
                                commutator, func_calc, hermitian_part, op_norm,
                                spectral_decomp)
from nearcomm.jointdiag import commuting_approximation
from nearcomm.kernels import band_smooth
from nearcomm.kms import gibbs
from nearcomm.serialize import hermitian_from_json

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(n, rng):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (g + g.conj().T)


class TestCheckedHermitian:
    def test_symmetrizes(self):
        m = checked_hermitian([[1.0, 2.0], [2.0, 3.0]])
        assert m.shape == (2, 2)
        np.testing.assert_array_equal(m, m.conj().T)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            checked_hermitian(np.zeros((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="self-adjoint"):
            checked_hermitian([[0.0, 1.0], [0.0, 0.0]])

    def test_tolerance_scales_with_entries(self):
        # 1e-12 times max(1, max|A_ij|): rounding at large norms passes,
        # the same defect at unit scale does not
        checked_hermitian([[1e6, 1e6 + 5e-7], [1e6, 0.0]])
        with pytest.raises(ValueError, match="self-adjoint"):
            checked_hermitian([[1.0, 1.0 + 5e-12], [1.0, 0.0]])
        assert checked_hermitian(np.zeros((0, 0))).shape == (0, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            checked_hermitian([[0.0, bad], [bad, 0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            checked_hermitian([[bad, 0.0], [0.0, 1.0]])

    def test_immutable(self):
        src = SZ.copy()
        m = checked_hermitian(src)
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 7.0
        src[0, 0] = 7.0     # the result does not alias its input
        assert m[0, 0] == 1.0

    def test_hermitian_part_handles_noise(self):
        rng = np.random.default_rng(0)
        base = random_hermitian(4, rng)
        noisy = base + 1e-10 * rng.normal(size=(4, 4))
        m = hermitian_part(noisy)
        assert op_norm(m - base) < 1e-9
        np.testing.assert_array_equal(m, m.conj().T)

    def test_as_array_passthrough(self):
        m = checked_hermitian(SX)
        assert as_array(m) is m
        arr = as_array([[1.0, 0.0], [0.0, 2.0]])
        assert arr.dtype == np.complex128


class TestOpNorm:
    def test_matches_svd_oracle(self):
        # op_norm takes the eigvalsh branch for Hermitian input; the 2-norm
        # via SVD is an independent code path
        rng = np.random.default_rng(11)
        for n in (2, 5, 9):
            for _ in range(20):
                h = random_hermitian(n, rng)
                assert op_norm(h) == pytest.approx(np.linalg.norm(h, 2), abs=1e-12)

    def test_non_hermitian_input(self):
        m = np.array([[0.0, 3.0], [0.0, 0.0]])
        assert op_norm(m) == pytest.approx(3.0, abs=1e-12)

    def test_small_non_hermitian_input(self):
        # entries far below 1: the Hermitian test must be relative to them,
        # or the eigvalsh branch reads one triangle of a non-Hermitian array
        cases = (([[1e-11j]], 1e-11),
                 ([[3e-11 + 4e-11j]], 5e-11),
                 ([[0.0, 1e-11], [0.0, 0.0]], 1e-11))
        for m, expected in cases:
            assert op_norm(np.array(m)) == pytest.approx(expected, rel=1e-12)

    def test_rectangular_input(self):
        rng = np.random.default_rng(13)
        for shape in ((2, 3), (3, 2), (5, 1), (1, 4)):
            x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            assert op_norm(x) == pytest.approx(np.linalg.norm(x, 2), abs=1e-12)

    def test_empty(self):
        assert op_norm(np.zeros((0, 0))) == 0.0


class TestCommutator:
    def test_pauli_literals(self):
        np.testing.assert_allclose(commutator(SX, SY), 2j * SZ, atol=1e-15)
        np.testing.assert_allclose(commutator(SY, SZ), 2j * SX, atol=1e-15)
        np.testing.assert_allclose(commutator(SZ, SZ), np.zeros((2, 2)), atol=0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            commutator(np.eye(2), np.eye(3))


class TestSpectralDecomp:
    def test_reconstructs(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            h = random_hermitian(6, rng)
            dec = spectral_decomp(h)
            assert op_norm(dec.reconstruct() - h) < 1e-13
            assert np.all(np.diff(dec.eigenvalues) >= 0)
            assert op_norm(dec.basis.conj().T @ dec.basis - np.eye(6)) < 1e-13

    def test_deterministic_on_degenerate_spectrum(self):
        # eigenvalue 1 has multiplicity 3; the cluster basis must not depend
        # on LAPACK internals, only on the subspace
        rng = np.random.default_rng(5)
        u = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))[0]
        h = (u * np.array([0.0, 1.0, 1.0, 1.0, 2.0])) @ u.conj().T
        h = 0.5 * (h + h.conj().T)
        first = spectral_decomp(h.copy())
        second = spectral_decomp(np.array(h, copy=True))
        np.testing.assert_array_equal(first.basis, second.basis)
        np.testing.assert_array_equal(first.eigenvalues, second.eigenvalues)

    def test_evolve_matches_expm(self):
        # Ad e^{izh}(x) = e^{izh} x e^{-izh} for real z and |Im z| <= 1;
        # entries reach e^{|Im z| spread(h)}, so the match is relative
        rng = np.random.default_rng(7)
        for n in (2, 5, 8):
            h = random_hermitian(n, rng)
            x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            dec = SpectralDecomposition(*np.linalg.eigh(h))
            for z in (0.0, 1.3, -2.0, 0.4 + 1j, -0.7 - 0.5j, 1j, -1j):
                oracle = (scipy.linalg.expm(1j * z * h) @ x
                          @ scipy.linalg.expm(-1j * z * h))
                error = op_norm(dec.evolve(z, x) - oracle)
                assert error < 1e-12 * op_norm(oracle)


class TestFuncCalc:
    def test_exp_matches_expm_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            h = random_hermitian(5, rng)
            ours = func_calc(h, np.exp)
            oracle = scipy.linalg.expm(h)
            assert op_norm(ours - oracle) < 1e-11

    def test_identity_function(self):
        h = np.diag([1.0, 2.0, 3.0]).astype(complex)
        assert op_norm(func_calc(h, lambda t: t) - h) < 1e-14

    def test_square_matches_matmul(self):
        rng = np.random.default_rng(9)
        h = random_hermitian(4, rng)
        assert op_norm(func_calc(h, np.square) - h @ h) < 1e-12

    def test_domain_error(self):
        h = np.diag([-1.0, 1.0]).astype(complex)
        with pytest.raises(FunctionDomainError):
            func_calc(h, np.sqrt)

    def test_scalar_function_accepted(self):
        h = np.diag([1.0, 4.0]).astype(complex)
        out = func_calc(h, lambda t: float(t) ** 0.5)
        np.testing.assert_allclose(np.diag(out).real, [1.0, 2.0], atol=1e-14)


READ_ONLY_RESULTS = {
    "checked_hermitian": lambda: checked_hermitian(SX),
    "hermitian_part": lambda: hermitian_part(SX + 1e-3 * SY),
    "func_calc": lambda: func_calc(SZ, np.exp),
    "band_smooth": lambda: band_smooth(SZ, SX),
    "a1": lambda: commuting_approximation(SZ, SX).a1(),
    "b1": lambda: commuting_approximation(SZ, SX).b1(),
    "hermitian_from_json": lambda: hermitian_from_json({"n": 2, "re": [[0.0, 1.0], [1.0, 0.0]]}),
    "gibbs_h": lambda: gibbs(SZ, 1.0).h,
}


@pytest.mark.parametrize("make", READ_ONLY_RESULTS.values(), ids=READ_ONLY_RESULTS.keys())
def test_hermitian_results_are_read_only_arrays(make):
    out = make()
    assert type(out) is np.ndarray and out.dtype == np.complex128
    with pytest.raises(ValueError, match="read-only"):
        out[0, 0] = 7.0
