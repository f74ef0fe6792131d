"""Hermitian matrix core: decompositions, functional calculus, norms.

Tolerances are relative: HERMITICITY_RTOL to max(1, max|A_ij|), op_norm's
Hermitian test to max|A_ij| with no floor, CLUSTER_RTOL to max(1, ||A||).
Degenerate clusters get a deterministic pivoted-QR basis keyed to the input.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import EigensolverError, FunctionDomainError

HERMITICITY_RTOL = 1e-12       # entrywise check on construction, times max(1, max|A_ij|)
ENDPOINT_RTOL = 1e-12          # window endpoint assignment, times max(1, scale)
CLUSTER_RTOL = 1e-10           # eigenvalue cluster width, times max(1, ||A||)


def as_array(x) -> np.ndarray:
    """Unwrap a HermitianMatrix (or pass through an ndarray) as complex128."""
    if isinstance(x, HermitianMatrix):
        return x.m
    return np.asarray(x, dtype=np.complex128)


def hermitian_part(m) -> "HermitianMatrix":
    """Exactly symmetrize an almost-Hermitian array and wrap it."""
    arr = np.asarray(m, dtype=np.complex128)
    return HermitianMatrix(0.5 * (arr + arr.conj().T), _checked=True)


class HermitianMatrix:
    """Immutable complex square matrix with A = A*.

    Construction verifies finiteness and self-adjointness entrywise to
    1e-12 max(1, max|A_ij|), since the rounding of u a u* grows with the
    entries, and then stores the exactly symmetrized entries, read-only.
    """

    __slots__ = ("m", "n")

    def __init__(self, entries, _checked: bool = False):
        arr = np.array(entries, dtype=np.complex128, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if not _checked:
            if not np.all(np.isfinite(arr)):
                raise ValueError("matrix has non-finite entries (NaN or inf)")
            asym = np.max(np.abs(arr - arr.conj().T), initial=0.0)
            if asym > HERMITICITY_RTOL * max(1.0, np.max(np.abs(arr), initial=0.0)):
                raise ValueError(
                    f"matrix is not self-adjoint: max |A - A*| entry = {asym:.3e}")
        arr = 0.5 * (arr + arr.conj().T)
        arr.flags.writeable = False
        object.__setattr__(self, "m", arr)
        object.__setattr__(self, "n", arr.shape[0])

    def __setattr__(self, name, value):
        raise AttributeError("HermitianMatrix is immutable")

    def __repr__(self):
        return f"HermitianMatrix(n={self.n})"


@dataclasses.dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and a unitary eigenbasis of a Hermitian matrix."""

    eigenvalues: np.ndarray
    basis: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.basis
        return (v * self.eigenvalues) @ v.conj().T

    def evolve(self, z: complex, x) -> np.ndarray:
        """Ad e^{izh}(x) = e^{izh} x e^{-izh} for complex z, h the decomposed
        matrix: V ((V* x V) o e^{iz(lambda_i - lambda_j)}) V*.

        Entire in z and independent of the choice of eigenbasis; the factors
        e^{+-izh} are never formed as matrices, so nothing cancels between
        them.  The phases are an outer product of scalar exponentials over
        the spectrum centred at its midpoint (Ad ignores a scalar shift of
        h), which keeps each factor within e^{|Im z| spread / 2}.
        """
        lam, v = self.eigenvalues, self.basis
        mu = lam - 0.5 * (lam[0] + lam[-1])
        phase = np.outer(np.exp(1j * z * mu), np.exp(-1j * z * mu))
        return v @ ((v.conj().T @ as_array(x) @ v) * phase) @ v.conj().T


def op_norm(x) -> float:
    """Operator (spectral) norm; max |eigenvalue| for Hermitian input.

    eigvalsh reads one triangle only, so it is used just for arrays that
    are Hermitian to 1e-10 of their own largest entry; an absolute floor
    would pass small non-Hermitian arrays.  Other arrays, rectangular ones
    included, take the largest singular value.
    """
    arr = as_array(x)
    if arr.size == 0:
        return 0.0
    square = arr.ndim == 2 and arr.shape[0] == arr.shape[1]
    if square and np.max(np.abs(arr - arr.conj().T)) <= 1e-10 * np.max(np.abs(arr)):
        try:
            return float(np.max(np.abs(np.linalg.eigvalsh(arr))))
        except np.linalg.LinAlgError:
            pass
    return float(np.linalg.svd(arr, compute_uv=False)[0])


def commutator(a, b) -> np.ndarray:
    """[a, b] = ab - ba as a plain complex array."""
    am, bm = as_array(a), as_array(b)
    if am.shape != bm.shape:
        raise ValueError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    return am @ bm - bm @ am


def _cluster_slices(eigenvalues: np.ndarray, scale: float):
    gap = CLUSTER_RTOL * max(1.0, scale)
    start = 0
    for i in range(1, len(eigenvalues) + 1):
        if i == len(eigenvalues) or eigenvalues[i] - eigenvalues[i - 1] > gap:
            yield slice(start, i)
            start = i


def spectral_decomp(a) -> SpectralDecomposition:
    """Eigendecomposition with deterministic degenerate-cluster bases.

    Within each near-degenerate cluster the LAPACK eigenvectors are replaced
    by a pivoted-QR basis of the cluster's spectral projection, which depends
    only on the subspace (and the input ordering), not on solver internals.
    """
    arr = as_array(a)
    try:
        vals, vecs = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigh failed on {arr.shape[0]}x{arr.shape[1]} "
                               f"matrix: {exc}") from exc
    scale = float(np.max(np.abs(vals))) if len(vals) else 0.0
    vecs = np.ascontiguousarray(vecs)
    for sl in _cluster_slices(vals, scale):
        k = sl.stop - sl.start
        if k <= 1:
            # fix a deterministic phase: largest-|entry| component made real > 0
            col = vecs[:, sl.start]
            idx = int(np.argmax(np.abs(col)))
            ph = col[idx]
            if abs(ph) > 0:
                vecs[:, sl.start] = col * (ph.conjugate() / abs(ph))
            continue
        import scipy.linalg   # only degenerate clusters need it
        block = vecs[:, sl]
        proj = block @ block.conj().T
        q, _, _ = scipy.linalg.qr(proj, pivoting=True, mode="economic")
        vecs[:, sl] = q[:, :k]
    vals.flags.writeable = False
    vecs.flags.writeable = False
    return SpectralDecomposition(eigenvalues=vals, basis=vecs)


def func_calc(a, f) -> HermitianMatrix:
    """Apply a real function to a Hermitian matrix through its spectrum."""
    dec = spectral_decomp(a)
    # out-of-domain values surface as non-finite entries and are rejected
    # below; numpy's own warnings would only duplicate that report
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        try:
            fv = np.asarray(f(dec.eigenvalues), dtype=float)
        except TypeError:
            fv = np.array([float(f(t)) for t in dec.eigenvalues])
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise FunctionDomainError(f"f failed on the spectrum: {exc}") from exc
    if fv.shape != dec.eigenvalues.shape:
        raise ValueError("f must map the eigenvalue vector to a same-length vector")
    if not np.all(np.isfinite(fv)):
        bad = dec.eigenvalues[~np.isfinite(fv)]
        raise FunctionDomainError(f"f undefined at eigenvalue(s) {bad}")
    v = dec.basis
    return hermitian_part((v * fv) @ v.conj().T)
