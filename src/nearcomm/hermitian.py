"""Hermitian matrices as plain arrays: checks, decompositions, functional
calculus, norms.

Matrices go in and come out as complex128 arrays; checked_hermitian and
checked_finite are the only checks of an array argument, _shaped is the
shape part of both, and each message starts with the argument's name.
Every Hermitian result is read-only.

Tolerances are relative: HERMITICITY_RTOL to max(1, max|A_ij|), op_norm's
Hermitian test to max|A_ij| with no floor, CLUSTER_RTOL to max(1, ||A||).
Degenerate clusters get a deterministic pivoted-QR basis keyed to the input.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import EigensolverError, FunctionDomainError

HERMITICITY_RTOL = 1e-12       # entrywise check in checked_hermitian, times max(1, max|A_ij|)
ENDPOINT_RTOL = 1e-12          # window endpoint assignment, times max(1, scale)
CLUSTER_RTOL = 1e-10           # eigenvalue cluster width, times max(1, ||A||)


def as_array(x) -> np.ndarray:
    """x as a complex128 array, without a copy when it already is one."""
    return np.asarray(x, dtype=np.complex128)


SQUARE = ("n", "n")            # the shape of a square matrix, n >= 1


def _shaped(arr, name: str, shape: tuple):
    """arr, after a ValueError naming it unless its shape fits shape: a tuple
    with one entry per axis, an int (that size), None (any size) or a letter
    (any size >= 1, the same on every axis the letter labels)."""
    got = arr.shape
    if got != shape:
        fits = len(got) == len(shape)
        for want, size in zip(shape, got):
            if want is not None and (size < 1 or size != got[shape.index(want)]
                                     if isinstance(want, str) else size != want):
                fits = False
        if not fits:
            expected = str(tuple(shape)).replace("'", "").replace("None", "*")
            raise ValueError(f"{name} has shape {got}, expected {expected}")
    return arr


def hermitian_part(m) -> np.ndarray:
    """(m + m*) / 2 for a square array, exactly self-adjoint and read-only."""
    arr = _shaped(as_array(m), "m", SQUARE)
    out = 0.5 * (arr + arr.conj().T)
    out.flags.writeable = False
    return out


def checked_finite(x, name: str, shape: tuple):
    """x as an array of its own dtype, after a ValueError naming it if its
    shape does not fit shape (see _shaped) or an entry is NaN or inf.  A
    scipy.sparse x is checked through its stored entries and returned as is.
    Checked before any product: a NaN would read as a perfect residual
    (max(worst, nan) keeps worst), and inf * 0 warns."""
    sparse = hasattr(x, "nnz")
    arr = _shaped(x if sparse else np.asarray(x), name, shape)
    if not np.all(np.isfinite(arr.data if sparse else arr)):
        raise ValueError(f"{name} has non-finite entries (NaN or inf)")
    return arr


def checked_hermitian(x, name: str, shape: tuple) -> np.ndarray:
    """x as a Hermitian array of the square shape given (n >= 1): its
    symmetrized entries, read-only.

    Verifies the shape, finite entries and self-adjointness entrywise to
    HERMITICITY_RTOL max(1, max|A_ij|), since the rounding of u a u* grows
    with the entries; a failure is a ValueError that starts with name.
    """
    arr = checked_finite(as_array(x), name, shape)
    asym = np.max(np.abs(arr - arr.conj().T), initial=0.0)
    if asym > HERMITICITY_RTOL * max(1.0, np.max(np.abs(arr), initial=0.0)):
        raise ValueError(f"{name} is not self-adjoint: max |A - A*| entry = {asym:.3e}")
    return hermitian_part(arr)


@dataclasses.dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and a unitary eigenbasis of a Hermitian matrix."""

    eigenvalues: np.ndarray
    basis: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.basis
        return (v * self.eigenvalues) @ v.conj().T


def ad_evolve(z: complex, x: np.ndarray, row: SpectralDecomposition,
              col: SpectralDecomposition) -> np.ndarray:
    """e^{iz h_r} x e^{-iz h_c} = V_r ((V_r* x V_c) o e^{iz(lam_ri - lam_cj)}) V_c*.

    Entire in z and independent of the eigenbases chosen; e^{+-izh} is never
    formed as a matrix, so nothing cancels between the factors.  The phases
    are centred between the two spectra's midpoints (a common shift of h_r
    and h_c changes nothing), keeping each within e^{|Im z| spread / 2}.
    """
    lam_r, lam_c = row.eigenvalues, col.eigenvalues
    mid = 0.25 * (lam_r[0] + lam_r[-1] + lam_c[0] + lam_c[-1])
    phase = np.outer(np.exp(1j * z * (lam_r - mid)), np.exp(-1j * z * (lam_c - mid)))
    return row.basis @ ((row.basis.conj().T @ x @ col.basis) * phase) @ col.basis.conj().T


def op_norm(x) -> float:
    """Operator (spectral) norm; max |eigenvalue| for Hermitian input.

    eigvalsh reads one triangle only, so it is used just for arrays that
    are Hermitian to 1e-10 of their own largest entry; an absolute floor
    would pass small non-Hermitian arrays.  Other arrays, rectangular ones
    included, take the largest singular value.  x must be 2-D; an exactly
    zero x, an empty one included, has norm 0.0 without a LAPACK call.
    """
    arr = _shaped(as_array(x), "x", (None, None))
    if not arr.any():
        return 0.0
    square = arr.shape[0] == arr.shape[1]
    if square and np.max(np.abs(arr - arr.conj().T)) <= 1e-10 * np.max(np.abs(arr)):
        if arr.shape[0] == 1:
            return abs(float(arr[0, 0].real))   # eigvalsh's answer, without LAPACK
        try:
            return float(np.max(np.abs(np.linalg.eigvalsh(arr))))
        except np.linalg.LinAlgError:
            pass
    return float(np.linalg.svd(arr, compute_uv=False)[0])


def commutator(a, b) -> np.ndarray:
    """[a, b] = ab - ba as a plain complex array."""
    am = _shaped(as_array(a), "a", SQUARE)
    bm = _shaped(as_array(b), "b", am.shape)
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
    a is checked as a Hermitian argument named "a" (checked_hermitian).
    """
    return _spectral_decomp(checked_hermitian(a, "a", SQUARE))


def _spectral_decomp(arr: np.ndarray) -> SpectralDecomposition:
    """spectral_decomp of an array the package built Hermitian itself, unchecked.
    A 1x1 array gets what eigh returns for it, its real entry and [[1]],
    without LAPACK."""
    if arr.shape[0] == 1:
        vals, vecs = arr.real[0].copy(), np.ones((1, 1), dtype=np.complex128)
        vals.flags.writeable = vecs.flags.writeable = False
        return SpectralDecomposition(eigenvalues=vals, basis=vecs)
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


def func_calc(a, f) -> np.ndarray:
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
