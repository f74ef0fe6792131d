"""Desk-scale CAR algebra on fermionic Fock space.

The representation is one sparse Jordan-Wigner map J = [a*(e_1) ...
a*(e_n)] on the 2^n-dimensional occupation-number space (raising matrix at
the mode position, parity signs from all lower mode indices).  Every CAR
operator is a product with J: a*(xi) = J (xi (x) 1), a(xi) = a*(xi)*, and
the second quantization dGamma(H) = J (H (x) 1) J* (for finite-rank H
these are the inner perturbations).  On top sit quasi-free flows,
Wick-form operator assembly, and residual-vector extraction.

dGamma(H) commutes with the number operator, so it is block diagonal over
the particle-number sectors (the basis indices with m bits set, m = 0..n).
Flows are diagonalized and applied per sector, and the Wick unitarity
defect is a norm over the groups of sectors that x*x - 1 couples; no
2^n x 2^n eigensolver runs.

Conventions, fixed once:
  - mode 1 occupies the most significant bit of the basis index, so the
    occupation basis is lexicographic;
  - the one-particle inner product (eta|xi) is linear in the first
    argument, matching a*(eta) being linear in eta;
  - a(xi) is the adjoint of a*(xi), hence antilinear in xi.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
import scipy.sparse as sparse

from .hermitian import as_array, checked_hermitian, op_norm

MAX_MODES = 12


def _popcount(values: np.ndarray, bits: int) -> np.ndarray:
    count = np.zeros_like(values)
    for b in range(bits):
        count += (values >> b) & 1
    return count


def _jordan_wigner(n: int) -> sparse.csr_matrix:
    """J = [a*(e_1) ... a*(e_n)], dim x n*dim; mode k+1 is bit n-1-k."""
    dim = 1 << n
    pos = n - 1 - np.arange(n)
    k, src = np.nonzero((np.arange(dim) >> pos[:, None]) & 1 == 0)
    dst = src | (1 << pos[k])
    parity = _popcount(src >> (pos[k] + 1), n) & 1
    signs = np.where(parity == 1, -1.0, 1.0).astype(np.complex128)
    return sparse.csr_matrix((signs, (dst, k * dim + src)), shape=(dim, n * dim))


@dataclasses.dataclass(frozen=True, eq=False)
class FockRep:
    """Explicit CAR representation on the lexicographic occupation basis,
    stored as its Jordan-Wigner map jw = J = [a*(e_1) ... a*(e_n)]."""

    jw: sparse.csr_matrix

    @property
    def dim(self) -> int:
        return self.jw.shape[0]

    @property
    def modes(self) -> int:
        return self.jw.shape[1] // self.jw.shape[0]

    @property
    def creators(self) -> tuple:
        """a*(e_1)..a*(e_n): the column blocks of J."""
        d = self.dim
        return tuple(self.jw[:, k * d:(k + 1) * d] for k in range(self.modes))

    def identity(self) -> sparse.csr_matrix:
        return sparse.identity(self.dim, dtype=np.complex128, format="csr")


@functools.lru_cache(maxsize=None)
def _sectors(n: int) -> tuple:
    """(particle number of each basis index, the ascending basis indices of
    each sector m = 0..n)."""
    number = _popcount(np.arange(1 << n), n)
    sectors = tuple(np.flatnonzero(number == m) for m in range(n + 1))
    for arr in (number, *sectors):
        arr.flags.writeable = False     # shared by every caller through the cache
    return number, sectors


@functools.lru_cache(maxsize=None)
def fock_rep(n: int) -> FockRep:
    if not 1 <= n <= MAX_MODES:
        raise ValueError(f"mode count must be in [1, {MAX_MODES}], got {n}")
    return FockRep(jw=_jordan_wigner(n))


def a_star(rep: FockRep, xi) -> sparse.csr_matrix:
    """Creation operator a*(xi) = sum_k xi_k a*(e_k) = J (xi (x) 1), linear
    in xi; each entry is a single +-xi_k."""
    xi = np.asarray(xi, dtype=np.complex128)
    if xi.shape != (rep.modes,):
        raise ValueError(f"vector has shape {xi.shape}, expected ({rep.modes},)")
    return rep.jw @ sparse.kron(xi[:, None], rep.identity(), format="csr")


def annihilator(rep: FockRep, xi) -> sparse.csr_matrix:
    """a(xi) = a*(xi)*, antilinear in xi."""
    return a_star(rep, xi).conj().T.tocsr()


def second_quantize(rep: FockRep, h_one) -> sparse.csr_matrix:
    """dGamma(H) = sum_ij H_ij a*(e_i) a(e_j) = J (H (x) 1) J* for Hermitian H.

    Each off-diagonal entry is exactly +-H_ij and each diagonal entry a sum
    of H_kk over the occupied modes.  Satisfies [i dGamma(H), a*(xi)] =
    i a*(H xi); with H = T of finite rank this is the inner perturbation
    that implements T on the one-particle space.
    """
    hm = as_array(h_one)
    n = rep.modes
    if hm.shape != (n, n):
        raise ValueError(f"one-particle matrix has shape {hm.shape}, expected ({n}, {n})")
    lift = sparse.kron(checked_hermitian(hm), rep.identity(), format="csr")
    return rep.jw @ lift @ rep.jw.conj().T


def number_operator(rep: FockRep) -> sparse.csr_matrix:
    return second_quantize(rep, np.eye(rep.modes))


def _check_operator(rep: FockRep, x) -> None:
    shape = x.shape if sparse.issparse(x) else np.shape(x)
    if shape != (rep.dim, rep.dim):
        raise ValueError(f"operator has shape {shape}, expected ({rep.dim}, {rep.dim})")


@dataclasses.dataclass(frozen=True, eq=False)
class QuasiFreeFlow:
    """Flow alpha_t = Ad exp(it dGamma(H)) induced by U_t = exp(itH).

    Each particle-number sector block of dGamma(H) is diagonalized once, on
    the first evolve, so a flow that never evolves runs no eigensolver.
    """

    rep: FockRep
    second_quantized: sparse.csr_matrix

    @functools.cached_property
    def _sector_spectra(self) -> tuple:
        """(basis indices, eigenvalues, eigenbasis) of dGamma(H) per sector."""
        d = self.second_quantized
        return tuple((idx, *np.linalg.eigh(d[idx][:, idx].toarray()))
                     for idx in _sectors(self.rep.modes)[1])

    def evolve(self, t: float, x) -> np.ndarray:
        """alpha_t(x) for real t, dense on the lexicographic basis.

        Each nonzero sector block x_rc becomes V_r ((V_r* x_rc V_c) o
        e^{it(lambda_ri - lambda_cj)}) V_c*; zero blocks stay zero.  The
        phases are centred between the two sectors' spectra, which Ad
        ignores, to keep their arguments small.
        """
        _check_operator(self.rep, x)
        if not math.isfinite(t):
            raise ValueError(f"time must be finite, got {t}")
        is_sparse = sparse.issparse(x)
        x = x.tocsr() if is_sparse else np.asarray(x)
        out = np.zeros((self.rep.dim, self.rep.dim), dtype=np.complex128)
        for ir, lam_r, v_r in self._sector_spectra:
            rows = x[ir].toarray() if is_sparse else x[ir]
            for ic, lam_c, v_c in self._sector_spectra:
                blk = rows[:, ic]
                if not blk.any():
                    continue
                mid = 0.25 * (lam_r[0] + lam_r[-1] + lam_c[0] + lam_c[-1])
                phase = np.outer(np.exp(1j * t * (lam_r - mid)), np.exp(-1j * t * (lam_c - mid)))
                out[np.ix_(ir, ic)] = v_r @ ((v_r.conj().T @ blk @ v_c) * phase) @ v_c.conj().T
        return out


def quasi_free_flow(rep: FockRep, h_one) -> QuasiFreeFlow:
    return QuasiFreeFlow(rep=rep, second_quantized=second_quantize(rep, h_one))


def quasi_free_generator(flow: QuasiFreeFlow, x):
    """delta_alpha(x) = [i dGamma(H), x]; on x = a*(xi) this is i a*(H xi).

    Sparse input gives sparse output, dense gives dense.
    """
    _check_operator(flow.rep, x)
    d = flow.second_quantized
    return 1j * (d @ x - x @ d)


def rank_perturbation_norms(t_matrix) -> tuple[float, float]:
    """(‖b‖, Tr|T|) for b = second_quantize(fock_rep(n), T).

    b is diagonal in the zeta-occupation basis with spectrum the subset sums
    of the eigenvalues, so ‖b‖ = max(sum of positive, -sum of negative);
    equality with Tr|T| holds exactly when the eigenvalues share a sign.
    """
    lam = np.linalg.eigvalsh(checked_hermitian(t_matrix))
    positive = float(np.sum(lam[lam > 0]))
    negative = float(-np.sum(lam[lam < 0]))
    return max(positive, negative), positive + negative


def _validate_indices(label: str, idx, n: int) -> tuple:
    idx = tuple(int(i) for i in idx)
    if any(i < 0 or i >= n for i in idx):
        raise ValueError(f"{label} index out of range [0, {n}): {idx}")
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError(f"{label} indices must be strictly increasing: {idx}")
    return idx


def wick_unitary(rep: FockRep, coeffs, family=None) -> tuple[sparse.csr_matrix, float]:
    """Assemble x = sum coeffs[mu, nu] a*(f_mu1)..a*(f_mup) a(f_nu1)..a(f_nuq).

    mu and nu are strictly increasing mode-index tuples; family (columns =
    orthonormal one-particle vectors) defaults to the standard basis.  A
    unitary family V = [f_1 ... f_n] gives Gamma(V) x_e Gamma(V)*, with x_e
    the standard-basis element: x depends on the family, its unitarity
    defect does not.  Returns (x, ‖x*x - 1‖); the defect is a report, not an
    error, and is measured on the groups of particle-number sectors that
    x*x - 1 couples.
    """
    n = rep.modes
    if family is None:
        fam = np.eye(n, dtype=np.complex128)
    else:
        fam = np.asarray(family, dtype=np.complex128)
        if fam.shape[0] != n:
            raise ValueError(f"family rows {fam.shape[0]} != mode count {n}")
        gram = fam.conj().T @ fam
        if op_norm(gram - np.eye(fam.shape[1])) > 1e-8:
            raise ValueError("family columns are not orthonormal within 1e-8")
    x = sparse.csr_matrix((rep.dim, rep.dim), dtype=np.complex128)
    for (mu, nu), coeff in coeffs.items():
        mu = _validate_indices("creation", mu, fam.shape[1])
        nu = _validate_indices("annihilation", nu, fam.shape[1])
        term = coeff * rep.identity()
        for i in mu:
            term = term @ a_star(rep, fam[:, i])
        for j in nu:
            term = term @ annihilator(rep, fam[:, j])
        x = x + term
    return x.tocsr(), _sector_norm(rep, x.conj().T @ x - rep.identity())


def _sector_norm(rep: FockRep, y: sparse.spmatrix) -> float:
    """||y||, the largest op_norm over the groups of sectors y couples.

    Sectors joined by a nonzero block of y form one group, so y is block
    diagonal over the groups; groups without a nonzero entry add nothing.
    """
    number = _sectors(rep.modes)[0]
    y = y.tocoo()
    rows, cols = number[y.row], number[y.col]
    group = np.arange(rep.modes + 1)
    for r, c in set(zip(rows.tolist(), cols.tolist())):
        group[group == group[c]] = group[r]
    y, label = y.tocsr(), group[number]
    norm = 0.0
    for g in np.unique(group[rows]):
        idx = np.flatnonzero(label == g)
        norm = max(norm, op_norm(y[idx][:, idx].toarray()))
    return norm


@dataclasses.dataclass(frozen=True)
class ResidualVector:
    """Rayleigh decomposition H xi = c xi + eta_norm * eta_unit."""

    c: float
    eta_norm: float
    eta_unit: np.ndarray


def residual_vector(h, xi) -> ResidualVector:
    """Split H xi into its xi-component c = (H xi | xi) and the orthogonal
    remainder; eta_unit is the zero vector when the remainder is below 1e-12."""
    hm = checked_hermitian(h)
    xv = np.asarray(xi, dtype=np.complex128)
    norm = float(np.linalg.norm(xv))
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"xi must be a unit vector, got norm {norm}")
    image = hm @ xv
    c = float(np.vdot(xv, image).real)
    eta = image - c * xv
    eta_norm = float(np.linalg.norm(eta))
    unit = eta / eta_norm if eta_norm >= 1e-12 else np.zeros_like(xv)
    return ResidualVector(c=c, eta_norm=eta_norm, eta_unit=unit)
