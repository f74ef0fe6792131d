"""Desk-scale CAR algebra on fermionic Fock space.

The representation is one sparse Jordan-Wigner map J = [a*(e_1) ...
a*(e_n)] on the 2^n-dimensional occupation-number space (raising matrix at
the mode position, parity signs from all lower mode indices).  Every CAR
operator is a product with J: a*(xi) = J (xi (x) 1), a(xi) = a*(xi)*, and
the second quantization dGamma(H) = J (H (x) 1) J* (for finite-rank H
these are the inner perturbations).  On top sit quasi-free flows
and Wick-form operator assembly.

dGamma(H) commutes with the number operator, so it is block diagonal over
the particle-number sectors (the basis indices with m bits set, m = 0..n).
A quasi-free flow is Ad Gamma(e^{itH}), and on sector m Gamma(W) acts as
the exterior power Lambda^m W, so with H = W diag(eps) W* the sector block
of dGamma(H) is Lambda^m W diag(subset sums of eps) (Lambda^m W)*: one
n x n eigensolver diagonalizes every sector.  The Wick unitarity defect
is a norm over the groups of sectors that x*x - 1 couples; no 2^n x 2^n
eigensolver runs.

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
import operator
from typing import TYPE_CHECKING

import numpy as np

from .hermitian import (SpectralDecomposition, ad_evolve, checked_finite, checked_hermitian,
                        op_norm)

# scipy.sparse is imported inside each function that uses it, so a process
# that never builds a FockRep, the core's among them, never loads it
if TYPE_CHECKING:
    import scipy.sparse as sparse

MAX_MODES = 12


def _popcount(values: np.ndarray, bits: int) -> np.ndarray:
    count = np.zeros_like(values)
    for b in range(bits):
        count += (values >> b) & 1
    return count


def _jordan_wigner(n: int) -> sparse.csr_matrix:
    """J = [a*(e_1) ... a*(e_n)], dim x n*dim; mode k+1 is bit n-1-k."""
    import scipy.sparse as sparse
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
        import scipy.sparse as sparse
        return sparse.identity(self.dim, dtype=np.complex128, format="csr")

    @functools.cached_property
    def _adjoint_pattern(self) -> tuple:
        """a(xi)'s CSR pattern and, per entry, its position in a*(xi)'s data."""
        import scipy.sparse as sparse
        jw, dim = self.jw, self.dim
        t = sparse.csr_matrix((np.arange(1.0, jw.nnz + 1), jw.indices % dim, jw.indptr),
                              shape=(dim, dim)).T.tocsr()
        return t.data.astype(np.intp) - 1, t.indices, t.indptr


@functools.lru_cache(maxsize=None)
def _sectors(n: int) -> tuple:
    """(particle number of each basis index, the ascending basis indices of
    each sector m = 0..n, the position of each basis index in its sector)."""
    number = _popcount(np.arange(1 << n), n)
    sectors = tuple(np.flatnonzero(number == m) for m in range(n + 1))
    position = np.empty(1 << n, dtype=np.intp)
    for idx in sectors:
        position[idx] = np.arange(len(idx))
    for arr in (number, position, *sectors):
        arr.flags.writeable = False     # shared by every caller through the cache
    return number, sectors, position


@functools.lru_cache(maxsize=None)
def _minor_tables(n: int) -> tuple:
    """Per sector m = 1..n, (modes, drop): row p of modes lists the occupied
    modes of sector position p ascending, and drop[p, k] is the position in
    sector m-1 of that mode list without modes[p, k]."""
    _, sectors, position = _sectors(n)
    bit = 1 << (n - 1 - np.arange(n))       # mode k+1 is bit n-1-k
    tables = []
    for idx in sectors[1:]:
        modes = np.nonzero(idx[:, None] & bit)[1].reshape(len(idx), -1)
        drop = position[idx[:, None] ^ bit[modes]]
        modes.flags.writeable = drop.flags.writeable = False
        tables.append((modes, drop))
    return tuple(tables)


@functools.lru_cache(maxsize=None)
def fock_rep(n: int) -> FockRep:
    if not 1 <= n <= MAX_MODES:
        raise ValueError(f"mode count must be in [1, {MAX_MODES}], got {n}")
    return FockRep(jw=_jordan_wigner(n))


def a_star(rep: FockRep, xi) -> sparse.csr_matrix:
    """Creation operator a*(xi) = sum_k xi_k a*(e_k) = J (xi (x) 1), linear
    in xi; each entry is a single +-xi_k."""
    import scipy.sparse as sparse
    xi = checked_finite(np.asarray(xi, dtype=np.complex128), "xi", (rep.modes,))
    jw, dim = rep.jw, rep.dim
    return sparse.csr_matrix((jw.data * xi[jw.indices // dim], jw.indices % dim, jw.indptr),
                             shape=(dim, dim))


def annihilator(rep: FockRep, xi) -> sparse.csr_matrix:
    """a(xi) = a*(xi)*, antilinear in xi: a*(xi)'s entries, conjugated and transposed."""
    import scipy.sparse as sparse
    order, indices, indptr = rep._adjoint_pattern
    return sparse.csr_matrix((a_star(rep, xi).data[order].conj(), indices, indptr),
                             shape=(rep.dim, rep.dim), copy=True)


def second_quantize(rep: FockRep, h_one) -> sparse.csr_matrix:
    """dGamma(H) = sum_ij H_ij a*(e_i) a(e_j) = J (H (x) 1) J* for Hermitian H.

    Each off-diagonal entry is exactly +-H_ij and each diagonal entry a sum
    of H_kk over the occupied modes.  Satisfies [i dGamma(H), a*(xi)] =
    i a*(H xi); with H = T of finite rank this is the inner perturbation
    that implements T on the one-particle space.
    """
    import scipy.sparse as sparse
    lift = sparse.kron(checked_hermitian(h_one, "h_one", (rep.modes,) * 2), rep.identity(),
                       format="csr")
    return rep.jw @ lift @ rep.jw.conj().T


def number_operator(rep: FockRep) -> sparse.csr_matrix:
    return second_quantize(rep, np.eye(rep.modes))


@dataclasses.dataclass(frozen=True, eq=False)
class QuasiFreeFlow:
    """Flow alpha_t = Ad Gamma(U_t) of U_t = exp(itH), i.e. Ad exp(it dGamma(H)).

    On sector m, Gamma(U_t) is the exterior power Lambda^m U_t, so every
    sector is diagonalized from the one-particle eigenbasis of H, once, on
    the first evolve; dGamma(H) itself is built only when read.
    """

    rep: FockRep
    h_one: np.ndarray

    @functools.cached_property
    def second_quantized(self) -> sparse.csr_matrix:
        return second_quantize(self.rep, self.h_one)

    @functools.cached_property
    def _sector_spectra(self) -> tuple:
        """SpectralDecomposition of dGamma(H) on each sector m = 0..n.

        With H = W diag(eps) W*, the sector eigenbasis is Lambda^m W: entry
        [p, q] is det W[I, J] for the ascending mode lists I, J of positions
        p, q (a*(e_i1)..a*(e_im) Omega has Jordan-Wigner sign + for i1 < ..
        < im), by Laplace expansion of the sector m-1 minors along the first
        row.  Columns follow a stable ascending sort of the subset sums of eps.
        """
        eps, w = np.linalg.eigh(self.h_one)
        minors = np.ones((1, 1), dtype=np.complex128)
        spectra = [SpectralDecomposition(np.zeros(1), minors)]
        for modes, drop in _minor_tables(self.rep.modes):
            first, below = w[modes[:, 0]], minors[drop[:, 0]]
            minors = np.zeros((len(modes), len(modes)), dtype=np.complex128)
            for k in range(modes.shape[1]):
                term = first[:, modes[:, k]] * below[:, drop[:, k]]
                minors += term if k % 2 == 0 else -term
            sums = eps[modes].sum(axis=1)
            order = np.argsort(sums, kind="stable")
            spectra.append(SpectralDecomposition(sums[order], minors[:, order]))
        return tuple(spectra)

    def evolve(self, t: float, x) -> np.ndarray:
        """alpha_t(x) for real t, dense on the lexicographic basis.

        Each nonzero sector block x_rc becomes ad_evolve(t, x_rc) between
        the two sectors' decompositions; zero blocks stay zero.
        """
        import scipy.sparse as sparse
        x = checked_finite(x, "x", (self.rep.dim,) * 2)
        if not math.isfinite(t):
            raise ValueError(f"time must be finite, got {t}")
        sectors = _sectors(self.rep.modes)[1]
        if sparse.issparse(x):
            blocks = _sparse_sector_blocks(self.rep.modes, x)
        else:
            blocks = {(r, c): x[np.ix_(ir, ic)] for r, ir in enumerate(sectors)
                      for c, ic in enumerate(sectors)}
        out = np.zeros((self.rep.dim, self.rep.dim), dtype=np.complex128)
        spectra = self._sector_spectra
        for (r, c), blk in blocks.items():
            if blk.any():
                out[np.ix_(sectors[r], sectors[c])] = ad_evolve(t, blk, spectra[r], spectra[c])
        return out


def _sparse_sector_blocks(n: int, x) -> dict:
    """{(r, c): dense block} of the sector pairs that hold entries of x."""
    number, sectors, position = _sectors(n)
    x = x.tocoo()
    pair = number[x.row] * (n + 1) + number[x.col]
    blocks = {}
    for key in np.unique(pair):
        r, c = divmod(int(key), n + 1)
        sel = pair == key
        blk = blocks[r, c] = np.zeros((len(sectors[r]), len(sectors[c])), dtype=np.complex128)
        np.add.at(blk, (position[x.row[sel]], position[x.col[sel]]), x.data[sel])
    return blocks


def quasi_free_flow(rep: FockRep, h_one) -> QuasiFreeFlow:
    return QuasiFreeFlow(rep=rep, h_one=checked_hermitian(h_one, "h_one", (rep.modes,) * 2))


def quasi_free_generator(flow: QuasiFreeFlow, x):
    """delta_alpha(x) = [i dGamma(H), x]; on x = a*(xi) this is i a*(H xi).

    Sparse input gives sparse output, dense gives dense.
    """
    x = checked_finite(x, "x", (flow.rep.dim,) * 2)
    d = flow.second_quantized
    return 1j * (d @ x - x @ d)


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
    orthonormal one-particle vectors, n x k with k <= n) defaults to the
    standard basis.  Each term is coeff times its first factor, multiplied
    by the rest in order, and x is the sum of the terms.  A unitary family
    V = [f_1 ... f_n] gives Gamma(V) x_e Gamma(V)*, with x_e the
    standard-basis element: x depends on the family, its unitarity defect
    does not.  Returns (x, ‖x*x - 1‖); the defect is a report, not an
    error, and is measured on the groups of particle-number sectors that
    x*x - 1 couples, read off its sector blocks.
    """
    import scipy.sparse as sparse
    n = rep.modes
    checked_finite(list(coeffs.values()), "coeffs", (len(coeffs),))
    if family is None:
        fam = np.eye(n, dtype=np.complex128)
    else:
        fam = checked_finite(np.asarray(family, dtype=np.complex128), "family", (n, "k"))
        gram = fam.conj().T @ fam
        if op_norm(gram - np.eye(fam.shape[1])) > 1e-8:
            raise ValueError("family columns are not orthonormal within 1e-8")
    terms = []
    for (mu, nu), coeff in coeffs.items():
        mu = _validate_indices("creation", mu, fam.shape[1])
        nu = _validate_indices("annihilation", nu, fam.shape[1])
        factors = ([a_star(rep, fam[:, i]) for i in mu]
                   + [annihilator(rep, fam[:, j]) for j in nu]) or [rep.identity()]
        terms.append(functools.reduce(operator.matmul, factors[1:], coeff * factors[0]))
    x = (sum(terms[1:], terms[0]) if terms
         else sparse.csr_matrix((rep.dim, rep.dim), dtype=np.complex128))
    return x, _sector_norm(rep, x.conj().T @ x - rep.identity())


def _sector_norm(rep: FockRep, y: sparse.spmatrix) -> float:
    """||y||, the largest op_norm over the groups of sectors y couples.

    Sectors joined by a nonzero block of y form one group, so y is block
    diagonal over the groups; groups without a nonzero entry add nothing.
    Each group is assembled from y's sector blocks on its ascending basis
    indices.
    """
    blocks = _sparse_sector_blocks(rep.modes, y)
    number, sectors, _ = _sectors(rep.modes)
    group = np.arange(rep.modes + 1)
    for r, c in blocks:
        group[group == group[c]] = group[r]
    label, norm = group[number], 0.0
    for g in np.unique(group[[r for r, _ in blocks]]):
        idx = np.flatnonzero(label == g)
        at = lambda m: np.searchsorted(idx, sectors[m])     # sector m's rows in the group
        dense = np.zeros((len(idx), len(idx)), dtype=np.complex128)
        for (r, c), blk in blocks.items():
            if group[r] == g:
                dense[np.ix_(at(r), at(c))] = blk
        norm = max(norm, op_norm(dense))
    return norm
