"""Spectral window projections that almost commute with an almost-commuting pair.

Given Hermitian (a, b) with small commutator, build a projection p trapped
between spectral projections of a,

    E_a[t+1/4, oo)  <=  p  <=  E_a(t-1/4, oo),

that almost commutes with both a and b.  Chaining these at integer cut
points t = k and differencing yields a partition of unity {p_k} subordinate
to unit-length spectral windows of a.

Construction per cut point: smooth step c = step(a - t) commutes with a and
almost commutes with b; joint diagonalization replaces (b, c) by an exactly
commuting pair (b1, c1); the spectral projection q of c1 above 1/2 is then
compressed to the window subspace ran E_a(t-1/4, t+1/4) and rounded back to
a projection q0 there; finally p = q0 + E_a[t+1/4, oo).  Because q0 is built
inside the explicit window column span, the sandwich certificates and the
chain monotonicity e_{k+1} <= e_k hold at rounding level by construction.

The partition is stored as one orthonormal column basis q_k per nonempty
block, p_k = q_k q_k^*.  Each edge splits its window eigenvectors into the
selected columns (inside e_k) and the rest, so q_k is read off directly as
[selected window-k columns | eigenvectors of a in [k+1/4, k+3/4] |
unselected window-(k+1) columns]; the three sets are disjoint, which makes
q_k orthonormal by construction.  Empty windows are not stored.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import LinSolverFailure, MonotonicityViolation, SandwichViolation
from .hermitian import (ENDPOINT_RTOL, HermitianMatrix, SpectralDecomposition,
                        as_array, commutator, hermitian_part, op_norm,
                        spectral_decomp)
from .jointdiag import DEFAULT_MAX_SWEEPS, DEFAULT_TOL, SolverReport, commuting_approximation
from .kernels import RAMP_HALF_WIDTH, _step_eval

CERTIFICATE_TOL = 1e-9
PROJECTION_TOL = 1e-10


@dataclasses.dataclass(frozen=True)
class WindowProjectionResult:
    """Projection p with measured commutators and sandwich certificates.

    sandwich_lo = ||E_a[t+1/4,oo) (1-p)|| certifies the lower operator bound,
    sandwich_hi = ||p (1 - E_a(t-1/4,oo))|| the upper one.  win_in and
    win_out are orthonormal columns splitting ran E_a(t-1/4, t+1/4) into
    the part inside p and the part outside it.
    """

    p: HermitianMatrix
    comm_a: float
    comm_b: float
    sandwich_lo: float
    sandwich_hi: float
    win_in: np.ndarray
    win_out: np.ndarray
    inner_report: SolverReport | None = None


@dataclasses.dataclass(frozen=True)
class PartitionBlock:
    """Nonempty block p_k = q q^* of the partition, q an n x rank isometry.

    comm_a and comm_b are ||[a, p_k]|| and ||[b, p_k]||.
    """

    k: int
    q: np.ndarray
    comm_a: float
    comm_b: float


@dataclasses.dataclass(frozen=True)
class ProjectionPartition:
    """Partition of unity p_k = e_k - e_{k+1} subordinate to unit windows of a.

    blocks holds the nonempty p_k in increasing k.  chain_residual is the
    worst ||e_{k+1} (1 - e_k)|| and edge_comm the worst ||[a, e_k]|| or
    ||[b, e_k]|| over the edge projections, both measured while building.
    """

    blocks: tuple
    chain_residual: float
    edge_comm: float

    def sum_residual(self) -> float:
        total = sum(blk.q @ blk.q.conj().T for blk in self.blocks)
        return op_norm(total - np.eye(total.shape[0]))

    def orthogonality_residual(self) -> float:
        """max ||p_i p_j|| = max ||q_i^* q_j|| over distinct blocks."""
        return max((op_norm(bi.q.conj().T @ bj.q)
                    for i, bi in enumerate(self.blocks) for bj in self.blocks[i + 1:]),
                   default=0.0)


def _split_masks(eigvals: np.ndarray, t: float, scale: float):
    """Exactly partition eigenvalues into lo / window / hi at t -/+ 1/4.

    The closed side [t+1/4, oo) absorbs the endpoint tolerance band, so an
    eigenvalue at the boundary lands in hi and the open window stays open.
    """
    tol = ENDPOINT_RTOL * max(1.0, scale)
    hi = eigvals >= (t + RAMP_HALF_WIDTH) - tol
    lo = ~hi & (eigvals <= (t - RAMP_HALF_WIDTH) + tol)
    win = ~hi & ~lo
    return lo, win, hi


def _span_projection(cols: np.ndarray) -> np.ndarray:
    if cols.shape[1] == 0:
        return np.zeros((cols.shape[0], cols.shape[0]), dtype=np.complex128)
    return cols @ cols.conj().T


def _window_core(am, bm, decomp: SpectralDecomposition, t: float, eps: float,
                 inner_tol: float, inner_sweeps: int, enforce: bool) -> WindowProjectionResult:
    lam, v = decomp.eigenvalues, decomp.basis
    scale = float(np.max(np.abs(lam))) if lam.size else 1.0
    lo, win, hi = _split_masks(lam, t, scale)
    v_lo, v_win, v_hi = v[:, lo], v[:, win], v[:, hi]
    e_hi = _span_projection(v_hi)

    report = None
    if not np.any(win):
        # no spectrum in the window: q0 = 0 regardless of b, so p = E_a[t+1/4,oo)
        pm = e_hi
        win_in = win_out = v_win
    else:
        ramp = _step_eval(lam - t)
        cm = hermitian_part((v * ramp) @ v.conj().T).m
        pair = commuting_approximation(bm, cm, tol=inner_tol, max_sweeps=inner_sweeps)
        report = pair.report
        if not report.converged:
            raise LinSolverFailure(
                f"inner joint diagonalization stalled at t={t}: "
                f"offdiag energy {report.offdiag_energy:.3e} after {report.sweeps} sweeps")
        q_cols = pair.basis[:, pair.diag_b > 0.5]
        m_win = v_win.conj().T @ _span_projection(q_cols) @ v_win
        mu, w = np.linalg.eigh(hermitian_part(m_win).m)
        win_in, win_out = v_win @ w[:, mu > 0.5], v_win @ w[:, mu <= 0.5]
        pm = _span_projection(np.concatenate([win_in, v_hi], axis=1))

    pm = hermitian_part(pm).m
    n = pm.shape[0]
    eye = np.eye(n)
    sandwich_lo = op_norm(e_hi @ (eye - pm))
    sandwich_hi = op_norm(pm @ _span_projection(v_lo))
    proj_defect = op_norm(pm @ pm - pm)
    if sandwich_lo > CERTIFICATE_TOL or sandwich_hi > CERTIFICATE_TOL or proj_defect > PROJECTION_TOL:
        raise SandwichViolation(
            f"window projection at t={t} failed certificates: "
            f"lo={sandwich_lo:.3e} hi={sandwich_hi:.3e} proj={proj_defect:.3e}")
    comm_a = op_norm(commutator(am, pm))
    comm_b = op_norm(commutator(bm, pm))
    if enforce and not (comm_a < eps and comm_b < eps):
        raise SandwichViolation(
            f"window projection at t={t} exceeds commutator budget eps={eps:.3e}: "
            f"comm_a={comm_a:.3e} comm_b={comm_b:.3e} (commutator of inputs too large)")
    return WindowProjectionResult(p=HermitianMatrix(pm, _checked=True), comm_a=comm_a,
                                  comm_b=comm_b, sandwich_lo=sandwich_lo,
                                  sandwich_hi=sandwich_hi, win_in=win_in,
                                  win_out=win_out, inner_report=report)


def window_projection(a, b, t: float, eps: float, *,
                      enforce: bool = True) -> WindowProjectionResult:
    """Projection sandwiched by E_a[t+1/4,oo) and E_a(t-1/4,oo), almost
    commuting with a and b.

    Raises SandwichViolation when the certificates or (with enforce) the
    commutator budget eps fail; one automatic retry runs the inner solver
    with 10x tighter tolerance before the error surfaces.
    """
    am, bm = as_array(a), as_array(b)
    decomp = spectral_decomp(am)
    try:
        return _window_core(am, bm, decomp, t, eps, DEFAULT_TOL,
                            DEFAULT_MAX_SWEEPS, enforce)
    except (LinSolverFailure, SandwichViolation):
        return _window_core(am, bm, decomp, t, eps, DEFAULT_TOL / 10,
                            2 * DEFAULT_MAX_SWEEPS, enforce)


def _edge_range(eigvals: np.ndarray) -> range:
    kmin = math.floor(float(np.min(eigvals))) - 1
    kmax = math.ceil(float(np.max(eigvals))) + 1
    return range(kmin, kmax + 1)


def _comm_norm(x: np.ndarray, q: np.ndarray) -> float:
    """||[x, q q^*]|| for Hermitian x and an isometry q.

    The commutator is block off-diagonal with respect to ran q, so its norm
    is that of (1 - q q^*) x q, an n x rank array.
    """
    xq = x @ q
    return op_norm(xq - q @ (q.conj().T @ xq))


def partition(a, b, eps: float, *, enforce: bool = True) -> ProjectionPartition:
    """Partition of unity {p_k} subordinate to the unit spectral windows of a.

    Each edge projection e_k is built at cut point t = k with commutator
    budget eps/2, so every p_k = e_k - e_{k+1} meets budget eps.  The chain
    e_{k+1} <= e_k is verified; on violation the whole family is rebuilt
    once with 10x tighter inner tolerance, then MonotonicityViolation.
    """
    am, bm = as_array(a), as_array(b)
    decomp = spectral_decomp(am)
    lam, v = decomp.eigenvalues, decomp.basis
    scale = float(np.max(np.abs(lam)))
    ks = _edge_range(lam)
    eye = np.eye(am.shape[0])

    def build(inner_tol: float, inner_sweeps: int):
        blocks, chain, edge_comm = [], [], 0.0
        hi_edge = _window_core(am, bm, decomp, float(ks.start), eps / 2,
                               inner_tol, inner_sweeps, enforce)
        for k in ks:
            lo_edge, hi_edge = hi_edge, _window_core(am, bm, decomp, float(k + 1), eps / 2,
                                                     inner_tol, inner_sweeps, enforce)
            edge_comm = max(edge_comm, lo_edge.comm_a, lo_edge.comm_b)
            chain.append(op_norm(hi_edge.p.m @ (eye - lo_edge.p.m)))
            _, _, hi = _split_masks(lam, float(k), scale)
            lo_next, _, _ = _split_masks(lam, float(k + 1), scale)
            q = np.concatenate([lo_edge.win_in, v[:, hi & lo_next], hi_edge.win_out], axis=1)
            if q.shape[1]:
                blocks.append(PartitionBlock(k=k, q=q, comm_a=_comm_norm(am, q),
                                    comm_b=_comm_norm(bm, q)))
        edge_comm = max(edge_comm, hi_edge.comm_a, hi_edge.comm_b)
        return blocks, chain, edge_comm

    blocks, chain, edge_comm = build(DEFAULT_TOL, DEFAULT_MAX_SWEEPS)
    if not all(c <= CERTIFICATE_TOL for c in chain):
        blocks, chain, edge_comm = build(DEFAULT_TOL / 10, 2 * DEFAULT_MAX_SWEEPS)
        if not all(c <= CERTIFICATE_TOL for c in chain):
            raise MonotonicityViolation(
                f"edge projections not nested after retry: worst residual {max(chain):.3e}")
    return ProjectionPartition(blocks=tuple(blocks), chain_residual=max(chain),
                               edge_comm=edge_comm)


def window_commutation_diagnostic(a, part: ProjectionPartition) -> float:
    """max_{j,k} ||[E_a(j-1/4, j+1/4), p_k]||, measured.

    The construction keeps these small but does not force exact zeros; the
    value is reported as a diagnostic rather than asserted.
    """
    am = as_array(a)
    decomp = spectral_decomp(am)
    lam, v = decomp.eigenvalues, decomp.basis
    scale = float(np.max(np.abs(lam)))
    worst = 0.0
    for j in _edge_range(lam):
        _, win, _ = _split_masks(lam, float(j), scale)
        e_win = _span_projection(v[:, win])
        for blk in part.blocks:
            worst = max(worst, _comm_norm(e_win, blk.q))
    return worst
