"""Spectral window projections that almost commute with an almost-commuting pair.

Given Hermitian (a, b) with small commutator, build a projection p trapped
between spectral projections of a,

    E_a[t+1/4, oo)  <=  p  <=  E_a(t-1/4, oo),

that almost commutes with both a and b.  Chaining these at the integer cut
points t = k that the spectrum reaches and differencing yields a partition
of unity {p_k} subordinate to unit-length spectral windows of a.

Everything runs in the eigenbasis of a, a = diag(lambda), where E_a(S) is
the set of coordinates with lambda in S: partition takes a there, and
window_projection rotates a pair in any basis there and its columns back.
Per cut point, joint diagonalization replaces (b, c), c = step(lambda - t),
by an exactly commuting pair (b1, c1); the projection q of c1 above 1/2 is
compressed to the window |lambda - t| < 1/4 and rounded back to a
projection q0 there; p = q0 + E_a[t+1/4, oo).  The solve runs only on the
coordinates with |lambda - t| < LOCAL_RADIUS = 3/4: c is exactly 0 or 1
outside them, and a band-smoothed b couples the window only to eigenvalues
within 1/2 of it.  An edge is kept as the orthonormal basis cols =
[win_in | coordinates in [t+1/4, oo)] of ran p, and every certificate is
a norm of an n x rank array of the full matrices, so a poor local solve
raises.  As q0 lies in the window, the sandwich and the chain
e_{k+1} <= e_k hold at rounding level by construction: each edge is built
once, and a failed certificate raises.

A block p_k = q_k q_k^* is stored as q_k = [win_in of edge k | coordinates
in [k+1/4, k+3/4] | win_out of edge k+1], win_out being the window columns
outside the edge; the sets are disjoint, so q_k is orthonormal.  Empty
windows are not stored.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import LinSolverFailure, MonotonicityViolation, SandwichViolation
from .hermitian import (ENDPOINT_RTOL, SQUARE, checked_hermitian, hermitian_part, op_norm,
                        spectral_decomp)
from .jointdiag import commuting_approximation
from .kernels import BAND_HALF_WIDTH, RAMP_HALF_WIDTH, _step_eval

CERTIFICATE_TOL = 1e-9
PROJECTION_TOL = 1e-10
LOCAL_RADIUS = RAMP_HALF_WIDTH + BAND_HALF_WIDTH


@dataclasses.dataclass(frozen=True)
class WindowProjectionResult:
    """Projection p = cols cols^* with measured commutators and sandwich
    certificates.

    cols = [win_in | eigenvectors of a in [t+1/4, oo)] is an orthonormal
    basis of ran p.  sandwich_lo = ||E_a[t+1/4,oo) (1-p)|| certifies the
    lower operator bound, sandwich_hi = ||p (1 - E_a(t-1/4,oo))|| the upper
    one.  win_in and win_out are orthonormal columns splitting
    ran E_a(t-1/4, t+1/4) into the part inside p and the part outside it.
    """

    cols: np.ndarray
    comm_a: float
    comm_b: float
    sandwich_lo: float
    sandwich_hi: float
    win_in: np.ndarray
    win_out: np.ndarray


@dataclasses.dataclass(frozen=True)
class PartitionBlock:
    """Nonempty block p_k = q q^* of the partition, q an n x rank isometry.

    Nothing is measured per block: p_k = e_k - e_{k+1}, so for x = a, b,
    ||[x, p_k]|| <= ||[x, e_k]|| + ||[x, e_{k+1}]|| < eps by the edge
    budgets eps/2, up to the chain residual.
    """

    k: int
    q: np.ndarray


@dataclasses.dataclass(frozen=True)
class ProjectionPartition:
    """Partition of unity p_k = e_k - e_{k+1} subordinate to unit windows of a.

    blocks holds the nonempty p_k in increasing k; their q split one
    orthonormal basis into disjoint column sets, so sum_k p_k = 1 and
    p_i p_j = 0 hold to rounding by construction.  chain_residual is the
    worst ||e_{k+1} (1 - e_k)|| and edge_comm the worst ||[a, e_k]|| or
    ||[b, e_k]|| over the edge projections, both measured while building.
    """

    blocks: tuple
    chain_residual: float
    edge_comm: float


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


def _outside_norm(y: np.ndarray, q: np.ndarray) -> float:
    """||(1 - q q^*) y|| for an isometry q, computed on n x r arrays.

    For y = x q with x Hermitian this is ||[x, q q^*]||, the commutator being
    block off-diagonal with respect to ran q; for y an isometry it is
    ||y y^* (1 - q q^*)||, the defect of ran y <= ran q.
    """
    return op_norm(y - q @ (q.conj().T @ y))


def _embed(mask: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """n x r columns: rows (default the identity) on the coordinates in mask, 0 elsewhere."""
    rows = np.eye(np.count_nonzero(mask)) if rows is None else rows
    cols = np.zeros((mask.size, rows.shape[1]), dtype=np.complex128)
    cols[mask] = rows
    return cols


def _window_core(lam: np.ndarray, bm: np.ndarray, scale: float, t: float,
                 eps: float) -> WindowProjectionResult:
    """Edge at cut point t for a = diag(lam), scale = max |lam|."""
    lo, win, hi = _split_masks(lam, t, scale)
    # an empty window has q0 = 0 regardless of b, so p = E_a[t+1/4,oo)
    mu, w = np.zeros(0), np.zeros((0, 0))
    if np.any(win):
        # far from t the step is exactly 0 or 1 and no window column lives there
        near = np.abs(lam - t) < LOCAL_RADIUS
        pair = commuting_approximation(hermitian_part(bm[np.ix_(near, near)]),
                                       np.diag(_step_eval(lam[near] - t)))
        report = pair.report
        if not report.converged:
            raise LinSolverFailure(
                f"inner joint diagonalization stalled at t={t}: "
                f"offdiag energy {report.offdiag_energy:.3e} after {report.sweeps} sweeps")
        q_near = pair.basis[:, pair.diag_b > 0.5]
        m_win = (q_near @ q_near.conj().T)[np.ix_(win[near], win[near])]
        mu, w = np.linalg.eigh(hermitian_part(m_win))
        if np.all(mu > 0.5) or np.all(mu <= 0.5):
            # q0 is the whole window or 0; eigh's basis of it is rounding noise
            w = np.eye(mu.size)
    win_in, win_out = _embed(win, w[:, mu > 0.5]), _embed(win, w[:, mu <= 0.5])
    e_hi = _embed(hi)
    cols = np.concatenate([win_in, e_hi], axis=1)

    sandwich_lo = _outside_norm(e_hi, cols)
    sandwich_hi = op_norm(cols[lo])         # ||E_a(-oo, t-1/4] cols||
    proj_defect = op_norm(cols.conj().T @ cols - np.eye(cols.shape[1]))
    if sandwich_lo > CERTIFICATE_TOL or sandwich_hi > CERTIFICATE_TOL or proj_defect > PROJECTION_TOL:
        raise SandwichViolation(
            f"window projection at t={t} failed certificates: "
            f"lo={sandwich_lo:.3e} hi={sandwich_hi:.3e} proj={proj_defect:.3e}")
    comm_a = _outside_norm(lam[:, None] * cols, cols)
    comm_b = _outside_norm(bm @ cols, cols)
    if not (comm_a < eps and comm_b < eps):
        raise SandwichViolation(
            f"window projection at t={t} exceeds commutator budget eps={eps:.3e}: "
            f"comm_a={comm_a:.3e} comm_b={comm_b:.3e} (commutator of inputs too large)")
    return WindowProjectionResult(cols=cols, comm_a=comm_a, comm_b=comm_b,
                                  sandwich_lo=sandwich_lo, sandwich_hi=sandwich_hi,
                                  win_in=win_in, win_out=win_out)


def checked_pair(a, b, eps: float):
    """a and b as Hermitian arrays of one shape, n >= 1; eps > 0 or inf."""
    am = checked_hermitian(a, "a", SQUARE)
    bm = checked_hermitian(b, "b", am.shape)
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return am, bm


def window_projection(a, b, t: float, eps: float) -> WindowProjectionResult:
    """Projection sandwiched by E_a[t+1/4,oo) and E_a(t-1/4,oo), almost
    commuting with a and b, for a in any basis.

    Raises ValueError on malformed input, SandwichViolation on a failed
    certificate or budget eps, and LinSolverFailure on a stalled inner solve.
    """
    am, bm = checked_pair(a, b, eps)
    if not math.isfinite(t):
        raise ValueError(f"cut point t must be finite, got {t}")
    dec = spectral_decomp(am)
    lam, v = dec.eigenvalues, dec.basis
    res = _window_core(lam, v.conj().T @ bm @ v, float(np.max(np.abs(lam))), t, eps)
    return dataclasses.replace(res, cols=v @ res.cols, win_in=v @ res.win_in,
                               win_out=v @ res.win_out)


def _cut_points(eigvals: np.ndarray) -> list:
    """K = {floor(lambda -/+ 1/4)}, the k with an eigenvalue in [k-1/4, k+5/4)."""
    return sorted({math.floor(x) for x in np.concatenate(
        [eigvals - RAMP_HALF_WIDTH, eigvals + RAMP_HALF_WIDTH])})


def partition(a, b, eps: float) -> ProjectionPartition:
    """Partition of unity {p_k} subordinate to the unit spectral windows of a,
    for a in its eigenbasis: a real diagonal matrix, read as diag(lambda).

    Edges are built once each, with budget eps/2 (so every p_k = e_k - e_{k+1}
    meets eps), only at the cut points an eigenvalue reaches: e_{min K} = 1
    and e_{k+1} for k in K, at most 2n+1 builds.  A cut point j is left out
    of K only if no eigenvalue lies in [j-1/4, j+5/4), so every window in a
    run of skipped cut points is empty and its edge E_a[j+1/4, oo) has the
    columns of the last edge built, which is reused.  The chain e_{k+1} <= e_k
    is measured between consecutive built edges; a residual above
    CERTIFICATE_TOL raises MonotonicityViolation.
    """
    am, bm = checked_pair(a, b, eps)
    lam = np.diag(am).real      # exactly real once a passed as Hermitian
    off = np.max(np.abs(am - np.diag(lam)))
    if off > 0:
        raise ValueError(f"partition takes a in its eigenbasis, a real diagonal matrix; "
                         f"largest off-diagonal |a_ij| = {off:.3e}")
    scale = float(np.max(np.abs(lam)))
    ks = _cut_points(lam)
    blocks, chain, edge_comm = [], 0.0, 0.0
    hi_edge = _window_core(lam, bm, scale, float(ks[0]), eps / 2)
    for k in ks:
        lo_edge, hi_edge = hi_edge, _window_core(lam, bm, scale, float(k + 1), eps / 2)
        edge_comm = max(edge_comm, lo_edge.comm_a, lo_edge.comm_b)
        residual = _outside_norm(hi_edge.cols, lo_edge.cols)
        if residual > CERTIFICATE_TOL:
            raise MonotonicityViolation(
                f"edge projections at t={k} and t={k + 1} not nested: "
                f"residual {residual:.3e}")
        chain = max(chain, residual)
        _, _, hi = _split_masks(lam, float(k), scale)
        lo_next, _, _ = _split_masks(lam, float(k + 1), scale)
        q = np.concatenate([lo_edge.win_in, _embed(hi & lo_next), hi_edge.win_out], axis=1)
        if q.shape[1]:
            blocks.append(PartitionBlock(k=k, q=q))
    edge_comm = max(edge_comm, hi_edge.comm_a, hi_edge.comm_b)
    return ProjectionPartition(blocks=tuple(blocks), chain_residual=chain,
                               edge_comm=edge_comm)
