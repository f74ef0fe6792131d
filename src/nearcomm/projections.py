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
within 1/2 of it.  An edge is stored as its window coordinates and the
eigenvectors of q0 there, split into w_in (inside p) and w_out, so the
sandwich holds by construction, and so does the chain e_{k+1} <= e_k, as
windows of distinct integer cut points are disjoint.  What can fail is
measured exactly on arrays local to t: ||w_in^* w_in - 1||, ||[a, p]|| =
||w_out^* diag(lambda) w_in|| and ||[b, p]|| = ||(1 - p) b p||, which lives
within 1/4 + reach of t, reach being the largest |lambda_i - lambda_j| over
the nonzero b_ij (below 1/2 for a band-smoothed b).

A block p_k = q_k q_k^* is stored as q_k = [w_in of edge k | coordinates
in [k+1/4, k+3/4] | w_out of edge k+1], embedded in the n coordinates; the
sets are disjoint, so q_k is orthonormal.  Empty windows are not stored.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import LinSolverFailure, SandwichViolation
from .hermitian import (ENDPOINT_RTOL, SQUARE, checked_hermitian, hermitian_part, op_norm,
                        spectral_decomp)
from .jointdiag import commuting_approximation
from .kernels import BAND_HALF_WIDTH, RAMP_HALF_WIDTH, _step_eval

PROJECTION_TOL = 1e-10
LOCAL_RADIUS = RAMP_HALF_WIDTH + BAND_HALF_WIDTH


@dataclasses.dataclass(frozen=True)
class Edge:
    """Edge p = E_a[t+1/4, oo) + w_in w_in^* at a cut point t, a = diag(lambda):
    win and hi mark |lambda - t| < 1/4 and lambda >= t + 1/4, and w_in, w_out
    split the window's coordinates into orthonormal columns inside p and
    outside it.  comm_a = ||[a, p]|| and comm_b = ||[b, p]||."""

    win: np.ndarray
    hi: np.ndarray
    w_in: np.ndarray
    w_out: np.ndarray
    comm_a: float
    comm_b: float


@dataclasses.dataclass(frozen=True)
class WindowProjectionResult:
    """Projection p = cols cols^* in the basis a arrived in: cols = [V_win w_in
    | V_hi] for the eigenvectors V of a and the Edge built there, whose
    comm_a and comm_b it carries."""

    cols: np.ndarray
    comm_a: float
    comm_b: float


@dataclasses.dataclass(frozen=True)
class PartitionBlock:
    """Nonempty block p_k = q q^* of the partition, q an n x rank isometry.

    Nothing is measured per block: p_k = e_k - e_{k+1}, so for x = a, b,
    ||[x, p_k]|| <= ||[x, e_k]|| + ||[x, e_{k+1}]|| < eps by the edge
    budgets eps/2.
    """

    k: int
    q: np.ndarray


@dataclasses.dataclass(frozen=True)
class ProjectionPartition:
    """Partition of unity p_k = e_k - e_{k+1} subordinate to unit windows of a.

    blocks holds the nonempty p_k in increasing k; their q split one
    orthonormal basis into disjoint column sets, so sum_k p_k = 1 and
    p_i p_j = 0 hold to rounding by construction.  edge_comm is the worst
    ||[a, e_k]|| or ||[b, e_k]|| over the edge projections, measured while
    building.
    """

    blocks: tuple
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


def _embed(mask: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """n x r columns: rows (default the identity) on the coordinates in mask, 0 elsewhere."""
    rows = np.eye(np.count_nonzero(mask)) if rows is None else rows
    cols = np.zeros((mask.size, rows.shape[1]), dtype=np.complex128)
    cols[mask] = rows
    return cols


def _reach(lam: np.ndarray, bm: np.ndarray) -> float:
    """The largest |lambda_i - lambda_j| over the nonzero entries b_ij."""
    i, j = np.nonzero(bm)
    return float(np.max(np.abs(lam[i] - lam[j]), initial=0.0))


def _window_core(lam: np.ndarray, bm: np.ndarray, scale: float, t: float,
                 eps: float, reach: float) -> Edge:
    """Edge at cut point t for a = diag(lam), scale = max |lam|, and a b
    whose entries couple no eigenvalues farther apart than reach."""
    lo, win, hi = _split_masks(lam, t, scale)
    # (1 - p) b p joins rows below t + 1/4 to columns above t - 1/4, so each
    # entry it keeps lies within 1/4 + reach of t, with the endpoint band to spare
    span = np.abs(lam - t) < RAMP_HALF_WIDTH + reach
    if not np.any(win):
        # an empty window has q0 = 0 regardless of b, so p = E_a[t+1/4,oo)
        # and (1 - p) b p is the block of b from lo to hi
        w_in = w_out = np.zeros((0, 0))
        comm_a, comm_b = 0.0, op_norm(bm[lo & span][:, hi & span])
    else:
        # far from t the step is exactly 0 or 1 and no window column lives there
        near = np.abs(lam - t) < LOCAL_RADIUS
        pair = commuting_approximation(hermitian_part(bm[near][:, near]),
                                       np.diag(_step_eval(lam[near] - t)))
        report = pair.report
        if not report.converged:
            raise LinSolverFailure(
                f"inner joint diagonalization stalled at t={t}: "
                f"offdiag energy {report.offdiag_energy:.3e} after {report.sweeps} sweeps")
        q_near = pair.basis[:, pair.diag_b > 0.5]
        m_win = (q_near @ q_near.conj().T)[win[near]][:, win[near]]
        if m_win.shape[0] == 1:
            # eigh's eigenvalue of a 1x1 window; q0 is then the window or 0
            mu, w = m_win.real[0], np.eye(1)
        else:
            mu, w = np.linalg.eigh(hermitian_part(m_win))
            if np.all(mu > 0.5) or np.all(mu <= 0.5):
                # q0 is the whole window or 0; eigh's basis of it is rounding noise
                w = np.eye(mu.size)
        w_in, w_out = w[:, mu > 0.5], w[:, mu <= 0.5]

        proj_defect = op_norm(w_in.conj().T @ w_in - np.eye(w_in.shape[1]))
        if proj_defect > PROJECTION_TOL:
            raise SandwichViolation(f"window projection at t={t} failed its certificate: "
                                    f"proj={proj_defect:.3e}")
        comm_a = op_norm((w_out.conj().T * lam[win]) @ w_in)
        inside = np.concatenate([_embed(win[span], w_in), _embed(hi[span])], axis=1)
        outside = np.concatenate([_embed(lo[span]), _embed(win[span], w_out)], axis=1)
        comm_b = op_norm(outside.conj().T @ bm[span][:, span] @ inside)
    if not (comm_a < eps and comm_b < eps):
        raise SandwichViolation(
            f"window projection at t={t} exceeds commutator budget eps={eps:.3e}: "
            f"comm_a={comm_a:.3e} comm_b={comm_b:.3e} (commutator of inputs too large)")
    return Edge(win=win, hi=hi, w_in=w_in, w_out=w_out, comm_a=comm_a, comm_b=comm_b)


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
    b_eig = v.conj().T @ bm @ v
    edge = _window_core(lam, b_eig, float(np.max(np.abs(lam))), t, eps, _reach(lam, b_eig))
    cols = np.concatenate([v[:, edge.win] @ edge.w_in, v[:, edge.hi]], axis=1)
    return WindowProjectionResult(cols=cols, comm_a=edge.comm_a, comm_b=edge.comm_b)


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
    run of skipped cut points is empty and its edge E_a[j+1/4, oo) is the
    last edge built, which is reused.  The reach of b is measured once, for
    every edge.
    """
    am, bm = checked_pair(a, b, eps)
    lam = np.diag(am).real      # exactly real once a passed as Hermitian
    off = np.max(np.abs(am - np.diag(lam)))
    if off > 0:
        raise ValueError(f"partition takes a in its eigenbasis, a real diagonal matrix; "
                         f"largest off-diagonal |a_ij| = {off:.3e}")
    scale = float(np.max(np.abs(lam)))
    reach = _reach(lam, bm)
    ks = _cut_points(lam)
    blocks, edge_comm = [], 0.0
    hi_edge = _window_core(lam, bm, scale, float(ks[0]), eps / 2, reach)
    for k in ks:
        lo_edge, hi_edge = hi_edge, _window_core(lam, bm, scale, float(k + 1), eps / 2, reach)
        edge_comm = max(edge_comm, lo_edge.comm_a, lo_edge.comm_b)
        # e_k - e_{k+1}: the coordinates above edge k and below edge k+1's window
        between = lo_edge.hi & ~(hi_edge.win | hi_edge.hi)
        if lo_edge.w_in.shape[1] or hi_edge.w_out.shape[1] or np.any(between):
            q = np.concatenate([_embed(lo_edge.win, lo_edge.w_in), _embed(between),
                                _embed(hi_edge.win, hi_edge.w_out)], axis=1)
            blocks.append(PartitionBlock(k=k, q=q))
    edge_comm = max(edge_comm, hi_edge.comm_a, hi_edge.comm_b)
    return ProjectionPartition(blocks=tuple(blocks), edge_comm=edge_comm)
