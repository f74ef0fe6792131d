"""Joint approximate diagonalization of two Hermitian matrices.

Cyclic Jacobi sweeps with the closed-form optimal plane rotation per index
pair: for each (i, j) the rotation maximizes the summed squared diagonal
separation of both matrices, equivalently minimizes their joint (i, j)
off-diagonal energy.  For two matrices the angle needs no eigensolver: the
3x3 matrix it maximizes over has rank <= 2, so its top eigenvector follows
from one 2x2 arctangent (Cardoso & Souloumiac, SIAM J. Matrix Anal. Appl.
17, 1996), with exact ties broken toward the smaller rotation.  Pairs are
visited in a fixed round-robin schedule; within one round the pairs are
disjoint, so their rotations commute and the round is applied as one
batched 2x2 mix over its active pairs only: pairs already aligned are frozen
at the identity and never touched.  The sweep order is deterministic and the
joint off-diagonal energy is nonincreasing from sweep to sweep.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .hermitian import as_array, commutator, hermitian_part, op_norm

DEFAULT_TOL = 1e-12
DEFAULT_MAX_SWEEPS = 200


@dataclasses.dataclass(frozen=True)
class SolverReport:
    """Convergence record for one joint diagonalization run."""

    sweeps: int
    rotations: int          # plane rotations applied: active pairs over all rounds
    offdiag_energy: float
    converged: bool
    trace: tuple

    def __repr__(self):
        return (f"SolverReport(sweeps={self.sweeps}, rotations={self.rotations}, "
                f"offdiag_energy={self.offdiag_energy:.3e}, "
                f"converged={self.converged})")


@dataclasses.dataclass(frozen=True)
class CommutingPair:
    """Exactly commuting pair stored as one basis plus two real diagonals."""

    basis: np.ndarray
    diag_a: np.ndarray
    diag_b: np.ndarray
    dist_a: float
    dist_b: float
    report: SolverReport | None = None

    def a1(self) -> np.ndarray:
        u = self.basis
        return hermitian_part((u * self.diag_a) @ u.conj().T)

    def b1(self) -> np.ndarray:
        u = self.basis
        return hermitian_part((u * self.diag_b) @ u.conj().T)

    def commutation_residual(self) -> float:
        return op_norm(commutator(self.a1(), self.b1()))


@functools.lru_cache(maxsize=None)
def _schedule(n: int):
    """Round-robin tournament pairing of {0..n-1}: n-1 rounds of disjoint pairs."""
    players = list(range(n)) + ([-1] if n % 2 else [])
    m = len(players)
    rounds = []
    for _ in range(m - 1):
        pairs = [(players[k], players[m - 1 - k]) for k in range(m // 2)]
        pairs = [(min(i, j), max(i, j)) for i, j in pairs if -1 not in (i, j)]
        idx_i, idx_j = zip(*sorted(pairs))
        rounds.append((np.array(idx_i), np.array(idx_j)))
        players = [players[0], players[-1]] + players[1:-1]
    return tuple(rounds)


def _off_energy(stack: np.ndarray) -> float:
    total = 0.0
    for m in stack:
        total += float(np.sum(np.abs(m) ** 2) - np.sum(np.abs(np.diagonal(m)) ** 2))
    return total


def _round_rotations(stack: np.ndarray, idx_i: np.ndarray, idx_j: np.ndarray):
    """Closed-form optimal rotations for one round of disjoint pairs.

    Each Hermitian 2x2 principal block maps to the real 3-vector
    w = (d, 2 Re q, -2 Im q); conjugation by a plane rotation acts on it by a
    rotation of that vector, and the diagonal separation is its first
    component.  The best plane rotation aligns the top eigenvector v of
    G = W W^T, W = [w_a w_b], with the first axis.  G has rank <= 2, so
    v = W k for the top eigenvector k = (cos t, sin t) of the 2x2 W^T W,
    t = atan2(2 g_ab, g_aa - g_bb) / 2.  On an exact tie (g_aa = g_bb,
    g_ab = 0) v is the unit vector of span(w_a, w_b) with the largest first,
    then second, component: ties break toward the smaller rotation angle.
    v's first nonzero component is made positive, and pairs with
    |s| < 1e-15 are frozen at c=1, s=0.
    """
    diag = stack.diagonal(axis1=1, axis2=2)
    d = (diag[:, idx_i] - diag[:, idx_j]).real
    q = stack[:, idx_i, idx_j]
    g = d * d + 4.0 * (q * q.conj()).real
    g_ab = d[0] * d[1] + 4.0 * (q[0] * q[1].conj()).real
    t = 0.5 * np.arctan2(2.0 * g_ab, g[0] - g[1])
    k0, k1 = np.cos(t), np.sin(t)
    tie = (g[0] == g[1]) & (g_ab == 0.0)
    if tie.any():
        # project e_0 onto span(w_a, w_b), or e_1 where e_0 is orthogonal to it
        first = (d[0] != 0.0) | (d[1] != 0.0)
        k0 = np.where(tie, np.where(first, d[0], 2.0 * q[0].real), k0)
        k1 = np.where(tie, np.where(first, d[1], 2.0 * q[1].real), k1)
    # v = W k = (vx, 2 Re z, -2 Im z) / r
    vx = k0 * d[0] + k1 * d[1]
    z = k0 * q[0] + k1 * q[1]
    r = np.sqrt(vx * vx + 4.0 * (z * z.conj()).real)
    r = np.where(r > 0.0, r, 1.0)
    sign = np.sign(np.where(vx != 0.0, vx, np.where(z.real != 0.0, z.real, -z.imag)))
    # with x = sign vx / r the first component of v: c = sqrt((1 + x) / 2)
    # and s = (v_1 + i v_2) / sqrt(2 (1 + x)), written without cancellation
    h = r + np.abs(vx)
    c = np.sqrt(h / (2.0 * r))
    s = (2.0 * sign) * z.conj() / np.sqrt(2.0 * r * h)
    # freeze already-aligned pairs so `_apply_round` leaves them untouched
    idle = np.abs(s) < 1e-15
    c = np.where(idle, 1.0, c)
    s = np.where(idle, 0.0, s)
    return c, s


def _apply_round(stack, u, idx_i, idx_j, c, s) -> int:
    """Rotate the active pairs (s != 0) of one round in place; return how many.

    A frozen pair would only compute x*1 + y*0, so it is skipped.  With the
    active i's and j's gathered side by side, the swap permutation reverses
    the halves, and each side (columns and rows of the stack, columns of u)
    takes one gather, one 2x2 mix and one scatter: columns mix as
    x [c, c] + x_swapped [s, -conj(s)], rows with the conjugate [conj(s), -s].
    """
    active = s != 0
    k = int(np.count_nonzero(active))
    if k == 0:
        return 0
    idx = np.concatenate([idx_i[active], idx_j[active]])
    c, s = c[active], s[active]
    col_mix = np.concatenate([s, -s.conj()]).reshape(2, k)
    row_mix = col_mix.conj()[:, :, None]
    n = u.shape[0]
    x = stack.take(idx, axis=2).reshape(2, n, 2, k)
    stack[:, :, idx] = (x * c + x[:, :, ::-1] * col_mix).reshape(2, n, 2 * k)
    x = stack.take(idx, axis=1).reshape(2, 2, k, n)
    stack[:, idx, :] = (x * c[:, None] + x[:, ::-1] * row_mix).reshape(2, 2 * k, n)
    x = u.take(idx, axis=1).reshape(n, 2, k)
    u[:, idx] = (x * c + x[:, ::-1] * col_mix).reshape(n, 2 * k)
    return k


def joint_diagonalize(a, b):
    """Find a unitary that nearly diagonalizes both matrices at once.

    Returns (U, SolverReport).  Stops when the relative off-diagonal energy
    decrease over a sweep falls below DEFAULT_TOL (or the energy hits the
    floating point floor); non-convergence within DEFAULT_MAX_SWEEPS is
    reported, not raised.
    """
    am, bm = as_array(a), as_array(b)
    if am.shape != bm.shape:
        raise ValueError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    n = am.shape[0]
    stack = np.stack([am, bm]).astype(np.complex128)
    u = np.eye(n, dtype=np.complex128)

    frob2 = float(np.sum(np.abs(stack) ** 2))
    floor = (1e-15 * max(1.0, np.sqrt(frob2))) ** 2
    energy = _off_energy(stack)
    trace = [energy]
    converged = energy <= floor or n == 1
    sweeps = rotations = 0
    rounds = _schedule(n) if n > 1 else ()

    while not converged and sweeps < DEFAULT_MAX_SWEEPS:
        for idx_i, idx_j in rounds:
            c, s = _round_rotations(stack, idx_i, idx_j)
            rotations += _apply_round(stack, u, idx_i, idx_j, c, s)
        sweeps += 1
        prev, energy = energy, _off_energy(stack)
        trace.append(energy)
        if energy <= floor or (prev - energy) <= DEFAULT_TOL * max(prev, floor):
            converged = True

    report = SolverReport(sweeps=sweeps, rotations=rotations, offdiag_energy=energy,
                          converged=converged, trace=tuple(trace))
    return u, report


def commuting_approximation(a, b) -> CommutingPair:
    """Exactly commuting pair near (a, b), by joint diagonalization.

    The returned pair shares one eigenbasis, so it commutes structurally;
    dist_a and dist_b are the operator-norm distances to the inputs.
    """
    am, bm = as_array(a), as_array(b)
    u, report = joint_diagonalize(am, bm)
    diag_a = np.real(np.diagonal(u.conj().T @ am @ u)).copy()
    diag_b = np.real(np.diagonal(u.conj().T @ bm @ u)).copy()
    dist_a = op_norm(am - (u * diag_a) @ u.conj().T)
    dist_b = op_norm(bm - (u * diag_b) @ u.conj().T)
    diag_a.flags.writeable = False
    diag_b.flags.writeable = False
    return CommutingPair(basis=u, diag_a=diag_a, diag_b=diag_b,
                         dist_a=dist_a, dist_b=dist_b, report=report)
