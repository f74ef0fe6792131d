"""Joint approximate diagonalization of two Hermitian matrices.

Cyclic Jacobi sweeps with the closed-form optimal plane rotation per index
pair: for each (i, j) the rotation maximizes the summed squared diagonal
separation of both matrices, equivalently minimizes their joint (i, j)
off-diagonal energy.  Pairs are visited in a fixed round-robin schedule;
within one round the pairs are disjoint, so their rotations commute and the
whole round is applied as a single batched update.  The sweep order is
deterministic and the joint off-diagonal energy is nonincreasing from sweep
to sweep.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .hermitian import HermitianMatrix, as_array, commutator, hermitian_part, op_norm

DEFAULT_TOL = 1e-12
DEFAULT_MAX_SWEEPS = 200


@dataclasses.dataclass(frozen=True)
class SolverReport:
    """Convergence record for one joint diagonalization run."""

    sweeps: int
    offdiag_energy: float
    converged: bool
    trace: tuple

    def __repr__(self):
        return (f"SolverReport(sweeps={self.sweeps}, "
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

    def a1(self) -> HermitianMatrix:
        u = self.basis
        return hermitian_part((u * self.diag_a) @ u.conj().T)

    def b1(self) -> HermitianMatrix:
        u = self.basis
        return hermitian_part((u * self.diag_b) @ u.conj().T)

    def commutation_residual(self) -> float:
        return op_norm(commutator(self.a1().m, self.b1().m))


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
    (d, 2 Re q, -2 Im q); conjugation by a plane rotation acts on it by a
    rotation of that vector, and the diagonal separation is its first
    component.  The best plane rotation aligns the top eigenvector of the
    accumulated outer-product matrix with the first axis; ties break toward
    the smaller rotation angle.
    """
    d = np.real(stack[:, idx_i, idx_i] - stack[:, idx_j, idx_j])
    q = stack[:, idx_i, idx_j]
    w = np.stack([d, 2.0 * q.real, -2.0 * q.imag], axis=-1)
    g = np.einsum("mpi,mpj->pij", w, w)
    vecs = np.linalg.eigh(g)[1][:, :, 2]
    v0, v1, v2 = vecs[:, 0], vecs[:, 1], vecs[:, 2]
    flip = (v0 < 0) | ((v0 == 0) & ((v1 < 0) | ((v1 == 0) & (v2 < 0))))
    vecs[flip] *= -1.0
    x = vecs[:, 0]
    c = np.sqrt(0.5 * (1.0 + x))
    s = (vecs[:, 1] + 1j * vecs[:, 2]) / np.sqrt(2.0 * (1.0 + x))
    # freeze already-aligned pairs so their entries stay bit-identical
    idle = np.abs(s) < 1e-15
    c = np.where(idle, 1.0, c)
    s = np.where(idle, 0.0, s)
    return c, s


def _apply_round(stack, u, idx_i, idx_j, c, s):
    sc = np.conj(s)
    ci, cj = stack[:, :, idx_i], stack[:, :, idx_j]
    stack[:, :, idx_i] = ci * c + cj * s
    stack[:, :, idx_j] = cj * c - ci * sc
    ri, rj = stack[:, idx_i, :], stack[:, idx_j, :]
    stack[:, idx_i, :] = ri * c[:, None] + rj * sc[:, None]
    stack[:, idx_j, :] = rj * c[:, None] - ri * s[:, None]
    ui, uj = u[:, idx_i], u[:, idx_j]
    u[:, idx_i] = ui * c + uj * s
    u[:, idx_j] = uj * c - ui * sc


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
    sweeps = 0
    rounds = _schedule(n) if n > 1 else ()

    while not converged and sweeps < DEFAULT_MAX_SWEEPS:
        for idx_i, idx_j in rounds:
            c, s = _round_rotations(stack, idx_i, idx_j)
            _apply_round(stack, u, idx_i, idx_j, c, s)
        sweeps += 1
        prev, energy = energy, _off_energy(stack)
        trace.append(energy)
        if energy <= floor or (prev - energy) <= DEFAULT_TOL * max(prev, floor):
            converged = True

    report = SolverReport(sweeps=sweeps, offdiag_energy=energy,
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
