"""Joint approximate diagonalization of two Hermitian matrices.

Cyclic Jacobi sweeps with the closed-form optimal plane rotation per index
pair: for each (i, j) the rotation maximizes the summed squared diagonal
separation of both matrices, equivalently minimizes their joint (i, j)
off-diagonal energy.  For two matrices the angle needs no eigensolver: the
3x3 matrix it maximizes over has rank <= 2, so its top eigenvector follows
from one 2x2 arctangent (Cardoso & Souloumiac, SIAM J. Matrix Anal. Appl.
17, 1996), with exact ties broken toward the smaller rotation.  Pairs are
visited in a fixed round-robin schedule of disjoint pairs, so a round's
rotations commute.  a, b and u are the slabs of one work array: a round reads
its 2x2 blocks with one take, freezes aligned pairs at the identity, and mixes
the columns of all three slabs, then the rows of a and b, in one pass each.
The sweep order is deterministic and the joint off-diagonal energy is
nonincreasing from sweep to sweep.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .hermitian import (SQUARE, _shaped, as_array, checked_finite, commutator, hermitian_part,
                        op_norm)

DEFAULT_TOL = 1e-12
DEFAULT_MAX_SWEEPS = 200
ROTATION_HEADROOM = 8.0     # a round's products (2 r h) reach 8x the summed squares of a, b


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


_SCALAR_REPORT = SolverReport(sweeps=0, rotations=0, offdiag_energy=0.0,
                              converged=True, trace=(0.0,))


@dataclasses.dataclass(frozen=True)
class CommutingPair:
    """Exactly commuting pair stored as one basis plus two real diagonals.

    target is the pair (a, b) it replaces.  dist_a = ||a - u diag_a u*|| and
    dist_b = ||b - u diag_b u*|| are measured on first read, so a solve whose
    caller reads only the basis and the diagonals pays for no distance.
    """

    basis: np.ndarray
    diag_a: np.ndarray
    diag_b: np.ndarray
    target: tuple
    report: SolverReport | None = None

    @functools.cached_property
    def dist_a(self) -> float:
        return self._distance(self.target[0], self.diag_a)

    @functools.cached_property
    def dist_b(self) -> float:
        return self._distance(self.target[1], self.diag_b)

    def _distance(self, x: np.ndarray, diag: np.ndarray) -> float:
        u = self.basis
        return op_norm(x - (u * diag) @ u.conj().T)

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
    """Round-robin pairing of {0..n-1}: n-1 rounds of (i's then j's, `_entry_index`)."""
    players = list(range(n)) + ([-1] if n % 2 else [])
    m = len(players)
    rounds = []
    for _ in range(m - 1):
        pairs = [(players[k], players[m - 1 - k]) for k in range(m // 2)]
        pairs = [(min(i, j), max(i, j)) for i, j in pairs if -1 not in (i, j)]
        idx_i, idx_j = map(np.array, zip(*sorted(pairs)))
        rounds.append((np.concatenate([idx_i, idx_j]), _entry_index(n, idx_i, idx_j)))
        players = [players[0], players[-1]] + players[1:-1]
    return tuple(rounds)


def _entry_index(n: int, idx_i: np.ndarray, idx_j: np.ndarray) -> np.ndarray:
    """Flat indices of the (i,i), (j,j), (i,j) entries of slabs a, a, b, b of the work array."""
    entries = np.stack([idx_i * (n + 1), idx_j * (n + 1), idx_i * n + idx_j])
    return (entries[:, None] + n * n * np.array([[0], [0], [1], [1]])).ravel()


def _off_energy(stack: np.ndarray) -> float:
    return _squares_off_energy(np.abs(stack) ** 2)


def _squares_off_energy(squares: np.ndarray) -> float:
    """Summed off-diagonal energy of the slabs whose squared moduli are squares."""
    total = 0.0
    for m in squares:
        total += float(np.sum(m) - np.sum(np.diagonal(m)))
    return total


def _check_scale(frob2: float, am: np.ndarray, bm: np.ndarray) -> None:
    """ValueError naming a or b (the larger, if only their sum overflows) when
    frob2, their summed squared moduli, is NaN or inf within ROTATION_HEADROOM."""
    if not math.isfinite(ROTATION_HEADROOM * frob2):
        checked_finite(am, "a", am.shape)
        checked_finite(bm, "b", am.shape)
        big, name = max((float(np.max(np.abs(m))), name) for name, m in (("a", am), ("b", bm)))
        raise ValueError(f"{name} has entries too large to rotate: {ROTATION_HEADROOM:g}x the "
                         f"sum of squares of a and b overflows (max |{name}_ij| = {big:.3e})")


def _round_rotations(work: np.ndarray, pairs: np.ndarray, entries: np.ndarray):
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
    v's first nonzero component is made positive.  The blocks come from one
    take of `entries`; rows (a, a, b) times rows (a, b, b) give the g's.  Pairs
    with |s| < 1e-15 stay at the identity: returns (idx, c, s) for the others.
    """
    ii, jj, q = work.take(entries).reshape(3, 4, -1)
    d = (ii - jj).real
    g_aa, g_ab, g_bb = d[:3] * d[1:] + 4.0 * (q[:3] * q[1:].conj()).real
    d, q = d[::2], q[::2]
    t = 0.5 * np.arctan2(2.0 * g_ab, g_aa - g_bb)
    k0, k1 = np.cos(t), np.sin(t)
    tie = g_ab == 0.0
    if np.count_nonzero(tie):
        # project e_0 onto span(w_a, w_b), or e_1 where e_0 is orthogonal to it
        tie &= g_aa == g_bb
        first = (d[0] != 0.0) | (d[1] != 0.0)
        t0 = np.where(first, d[0], 2.0 * q[0].real)
        t1 = np.where(first, d[1], 2.0 * q[1].real)
        # scaled by a power of two to order 1, so that vx * vx neither
        # overflows nor underflows; c and s are unchanged where it did neither
        e = np.frexp(np.maximum(np.abs(t0), np.abs(t1)))[1]
        k0 = np.where(tie, np.ldexp(t0, -e), k0)
        k1 = np.where(tie, np.ldexp(t1, -e), k1)
    # v = W k = (vx, 2 Re z, -2 Im z) / r
    vx = k0 * d[0] + k1 * d[1]
    z = k0 * q[0] + k1 * q[1]
    r = np.sqrt(vx * vx + 4.0 * (z * z.conj()).real)
    if np.count_nonzero(r > 0.0) < len(r):
        r = np.where(r > 0.0, r, 1.0)
    lead = vx if np.count_nonzero(vx) == len(vx) else np.where(
        vx != 0.0, vx, np.where(z.real != 0.0, z.real, -z.imag))
    # with x = sign vx / r the first component of v: c = sqrt((1 + x) / 2)
    # and s = (v_1 + i v_2) / sqrt(2 (1 + x)), written without cancellation
    h = r + np.abs(vx)
    c = np.sqrt(h / (2.0 * r))
    s = (2.0 * np.sign(lead)) * z.conj() / np.sqrt(2.0 * r * h)
    keep = ~(np.abs(s) < 1e-15)
    if np.count_nonzero(keep) == len(s):
        return pairs, c, s
    return pairs.reshape(2, -1)[:, keep].ravel(), c[keep], s[keep]


def _apply_round(work: np.ndarray, idx: np.ndarray, c, s) -> int:
    """Rotate one round's active pairs in place; return how many.

    idx lists their i's, then their j's, so the swap reverses the halves.
    The columns of a, b and u (the slabs of work) take one gather, mix
    x [c, c] + x_swapped [s, -conj(s)] and scatter; the rows of a and b
    mix the same way with the conjugate [conj(s), -s].
    """
    k = len(s)
    if k == 0:
        return 0
    col_mix = np.concatenate([s, -s.conj()]).reshape(2, k)
    row_mix = col_mix.conj()[:, :, None]
    n = work.shape[1]
    x = work.take(idx, axis=2).reshape(3, n, 2, k)
    work[:, :, idx] = (x * c + x[:, :, ::-1] * col_mix).reshape(3, n, 2 * k)
    x = work[:2].take(idx, axis=1).reshape(2, 2, k, n)
    work[:2, idx, :] = (x * c[:, None] + x[:, ::-1] * row_mix).reshape(2, 2 * k, n)
    return k


def joint_diagonalize(a, b):
    """Find a unitary that nearly diagonalizes both matrices at once.

    Returns (U, SolverReport).  Stops when the relative off-diagonal energy
    decrease over a sweep falls below DEFAULT_TOL (or the energy hits the
    floating point floor); non-convergence within DEFAULT_MAX_SWEEPS is
    reported, not raised.  A non-square a, a b of another shape, or a
    non-finite or too large entry raises ValueError.
    """
    am = _shaped(as_array(a), "a", SQUARE)
    bm = _shaped(as_array(b), "b", am.shape)
    n = am.shape[0]
    work = np.empty((3, n, n), dtype=np.complex128)
    work[0], work[1], work[2] = am, bm, np.eye(n)
    stack = work[:2]                # a and b; u is the third slab

    with np.errstate(over="ignore"):
        squares = np.abs(stack) ** 2
        frob2 = float(np.sum(squares))
    _check_scale(frob2, am, bm)
    floor = (1e-15 * max(1.0, np.sqrt(frob2))) ** 2
    energy = _squares_off_energy(squares)
    trace = [energy]
    converged = energy <= floor or n == 1
    sweeps = rotations = 0
    rounds = _schedule(n) if n > 1 else ()

    while not converged and sweeps < DEFAULT_MAX_SWEEPS:
        applied = sum(_apply_round(work, *_round_rotations(work, pairs, entries))
                      for pairs, entries in rounds)
        rotations += applied
        sweeps += 1
        # a sweep that rotated nothing left the energy as it was
        prev, energy = energy, _off_energy(stack) if applied else energy
        trace.append(energy)
        if energy <= floor or (prev - energy) <= DEFAULT_TOL * max(prev, floor):
            converged = True

    report = SolverReport(sweeps=sweeps, rotations=rotations, offdiag_energy=energy,
                          converged=converged, trace=tuple(trace))
    return work[2].copy(), report


def commuting_approximation(a, b) -> CommutingPair:
    """Exactly commuting pair near (a, b), by joint diagonalization.

    The returned pair shares one eigenbasis, so it commutes structurally;
    dist_a and dist_b are the operator-norm distances to the inputs,
    measured when first read.  A 1x1 pair runs no Jacobi sweep.  Shapes and
    entries that joint_diagonalize would reject are rejected at every size.
    """
    am, bm = as_array(a), as_array(b)
    if am.shape == bm.shape == (1, 1):
        x, y = abs(complex(am[0, 0])), abs(complex(bm[0, 0]))
        _check_scale(x * x + y * y, am, bm)     # float products overflow to inf quietly
        # already diagonal: basis [[1]] and no Jacobi sweep; adding 0.0 turns
        # -0.0 into 0.0, as the product u* a u below does
        u, report = np.ones((1, 1), dtype=np.complex128), _SCALAR_REPORT
        diag_a, diag_b = am.real[0] + 0.0, bm.real[0] + 0.0
    else:
        u, report = joint_diagonalize(am, bm)     # checks the shapes
        diag_a = np.real(np.diagonal(u.conj().T @ am @ u)).copy()
        diag_b = np.real(np.diagonal(u.conj().T @ bm @ u)).copy()
    diag_a.flags.writeable = False
    diag_b.flags.writeable = False
    return CommutingPair(basis=u, diag_a=diag_a, diag_b=diag_b, target=(am, bm),
                         report=report)
