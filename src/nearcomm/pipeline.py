"""End-to-end correction of an almost-commuting Hermitian pair.

Given Hermitian (a, b) with ||b|| <= 1 and small nu = ||[a, b]||, produce an
exactly commuting pair (a1, b1) nearby, with every intermediate bound of the
construction measured: band-smooth b against a, build a partition of unity
subordinate to unit spectral windows of a, compress both matrices to the
blocks, solve each block by joint diagonalization in the unit-norm regime,
and reassemble in the common block basis.  Only ||b|| <= 1 matters; ||a||
may be arbitrary, which is the whole point of the block reduction.

The sweep harness estimates the empirical modulus: how the achieved
distances shrink with nu on seeded random ensembles.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time

import numpy as np

from .calibration import load_calibration
from .ensembles import instance_rng, pair_instance
from .errors import BlockNormViolation, NearcommError
from .hermitian import commutator, hermitian_part, op_norm, spectral_decomp
from .jointdiag import CommutingPair, commuting_approximation
from .kernels import RAMP_HALF_WIDTH, band_smooth
from .projections import checked_pair, partition
from .serialize import csv_text, fmt_float, matrix_to_json

BLOCK_NORM_SLACK = 1e-6
BLOCK_SHIFT = 0.5                           # block spectrum sits in (k - R, k + 1 + R),
BLOCK_SCALE = 1.0 / (0.5 + RAMP_HALF_WIDTH)  # R = RAMP_HALF_WIDTH: mapped onto (-1, 1)
GRAM_TOL = 1e-8            # largest |Gram eigenvalue - 1| the polar step accepts


@dataclasses.dataclass(frozen=True)
class CorrectionResult:
    """Commuting pair plus every measured defect of the construction."""

    pair: CommutingPair
    nu: float
    eps_used: float
    compress_defect_a: float
    compress_defect_b: float
    tridiag_residual: float
    block_count: int
    block_comms: tuple
    out_of_regime: bool
    b_rescale: float

    def to_payload(self) -> dict:
        return {
            "basis": matrix_to_json(self.pair.basis),
            "diag_a": list(map(float, self.pair.diag_a)),
            "diag_b": list(map(float, self.pair.diag_b)),
            "dist_a": self.pair.dist_a,
            "dist_b": self.pair.dist_b,
            "nu": self.nu,
            "eps_used": self.eps_used,
            "compress_defect_a": self.compress_defect_a,
            "compress_defect_b": self.compress_defect_b,
            "tridiag_residual": self.tridiag_residual,
            "block_count": self.block_count,
            "block_comms": list(self.block_comms),
            "out_of_regime": self.out_of_regime,
            "b_rescale": self.b_rescale,
        }


@dataclasses.dataclass(frozen=True)
class SweepRow:
    n: int
    nu_target: float
    nu_measured: float
    dist_a: float
    dist_b: float
    seed: int
    runtime_ms: float
    flag: str = ""


def tridiagonal_check(ks, a_q, b_q) -> float:
    """max ||x_far|| over x in {a_q, b_q}, the pair in the block basis; ks[i]
    is the k of column i's block, and x_far keeps the entries between columns
    whose ks differ by more than 1.  It bounds every far ||p_i x p_j||, the
    banding and sandwich certificates make it vanish, and an exactly zero
    far part costs no norm."""
    far = np.abs(ks[:, None] - ks[None, :]) > 1
    far_parts = [np.where(far, x, 0.0) for x in (a_q, b_q)]
    return max((op_norm(x) for x in far_parts if np.any(x)), default=0.0)


def _orthonormalize(w: np.ndarray) -> np.ndarray:
    """Polar correction w (w*w)^(-1/2); w is already unitary to ~1e-9, and a
    Gram eigenvalue farther than GRAM_TOL from 1 raises BlockNormViolation."""
    gram = hermitian_part(w.conj().T @ w)
    vals, vecs = np.linalg.eigh(gram)
    if np.max(np.abs(vals - 1.0)) > GRAM_TOL:
        raise BlockNormViolation(
            f"block bases are not orthonormal: Gram eigenvalues span "
            f"[{vals[0]:.3e}, {vals[-1]:.3e}], not 1 +- {GRAM_TOL:.0e}")
    inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return w @ inv_root


def theorem_c_correct(a, b, eps: float) -> CorrectionResult:
    """Replace an almost-commuting pair by a nearby exactly commuting one.

    eps is the per-window commutator budget for the partition stage.  The
    measured input commutator is compared against the calibrated admissible
    value for eps (the calibration fixture, which must exist); larger inputs
    still run but the result is flagged out_of_regime.  If ||b|| > 1 the
    input is rescaled to the unit ball, processed, and scaled back, with
    distances reported in original units.

    a is decomposed once, a = V diag(lambda) V*, and smoothing, partition,
    the tridiagonal check and the block solves all run on the pair
    (diag(lambda), V* b V); the returned basis is V times the basis found
    there, and dist_a, dist_b are measured against the input matrices.
    """
    am, bm_orig = checked_pair(a, b, eps)
    nu_input = op_norm(commutator(am, bm_orig))

    b_rescale = 1.0
    bm = bm_orig
    norm_b = op_norm(bm_orig)
    if norm_b > 1.0 + 1e-9:
        b_rescale = norm_b
        bm = bm_orig / b_rescale
    nu_unit = nu_input / b_rescale

    out_of_regime = nu_unit > load_calibration().admissible_nu(eps)

    # in the eigenbasis of a every spectral window is a set of coordinates
    dec = spectral_decomp(am)
    lam, v = dec.eigenvalues, dec.basis
    a_diag = np.diag(lam).astype(np.complex128)
    smoothed = band_smooth(a_diag, v.conj().T @ bm @ v)
    part = partition(a_diag, smoothed, eps)

    # one conjugation into the block basis Q = [q_1 ... q_m] gives every block;
    # with Q unitary, ||x - sum_k p_k x p_k|| is the norm of x_q off the blocks
    n = am.shape[0]
    q_all = np.concatenate([blk.q for blk in part.blocks], axis=1)
    if q_all.shape[1] != n:
        raise BlockNormViolation(f"block ranks sum to {q_all.shape[1]}, expected {n}: "
                                 "partition incomplete")
    ranks = [blk.q.shape[1] for blk in part.blocks]
    ks = np.repeat([blk.k for blk in part.blocks], ranks)
    a_q = hermitian_part(q_all.conj().T @ (lam[:, None] * q_all))
    b_q = hermitian_part(q_all.conj().T @ smoothed @ q_all)
    tridiag_residual = tridiagonal_check(ks, a_q, b_q)
    off_block = ks[:, None] != ks[None, :]
    compress_defect_a = op_norm(np.where(off_block, a_q, 0.0))
    compress_defect_b = op_norm(np.where(off_block, b_q, 0.0))
    cols, diag_a_parts, diag_b_parts, block_comms = [], [], [], []
    for blk, stop in zip(part.blocks, np.cumsum(ranks)):
        k, q = blk.k, blk.q
        sl = slice(stop - q.shape[1], stop)
        a_blk, b_blk = a_q[sl, sl], b_q[sl, sl]
        block_comms.append(op_norm(commutator(a_blk, b_blk)))
        a_scaled = (a_blk - (k + BLOCK_SHIFT) * np.eye(q.shape[1])) * BLOCK_SCALE
        dec_blk = spectral_decomp(a_scaled)     # the solve starts diagonal in a
        norm_scaled = float(np.max(np.abs(dec_blk.eigenvalues)))
        if norm_scaled > 1.0 + BLOCK_NORM_SLACK:
            raise BlockNormViolation(
                f"block k={k}: rescaled a-block norm {norm_scaled:.8f} exceeds 1 "
                "(partition sandwich must have failed)")
        b_eig = hermitian_part(dec_blk.basis.conj().T @ b_blk @ dec_blk.basis)
        inner = commuting_approximation(np.diag(dec_blk.eigenvalues), b_eig)
        cols.append(q @ (dec_blk.basis @ inner.basis))
        diag_a_parts.append(inner.diag_a / BLOCK_SCALE + (k + BLOCK_SHIFT))
        diag_b_parts.append(inner.diag_b)

    w = v @ _orthonormalize(np.concatenate(cols, axis=1))
    diag_a = np.concatenate(diag_a_parts)
    diag_b = np.concatenate(diag_b_parts) * b_rescale
    a1 = (w * diag_a) @ w.conj().T
    b1 = (w * diag_b) @ w.conj().T
    dist_a = op_norm(am - a1)
    dist_b = op_norm(bm_orig - b1)
    diag_a.flags.writeable = False
    diag_b.flags.writeable = False
    pair = CommutingPair(basis=w, diag_a=diag_a, diag_b=diag_b,
                         dist_a=dist_a, dist_b=dist_b)
    return CorrectionResult(pair=pair, nu=nu_input, eps_used=eps,
                            compress_defect_a=compress_defect_a,
                            compress_defect_b=compress_defect_b,
                            tridiag_residual=tridiag_residual,
                            block_count=len(block_comms),
                            block_comms=tuple(block_comms),
                            out_of_regime=out_of_regime,
                            b_rescale=b_rescale)


def _auto_eps(nu_target: float, table) -> tuple[float, bool]:
    """Smallest calibrated budget covering nu_target; flags if none does."""
    eps = table.epsilon_for(nu_target)
    if eps is None:
        return table.eps_grid[-1], True
    return eps, False


def modulus_sweep(dims, nu_targets, trials: int, seed: int, *,
                  eps: float | None = None, timings: bool = False) -> list:
    """Run theorem_c_correct over a seeded ensemble grid; one row per trial.

    Rows are ordered by (dim index, nu index, trial).  A dims entry < 1 or a
    nu target not finite and >= 0 raises ValueError before any trial; a trial
    that raises a NearcommError, ValueError or LinAlgError becomes a row
    flagged error:<Type> with NaN distances, and the other trials still run.
    runtime_ms is 0.0 unless timings is requested, keeping output
    byte-deterministic.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not len(dims) or min(dims) < 1:
        raise ValueError(f"dims must be nonempty, each >= 1, got {tuple(dims)}")
    if not len(nu_targets) or not all(0 <= nu < math.inf for nu in nu_targets):
        raise ValueError(f"nu_targets must be nonempty, each finite and >= 0, "
                         f"got {tuple(nu_targets)}")
    if eps is not None and not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    table = load_calibration()

    rows = []
    for (i_dim, n), (i_nu, nu), trial in itertools.product(
            enumerate(dims), enumerate(nu_targets), range(trials)):
        rng = instance_rng(seed, i_dim, i_nu, trial)
        start = time.perf_counter()
        try:
            inst = pair_instance(n, nu, rng)
            eps_used, forced = (eps, False) if eps is not None else _auto_eps(nu, table)
            result = theorem_c_correct(inst.a, inst.b, eps_used)
            flag = "out-of-regime" if (result.out_of_regime or forced) else ""
            row = SweepRow(n=n, nu_target=nu, nu_measured=inst.nu_measured,
                           dist_a=result.pair.dist_a, dist_b=result.pair.dist_b,
                           seed=seed, runtime_ms=0.0, flag=flag)
        except (NearcommError, ValueError, np.linalg.LinAlgError) as exc:
            row = SweepRow(n=n, nu_target=nu, nu_measured=math.nan,
                           dist_a=math.nan, dist_b=math.nan, seed=seed,
                           runtime_ms=0.0, flag=f"error:{type(exc).__name__}")
        if timings:
            row = dataclasses.replace(
                row, runtime_ms=(time.perf_counter() - start) * 1e3)
        rows.append(row)
    return rows


SWEEP_HEADER = ("n", "nu_target", "nu_measured", "dist_a", "dist_b",
                "seed", "runtime_ms", "flag")


def sweep_rows_to_csv(rows) -> str:
    return csv_text(SWEEP_HEADER, ([r.n, fmt_float(r.nu_target), fmt_float(r.nu_measured),
                                    fmt_float(r.dist_a), fmt_float(r.dist_b), r.seed,
                                    fmt_float(r.runtime_ms), r.flag] for r in rows))


def sweep_medians(rows) -> dict:
    """Median dist_a + dist_b per (n, nu_target), skipping failed rows."""
    groups: dict = {}
    for r in rows:
        if r.flag.startswith("error"):
            continue
        groups.setdefault((r.n, r.nu_target), []).append(r.dist_a + r.dist_b)
    return {key: float(np.median(vals)) for key, vals in sorted(groups.items())}
