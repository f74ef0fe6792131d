"""End-to-end correction of an almost-commuting Hermitian pair.

Given Hermitian (a, b) with ||b|| <= 1 and small nu = ||[a, b]||, produce an
exactly commuting pair (a1, b1) nearby, with every intermediate bound of the
construction measured: choose a window scale s, band-smooth b against s a,
deflate the eigenvectors of a that the smoothed b couples to no other,
build a partition of unity subordinate to unit spectral windows of s a on
the rest, compress both matrices to the blocks, solve each block by joint
diagonalization in the unit-norm regime, and reassemble in the common block
basis.  Only ||b|| <= 1 matters; ||a|| may be arbitrary, which is the whole
point of the block reduction, except that the partition can lose an
eigenvalue that b couples to another above about 1e12 (see the README).

Deflation is exact: the smoothed b vanishes between eigenvalues of s a at
distance >= 1/2, so an eigenvalue with no other that close has a row of
exact zeros off the diagonal, and its eigenvector is an exact joint
eigenvector of the smoothed pair.  It needs no edge, block solve or polar
correction.

The scale balances the commutator [s a, b] = s nu against the window width
1/s (Hastings, Commun. Math. Phys. 291, 2009); _window_scale gives the rule.
s is a power of two, which keeps s lambda and diag_a / s exact, so a run
with s = 1 is the unscaled construction, byte for byte.

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
from .hermitian import _spectral_decomp, commutator, hermitian_part, op_norm
from .jointdiag import CommutingPair, commuting_approximation
from .kernels import RAMP_HALF_WIDTH, band_smooth
from .projections import checked_pair, partition
from .serialize import csv_text, fmt_float, matrix_to_json

BLOCK_NORM_SLACK = 1e-6
BLOCK_SHIFT = 0.5                           # block spectrum sits in (k - R, k + 1 + R),
BLOCK_SCALE = 1.0 / (0.5 + RAMP_HALF_WIDTH)  # R = RAMP_HALF_WIDTH: mapped onto (-1, 1)
GRAM_TOL = 1e-8            # largest |Gram eigenvalue - 1| the polar step accepts
SCALE_CEILING = 2.0 ** 10  # largest window scale s of a
SCALED_NORM_LIMIT = 2.0 ** 33  # s > 1 keeps s ||a|| below this: the endpoint band
                               # 1e-12 max(1, s ||a||) stays under 1% of a unit window
SCALE_LINE_RTOL = 1e-12    # s nu on the line min(eps/4, 1/8), up to nu's rounding, is on it


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
    scale: float

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
            "scale": self.scale,
        }


class _CorrectedPair(CommutingPair):
    """The answer of theorem_c_correct.  Its target and its pair are
    Hermitian, so each distance is the norm of the Hermitian part of the
    difference, which op_norm takes through eigvalsh."""

    def _distance(self, x: np.ndarray, diag: np.ndarray) -> float:
        u = self.basis
        return op_norm(hermitian_part(x - (u * diag) @ u.conj().T))


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


def _window_scale(nu_unit: float, eps: float, admissible: float, a_norm: float) -> float:
    """The window scale s of a: the largest power of two in [1, SCALE_CEILING]
    with s nu <= min(eps/4, 1/8) (to SCALE_LINE_RTOL), s nu <= admissible and
    s ||a|| <= SCALED_NORM_LIMIT, or 1 where no s > 1 meets all three.

    Unit windows of s a are windows of width 1/s of a, and the edge budget
    eps applies to [s a, p]: s trades the commutator s nu against the window
    width.  eps/4 keeps s nu well inside the edge budget eps/2, and past 1/8
    spin pairs turn trivial.  s nu exceeds the calibrated admissible nu only
    where nu already does, so the calibrated flag reads as it did at s = 1.
    """
    line = min(eps / 4, 0.125) * (1.0 + SCALE_LINE_RTOL)
    s = SCALE_CEILING
    while s > 1 and not (s * nu_unit <= min(line, admissible)
                         and s * a_norm <= SCALED_NORM_LIMIT):
        s /= 2
    return s


def theorem_c_correct(a, b, eps: float) -> CorrectionResult:
    """Replace an almost-commuting pair by a nearby exactly commuting one.

    eps is the per-window commutator budget for the partition stage.  If
    ||b|| > 1 the input is rescaled to the unit ball, processed, and scaled
    back, with distances reported in original units.

    a is decomposed once, a = V diag(lambda) V*, and one window scale s, a
    power of two, is chosen from nu, ||a|| and eps (_window_scale).
    Smoothing runs on the pair (s diag(lambda), V* b V), whose unit windows
    are windows of width 1/s of a.  A coordinate i whose row of the smoothed
    b has no nonzero entry off the diagonal is deflated: it is a rank-1 block
    with column V e_i, diag_a lambda_i and diag_b the real part of its
    diagonal entry, and its block_comms entry is 0.0.  The partition, the
    tridiagonal check, the compression defects, the block solves and the
    polar step run on the other, coupled, coordinates; the defects and the
    tridiagonal residual equal their n x n values, since deflated rows are
    zero off the diagonal.  The basis holds the coupled blocks' columns in
    partition order, then the deflated ones in ascending lambda; diag_a is
    mapped back by 1/s, exactly.  dist_a, dist_b are measured against the
    input matrices.  compress_defect_a and block_comms are reported in a's
    units, and scale records s.  s nu is compared against the calibrated
    admissible value for eps (the calibration fixture, which must exist);
    larger inputs still run but the result is flagged out_of_regime.
    """
    am, bm_orig = checked_pair(a, b, eps)
    nu_input = op_norm(1j * commutator(am, bm_orig))

    b_rescale = 1.0
    bm = bm_orig
    norm_b = op_norm(bm_orig)
    if norm_b > 1.0 + 1e-9:
        b_rescale = norm_b
        bm = bm_orig / b_rescale
    nu_unit = nu_input / b_rescale

    # in the eigenbasis of a every spectral window is a set of coordinates
    dec = _spectral_decomp(am)
    v = dec.basis
    admissible = load_calibration().admissible_nu(eps)
    scale = _window_scale(nu_unit, eps, admissible, float(np.max(np.abs(dec.eigenvalues))))
    out_of_regime = scale * nu_unit > admissible
    lam = scale * dec.eigenvalues
    smoothed = band_smooth(np.diag(lam).astype(np.complex128), v.conj().T @ bm @ v)

    # deflation: a coordinate whose row of the smoothed b is zero off the
    # diagonal is an exact joint eigenvector, a rank-1 block of its own; the
    # partition and the block stage run on the coupled coordinates only
    coupled = np.any(smoothed != 0, axis=1, where=~np.eye(lam.size, dtype=bool))
    single = np.flatnonzero(~coupled)
    lam_c, b_c = lam[coupled], smoothed[coupled][:, coupled]
    m = lam_c.size
    blocks = partition(np.diag(lam_c).astype(np.complex128), b_c, eps).blocks if m else ()

    # one conjugation into the block basis Q = [q_1 ... q_m] gives every block;
    # with Q unitary, ||x - sum_k p_k x p_k|| is the norm of x_q off the blocks
    ranks = [blk.q.shape[1] for blk in blocks]
    if sum(ranks) != m:
        raise BlockNormViolation(f"block ranks sum to {sum(ranks)}, expected {m}: "
                                 "partition incomplete")
    ks = np.repeat([blk.k for blk in blocks], ranks)
    a_q = b_q = np.zeros((0, 0))
    if m:
        q_all = np.concatenate([blk.q for blk in blocks], axis=1)
        a_q = hermitian_part(q_all.conj().T @ (lam_c[:, None] * q_all))
        b_q = hermitian_part(q_all.conj().T @ b_c @ q_all)
    tridiag_residual = tridiagonal_check(ks, a_q, b_q)
    off_block = ks[:, None] != ks[None, :]
    compress_defect_a = op_norm(np.where(off_block, a_q, 0.0)) / scale
    compress_defect_b = op_norm(np.where(off_block, b_q, 0.0))
    cols, diag_a_parts, diag_b_parts, block_comms = [], [], [], []
    for blk, stop in zip(blocks, np.cumsum(ranks)):
        k, q = blk.k, blk.q
        sl = slice(stop - q.shape[1], stop)
        a_blk, b_blk = a_q[sl, sl], b_q[sl, sl]
        block_comms.append(op_norm(commutator(a_blk, b_blk)) / scale)
        a_scaled = (a_blk - (k + BLOCK_SHIFT) * np.eye(q.shape[1])) * BLOCK_SCALE
        dec_blk = _spectral_decomp(a_scaled)    # the solve starts diagonal in a
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

    # coupled blocks in partition order, then the deflated coordinates in
    # ascending lambda, each its column of v and its diagonal entries
    w = v[:, single]
    if m:
        w = np.concatenate([v[:, coupled] @ _orthonormalize(np.concatenate(cols, axis=1)), w],
                           axis=1)
    diag_a = np.concatenate([*diag_a_parts, lam[single]]) / scale
    diag_b = np.concatenate([*diag_b_parts, smoothed.real[single, single]]) * b_rescale
    block_comms += [0.0] * single.size
    diag_a.flags.writeable = False
    diag_b.flags.writeable = False
    pair = _CorrectedPair(basis=w, diag_a=diag_a, diag_b=diag_b, target=(am, bm_orig))
    _ = pair.dist_a, pair.dist_b        # measured here: they are part of the answer
    return CorrectionResult(pair=pair, nu=nu_input, eps_used=eps,
                            compress_defect_a=compress_defect_a,
                            compress_defect_b=compress_defect_b,
                            tridiag_residual=tridiag_residual,
                            block_count=len(block_comms),
                            block_comms=tuple(block_comms),
                            out_of_regime=out_of_regime,
                            b_rescale=b_rescale, scale=scale)


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
