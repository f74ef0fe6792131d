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
from .hermitian import as_array, commutator, hermitian_part, op_norm, spectral_decomp
from .jointdiag import CommutingPair, commuting_approximation
from .kernels import band_smooth
from .projections import ProjectionPartition, checked_pair, partition
from .serialize import csv_text, fmt_float, matrix_to_json

BLOCK_NORM_SLACK = 1e-6
BLOCK_SHIFT = 0.5          # block spectrum sits in (k - 1/4, k + 5/4)
BLOCK_SCALE = 4.0 / 3.0    # maps the +-3/4 window onto the unit interval
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


def tridiagonal_check(part: ProjectionPartition, a, b_smoothed) -> float:
    """max ||p_i x p_j|| over blocks with k_j - k_i > 1 and x in {a, smoothed b}.

    Banding plus the sandwich certificates force these blocks to vanish; the
    measured value certifies it at run time.  ||p_i x p_j|| = ||q_i^* x q_j||,
    and empty windows contribute nothing.  A pair is measured only if a or
    b has a nonzero entry between the row supports of q_i and q_j; any
    other pair's product is exactly zero, so the value is the all-pairs one.
    """
    am, bm = as_array(a), as_array(b_smoothed)
    blocks = part.blocks
    nonzero = (am != 0) | (bm != 0)
    supports = [np.flatnonzero(np.any(blk.q != 0, axis=1)) for blk in blocks]
    worst = 0.0
    for ii, bi in enumerate(blocks):
        qi = bi.q.conj().T
        for bj, supp_j in zip(blocks[ii + 1:], supports[ii + 1:]):
            if bj.k - bi.k > 1 and np.any(nonzero[np.ix_(supports[ii], supp_j)]):
                worst = max(worst, op_norm(qi @ am @ bj.q), op_norm(qi @ bm @ bj.q))
    return worst


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


def theorem_c_correct(a, b, eps: float, *,
                      table=None) -> CorrectionResult:
    """Replace an almost-commuting pair by a nearby exactly commuting one.

    eps is the per-window commutator budget for the partition stage.  The
    measured input commutator is compared against the calibrated admissible
    value for eps (table, or else the calibration fixture, which must
    exist); larger inputs still run but the result is flagged
    out_of_regime.  If ||b|| > 1 the input is rescaled to the unit ball,
    processed, and scaled back, with distances reported in original units.

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

    if table is None:
        table = load_calibration()
    out_of_regime = nu_unit > table.admissible_nu(eps)

    # in the eigenbasis of a every spectral window is a set of coordinates
    dec = spectral_decomp(am)
    lam, v = dec.eigenvalues, dec.basis
    a_diag = np.diag(lam).astype(np.complex128)
    smoothed = band_smooth(a_diag, v.conj().T @ bm @ v)
    part = partition(a_diag, smoothed, eps)

    n = am.shape[0]
    tridiag_residual = tridiagonal_check(part, a_diag, smoothed)
    compress_a = np.zeros_like(am)
    compress_b = np.zeros_like(am)
    cols, diag_a_parts, diag_b_parts, block_comms = [], [], [], []
    for blk in part.blocks:
        k, q = blk.k, blk.q
        rank = q.shape[1]
        a_blk = (q.conj().T * lam) @ q
        b_blk = q.conj().T @ smoothed @ q
        compress_a += q @ a_blk @ q.conj().T
        compress_b += q @ b_blk @ q.conj().T
        block_comms.append(op_norm(commutator(a_blk, b_blk)))
        a_scaled = hermitian_part((a_blk - (k + BLOCK_SHIFT) * np.eye(rank)) * BLOCK_SCALE)
        norm_scaled = op_norm(a_scaled)
        if norm_scaled > 1.0 + BLOCK_NORM_SLACK:
            raise BlockNormViolation(
                f"block k={k}: rescaled a-block norm {norm_scaled:.8f} exceeds 1 "
                "(partition sandwich must have failed)")
        inner = commuting_approximation(a_scaled, hermitian_part(b_blk))
        cols.append(q @ inner.basis)
        diag_a_parts.append(inner.diag_a / BLOCK_SCALE + (k + BLOCK_SHIFT))
        diag_b_parts.append(inner.diag_b)
    compress_defect_a = op_norm(a_diag - compress_a)
    compress_defect_b = op_norm(smoothed - compress_b)

    total_rank = sum(c.shape[1] for c in cols)
    if total_rank != n:
        raise BlockNormViolation(
            f"block ranks sum to {total_rank}, expected {n}: partition incomplete")

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

    Rows are ordered by (dim index, nu index, trial).  A trial that raises a
    NearcommError, ValueError or LinAlgError becomes a row flagged
    error:<Type> with NaN distances; the other trials still run.  runtime_ms
    is 0.0 unless timings is requested, keeping output byte-deterministic.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for name, grid in (("dims", dims), ("nu_targets", nu_targets)):
        if not len(grid):
            raise ValueError(f"{name} must be nonempty")
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
            result = theorem_c_correct(inst.a, inst.b, eps_used, table=table)
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
