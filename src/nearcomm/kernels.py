"""Smoothing kernels built from the standard C-infinity bump.

Two kernels are provided:

* a nonnegative mollifier f whose Fourier transform is supported in
  (-1/2, 1/2), realized as f = psi^2 where psi has transform
  exp(-1/(1 - (4x)^2)) on (-1/4, 1/4).  Smoothing a pair (a, b) with it
  contracts b onto the eigenvalue band |lambda_i - lambda_j| < 1/2 of a
  while moving b by at most k1 * ||[a, b]||;

* a smooth monotone step ramping 0 -> 1 across (-1/4, 1/4), whose
  derivative is a normalized bump.  Conjugation-Lipschitz constant
  c_const = integral of |t * (Fourier transform of the ramp slope)|...

Both kernels are evaluated where they are needed (eigenvalue differences,
eigenvalues) by Gauss-Legendre quadrature of the defining integrals, not by
interpolation of stored samples.  The constants k1 and c_const are computed
by checked quadrature and reported in diagnostics; nothing downstream
hard-codes them.  k1 (with the unit-mass check) sums Gauss-Legendre panels
and is checked against the same panels at twice the order; c_const integrates
|slope transform| between its zeros, found by bisecting all scan brackets at
once, and is checked against a finer scan.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

import numpy as np

from ._quad import _leggauss, gl_nodes
from .errors import QuadratureError
from .hermitian import as_array, hermitian_part, op_norm, commutator, func_calc, \
    spectral_decomp

BAND_HALF_WIDTH = 0.5          # Fourier support of the mollifier: (-1/2, 1/2)
RAMP_HALF_WIDTH = 0.25         # bump support for both kernels: (-1/4, 1/4)
_TIME_CUTOFF = 1200.0          # |psi(t)|^2 ~ 1e-19 here; tails are negligible
_FREQ_CUTOFF = 1000.0          # |slope transform| ~ 2e-9 here, tail ~ 1e-7
_K1_PANELS = 32                # Gauss-Legendre panels (16 nodes) for k1
_BISECTIONS = 45               # halvings of a <= 1/4 scan bracket: width < 1e-14
DUMP_POINTS = 256              # samples per kernel in the dump payloads


def _bump(u: np.ndarray) -> np.ndarray:
    """exp(-1/(1-u^2)) on (-1, 1), 0 outside; vectorized and warning-free."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    if np.any(inside):
        w = u[inside]
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            out[inside] = np.exp(-1.0 / (1.0 - w * w))
    return out


def _bump_quarter(x: np.ndarray) -> np.ndarray:
    """Bump rescaled to (-1/4, 1/4)."""
    return _bump(4.0 * np.asarray(x, dtype=float))


@lru_cache(maxsize=1)
def _autocorr_norm() -> float:
    """A(0) = integral of the squared quarter-bump."""
    x, w = gl_nodes(-RAMP_HALF_WIDTH, RAMP_HALF_WIDTH, 256)
    return float(w @ (_bump_quarter(x) ** 2))


def _autocorr(omega: np.ndarray) -> np.ndarray:
    """A(omega) = integral g(y) g(y + omega) dy for the quarter-bump g.

    Supported in (-1/2, 1/2); evaluated by Gauss-Legendre on the overlap
    interval, vectorized over omega.
    """
    om = np.abs(np.asarray(omega, dtype=float))
    out = np.zeros_like(om)
    live = om < 2.0 * RAMP_HALF_WIDTH
    if not np.any(live):
        return out
    omv = om[live]
    lo = -RAMP_HALF_WIDTH
    hi = RAMP_HALF_WIDTH - omv                      # overlap upper edge
    base, wts = _leggauss(200)
    half = 0.5 * (hi - lo)
    nodes = lo + half[:, None] * (base[None, :] + 1.0)
    vals = _bump_quarter(nodes) * _bump_quarter(nodes + omv[:, None])
    out[live] = (vals @ wts) * half
    return out


def _cosine_transform(t: np.ndarray, order: int, divisor: float) -> np.ndarray:
    """(1/pi) integral_0^{1/4} g(x) cos(xt) dx / divisor, g the quarter-bump."""
    t = np.asarray(t, dtype=float)
    x, w = gl_nodes(0.0, RAMP_HALF_WIDTH, order)
    gw = _bump_quarter(x) * w / divisor
    flat = t.ravel()
    out = np.empty_like(flat)
    step = 65536
    for i in range(0, len(flat), step):
        out[i:i + step] = np.cos(np.outer(flat[i:i + step], x)) @ gw
    return (out / np.pi).reshape(t.shape)


def _psi(t: np.ndarray) -> np.ndarray:
    """psi(t) = (1/pi) * integral_0^{1/4} g(x) cos(x t) dx."""
    return _cosine_transform(t, 96, 1.0)


@dataclasses.dataclass(frozen=True)
class MollifierKernel:
    """Band-limiting mollifier with its constants.

    k1 = integral f(t) |t| dt controls how far smoothing can move an
    operator: ||b - b1|| <= k1 * ||[a, b]||.
    """

    k1: float
    unit_mass_check: float

    def multiplier(self, omega) -> np.ndarray:
        """Transfer function F(omega); exactly 0.0 for |omega| >= 1/2.

        The zero outside the band is assigned, not computed, so banding
        statements hold structurally.
        """
        om = np.asarray(omega, dtype=float)
        return _autocorr(om) / _autocorr_norm()

    def time_profile(self, t) -> np.ndarray:
        """The mollifier f(t) itself (unit mass, nonnegative)."""
        z = _autocorr_norm() / (2.0 * np.pi)
        return _psi(np.asarray(t, dtype=float)) ** 2 / z

    def dump(self) -> dict:
        """Transfer function F sampled on DUMP_POINTS points of [-1/2, 1/2];
        F vanishes outside (-1/2, 1/2), so the endpoint samples are 0.0."""
        grid = np.linspace(-BAND_HALF_WIDTH, BAND_HALF_WIDTH, DUMP_POINTS)
        return {
            "grid": grid.tolist(),
            "values": self.multiplier(grid).tolist(),
            "k1": self.k1,
        }


@dataclasses.dataclass(frozen=True)
class StepKernel:
    """Smooth monotone 0 -> 1 ramp across (-1/4, 1/4) with its constant.

    c_const bounds commutator transfer through the ramp:
    ||[b, step(a)]|| <= c_const * ||[a, b]||.
    """

    c_const: float

    def __call__(self, x) -> np.ndarray:
        return _step_eval(np.asarray(x, dtype=float))

    def dump(self) -> dict:
        """The ramp sampled on DUMP_POINTS points of [-1/4, 1/4]."""
        grid = np.linspace(-RAMP_HALF_WIDTH, RAMP_HALF_WIDTH, DUMP_POINTS)
        return {
            "grid": grid.tolist(),
            "values": self(grid).tolist(),
            "c_const": self.c_const,
        }


@lru_cache(maxsize=1)
def _slope_norm() -> float:
    x, w = gl_nodes(-RAMP_HALF_WIDTH, RAMP_HALF_WIDTH, 256)
    return float(w @ _bump_quarter(x))


def _step_eval(x: np.ndarray) -> np.ndarray:
    """Cumulative integral of the normalized quarter-bump, clamped to {0, 1}."""
    scalar = np.isscalar(x) or np.asarray(x).ndim == 0
    v = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.where(v >= RAMP_HALF_WIDTH, 1.0, 0.0)
    mid = (v > -RAMP_HALF_WIDTH) & (v < RAMP_HALF_WIDTH)
    if np.any(mid):
        tv = v[mid]
        base, wts = _leggauss(64)
        half = 0.5 * (tv + RAMP_HALF_WIDTH)
        nodes = -RAMP_HALF_WIDTH + half[:, None] * (base[None, :] + 1.0)
        # the cumulative quadrature can overshoot [0, 1] by rounding noise
        out[mid] = np.clip((_bump_quarter(nodes) @ wts) * half / _slope_norm(),
                           0.0, 1.0)
    return float(out[0]) if scalar else out


def _slope_transform(t: np.ndarray, k: int = 256) -> np.ndarray:
    """(1/2pi) * integral phi(s) e^{-ist} ds for the normalized slope phi.

    phi is even, so the transform is real: (1/pi) integral_0^{1/4} phi cos(ts).
    The order k must resolve ~t/8 oscillation nodes; the default covers the
    integration range used for c_const with a 2x margin.
    """
    return _cosine_transform(t, k, _slope_norm())


def _sign_cuts(scan_step: float, transform_order: int) -> np.ndarray:
    """Zeros of the slope transform on [0, _FREQ_CUTOFF]: each sign change
    of the scan is a bracket, and all brackets are halved _BISECTIONS times
    at once.  A fixed count, not a width test: near the cutoff the float
    spacing (~1e-13) stops a bracket from shrinking further."""
    grid = np.arange(0.0, _FREQ_CUTOFF + scan_step, scan_step)
    vals = _slope_transform(grid, transform_order)
    idx = np.where(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    lo, hi, sign_lo = grid[idx], grid[idx + 1], np.sign(vals[idx])
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        right = np.sign(_slope_transform(mid, transform_order)) == sign_lo
        lo = np.where(right, mid, lo)
        hi = np.where(right, hi, mid)
    return 0.5 * (lo + hi)


def _abs_transform_integral(scan_step: float, gl_order: int,
                            transform_order: int = 256) -> float:
    """integral over R of |slope transform|, by sign-segmented quadrature.

    The transform is real and oscillatory; |.| has corners at its zeros, so
    each smooth segment between consecutive zeros is integrated separately.
    """
    cuts = [0.0, *_sign_cuts(scan_step, transform_order).tolist(), _FREQ_CUTOFF]
    base, wts = _leggauss(gl_order)
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        half = 0.5 * (hi - lo)
        nodes = lo + half * (base + 1.0)
        total += float(np.abs(_slope_transform(nodes, transform_order)) @ wts) * half
    tail = np.max(np.abs(_slope_transform(
        np.linspace(_FREQ_CUTOFF, _FREQ_CUTOFF + 100, 64), transform_order)))
    if tail > 1e-8:
        raise QuadratureError("slope transform tail not negligible at cutoff")
    return 2.0 * total


@lru_cache(maxsize=1)
def build_mollifier() -> MollifierKernel:
    """Construct the band-limiting mollifier kernel.

    The defining integrals are checked by order doubling and raise
    QuadratureError on disagreement.
    """
    edges = np.linspace(0.0, _TIME_CUTOFF, _K1_PANELS + 1)[:, None]
    z = _autocorr_norm() / (2.0 * np.pi)

    def panel_sums(order):      # (k1, unit mass): integrals of psi^2 * t, psi^2
        t, w = gl_nodes(edges[:-1], edges[1:], order)
        psi2w = _psi(t) ** 2 * w
        return 2.0 * np.array([np.sum(psi2w * t), np.sum(psi2w)]) / z

    coarse, fine = panel_sums(16), panel_sums(32)
    for label, c, f in zip(("k1", "unit mass"), coarse, fine):
        if abs(f - c) > 1e-8 * max(1.0, abs(f)):
            raise QuadratureError(f"{label}: refinement moved by {abs(f - c):.3e}")
    return MollifierKernel(k1=float(fine[0]), unit_mass_check=float(fine[1]))


@lru_cache(maxsize=1)
def build_step() -> StepKernel:
    """Construct the smooth step kernel and its commutator constant."""
    c1 = _abs_transform_integral(scan_step=0.25, gl_order=24, transform_order=256)
    c2 = _abs_transform_integral(scan_step=0.125, gl_order=48, transform_order=384)
    if abs(c1 - c2) > 1e-6 * max(1.0, abs(c2)):
        raise QuadratureError(f"c_const: refinement moved by {abs(c1 - c2):.3e}")
    return StepKernel(c_const=c2)


def band_smooth(a, b) -> np.ndarray:
    """Average b over the spectral flow of a, band-limiting it to |dl| < 1/2.

    In the eigenbasis of a the result is entrywise b_ij * F(l_i - l_j);
    entries with |l_i - l_j| >= 1/2 are exactly zero.  Guarantees
    ||b - b1|| <= k1 * ||[a, b]|| and ||[a, b1]|| <= ||[a, b]||.
    """
    dec = spectral_decomp(a)
    v = dec.basis
    bt = v.conj().T @ as_array(b) @ v
    delta = dec.eigenvalues[:, None] - dec.eigenvalues[None, :]
    mult = build_mollifier().multiplier(delta)
    return hermitian_part(v @ (bt * mult) @ v.conj().T)


def lipschitz_commutator_check(a, b):
    """Measure ||[b, step(a)]|| against c_const * ||[a, b]||.

    Returns (lhs, rhs); lhs <= rhs up to quadrature slack.
    """
    kernel = build_step()
    lhs = op_norm(commutator(b, func_calc(a, kernel)))
    rhs = kernel.c_const * op_norm(commutator(a, b))
    return lhs, rhs


def kernel_dump() -> dict:
    """Combined kernel fixture: Fourier samples plus both constants."""
    return {**build_mollifier().dump(), "c_const": build_step().c_const}
