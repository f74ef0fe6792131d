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
|slope transform| between its zeros (>= 12.98 apart), bisecting the brackets
of a step-2 scan, checked against a step-1 scan; cos matrices stay <= 2 MB.
The transfer function of the mollifier takes its quadrature in panels of 64
differences (node arrays of 100 KB), so band_smooth holds O(n^2) floats plus
one panel however dense the spectrum of a is.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

import numpy as np

from ._quad import _leggauss, gl_nodes
from .errors import QuadratureError
from .hermitian import (_shaped, as_array, checked_hermitian, commutator, func_calc,
                        hermitian_part, op_norm, spectral_decomp)

BAND_HALF_WIDTH = 0.5          # Fourier support of the mollifier: (-1/2, 1/2)
RAMP_HALF_WIDTH = 0.25         # bump support for both kernels: (-1/4, 1/4)
_TIME_CUTOFF = 1200.0          # |psi(t)|^2 ~ 1e-19 here; tails are negligible
_FREQ_CUTOFF = 1000.0          # |slope transform| ~ 2e-9 here, tail ~ 1e-7
_K1_PANELS = 32                # Gauss-Legendre panels (16 nodes) for k1
_BISECTIONS = 45               # halvings of a <= 2 scan bracket: width < 6e-14
_CHUNK_ELEMENTS = 1 << 18      # entries per cos matrix (2 MB) in _cosine_transform
_PANEL_ROWS = 64               # omega per _autocorr panel: 64 x 200 nodes, 100 KB per array
_C_CONST_RULES = ((2.0, 24, 256), (1.0, 48, 384))  # (scan step, gl, transform order)


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


@lru_cache(maxsize=2)
def _bump_moment(power: int) -> float:
    """Integral of the quarter-bump to a power: 2 gives the autocorrelation
    A(0), 1 the mass that normalizes the ramp slope."""
    x, w = gl_nodes(-RAMP_HALF_WIDTH, RAMP_HALF_WIDTH, 256)
    return float(w @ (_bump_quarter(x) ** power))


def _autocorr(omega: np.ndarray) -> np.ndarray:
    """A(omega) = integral g(y) g(y + omega) dy for the quarter-bump g.

    Supported in (-1/2, 1/2); evaluated by Gauss-Legendre on the overlap
    interval, _PANEL_ROWS values of omega at a time, so the node arrays stay
    one panel in size however many omega are live.  Each row goes through
    the same float operations as in one single-threaded batch: elementwise
    work does not see the panels, panels of a multiple of 16 rows keep
    BLAS's gemv grouping of the rows, and a last row left alone joins the
    panel before it, since numpy takes a one-row product as a dot, not gemv.
    OpenBLAS runs a panel's gemv on one thread, so A does not depend on the
    BLAS thread count either.
    """
    om = np.abs(np.asarray(omega, dtype=float))
    out = np.zeros_like(om)
    live = om < 2.0 * RAMP_HALF_WIDTH
    omv = om[live]
    vals = np.empty_like(omv)
    lo = -RAMP_HALF_WIDTH
    base, wts = _leggauss(200)
    shifted = base + 1.0
    cuts = [0, *range(_PANEL_ROWS, len(omv) - 1, _PANEL_ROWS), len(omv)]
    for start, stop in zip(cuts[:-1], cuts[1:]):
        panel = omv[start:stop]
        half = 0.5 * ((RAMP_HALF_WIDTH - panel) - lo)   # overlap is [lo, 1/4 - omega]
        nodes = lo + half[:, None] * shifted
        prod = _bump_quarter(nodes) * _bump_quarter(nodes + panel[:, None])
        vals[start:stop] = (prod @ wts) * half
    out[live] = vals
    return out


@lru_cache(maxsize=4)
def _weighted_nodes(order: int, divisor: float):
    """Gauss-Legendre nodes x on [0, 1/4] and weights times g(x) / divisor."""
    x, w = gl_nodes(0.0, RAMP_HALF_WIDTH, order)
    gw = _bump_quarter(x) * w / divisor
    x.flags.writeable = gw.flags.writeable = False
    return x, gw


def _cosine_transform(t: np.ndarray, order: int, divisor: float) -> np.ndarray:
    """(1/pi) integral_0^{1/4} g(x) cos(xt) dx / divisor, g the quarter-bump."""
    t = np.asarray(t, dtype=float)
    x, gw = _weighted_nodes(order, divisor)
    flat = t.ravel()
    out = np.empty_like(flat)
    step = max(1, _CHUNK_ELEMENTS // order)
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
        """Transfer function F(omega); exactly 0.0 for |omega| >= 1/2, assigned,
        not computed, so banding statements hold structurally.  F is even: on a
        square omega with |omega| symmetric, such as the eigenvalue differences
        l_i - l_j, it runs one quadrature per unordered pair and mirrors it.
        """
        om = np.abs(np.asarray(omega, dtype=float))
        if om.ndim != 2 or not np.array_equal(om, om.T):
            return _autocorr(om) / _bump_moment(2)
        rows, cols = np.triu_indices(len(om))
        out = np.empty_like(om)
        out[rows, cols] = out[cols, rows] = _autocorr(om[rows, cols]) / _bump_moment(2)
        return out

    def time_profile(self, t) -> np.ndarray:
        """The mollifier f(t) itself (unit mass, nonnegative)."""
        z = _bump_moment(2) / (2.0 * np.pi)
        return _psi(np.asarray(t, dtype=float)) ** 2 / z


@dataclasses.dataclass(frozen=True)
class StepKernel:
    """Smooth monotone 0 -> 1 ramp across (-1/4, 1/4) with its constant.

    c_const bounds commutator transfer through the ramp:
    ||[b, step(a)]|| <= c_const * ||[a, b]||.
    """

    c_const: float

    def __call__(self, x) -> np.ndarray:
        return _step_eval(np.asarray(x, dtype=float))


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
        out[mid] = np.clip((_bump_quarter(nodes) @ wts) * half / _bump_moment(1),
                           0.0, 1.0)
    return float(out[0]) if scalar else out


def _slope_transform(t: np.ndarray, k: int = 256) -> np.ndarray:
    """(1/2pi) * integral phi(s) e^{-ist} ds for the normalized slope phi.

    phi is even, so the transform is real: (1/pi) integral_0^{1/4} phi cos(ts).
    The order k must resolve ~t/8 oscillation nodes; the default covers the
    integration range used for c_const with a 2x margin.
    """
    return _cosine_transform(t, k, _bump_moment(1))


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
    z = _bump_moment(2) / (2.0 * np.pi)

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
    c1, c2 = (_abs_transform_integral(*rule) for rule in _C_CONST_RULES)
    if abs(c1 - c2) > 1e-6 * max(1.0, abs(c2)):
        raise QuadratureError(f"c_const: refinement moved by {abs(c1 - c2):.3e}")
    return StepKernel(c_const=c2)


def band_smooth(a, b) -> np.ndarray:
    """Average b over the spectral flow of a, band-limiting it to |dl| < 1/2.

    In the eigenbasis of a the result is entrywise b_ij * F(l_i - l_j), one
    quadrature per unordered pair and exactly zero for |l_i - l_j| >= 1/2.
    The quadratures run a panel of pairs at a time, so memory is O(n^2)
    plus one panel, not O(pairs x nodes).
    Guarantees ||b - b1|| <= k1 * ||[a, b]|| and ||[a, b1]|| <= ||[a, b]||.
    b must have a's shape; its entries are not checked.
    """
    dec = spectral_decomp(a)
    v = dec.basis
    bt = v.conj().T @ _shaped(as_array(b), "b", v.shape) @ v
    delta = dec.eigenvalues[:, None] - dec.eigenvalues[None, :]
    mult = build_mollifier().multiplier(delta)
    return hermitian_part(v @ (bt * mult) @ v.conj().T)


def lipschitz_commutator_check(a, b):
    """Measure ||[b, step(a)]|| against c_const * ||[a, b]||.

    Returns (lhs, rhs); lhs <= rhs up to quadrature slack.
    """
    kernel = build_step()
    step_a = func_calc(a, kernel)
    bm = checked_hermitian(b, "b", step_a.shape)
    lhs = op_norm(commutator(bm, step_a))
    rhs = kernel.c_const * op_norm(commutator(a, bm))
    return lhs, rhs
