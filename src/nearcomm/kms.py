"""Finite-dimensional Gibbs/KMS laboratory.

Everything here is exact linear algebra: the modular flow Ad e^{izh} of a
Gibbs density is evaluated in one eigenbasis of its generator, entire in the
complex time parameter, so KMS boundary identities and perturbed functionals
can be computed and verified directly instead of via strip-analytic
interpolation.

The centerpiece is a two-state comparison: two Hamiltonian perturbations
b1, b2 with respective invariant projections e1, e2 are coupled through the
doubled flow of (h+b1) (+) (h+b2); a partial isometry v built from e1 e2 by
functional calculus carries e2 to e1, and the flat function
F(z) = phi(v beta_z(v*)) bounds |omega_2(e2) - omega_1(e1)| by
|c| * C * M * ||b1 - b2||, where C depends only on the fixed taper function
used to build v and M is the larger functional norm.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from ._quad import gl_nodes
from .ensembles import random_hermitian
from .errors import NearcommError, QuadratureError, SpectralGapMissing
from .hermitian import (SQUARE, SpectralDecomposition, _shaped, ad_evolve, as_array,
                        checked_finite, checked_hermitian, commutator, hermitian_part,
                        op_norm)
from .serialize import csv_text, fmt_float

PROJECTION_ATOL = 1e-10
UNITARY_ATOL = 1e-10
INVARIANCE_ATOL = 1e-8
CONSISTENCY_RTOL = 1e-8        # two-state endpoint check, times max(1, M)

# taper profile: 0 below 1/2, cubic ramp on [1/2, 3/4], t^(-1/2) on
# [3/4, 9/8], cubic ramp back to 0 on [9/8, 11/8]
_KNOTS = (0.5, 0.75, 1.125, 1.375)
_PERIOD = 16.0 * math.pi       # e^(-i t x) has period P in t at every knot x
_C_PERIODS = 10                # periods of panels before the closed-form tail
_C_PANELS = 64                 # order-12 panels per period


def _logsumexp(values: np.ndarray) -> float:
    m = float(np.max(values))
    return m + math.log(float(np.sum(np.exp(values - m))))


@dataclasses.dataclass(frozen=True)
class KmsState:
    """Positive functional x -> Tr(e^{-c h} x) / e^{log_z} of a generator h.

    gibbs gives a state (weight 1); perturbed_functional keeps the state's
    log_z, so weight = value(1) is the functional norm.  h = basis
    diag(eigenvalues) basis*, and spectrum = exp(-c eigenvalues - log_z)
    holds the density's eigenvalues, formed in the exponent so none loses
    digits at large |c|.
    """

    h: np.ndarray
    c: float
    log_z: float
    weight: float
    eigenvalues: np.ndarray
    basis: np.ndarray
    spectrum: np.ndarray
    density: np.ndarray

    def value(self, x) -> complex:
        return complex(np.trace(self.density @ _shaped(as_array(x), "x", self.h.shape)))

    def normalized_density(self) -> np.ndarray:
        return self.density / self.weight


def _check_c(c: float) -> None:
    if not (math.isfinite(c) and c != 0):
        raise ValueError(f"c must be finite and nonzero, got {c}")


def _functional(k: np.ndarray, c: float, log_z: float | None) -> KmsState:
    """The functional of the Hermitian generator k over log_z (None: its own)."""
    lam, v = np.linalg.eigh(k)
    log_zk = _logsumexp(-c * lam)
    log_z = log_zk if log_z is None else log_z
    try:
        weight = math.exp(log_zk - log_z)
    except OverflowError:
        raise NearcommError(f"functional weight exp({log_zk - log_z:.6g}) is beyond "
                            f"the float range at c = {c:g}") from None
    spectrum = np.exp(-c * lam - log_z)
    density = hermitian_part((v * spectrum) @ v.conj().T)
    return KmsState(h=k, c=c, log_z=log_z, weight=weight, eigenvalues=lam, basis=v,
                    spectrum=spectrum, density=density)


def gibbs(h, c: float) -> KmsState:
    """Gibbs state at inverse-temperature parameter c (either sign, nonzero)."""
    _check_c(c)
    return _functional(checked_hermitian(h, "h", SQUARE), float(c), None)


def perturbed_functional(state: KmsState, b) -> KmsState:
    """The Araki-perturbed functional: density exp(-c(h+b)) / Z of the state."""
    bm = checked_hermitian(b, "b", state.h.shape)
    return _functional(hermitian_part(state.h + bm), state.c, state.log_z)


def _eigenbasis_residual(rho, lam, v, c: float, x, y, t_samples) -> float:
    """boundary_residual with rho given in the eigenbasis v of h = v diag(lam) v*,
    where the flow is entrywise: alpha_z(y)_jk = e^{iz(lam_j - lam_k)} y_jk."""
    x, y = (v.conj().T @ as_array(checked_finite(m, name, v.shape)) @ v
            for name, m in (("x", x), ("y", y)))
    gap = lam[:, None] - lam[None, :]
    rho_x = rho @ x
    worst = 0.0
    for t in t_samples:
        lhs = np.sum(rho_x * (y * np.exp(1j * (t + 1j * c) * gap)).T)
        rhs = np.sum((rho @ (y * np.exp(1j * t * gap))) * x.T)
        worst = max(worst, abs(complex(lhs - rhs)))
    return worst


def boundary_residual(rho: np.ndarray, h, c: float, x, y, t_samples) -> float:
    """max_t |F(t+ic) - Tr(rho alpha_t(y) x)| with F(z) = Tr(rho x alpha_z(y)).

    Zero (to rounding) exactly when rho is the Gibbs density for (h, c);
    arbitrary densities make this a negative control.  In a fresh eigenbasis
    of h, rho is dense to rounding and alpha_{t+ic}(y) has entries up to
    e^{|c| spread(h)} |y|, so the rounding error of the residual grows like
    1e-16 e^{|c| spread(h)}, for the Gibbs density too (not in kms_verify).
    """
    if not math.isfinite(c):
        raise ValueError(f"c must be finite, got {c}")
    lam, v = np.linalg.eigh(checked_hermitian(h, "h", SQUARE))
    rho = as_array(checked_finite(rho, "rho", v.shape))
    t_samples = checked_finite(np.asarray(t_samples, dtype=np.float64), "t_samples", ("k",))
    return _eigenbasis_residual(v.conj().T @ rho @ v, lam, v, c, x, y, t_samples)


def kms_verify(state: KmsState, x, y) -> float:
    """boundary_residual of the state at t = -1, 0, 1 in its own eigenbasis,
    where its density is the diagonal spectrum p: each term p_j e^{c(lam_j -
    lam_k)} x_jk y_kj is p_k x_jk y_kj to a relative 1e-16 |c| spread(h),
    at any |c| for which e^{|c| spread(h)} is a float."""
    return _eigenbasis_residual(np.diag(state.spectrum), state.eigenvalues, state.basis,
                                state.c, x, y, (-1.0, 0.0, 1.0))


@dataclasses.dataclass(frozen=True)
class SymmetryActionResult:
    """Image of a Gibbs state under the corrected action of Ad w."""

    density: np.ndarray
    residual: float


def trace_norm(x: np.ndarray) -> float:
    return float(np.sum(np.linalg.svd(x, compute_uv=False)))


def symmetry_action(state: KmsState, w) -> SymmetryActionResult:
    """Push the state through Ad w and undo the motion with the flow cocycle.

    The correction multiplies w rho w* by the analytically continued cocycle
    alpha_{ic}(w) w*, which restores exp(-ch)/Z exactly; the reported
    residual is the trace-norm distance to the original state and certifies
    that inner symmetries act trivially.  The cocycle e^{-ch} w e^{ch} w* has
    entries up to e^{|c| spread(h)}, so the rounding error of the residual
    grows like 1e-16 e^{|c| spread(h)}.
    """
    wm = as_array(checked_finite(w, "w", state.h.shape))
    if op_norm(wm.conj().T @ wm - np.eye(wm.shape[0])) > UNITARY_ATOL:
        raise ValueError("w is not unitary within 1e-10")
    dec = SpectralDecomposition(state.eigenvalues, state.basis)
    cocycle = ad_evolve(1j * state.c, wm, dec, dec) @ wm.conj().T
    raw = cocycle @ wm @ state.density @ wm.conj().T
    density = hermitian_part(raw)
    density = density / float(np.trace(density).real)
    return SymmetryActionResult(density=density,
                                residual=trace_norm(density - state.density))


def _taper_coeffs():
    """Hermite cubics joining 0 to t^(-1/2) and back, matching values/slopes."""
    t0, t1, t2, t3 = _KNOTS
    def hermite(a, b, fa, fb, da, db):
        # cubic p with p(a)=fa, p(b)=fb, p'(a)=da, p'(b)=db, power basis at a
        h = b - a
        c0, c1 = fa, da
        c2 = (3 * (fb - fa) / h - 2 * da - db) / h
        c3 = (2 * (fa - fb) / h + da + db) / (h * h)
        return np.array([c0, c1, c2, c3]), a
    up = hermite(t0, t1, 0.0, t1 ** -0.5, 0.0, -0.5 * t1 ** -1.5)
    down = hermite(t2, t3, t2 ** -0.5, 0.0, -0.5 * t2 ** -1.5, 0.0)
    return up, down


def taper(t) -> np.ndarray:
    """The fixed isometry-building function: t^(-1/2) on [3/4, 9/8], smooth
    cubic ramps to 0 outside, identically 0 below 1/2."""
    t0, t1, t2, t3 = _KNOTS
    (cu, au), (cd, ad) = _taper_coeffs()
    tv = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(tv)
    mid = (tv >= t1) & (tv <= t2)
    out[mid] = tv[mid] ** -0.5
    for coeffs, origin, lo, hi in ((cu, au, t0, t1), (cd, ad, t2, t3)):
        seg = (tv > lo) & (tv < hi) & ~mid
        d = tv[seg] - origin
        out[seg] = coeffs[0] + d * (coeffs[1] + d * (coeffs[2] + d * coeffs[3]))
    return out


def _poly_segment_transform(coeffs: np.ndarray, a: float, b: float,
                            t: np.ndarray) -> np.ndarray:
    """Exact integral of the cubic (power basis at a) against exp(-itx) on [a,b]."""
    u = 1.0 / (1j * t)
    # g with (d/dx - it) g = p gives antiderivative e^(-itx) g(x), by Horner in u
    def g_at(x):
        d = x - a
        p = coeffs[0] + d * (coeffs[1] + d * (coeffs[2] + d * coeffs[3]))
        p1 = coeffs[1] + d * (2 * coeffs[2] + 3 * d * coeffs[3])
        p2 = 2 * coeffs[2] + 6 * d * coeffs[3]
        p3 = 6 * coeffs[3]
        return -u * (p + u * (p1 + u * (p2 + u * p3)))
    return np.exp(-1j * t * b) * g_at(b) - np.exp(-1j * t * a) * g_at(a)


def _sqrt_segment_transform(a: float, b: float, t: np.ndarray) -> np.ndarray:
    """Exact integral of x^(-1/2) exp(-itx) on [a,b] (t > 0), via Fresnel."""
    from scipy.special import fresnel
    scale = np.sqrt(2.0 * t / np.pi)
    s_hi, c_hi = fresnel(math.sqrt(b) * scale)
    s_lo, c_lo = fresnel(math.sqrt(a) * scale)
    return 2.0 * np.sqrt(np.pi / (2.0 * t)) * ((c_hi - c_lo) - 1j * (s_hi - s_lo))


def _taper_transform(t: np.ndarray) -> np.ndarray:
    """Fourier transform (2pi)^(-1) integral f(x) exp(-itx) dx, exact per piece."""
    t0, t1, t2, t3 = _KNOTS
    (cu, au), (cd, ad) = _taper_coeffs()
    t = np.asarray(t, dtype=np.float64)
    out = np.empty_like(t, dtype=np.complex128)
    small = np.abs(t) < 2.0
    if np.any(small):
        # closed forms cancel catastrophically near 0; per-piece quadrature is
        # exact here (integrand smooth between knots, oscillation < 1 cycle)
        pieces = (gl_nodes(lo, hi, 48) for lo, hi in zip(_KNOTS[:-1], _KNOTS[1:]))
        out[small] = sum((taper(x) * w) @ np.exp(-1j * np.outer(x, t[small])) for x, w in pieces)
    big = ~small
    if np.any(big):
        tb = np.abs(t[big])
        val = (_poly_segment_transform(cu, t0, t1, tb)
               + _sqrt_segment_transform(t1, t2, tb)
               + _poly_segment_transform(cd, t2, t3, tb))
        out[big] = np.where(t[big] >= 0, val, np.conj(val))
    return out / (2.0 * np.pi)


def _taper_sup() -> float:
    """sup|f|: the up-ramp cubic's overshoot, at the root of p' = d (2 c2 + 3 c3 d)."""
    (cu, au), _ = _taper_coeffs()
    return float(taper(au - 2.0 * cu[2] / (3.0 * cu[3])))


def _knot_jumps() -> np.ndarray:
    """Jumps of f'', f''' and f'''' (columns) across the four knots (rows)."""
    (cu, au), (cd, ad) = _taper_coeffs()
    cubic = lambda c, a: lambda x: np.array([2 * c[2] + 6 * c[3] * (x - a), 6 * c[3], 0.0])
    root = lambda x: np.array([0.75, -1.875, 6.5625]) * x ** np.array([-2.5, -3.5, -4.5])
    pieces = (lambda x: np.zeros(3), cubic(cu, au), root, cubic(cd, ad), lambda x: np.zeros(3))
    return np.array([pieces[k + 1](x) - pieces[k](x) for k, x in enumerate(_KNOTS)])


def _abs_moment(periods: int, panels: int) -> float:
    """integral_0^inf |t f^(t)| dt: order-12 Gauss-Legendre panels, `panels`
    per period P, on [0, periods P].  Beyond, by parts at the knots (all
    multiples of 1/8), t f^ = (i S2 + S3/t - i S4/t^2) / (2 pi t^2) + O(t^-5)
    with P-periodic Sk (jumps of f^(k) times e^(-i t x_k)); |.| to O(t^-4) is
    summed over the periods with Hurwitz zeta(k, periods + s/P) / P^k weights."""
    from scipy.special import zeta
    edges = np.linspace(0.0, _PERIOD, panels + 1)
    s, w = (a.ravel() for a in gl_nodes(edges[:-1, None], edges[1:, None], 12))
    body = sum(float(w @ np.abs(t * _taper_transform(t)))
               for t in s + _PERIOD * np.arange(periods)[:, None])
    s2, s3, s4 = (np.exp(-1j * np.outer(s, _KNOTS)) @ _knot_jumps()).T
    mag, lin = np.abs(s2), np.real(-1j * np.conj(s2) * s3)
    quad = (np.abs(s3) ** 2 - 2.0 * np.real(np.conj(s2) * s4) - (lin / mag) ** 2) / (2.0 * mag)
    tail = sum(float(w @ (g * zeta(k, periods + s / _PERIOD))) / _PERIOD ** k
               for k, g in ((2, mag), (3, lin / mag), (4, quad)))
    return body + tail / (2.0 * np.pi)


@functools.lru_cache(maxsize=1)
def isometry_function_constant() -> float:
    """C = sup|f| + 2 integral |t f^(t)| dt for the fixed taper f.

    The integral is _abs_moment at (_C_PERIODS, _C_PANELS) and at twice both;
    if the two move C by more than 1e-8 max(1, C), QuadratureError is raised.
    """
    coarse, fine = (_taper_sup() + 2.0 * _abs_moment(k * _C_PERIODS, k * _C_PANELS)
                    for k in (1, 2))
    if abs(fine - coarse) > 1e-8 * max(1.0, fine):
        raise QuadratureError(f"isometry constant C: refinement moved by {abs(fine - coarse):.3e}")
    return fine


def close_projection_isometry(e1, e2) -> np.ndarray:
    """Partial isometry v (2n x 2n) with vv* = e1 (+) 0 and v*v = 0 (+) e2.

    Built as v = x f(x*x) from the corner placement of e1 e2; requires the
    spectrum of e2 e1 e2 to split into {0} and a cluster above 3/4, which
    holds whenever ||e1 - e2|| < 1/2.  A NaN or inf in e1 or e2, a
    non-square e1 or an e2 of another shape is named.
    """
    e1m = as_array(checked_finite(e1, "e1", SQUARE))
    e2m = as_array(checked_finite(e2, "e2", e1m.shape))
    n = e1m.shape[0]
    for name, em in (("e1", e1m), ("e2", e2m)):
        # Frobenius norms bound the operator norm, so these checks are the stricter
        defect = max(np.linalg.norm(em @ em - em), np.linalg.norm(em - em.conj().T))
        if not defect <= PROJECTION_ATOL:
            raise ValueError(f"{name} is not an orthogonal projection within 1e-10")
    prod = e1m @ e2m
    gram = hermitian_part(prod.conj().T @ prod)    # e2 e1 e2
    lam, w = np.linalg.eigh(gram)
    zero_tol = 1e-10
    lower_edge = float(_KNOTS[1])
    bad = (lam > zero_tol) & (lam < lower_edge)
    if np.any(bad):
        delta = op_norm(e1m - e2m)
        raise SpectralGapMissing(
            f"spectrum of e2 e1 e2 has value {float(lam[bad][0]):.6f} inside "
            f"({zero_tol:.0e}, {lower_edge}); ||e1-e2|| = {delta:.3f} is too large")
    f_vals = np.zeros_like(lam)
    upper = lam > zero_tol
    f_vals[upper] = lam[upper] ** -0.5
    corner = prod @ (w * f_vals) @ w.conj().T
    v = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    v[:n, n:] = corner
    return v


@dataclasses.dataclass(frozen=True)
class TheoremBResult:
    """Measured two-sided data of the two-state comparison inequality."""

    lhs: float
    rhs: float
    delta_v_norm: float
    c_upper: float
    m_norm: float
    norm_b_diff: float
    boundary_consistency: float


def theorem_b_inequality(h, b1, b2, e1, e2, c: float) -> TheoremBResult:
    """Bound |omega_2(e2) - omega_1(e1)| by |c| C M ||b1 - b2||.

    omega_i is the perturbed functional of b_i over log Z of h, built with
    no Gibbs state; e_i must be finite, have h's shape and commute with h+b_i
    (the flow-invariance hypothesis).  The doubled flow beta_z = Ad e^{izK}
    of K = (h+b1) (+) (h+b2) and the density of omega_1 (+) omega_2 meet v
    only on its one nonzero corner, v = [[0, X], [0, 0]], so with
    h+b_i = W_i diag(mu_i) W_i* and p_i = exp(-c mu_i - log Z_h) the
    endpoints of F(z) = phi(v beta_z(v*)) are sums of positive terms over
    the functionals' own eigenbases:

        F(0)  = sum_k p1_k ||row k of W1* X||^2,
        F(ic) = sum_k p2_k ||column k of X W2||^2.

    Returns the measured left and right sides, the derivation norm
    ||i[K, v]|| = ||(h+b1) X - X (h+b2)||, and the consistency of the
    endpoints F(0) = omega_1(e1), F(ic) = omega_2(e2) with the functionals'
    own densities; a consistency that is not within 1e-8 max(1, M) is a
    numerical breakdown, not a violation, and raises NearcommError.
    """
    _check_c(c)
    hm = checked_hermitian(h, "h", SQUARE)
    b1m, b2m = (checked_hermitian(m, name, hm.shape) for name, m in (("b1", b1), ("b2", b2)))
    e1m, e2m = (_shaped(as_array(m), name, hm.shape) for name, m in (("e1", e1), ("e2", e2)))
    n = hm.shape[0]
    corner = close_projection_isometry(e1m, e2m)[:n, n:]    # checks e1 and e2 first
    log_z = _logsumexp(-c * np.linalg.eigh(hm)[0])     # gibbs(h, c).log_z
    omega1, omega2 = (_functional(hermitian_part(hm + bm), c, log_z) for bm in (b1m, b2m))
    scale = max(1.0, *(float(np.max(np.abs(om.eigenvalues))) for om in (omega1, omega2)))
    for name, om, em in (("e1", omega1, e1m), ("e2", omega2, e2m)):
        drift = np.linalg.norm(commutator(om.h, em))    # Frobenius, >= operator norm
        if not drift <= INVARIANCE_ATOL * scale:
            raise ValueError(f"{name} is not flow-invariant: ||[h+b, e]|| = {drift:.3e}")

    f0 = float(omega1.spectrum @ np.sum(np.abs(omega1.basis.conj().T @ corner) ** 2, axis=1))
    fic = float(omega2.spectrum @ np.sum(np.abs(corner @ omega2.basis) ** 2, axis=0))
    m_norm = max(omega1.weight, omega2.weight)
    consistency = float(np.max(np.abs([f0 - omega1.value(e1m), fic - omega2.value(e2m)])))
    bound = CONSISTENCY_RTOL * max(1.0, m_norm)
    if not consistency <= bound:
        raise NearcommError(
            f"two-state endpoints F(0), F(ic) at c = {c:g} disagree with "
            f"omega_1(e1), omega_2(e2) by {consistency:.3e} > {bound:.3e}")
    c_upper = isometry_function_constant()
    norm_b_diff = op_norm(b1m - b2m)
    return TheoremBResult(lhs=abs(fic - f0),
                          rhs=abs(c) * c_upper * m_norm * norm_b_diff,
                          delta_v_norm=op_norm(omega1.h @ corner - corner @ omega2.h),
                          c_upper=c_upper, m_norm=m_norm,
                          norm_b_diff=norm_b_diff,
                          boundary_consistency=consistency)


DEFAULT_KMS_DIMS = (2, 3, 4, 5, 6, 7, 8)
KMS_HEADER = ("trial", "n", "c", "norm_b_diff", "lhs", "rhs", "margin")


def _bottom_projection(m: np.ndarray, k: int) -> np.ndarray:
    cols = np.linalg.eigh(m)[1][:, :k]
    return cols @ cols.conj().T


def two_state_instance(n: int, c: float, rng, *,
                       perturb_scale: float = 0.05) -> TheoremBResult:
    """One random comparison instance: perturbations b1 and b2 = b1 + small
    difference, with e_i the bottom-half spectral projection of h + b_i (so
    flow invariance holds exactly)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    h = random_hermitian(n, rng)
    b1 = 0.2 * random_hermitian(n, rng)
    b2 = b1 + perturb_scale * random_hermitian(n, rng)
    k = max(1, n // 2)
    e1 = _bottom_projection(h + b1, k)
    e2 = _bottom_projection(h + b2, k)
    return theorem_b_inequality(h, b1, b2, e1, e2, c)


def kms_experiment(trials: int, c: float, seed: int, *,
                   dims=DEFAULT_KMS_DIMS, perturb_scale: float = 0.05) -> list:
    """Rows (trial, n, c, norm_b_diff, lhs, rhs, margin, m_norm), each drawn from
    rng [seed, trial]; margin rhs - lhs < 0 is a violation, m_norm the M in rhs."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not len(dims) or min(dims) < 1:
        raise ValueError(f"dims must be nonempty, each >= 1, got {tuple(dims)}")

    rows = []
    for trial in range(trials):
        n = dims[trial % len(dims)]
        rng = np.random.default_rng([seed, trial])
        try:
            res = two_state_instance(n, c, rng, perturb_scale=perturb_scale)
        except NearcommError as exc:
            raise NearcommError(
                f"instance trial={trial} (seed=[{seed}, {trial}], n={n}): {exc}"
            ) from exc
        rows.append((trial, n, c, res.norm_b_diff, res.lhs, res.rhs,
                     res.rhs - res.lhs, res.m_norm))
    return rows


def kms_rows_to_csv(rows) -> str:
    return csv_text(KMS_HEADER, ([trial, n, *map(fmt_float, floats)]
                                 for trial, n, *floats, _ in rows))
