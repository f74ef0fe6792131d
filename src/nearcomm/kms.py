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

from ._quad import _leggauss, gl_nodes
from .ensembles import random_hermitian
from .errors import NearcommError, SpectralGapMissing
from .hermitian import (SpectralDecomposition, as_array, checked_hermitian, commutator,
                        hermitian_part, op_norm)
from .serialize import csv_text, fmt_float

PROJECTION_ATOL = 1e-10
UNITARY_ATOL = 1e-10
INVARIANCE_ATOL = 1e-8
CONSISTENCY_RTOL = 1e-8        # two-state endpoint check, times max(1, M)

# taper profile: 0 below 1/2, cubic ramp on [1/2, 3/4], t^(-1/2) on
# [3/4, 9/8], cubic ramp back to 0 on [9/8, 11/8]
_KNOTS = (0.5, 0.75, 1.125, 1.375)


def _logsumexp(values: np.ndarray) -> float:
    m = float(np.max(values))
    return m + math.log(float(np.sum(np.exp(values - m))))


@dataclasses.dataclass(frozen=True)
class KmsState:
    """Gibbs state exp(-c h)/Z for the flow generated by h; log_z = log Z."""

    h: np.ndarray
    c: float
    rho: np.ndarray
    log_z: float


def _check_c(c: float) -> None:
    if not (math.isfinite(c) and c != 0):
        raise ValueError(f"c must be finite and nonzero, got {c}")


def gibbs(h, c: float) -> KmsState:
    """Gibbs state at inverse-temperature parameter c (either sign, nonzero)."""
    _check_c(c)
    hm = checked_hermitian(h)
    lam, v = np.linalg.eigh(hm)
    exponents = -c * lam
    shift = float(np.max(exponents))
    weights = np.exp(exponents - shift)
    rho = hermitian_part((v * (weights / weights.sum())) @ v.conj().T)
    return KmsState(h=hm, c=float(c), rho=rho, log_z=_logsumexp(exponents))


def boundary_residual(rho: np.ndarray, h, c: float, x, y, t_samples) -> float:
    """max_t |F(t+ic) - Tr(rho alpha_t(y) x)| with F(z) = Tr(rho x alpha_z(y)).

    Zero (to rounding) exactly when rho is the Gibbs density for (h, c);
    arbitrary densities make this a negative control.  Because rho is
    arbitrary it cannot be folded into the exponent: alpha_{t+ic}(y) has
    entries up to e^{|c| spread(h)} |y|, so the rounding error of the
    residual grows like 1e-16 e^{|c| spread(h)}, for the Gibbs density too.
    """
    dec = SpectralDecomposition(*np.linalg.eigh(checked_hermitian(h)))
    xm, ym = as_array(x), as_array(y)
    worst = 0.0
    for t in t_samples:
        lhs = np.trace(rho @ xm @ dec.evolve(t + 1j * c, ym))
        rhs = np.trace(rho @ dec.evolve(float(t), ym) @ xm)
        worst = max(worst, abs(complex(lhs - rhs)))
    return worst


def kms_verify(state: KmsState, x, y) -> float:
    return boundary_residual(state.rho, state.h, state.c, x, y, (-1.0, 0.0, 1.0))


@dataclasses.dataclass(frozen=True)
class PerturbedFunctional:
    """Positive functional with density exp(-c(h+b)) / Z of the base state.

    Unnormalized on purpose: weight = value(1) is the functional norm, the
    quantity the two-state inequality needs.  h+b = basis diag(mu) basis*,
    and spectrum = exp(-c mu - log Z) holds the density's eigenvalues in that
    basis, each formed in the exponent so none loses digits at large |c|.
    """

    density: np.ndarray
    weight: float
    basis: np.ndarray
    spectrum: np.ndarray

    def value(self, x) -> complex:
        return complex(np.trace(self.density @ as_array(x)))

    def normalized_density(self) -> np.ndarray:
        return self.density / self.weight


def perturbed_functional(state: KmsState, b) -> PerturbedFunctional:
    c = state.c
    mu, w = np.linalg.eigh(state.h + checked_hermitian(b))
    log_weight = _logsumexp(-c * mu) - state.log_z
    try:
        weight = math.exp(log_weight)
    except OverflowError:
        raise NearcommError(f"functional weight exp({log_weight:.6g}) is beyond "
                            f"the float range at c = {c:g}") from None
    spectrum = np.exp(-c * mu - state.log_z)
    density = hermitian_part((w * spectrum) @ w.conj().T)
    return PerturbedFunctional(density=density, weight=weight, basis=w, spectrum=spectrum)


@dataclasses.dataclass(frozen=True)
class SymmetryActionResult:
    """Image of a Gibbs state under the corrected action of Ad w."""

    density: np.ndarray
    residual: float
    cocycle_norm: float


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
    wm = as_array(w)
    n = wm.shape[0]
    if op_norm(wm.conj().T @ wm - np.eye(n)) > UNITARY_ATOL:
        raise ValueError("w is not unitary within 1e-10")
    dec = SpectralDecomposition(*np.linalg.eigh(state.h))
    cocycle = dec.evolve(1j * state.c, wm) @ wm.conj().T
    raw = cocycle @ wm @ state.rho @ wm.conj().T
    density = hermitian_part(raw)
    density = density / float(np.trace(density).real)
    return SymmetryActionResult(density=density,
                                residual=trace_norm(density - state.rho),
                                cocycle_norm=op_norm(cocycle))


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
    it = 1j * t
    out = np.zeros_like(t, dtype=np.complex128)
    # g with (d/dx - it) g = p gives antiderivative e^(-itx) g(x)
    def g_at(x):
        d = x - a
        p = coeffs[0] + d * (coeffs[1] + d * (coeffs[2] + d * coeffs[3]))
        p1 = coeffs[1] + d * (2 * coeffs[2] + 3 * d * coeffs[3])
        p2 = 2 * coeffs[2] + 6 * d * coeffs[3]
        p3 = 6 * coeffs[3]
        return -(p / it) - (p1 / it ** 2) - (p2 / it ** 3) - (p3 / it ** 4)
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
        acc = np.zeros(int(np.sum(small)), dtype=np.complex128)
        for lo, hi in zip(_KNOTS[:-1], _KNOTS[1:]):
            x, w = gl_nodes(lo, hi, 48)
            acc += (taper(x) * w) @ np.exp(-1j * np.outer(x, t[small]))
        out[small] = acc
    big = ~small
    if np.any(big):
        tb = np.abs(t[big])
        val = (_poly_segment_transform(cu, t0, t1, tb)
               + _sqrt_segment_transform(t1, t2, tb)
               + _poly_segment_transform(cd, t2, t3, tb))
        out[big] = np.where(t[big] >= 0, val, np.conj(val))
    return out / (2.0 * np.pi)


@functools.lru_cache(maxsize=1)
def isometry_function_constant() -> float:
    """C = sup|f| + 2 integral |t f^(t)| dt for the fixed taper f.

    The transform decays like t^(-3) (f is C^1 with piecewise-smooth second
    derivative), so the integral converges; beyond the quadrature cutoff the
    remainder is estimated from the measured t^(-2) envelope of |t f^|.
    """
    grid = np.linspace(_KNOTS[0], _KNOTS[3], 200001)
    sup_f = float(np.max(taper(grid)))

    cutoff = 50000.0
    panels = np.linspace(0.0, cutoff, 100001)
    base, wts = _leggauss(8)
    lo, hi = panels[:-1], panels[1:]
    half = 0.5 * (hi - lo)
    nodes = lo[:, None] + half[:, None] * (base[None, :] + 1.0)
    vals = np.abs(nodes * _taper_transform(nodes.ravel()).reshape(nodes.shape))
    integral = float(np.sum(vals @ wts * half))

    window = np.linspace(cutoff, 2 * cutoff, 20001)
    envelope = float(np.mean(np.abs(window * _taper_transform(window)) * window ** 2))
    tail = envelope / cutoff
    return sup_f + 2.0 * (integral + tail)


def close_projection_isometry(e1, e2) -> np.ndarray:
    """Partial isometry v (2n x 2n) with vv* = e1 (+) 0 and v*v = 0 (+) e2.

    Built as v = x f(x*x) from the corner placement of e1 e2; requires the
    spectrum of e2 e1 e2 to split into {0} and a cluster above 3/4, which
    holds whenever ||e1 - e2|| < 1/2.
    """
    e1m, e2m = as_array(e1), as_array(e2)
    n = e1m.shape[0]
    for name, em in (("e1", e1m), ("e2", e2m)):
        if op_norm(em @ em - em) > PROJECTION_ATOL or op_norm(em - em.conj().T) > PROJECTION_ATOL:
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

    omega_i is the perturbed functional of b_i; e_i must commute with h+b_i
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
    hm, b1m, b2m = (checked_hermitian(m) for m in (h, b1, b2))
    e1m, e2m = as_array(e1), as_array(e2)
    n = hm.shape[0]
    k1, k2 = hm + b1m, hm + b2m
    scale = max(1.0, op_norm(k1), op_norm(k2))
    for name, km, em in (("e1", k1, e1m), ("e2", k2, e2m)):
        drift = op_norm(commutator(km, em))
        if drift > INVARIANCE_ATOL * scale:
            raise ValueError(f"{name} is not flow-invariant: ||[h+b, e]|| = {drift:.3e}")

    corner = close_projection_isometry(e1m, e2m)[:n, n:]
    base = gibbs(hm, c)
    omega1 = perturbed_functional(base, b1m)
    omega2 = perturbed_functional(base, b2m)
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
                          delta_v_norm=op_norm(k1 @ corner - corner @ k2),
                          c_upper=c_upper, m_norm=m_norm,
                          norm_b_diff=norm_b_diff,
                          boundary_consistency=consistency)


DEFAULT_KMS_DIMS = (2, 3, 4, 5, 6, 7, 8)
KMS_HEADER = ("seed", "n", "c", "norm_b_diff", "lhs", "rhs", "margin")


def _bottom_projection(m: np.ndarray, k: int) -> np.ndarray:
    cols = np.linalg.eigh(m)[1][:, :k]
    return cols @ cols.conj().T


def two_state_instance(n: int, c: float, rng, *,
                       perturb_scale: float = 0.05) -> TheoremBResult:
    """One random comparison instance: perturbations b1 and b2 = b1 + small
    difference, with e_i the bottom-half spectral projection of h + b_i (so
    flow invariance holds exactly)."""
    h = random_hermitian(n, rng)
    b1 = 0.2 * random_hermitian(n, rng)
    b2 = b1 + perturb_scale * random_hermitian(n, rng)
    k = max(1, n // 2)
    e1 = _bottom_projection(h + b1, k)
    e2 = _bottom_projection(h + b2, k)
    return theorem_b_inequality(h, b1, b2, e1, e2, c)


def kms_experiment(trials: int, c: float, seed: int, *,
                   dims=DEFAULT_KMS_DIMS, perturb_scale: float = 0.05) -> list:
    """Seeded rows (seed, n, c, norm_b_diff, lhs, rhs, margin, m_norm); margin
    rhs - lhs < 0 marks a violation, and m_norm is the M that scales rhs."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not len(dims):
        raise ValueError("dims must be nonempty")

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
    return csv_text(KMS_HEADER, ([seed, n, *map(fmt_float, floats)]
                                 for seed, n, *floats, _ in rows))
