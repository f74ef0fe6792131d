"""Seeded random ensembles for sweeps and calibration.

Every instance starts from a simultaneously diagonal (hence commuting) base
pair with independent uniform spectra and adds a GUE-direction Hermitian
perturbation scaled to hit a target commutator norm.  The base pair is the
ground truth: a commuting pair within the perturbation size always exists,
which upper-bounds the distance any correction algorithm needs.

Instance RNG streams derive from a spawn key (seed, dim index, nu index,
trial), so results are reproducible and independent of execution order.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .hermitian import commutator, op_norm


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (g + g.conj().T)


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@dataclasses.dataclass(frozen=True)
class EnsembleInstance:
    a: np.ndarray
    b: np.ndarray
    nu_target: float
    nu_measured: float
    ground_b: np.ndarray
    ground_distance: float


def pair_instance(n: int, nu_target: float, rng: np.random.Generator,
                  a_norm: float = 3.0) -> EnsembleInstance:
    """Almost-commuting pair with ||b|| <= 1 and ||[a,b]|| close to nu_target.

    a is diagonal with spectrum uniform on (0, a_norm); the perturbation is
    renormalized once so the measured commutator lands within ~5% of the
    target even after b is pulled back inside the unit ball.
    """
    if not math.isfinite(nu_target):
        raise ValueError(f"nu_target must be finite, got {nu_target}")
    if nu_target < 0:
        raise ValueError("nu_target must be nonnegative")
    if n < 2 and nu_target > 0:
        raise ValueError(f"n = {n} < 2 admits no nonzero commutator for nu_target > 0")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (math.isfinite(a_norm) and a_norm > 0):
        raise ValueError(f"a_norm must be finite and positive, got {a_norm}")
    a = np.diag(rng.uniform(0.0, a_norm, n)).astype(np.complex128)
    base_b = np.diag(rng.uniform(-1.0, 1.0, n)).astype(np.complex128)
    if nu_target == 0.0:
        return EnsembleInstance(a=a, b=base_b, nu_target=0.0, nu_measured=0.0,
                                ground_b=base_b, ground_distance=0.0)

    direction = random_hermitian(n, rng)
    direction /= op_norm(direction)
    denom = op_norm(commutator(a, direction))
    if denom < 1e-12:
        raise ValueError("degenerate perturbation direction (commutes with a)")
    s = nu_target / denom
    b = base_b
    r = 1.0
    for _ in range(3):
        raw = base_b + s * direction
        r = max(1.0, op_norm(raw))
        b = raw / r
        measured = op_norm(commutator(a, b))
        if abs(measured - nu_target) <= 0.05 * nu_target:
            break
        s *= nu_target / measured
    ground_b = base_b / r
    return EnsembleInstance(a=a, b=b, nu_target=nu_target,
                            nu_measured=op_norm(commutator(a, b)),
                            ground_b=ground_b,
                            ground_distance=op_norm(b - ground_b))


def instance_rng(seed: int, dim_index: int, nu_index: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, dim_index, nu_index, trial])
