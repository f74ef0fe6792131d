"""Internal quadrature helpers: Gauss-Legendre nodes and composite Simpson."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def _leggauss(k: int):
    x, w = np.polynomial.legendre.leggauss(k)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gl_nodes(a: float, b: float, k: int):
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = _leggauss(k)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def simpson_uniform(y: np.ndarray, h: float) -> float:
    """Composite Simpson on a uniform grid; len(y) must be odd."""
    n = len(y)
    if n < 3 or n % 2 == 0:
        raise ValueError("simpson_uniform needs an odd number of samples >= 3")
    s = y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-2:2])
    return float(s * h / 3.0)
