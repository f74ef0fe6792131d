"""Internal quadrature helpers: Gauss-Legendre nodes and weights."""

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

