"""Admissible commutator size per accuracy target, measured empirically.

There is no closed-form map from a commutator budget eps to the largest
input commutator nu the construction tolerates, so the package ships a
measured table: for each eps on a fixed grid, the largest ensemble nu at
which at least 99% of seeded instances keep every edge-projection
commutator below eps/2.  The pipeline consults the table read-only to flag
out-of-regime runs; the `calibrate` command regenerates the fixture.

The fixture lives in the package data directory; environment variable
NEARCOMM_DATA_DIR overrides the location.
"""

from __future__ import annotations

import dataclasses
import functools
import os
from importlib import resources

import numpy as np

from .errors import NearcommError
from .ensembles import instance_rng, pair_instance
from .kernels import band_smooth
from .projections import partition
from .serialize import dump_json, load_json

DATA_ENV_VAR = "NEARCOMM_DATA_DIR"
FIXTURE_NAME = "calibration.json"

DEFAULT_EPS_GRID = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0)
DEFAULT_NU_GRID = (1e-6, 1e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1)
DEFAULT_DIMS = (8, 16, 32)
PASS_FRACTION = 0.99


@dataclasses.dataclass(frozen=True)
class CalibrationTable:
    """Monotone map eps -> largest admissible input commutator norm."""

    eps_grid: tuple
    nu_admissible: tuple
    meta: dict

    def admissible_nu(self, eps: float) -> float:
        """Largest calibrated nu for budgets at most eps (conservative)."""
        best = 0.0
        for e, nu in zip(self.eps_grid, self.nu_admissible):
            if e <= eps:
                best = max(best, nu)
        return best

    def epsilon_for(self, nu: float) -> float | None:
        """Smallest grid eps whose admissible nu covers the given nu."""
        for e, adm in zip(self.eps_grid, self.nu_admissible):
            if adm >= nu:
                return e
        return None

    def to_payload(self) -> dict:
        return {"eps_grid": list(self.eps_grid),
                "nu_admissible": list(self.nu_admissible),
                "meta": self.meta}

    @staticmethod
    def from_payload(payload: dict) -> "CalibrationTable":
        eps = tuple(float(x) for x in payload["eps_grid"])
        nu = tuple(float(x) for x in payload["nu_admissible"])
        if len(eps) != len(nu):
            raise NearcommError("calibration table grids have mismatched lengths")
        if list(eps) != sorted(eps):
            raise NearcommError("calibration eps grid must be increasing")
        return CalibrationTable(eps_grid=eps, nu_admissible=nu,
                                meta=dict(payload.get("meta", {})))


def _edge_statistic(n: int, nu: float, rng) -> float:
    """Twice the worst commutator among the chain projections e_k.

    An instance is admissible for budget eps exactly when this statistic is
    below eps, since partition builds every edge with budget eps/2.
    """
    inst = pair_instance(n, nu, rng)
    smoothed = band_smooth(inst.a, inst.b)
    try:
        # an infinite budget measures every edge and rejects none
        part = partition(inst.a, smoothed, eps=np.inf)
    except NearcommError:
        return np.inf
    return 2.0 * part.edge_comm


def build_calibration(eps_grid=DEFAULT_EPS_GRID, nu_grid=DEFAULT_NU_GRID,
                      dims=DEFAULT_DIMS, trials: int = 12,
                      seed: int = 20240915) -> CalibrationTable:
    """Measure the admissible-nu table on the standard ensemble."""
    eps_grid = tuple(sorted(float(e) for e in eps_grid))
    nu_grid = tuple(sorted(float(v) for v in nu_grid))
    for name, grid in (("eps_grid", eps_grid), ("nu_grid", nu_grid), ("dims", dims)):
        if not len(grid):
            raise ValueError(f"{name} must be nonempty")
    by_nu = {nu: [] for nu in nu_grid}
    for i_dim, n in enumerate(dims):
        for i_nu, nu in enumerate(nu_grid):
            for trial in range(trials):
                rng = instance_rng(seed, i_dim, i_nu, trial)
                by_nu[nu].append(_edge_statistic(n, nu, rng))

    nu_admissible = []
    for eps in eps_grid:
        best = 0.0
        for nu in nu_grid:
            vals = np.asarray(by_nu[nu])
            if np.mean(vals < eps) >= PASS_FRACTION:
                best = max(best, nu)
        nu_admissible.append(best)
    meta = {"dims": list(dims), "trials": trials, "seed": seed,
            "nu_grid": list(nu_grid), "pass_fraction": PASS_FRACTION,
            "statistic": "2x worst edge-projection commutator after smoothing"}
    return CalibrationTable(eps_grid=eps_grid, nu_admissible=tuple(nu_admissible),
                            meta=meta)


def fixture_path() -> str:
    override = os.environ.get(DATA_ENV_VAR)
    if override:
        return os.path.join(override, FIXTURE_NAME)
    return str(resources.files("nearcomm") / "data" / FIXTURE_NAME)


def save_calibration(table: CalibrationTable, path: str | None = None) -> str:
    path = path or fixture_path()
    dump_json(path, table.to_payload())
    _load_from.cache_clear()
    return path


@functools.lru_cache(maxsize=4)
def _load_from(path: str) -> CalibrationTable:
    return CalibrationTable.from_payload(load_json(path))


def load_calibration(path: str | None = None) -> CalibrationTable:
    return _load_from(path or fixture_path())
