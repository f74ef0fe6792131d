"""The two benchmark workloads: seeded inputs, one op each, output checks.

Inputs are generated from the seed before any timing starts; the program
receives only arrays.  `check` returns the op's quality figure or raises
`OpFailed`; `digest` gives the output bytes that the run's digest covers.
Every call into nearcomm goes through a module attribute
(`pipeline.theorem_c_correct`, not an imported name), so the traced run's
wrappers see it.
"""

from __future__ import annotations

import dataclasses
import json
import statistics

import numpy as np
import scipy.linalg

from nearcomm import car, ensembles, kms, measurepath, pipeline

NU = 1e-3
EPS = 0.1
TRIDIAG_LIMIT = 1e-9
ROUNDING_RTOL = 1e-12      # commutation residual of the returned pair, times scale
KMS_MARGIN_FLOOR = -1e-8
LIFT_LIMIT = 1e-10         # evolve(t, a*(xi)) vs a*(e^{itH} xi)
DRIFT_LIMIT = 1e-9
WICK_DEFECT_LIMIT = 1e-10
HYPOTHESIS_GAP = 0.5       # two-state theorem needs ||e1 - e2|| below this
MEASURE_FIXTURE = "demos/measure_gaussian16.json"


class OpFailed(Exception):
    """An op returned, but its output failed the benchmark's check."""


@dataclasses.dataclass(frozen=True)
class Pair:
    n: int                     # matrix dimension
    a_norm: float              # spectrum of a uniform on (0, a_norm)
    haar: bool                 # conjugate a and b by a Haar unitary


@dataclasses.dataclass(frozen=True)
class Size:
    pairs: tuple = ()          # core: the pairs one op corrects, in order
    kms_dims: tuple = ()       # labs: one two-state instance per (dim, c)
    modes: int = 0             # labs: CAR modes
    pool: int = 1              # distinct inputs an untraced run cycles through
    traced_ops: int = 1        # ops in each pass of the traced run


# the general-basis case: edge Jacobi solves do most of the work
ROTATED = Pair(n=64, a_norm=3.0, haar=True)
# the wide-spectrum case: ~100 rank <= 1 windows, op_norm in tridiagonal_check
WIDE = Pair(n=16, a_norm=100.0, haar=False)

SIZES = {
    "core-mix": Size(pairs=(ROTATED, WIDE, WIDE), pool=48, traced_ops=4),
    "labs": Size(kms_dims=(2, 3, 4, 5, 6, 7, 8), modes=8, pool=512, traced_ops=32),
}
TINY_SIZES = {
    "core-mix": Size(pairs=(Pair(n=12, a_norm=3.0, haar=True),
                            Pair(n=8, a_norm=12.0, haar=False)), pool=4, traced_ops=2),
    "labs": Size(kms_dims=(2, 3), modes=4, pool=4, traced_ops=2),
}


def _hermitian(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + x.conj().T)


def _bottom_projection(m: np.ndarray, k: int) -> np.ndarray:
    cols = np.linalg.eigh(m)[1][:, :k]
    return cols @ cols.conj().T


def _two_state_arrays(n: int, rng):
    """(h, b1, b2, e1, e2) drawn as kms.two_state_instance draws them.

    The comparison theorem assumes ||e1 - e2|| < 1/2, and
    theorem_b_inequality rejects a draw outside it with SpectralGapMissing
    (about 1 draw in 5000 here); such a draw is replaced by the next one.
    """
    while True:
        h = ensembles.random_hermitian(n, rng)
        b1 = 0.2 * ensembles.random_hermitian(n, rng)
        b2 = b1 + 0.05 * ensembles.random_hermitian(n, rng)
        k = max(1, n // 2)
        e1, e2 = _bottom_projection(h + b1, k), _bottom_projection(h + b2, k)
        if np.linalg.norm(e1 - e2, 2) < HYPOTHESIS_GAP:
            return h, b1, b2, e1, e2


class CoreWorkload:
    """theorem_c_correct on each pair of an op: seeded pair_instance pairs,
    Haar-rotated or left diagonal as the op's `pairs` say."""

    def __init__(self, size: Size):
        self.size = size

    def make_input(self, rng):
        pairs = []
        for p in self.size.pairs:
            inst = ensembles.pair_instance(p.n, NU, rng, a_norm=p.a_norm)
            a, b = inst.a, inst.b
            if p.haar:
                u = ensembles.haar_unitary(p.n, rng)
                a = _hermitian(u @ a @ u.conj().T)
                b = _hermitian(u @ b @ u.conj().T)
            pairs.append((a, b, p.haar))
        return tuple(pairs)

    # two entry points, so the traced run can split the time by pair kind
    def correct_rotated(self, a, b):
        return pipeline.theorem_c_correct(a, b, EPS)

    def correct_diagonal(self, a, b):
        return pipeline.theorem_c_correct(a, b, EPS)

    def trace_wraps(self):
        return ((self, "correct_rotated", "op.rotated_pair"),
                (self, "correct_diagonal", "op.diagonal_pair"))

    def run(self, inp):
        return tuple((self.correct_rotated if haar else self.correct_diagonal)(a, b)
                     for a, b, haar in inp)

    def check(self, inp, results):
        """Check every pair's result; quality is the op's summed dist_a + dist_b."""
        return sum(self._check_pair(r) for r in results)

    @staticmethod
    def _check_pair(result):
        if result.out_of_regime:
            raise OpFailed(f"out_of_regime at nu={result.nu:.3e}")
        defects = (result.nu, result.compress_defect_a, result.compress_defect_b,
                   result.tridiag_residual, result.pair.dist_a, result.pair.dist_b,
                   *result.block_comms)
        if not np.all(np.isfinite(defects)):
            raise OpFailed(f"non-finite defect in {defects}")
        if result.tridiag_residual > TRIDIAG_LIMIT:
            raise OpFailed(f"tridiag_residual {result.tridiag_residual:.3e}")
        pair = result.pair
        scale = (max(1.0, float(np.max(np.abs(pair.diag_a))))
                 * max(1.0, float(np.max(np.abs(pair.diag_b)))))
        residual = pair.commutation_residual()
        if not residual <= ROUNDING_RTOL * scale:
            raise OpFailed(f"commutation residual {residual:.3e} (scale {scale:.3g})")
        return pair.dist_a + pair.dist_b

    def digest(self, results) -> bytes:
        return json.dumps([r.to_payload() for r in results], sort_keys=True).encode()


@dataclasses.dataclass(frozen=True)
class LabsInput:
    kms_instances: tuple       # (h, b1, b2, e1, e2, c)
    h_one: np.ndarray
    xi: np.ndarray
    t: float
    wick_coeffs: dict


@dataclasses.dataclass(frozen=True)
class LabsResult:
    kms: tuple
    flow: object
    evolved: np.ndarray
    wick: tuple
    path: object


class LabsWorkload:
    """KMS two-state instances, one CAR quasi-free flow with evolve and a
    Wick unitary, and one measure path: the core stays idle."""

    def __init__(self, size: Size, root):
        self.size = size
        self.rep = car.fock_rep(size.modes)
        self.measure = measurepath.load_measure(str(root / MEASURE_FIXTURE))

    def trace_wraps(self):
        return ()

    def make_input(self, rng):
        s = self.size
        instances = []
        for c in (1.0, -1.0):
            for n in s.kms_dims:
                instances.append(_two_state_arrays(n, rng) + (c,))
        xi = rng.normal(size=s.modes) + 1j * rng.normal(size=s.modes)
        mode = int(rng.integers(s.modes))
        theta = float(rng.uniform(0.1, 3.0))
        return LabsInput(kms_instances=tuple(instances),
                         h_one=ensembles.random_hermitian(s.modes, rng),
                         xi=xi / np.linalg.norm(xi), t=float(rng.uniform(0.1, 2.0)),
                         wick_coeffs={((), ()): 1.0,
                                      ((mode,), (mode,)): np.exp(1j * theta) - 1.0})

    def run(self, inp: LabsInput) -> LabsResult:
        margins = tuple(kms.theorem_b_inequality(*i) for i in inp.kms_instances)
        flow = car.quasi_free_flow(self.rep, inp.h_one)
        evolved = flow.evolve(inp.t, car.a_star(self.rep, inp.xi))
        wick = car.wick_unitary(self.rep, inp.wick_coeffs)
        path = measurepath.three_point_path(self.measure)
        return LabsResult(kms=margins, flow=flow, evolved=evolved, wick=wick, path=path)

    def check(self, inp: LabsInput, result: LabsResult):
        worst = min(r.rhs - r.lhs for r in result.kms)
        if not worst >= KMS_MARGIN_FLOOR:
            raise OpFailed(f"KMS margin {worst:.3e}")
        lifted = car.a_star(self.rep, scipy.linalg.expm(1j * inp.t * inp.h_one) @ inp.xi)
        # the Frobenius norm bounds the operator norm and costs far less
        lift_error = float(np.linalg.norm(result.evolved - lifted.toarray()))
        if not lift_error <= LIFT_LIMIT:
            raise OpFailed(f"evolve differs from the one-particle lift by {lift_error:.3e}")
        drift = max(result.path.drift())
        if not drift <= DRIFT_LIMIT:
            raise OpFailed(f"measure-path moment drift {drift:.3e}")
        if not result.wick[1] <= WICK_DEFECT_LIMIT:
            raise OpFailed(f"Wick unitarity defect {result.wick[1]:.3e}")
        # quality: the median state distance |omega_2(e2) - omega_1(e1)|
        return statistics.median(r.lhs for r in result.kms)

    def digest(self, result: LabsResult) -> bytes:
        return b"".join([
            np.array([(r.lhs, r.rhs) for r in result.kms]).tobytes(),
            result.evolved.tobytes(),
            result.wick[0].toarray().tobytes(),
            np.array([s.masses() for s in result.path.states]).tobytes(),
        ])


def make_workload(name: str, tiny: bool, root):
    size = (TINY_SIZES if tiny else SIZES)[name]
    return LabsWorkload(size, root) if name == "labs" else CoreWorkload(size)
