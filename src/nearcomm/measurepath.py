"""Mean- and variance-preserving contraction of a discrete measure state.

A state is a finite atomic measure nu together with a unit vector xi in
L^2(nu); the physically meaningful data are the probability masses
m(x) = nu({x}) |xi(x)|^2 with mean c and variance v.  The path construction
selects three atoms on which a probability measure with the same first two
moments exists with strictly positive weights, then deforms xi in finitely
many stages until the mass lives exactly on those atoms, keeping mean,
variance, and norm constant along the way.

All interpolation happens linearly in mass space, where the moment
functionals are linear, and amplitudes are recovered as square roots; the
phases of xi are flattened first, which changes no moment.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import DegenerateMeasure, MomentInfeasible
from .hermitian import checked_finite
from .serialize import load_json

NORM_ATOL = 1e-12
MEAN_MATCH_ATOL = 1e-10
DEFAULT_STAGES = 6
_PHASE_STEPS = 4
_STAGE_STEPS = 4


@dataclasses.dataclass(frozen=True)
class DiscreteMeasureState:
    """Atomic measure (atoms, weights) with an L^2-normalized amplitude."""

    atoms: np.ndarray
    weights: np.ndarray
    amplitude: np.ndarray

    def masses(self) -> np.ndarray:
        return self.weights * np.abs(self.amplitude) ** 2

    def norm_sq(self) -> float:
        return float(np.sum(self.masses()))

    def mean(self) -> float:
        return float(np.sum(self.atoms * self.masses()))

    def variance(self) -> float:
        m = self.masses()
        c = float(np.sum(self.atoms * m))
        return float(np.sum((self.atoms - c) ** 2 * m))

    def support(self) -> np.ndarray:
        return self.atoms[np.abs(self.amplitude) > 0]


def discrete_measure_state(atoms, weights, amplitude) -> DiscreteMeasureState:
    atoms = checked_finite(np.asarray(atoms, dtype=np.float64), "atoms", ("n",))
    weights = checked_finite(np.asarray(weights, dtype=np.float64), "weights", atoms.shape)
    amplitude = checked_finite(np.asarray(amplitude, dtype=np.complex128), "amplitude",
                               atoms.shape)
    if np.any(np.diff(atoms) <= 0):
        raise ValueError("atoms must be strictly ascending")
    if np.any(weights <= 0):
        raise ValueError("weights must be strictly positive")
    if abs(float(np.sum(weights)) - 1.0) > NORM_ATOL:
        raise ValueError("weights must sum to 1 within 1e-12")
    nrm = float(np.sum(weights * np.abs(amplitude) ** 2))
    if abs(nrm - 1.0) > NORM_ATOL:
        raise ValueError("amplitude must satisfy sum w |xi|^2 = 1 within 1e-12")
    return DiscreteMeasureState(atoms=atoms, weights=weights, amplitude=amplitude)


def select_three_points(state: DiscreteMeasureState) -> tuple[float, float, float]:
    """Pick atoms (s1, s2, s3) of nu so that a probability measure on them
    matches the state's mean and variance with strictly positive weights.

    Case analysis on the mean c, the variance v, the endpoints a, b of the
    atom set, and the neighbors t1 < c < t2: c itself when it is an atom;
    otherwise the neighbor whose pairing with both endpoints stays below v;
    otherwise both neighbors.
    """
    support = state.support()
    if support.size <= 1 or state.variance() == 0.0:
        raise DegenerateMeasure("amplitude is concentrated at a single atom")
    atoms = state.atoms
    a, b = float(atoms[0]), float(atoms[-1])
    c = state.mean()
    v = state.variance()
    bound = (b - c) * (c - a)
    if not v < bound:
        raise MomentInfeasible(
            f"variance {v} is not below (b-c)(c-a) = {bound}; "
            "mass sits on the extreme atoms only")
    tol = MEAN_MATCH_ATOL * max(1.0, b - a)
    near = np.abs(atoms - c) <= tol
    if np.any(near):
        return (a, float(atoms[near][0]), b)
    below = atoms[atoms < c]
    above = atoms[atoms > c]
    t1, t2 = float(below[-1]), float(above[0])
    if (b - c) * (c - t1) < v:
        return (a, t1, b)
    if (t2 - c) * (c - a) < v:
        return (a, t2, b)
    return (a, t1, t2)


def _solve_targets(targets, moments) -> np.ndarray:
    """Weights on three atoms with prescribed total mass and first two raw
    moments (3x3 Vandermonde solve)."""
    p, q, r = targets
    vand = np.array([[1.0, 1.0, 1.0],
                     [p, q, r],
                     [p * p, q * q, r * r]])
    return np.linalg.solve(vand, np.asarray(moments, dtype=np.float64))


def three_point_weights(targets, c: float, v: float) -> np.ndarray:
    """Probability weights on three atoms with mean c and variance v."""
    targets = checked_finite(np.asarray(targets, dtype=np.float64), "targets", (3,))
    if np.unique(targets).size < 3:     # the Vandermonde system is singular
        raise ValueError(f"targets must be distinct, got {tuple(targets.tolist())}")
    c, v = (float(checked_finite(m, name, ())) for name, m in (("c", c), ("v", v)))
    return _solve_targets(targets, (1.0, c, v + c * c))


@dataclasses.dataclass(frozen=True)
class MeasurePath:
    """Grid of states in [0, 1) with constant moments, ending on the targets."""

    times: np.ndarray
    states: tuple
    stages: tuple
    target_atoms: tuple

    def drift(self) -> tuple[float, float, float]:
        """(max mean drift, max variance drift, max norm drift) vs the start."""
        c = self.states[0].mean()
        v = self.states[0].variance()
        d_mean = max(abs(s.mean() - c) for s in self.states)
        d_var = max(abs(s.variance() - v) for s in self.states)
        d_norm = max(abs(s.norm_sq() - 1.0) for s in self.states)
        return d_mean, d_var, d_norm


def _with_masses(state: DiscreteMeasureState, masses: np.ndarray,
                 phase: np.ndarray | None = None) -> DiscreteMeasureState:
    amp = np.sqrt(np.maximum(masses, 0.0) / state.weights).astype(np.complex128)
    if phase is not None:
        amp = amp * np.exp(1j * phase)
    return DiscreteMeasureState(atoms=state.atoms, weights=state.weights,
                                amplitude=amp)


def _phase_flatten_states(state: DiscreteMeasureState):
    """Rotate every amplitude to its modulus; |xi| and all moments unchanged."""
    phases = np.angle(state.amplitude)
    masses = state.masses()
    out = []
    for k in range(1, _PHASE_STEPS + 1):
        frac = 1.0 - k / _PHASE_STEPS
        out.append(_with_masses(state, masses, phase=phases * frac))
    return out


def _stage_mass_plan(masses: np.ndarray, atoms: np.ndarray, target_idx,
                     c: float, v: float, stages: int):
    """Per-stage mass vectors: drop non-target atoms farthest from the
    targets first, absorbing the lost moments into the target atoms by an
    exact three-point solve.  A stage whose solve would push a target mass
    to zero or below is merged with the next one.
    """
    target_idx = np.asarray(target_idx)
    targets = atoms[target_idx]
    non_target = np.setdiff1d(np.arange(atoms.size), target_idx)
    dist = np.min(np.abs(atoms[non_target, None] - targets[None, :]), axis=1)
    by_far = np.argsort(-dist, kind="stable")
    order, radii = non_target[by_far], dist[by_far]
    live = masses[order] > 0
    order, radii = order[live], radii[live]

    # geometric schedule: stage j removes atoms down to radius r_max * q^(j+1)
    plans = []
    if order.size:
        r_max, r_min = float(radii[0]), float(radii[-1])
        q = (0.5 * r_min / max(r_max, r_min, 1e-300)) ** (1.0 / stages)
        cuts = r_max * q ** np.arange(1, stages + 1)
        cuts[-1] = 0.0
        boundaries = [int(np.sum(radii >= cut)) for cut in cuts]
    else:
        boundaries = [0] * stages

    dropped = 0
    for stage_end in boundaries:
        if stage_end <= dropped:
            plans.append(None)
            continue
        while True:
            trial = masses.copy()
            trial[order[:stage_end]] = 0.0
            trial[target_idx] = 0.0
            kept = np.array([np.sum(trial), np.sum(atoms * trial),
                             np.sum(atoms ** 2 * trial)])
            deficit = np.array([1.0, c, v + c * c]) - kept
            sol = _solve_targets(tuple(targets), deficit)
            if np.all(sol > 0.0):
                trial[target_idx] = sol
                plans.append(trial)
                dropped = stage_end
                break
            if stage_end >= order.size:
                raise MomentInfeasible(
                    "three-point moment system has a nonpositive weight "
                    f"(targets {tuple(targets)}, weights {sol})")
            stage_end = min(order.size, stage_end + 1)
    return plans


def three_point_path(state: DiscreteMeasureState) -> MeasurePath:
    """Deform the state onto three atoms in mean/variance-preserving stages.

    The path starts with a phase-flattening segment, then interpolates the
    mass vector linearly between consecutive stage plans (square-root
    amplitudes), so every grid state has exactly the original moments.
    """
    support = state.support()
    if support.size <= 1 or state.variance() == 0.0:
        raise DegenerateMeasure("amplitude is concentrated at a single atom")

    flat_states = _phase_flatten_states(state)
    flat = flat_states[-1]
    masses = flat.masses()
    if support.size == 2:
        # mass on two atoms sits exactly on the moment boundary; the only
        # admissible motion is the phase flattening itself
        targets, plans = tuple(float(s) for s in support), []
    else:
        targets = select_three_points(flat)
        target_idx = np.array([int(np.flatnonzero(state.atoms == s)[0])
                               for s in targets])
        plans = _stage_mass_plan(masses, state.atoms, target_idx, flat.mean(),
                                 flat.variance(), DEFAULT_STAGES)

    states = [state] + flat_states
    stage_ids = [0] * len(states)
    prev = masses
    for j, plan in enumerate(plans, start=1):
        if plan is None:
            continue
        for k in range(1, _STAGE_STEPS + 1):
            tau = k / _STAGE_STEPS
            states.append(_with_masses(flat, (1.0 - tau) * prev + tau * plan))
            stage_ids.append(j)
        prev = plan
    times = np.linspace(0.0, 1.0, len(states), endpoint=False)
    return MeasurePath(times=times, states=tuple(states), stages=tuple(stage_ids),
                       target_atoms=targets)


def trace_header(n_atoms: int) -> tuple:
    return ("stage", "t", "mean", "variance", "support_size") + tuple(
        f"weight_{i + 1}" for i in range(n_atoms))


def trace_rows(path: MeasurePath):
    """One row per grid state: stage, time, moments, support size, masses."""
    rows = []
    for stage, t, st in zip(path.stages, path.times, path.states):
        m = st.masses()
        rows.append((stage, float(t), st.mean(), st.variance(),
                     int(np.sum(np.abs(st.amplitude) > 0)), *map(float, m)))
    return rows


def measure_from_json(obj: dict) -> DiscreteMeasureState:
    """Parse {atoms, weights, xi_re, xi_im}; every entry must be finite.
    Inputs within 1e-9 of normalized are renormalized exactly, anything
    further off is rejected."""
    fields = {}
    for field in ("atoms", "weights", "xi_re", "xi_im"):
        if field not in obj:
            raise ValueError(f"measure JSON is missing field '{field}'")
        fields[field] = checked_finite(np.asarray(obj[field], dtype=np.float64), field,
                                       fields["atoms"].shape if fields else ("n",))
    atoms, weights = fields["atoms"], fields["weights"]
    amp = fields["xi_re"] + 1j * fields["xi_im"]
    w_sum = float(np.sum(weights))
    if abs(w_sum - 1.0) > 1e-9:
        raise ValueError(f"weights sum to {w_sum}, expected 1 within 1e-9")
    weights = weights / w_sum
    nrm = float(np.sum(weights * np.abs(amp) ** 2))
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"amplitude norm^2 is {nrm}, expected 1 within 1e-9")
    amp = amp / np.sqrt(nrm)
    return discrete_measure_state(atoms, weights, amp)


def load_measure(path: str) -> DiscreteMeasureState:
    return measure_from_json(load_json(path))
