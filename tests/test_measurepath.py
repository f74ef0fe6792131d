"""Three-point selection and moment-preserving measure paths."""

import json
import pathlib

import numpy as np
import pytest

from nearcomm import measurepath
from nearcomm.errors import DegenerateMeasure, MomentInfeasible
from nearcomm.measurepath import (DiscreteMeasureState, discrete_measure_state,
                                  load_measure, measure_from_json,
                                  select_three_points, three_point_path,
                                  three_point_weights, trace_header, trace_rows)

GAUSSIAN_FIXTURE = pathlib.Path(__file__).resolve().parents[1] / "demos" \
    / "measure_gaussian16.json"


def uniform_state(atoms):
    atoms = np.asarray(atoms, dtype=float)
    n = atoms.size
    return discrete_measure_state(atoms, np.full(n, 1.0 / n),
                                  np.ones(n, dtype=complex))


def random_state(n, rng, complex_phase=True):
    atoms = np.sort(rng.uniform(-1.0, 1.0, n))
    while np.any(np.diff(atoms) <= 1e-6):
        atoms = np.sort(rng.uniform(-1.0, 1.0, n))
    weights = rng.uniform(0.2, 1.0, n)
    weights /= weights.sum()
    amp = rng.uniform(0.2, 1.0, n).astype(complex)
    if complex_phase:
        amp = amp * np.exp(1j * rng.uniform(0.0, 2 * np.pi, n))
    amp /= np.sqrt(np.sum(weights * np.abs(amp) ** 2))
    return discrete_measure_state(atoms, weights, amp)


class TestStateValidation:
    def test_moments_of_uniform_three(self):
        st = uniform_state([0.0, 0.5, 1.0])
        assert st.mean() == pytest.approx(0.5)
        assert st.variance() == pytest.approx(1.0 / 6.0)
        assert st.norm_sq() == pytest.approx(1.0)

    def test_rejects_unsorted_atoms(self):
        with pytest.raises(ValueError, match="ascending"):
            discrete_measure_state([1.0, 0.0], [0.5, 0.5], [1.0, 1.0])

    def test_rejects_bad_weight_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            discrete_measure_state([0.0, 1.0], [0.5, 0.6], [1.0, 1.0])

    def test_rejects_unnormalized_amplitude(self):
        with pytest.raises(ValueError, match="xi"):
            discrete_measure_state([0.0, 1.0], [0.5, 0.5], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["atoms", "weights", "amplitude"])
    def test_rejects_non_finite(self, field, bad):
        args = {"atoms": [0.0, 0.5, 1.0], "weights": [0.25, 0.5, 0.25],
                "amplitude": [1.0, 1.0, 1.0]}
        args[field] = [*args[field][:2], bad]
        with pytest.raises(ValueError, match=rf"^{field} has non-finite entries \(NaN or inf\)"):
            discrete_measure_state(**args)

    def test_support_ignores_dead_atoms(self):
        st = discrete_measure_state([0.0, 0.5, 1.0],
                                    [0.25, 0.5, 0.25],
                                    [np.sqrt(2), 0.0, np.sqrt(2)])
        np.testing.assert_array_equal(st.support(), [0.0, 1.0])


class TestSelectThreePoints:
    def test_mean_is_an_atom(self):
        st = uniform_state([0.0, 0.5, 1.0])
        assert select_three_points(st) == (0.0, 0.5, 1.0)

    def test_mean_is_an_atom_up_to_rounding(self):
        # fp means like 0.4999999999999999 must still match the atom 0.5
        atoms = np.array([0.1, 0.5, 0.9])
        weights = np.array([0.25, 0.5, 0.25])
        amp = np.ones(3, dtype=complex)
        st = discrete_measure_state(atoms, weights, amp)
        assert select_three_points(st)[1] == 0.5

    def test_neighbor_selection(self):
        # mean 0.45 not an atom; case analysis picks a valid triple
        st = discrete_measure_state(
            [0.0, 0.4, 0.6, 1.0],
            [0.25, 0.25, 0.25, 0.25],
            np.sqrt([1.1, 0.9, 1.2, 0.8]).astype(complex))
        s1, s2, s3 = select_three_points(st)
        w = three_point_weights((s1, s2, s3), st.mean(), st.variance())
        assert np.all(w > 0)

    def test_selected_weights_positive_on_random_states(self):
        rng = np.random.default_rng(167)
        for _ in range(40):
            st = random_state(int(rng.integers(3, 12)), rng)
            triple = select_three_points(st)
            w = three_point_weights(triple, st.mean(), st.variance())
            assert np.all(w > 0), (triple, w)
            # the solve hits the prescribed moments exactly
            assert w.sum() == pytest.approx(1.0, abs=1e-10)
            assert float(w @ triple) == pytest.approx(st.mean(), abs=1e-10)

    def test_degenerate_single_atom(self):
        st = discrete_measure_state([0.0, 1.0], [0.5, 0.5],
                                    [np.sqrt(2.0), 0.0])
        with pytest.raises(DegenerateMeasure):
            select_three_points(st)

    def test_two_extreme_atoms_infeasible(self):
        # all mass on the endpoints sits exactly on the moment boundary
        st = discrete_measure_state([0.0, 0.5, 1.0],
                                    [0.25, 0.5, 0.25],
                                    [np.sqrt(2), 0.0, np.sqrt(2)])
        with pytest.raises(MomentInfeasible, match="extreme"):
            select_three_points(st)


class TestThreePointPath:
    def drift_of(self, path):
        d_mean, d_var, d_norm = path.drift()
        return max(d_mean, d_var, d_norm)

    def test_three_atom_input_constant_support(self):
        st = uniform_state([0.0, 0.5, 1.0])
        path = three_point_path(st)
        assert self.drift_of(path) < 1e-12
        assert path.target_atoms == (0.0, 0.5, 1.0)
        for s in path.states:
            assert s.support().size == 3

    def test_gaussian_fixture(self):
        st = load_measure(str(GAUSSIAN_FIXTURE))
        assert st.atoms.size == 16
        path = three_point_path(st)
        assert self.drift_of(path) <= 1e-10
        final = path.states[-1]
        np.testing.assert_array_equal(np.sort(final.support()),
                                      np.sort(path.target_atoms))
        final_masses = final.masses()[np.abs(final.amplitude) > 0]
        assert np.all(final_masses > 0)

    def test_random_states_end_on_three_atoms(self):
        rng = np.random.default_rng(173)
        for _ in range(20):
            st = random_state(int(rng.integers(4, 14)), rng)
            path = three_point_path(st)
            assert self.drift_of(path) <= 1e-10
            assert path.states[-1].support().size == 3
            assert path.times[0] == 0.0 and path.times[-1] < 1.0

    def test_phases_flattened_first(self):
        rng = np.random.default_rng(179)
        st = random_state(6, rng, complex_phase=True)
        path = three_point_path(st)
        # the first states only rotate phases: masses stay fixed
        np.testing.assert_allclose(path.states[1].masses(), st.masses(),
                                   atol=1e-15)
        assert np.all(np.abs(np.angle(path.states[-1].amplitude)) < 1e-12)

    def test_two_point_support_flatten_only(self):
        st = discrete_measure_state([0.0, 0.5, 1.0],
                                    [0.25, 0.5, 0.25],
                                    np.sqrt([2.0, 0.0, 2.0]) * np.exp(1j * 0.7))
        path = three_point_path(st)
        assert len(path.target_atoms) == 2
        assert self.drift_of(path) < 1e-12
        for s in path.states:
            np.testing.assert_allclose(s.masses(), st.masses(), atol=1e-12)

    def test_single_atom_raises(self):
        st = discrete_measure_state([0.0, 1.0], [0.5, 0.5], [np.sqrt(2.0), 0.0])
        with pytest.raises(DegenerateMeasure):
            three_point_path(st)

    def test_infeasible_plan_is_not_retried(self, monkeypatch):
        # the last stage zeroes every non-target atom whatever the stage
        # count, so a failed plan fails the same way with more stages
        calls = []

        def infeasible(*args):
            calls.append(args[-1])
            raise MomentInfeasible("forced")

        monkeypatch.setattr(measurepath, "_stage_mass_plan", infeasible)
        with pytest.raises(MomentInfeasible, match="forced"):
            three_point_path(uniform_state([0.0, 0.25, 0.5, 1.0]))
        assert calls == [measurepath.DEFAULT_STAGES]

    def test_trace_rows_shape(self):
        st = uniform_state([0.0, 0.25, 0.5, 1.0])
        path = three_point_path(st)
        rows = trace_rows(path)
        header = trace_header(st.atoms.size)
        assert len(header) == 5 + 4
        assert all(len(r) == len(header) for r in rows)
        assert rows[0][0] == 0  # phase segment is stage 0
        assert rows[-1][4] == 3


class TestMeasureJson:
    def test_round_trip(self):
        rng = np.random.default_rng(181)
        st = random_state(5, rng)
        obj = {"atoms": st.atoms.tolist(), "weights": st.weights.tolist(),
               "xi_re": st.amplitude.real.tolist(), "xi_im": st.amplitude.imag.tolist()}
        back = measure_from_json(json.loads(json.dumps(obj)))
        np.testing.assert_allclose(back.atoms, st.atoms, atol=0)
        np.testing.assert_allclose(back.amplitude, st.amplitude, atol=1e-15)

    def test_renormalizes_small_drift(self):
        obj = {"atoms": [0.0, 1.0], "weights": [0.5, 0.5 + 3e-10],
               "xi_re": [1.0, 1.0], "xi_im": [0.0, 0.0]}
        st = measure_from_json(obj)
        assert st.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_large_drift(self):
        obj = {"atoms": [0.0, 1.0], "weights": [0.5, 0.6],
               "xi_re": [1.0, 1.0], "xi_im": [0.0, 0.0]}
        with pytest.raises(ValueError, match="weights sum"):
            measure_from_json(obj)

    def test_missing_field_named(self):
        with pytest.raises(ValueError, match="'xi_im'"):
            measure_from_json({"atoms": [0.0], "weights": [1.0],
                               "xi_re": [1.0]})

    @pytest.mark.parametrize("field", ["atoms", "weights", "xi_re", "xi_im"])
    def test_non_finite_field_named(self, field):
        # NaN fails every "off by more than tol" comparison, so it must be
        # caught before the normalization checks
        obj = {"atoms": [0.0, 1.0, 2.0], "weights": [0.25, 0.5, 0.25],
               "xi_re": [1.0, 1.0, 1.0], "xi_im": [0.0, 0.0, 0.0]}
        obj[field][1] = float("nan")
        with pytest.raises(ValueError, match=rf"^{field} has non-finite entries \(NaN or inf\)"):
            measure_from_json(obj)

    def test_fixture_is_normalized(self):
        with open(GAUSSIAN_FIXTURE) as fh:
            raw = json.load(fh)
        assert len(raw["atoms"]) == 16
        st = measure_from_json(raw)
        assert st.norm_sq() == pytest.approx(1.0, abs=1e-12)
