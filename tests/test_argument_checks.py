"""Every public array argument is checked by name: a wrong shape, a NaN, an
inf or (for a Hermitian argument) an asymmetry raises a ValueError whose
message starts with the argument's name, before any arithmetic could warn."""

import contextlib
import inspect
import re
import warnings

import numpy as np
import pytest
import scipy.sparse
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nearcomm
from nearcomm import (NearcommError, a_star, annihilator, band_smooth, boundary_residual,
                      build_calibration, build_mollifier, build_step, checked_hermitian,
                      close_projection_isometry, commutator, commuting_approximation,
                      discrete_measure_state, fock_rep, func_calc, gibbs, hermitian_part,
                      instance_rng, isometry_function_constant, joint_diagonalize,
                      kms_experiment, kms_verify, lipschitz_commutator_check,
                      load_calibration, load_measure, modulus_sweep, op_norm, pair_instance,
                      partition, perturbed_functional, quasi_free_flow, quasi_free_generator,
                      save_calibration, second_quantize, select_three_points,
                      spectral_decomp, sweep_medians, sweep_rows_to_csv, symmetry_action,
                      theorem_b_inequality, theorem_c_correct, three_point_path,
                      three_point_weights, window_projection, wick_unitary)
from nearcomm.kms import two_state_instance

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
E = np.diag([1.0, 0.0]).astype(complex)
STATE = gibbs(SZ, 1.0)
PAIR = {"a": np.diag([0.0, 1.0]), "b": 0.01 * SX}
REP = fock_rep(2)
FLOW = quasi_free_flow(REP, SX)
X4 = np.kron(SX, SZ)

# how an argument's entries are checked: as Hermitian (e1 and e2 as
# projections, and so self-adjoint, to 1e-10), as finite, or not at all
H, F, S = "hermitian", "finite", "shape only"
# an expected shape holds one entry per axis: a size, None (any size) or a
# letter (any size >= 1, the same on every axis the letter labels)
N = ("n", "n")
# (function, valid keyword arguments, {array argument: (entry check, expected shape)})
TABLE = (
    (theorem_c_correct, {**PAIR, "eps": 0.1}, {"a": (H, N), "b": (H, (2, 2))}),
    (partition, {**PAIR, "eps": 0.1}, {"a": (H, N), "b": (H, (2, 2))}),
    (window_projection, {**PAIR, "t": 0.5, "eps": 0.1}, {"a": (H, N), "b": (H, (2, 2))}),
    (joint_diagonalize, PAIR, {"a": (F, N), "b": (F, (2, 2))}),
    (commuting_approximation, PAIR, {"a": (F, N), "b": (F, (2, 2))}),
    (commutator, PAIR, {"a": (S, N), "b": (S, (2, 2))}),
    (op_norm, {"x": SX}, {"x": (S, (None, None))}),
    (hermitian_part, {"m": SX}, {"m": (S, N)}),
    (checked_hermitian, {"x": SX, "name": "x", "shape": (2, 2)}, {"x": (H, (2, 2))}),
    (spectral_decomp, {"a": SZ}, {"a": (H, N)}),
    (func_calc, {"a": SZ, "f": np.abs}, {"a": (H, N)}),
    # b's entries wait until the pipeline stops re-checking them
    (band_smooth, PAIR, {"a": (H, N), "b": (S, (2, 2))}),
    (lipschitz_commutator_check, PAIR, {"a": (H, N), "b": (H, (2, 2))}),
    (gibbs, {"h": SZ, "c": 1.0}, {"h": (H, N)}),
    (perturbed_functional, {"state": STATE, "b": SX}, {"b": (H, (2, 2))}),
    (boundary_residual, {"rho": STATE.density, "h": SZ, "c": 1.0, "x": SX, "y": SX,
                         "t_samples": (0.0, 1.0)},
     {"rho": (F, (2, 2)), "h": (H, N), "x": (F, (2, 2)), "y": (F, (2, 2)),
      "t_samples": (F, ("k",))}),
    (kms_verify, {"state": STATE, "x": SX, "y": SX}, {"x": (F, (2, 2)), "y": (F, (2, 2))}),
    (STATE.value, {"x": SX}, {"x": (S, (2, 2))}),
    (theorem_b_inequality, {"h": SZ, "b1": 0.1 * SZ, "b2": 0.2 * SZ, "e1": E, "e2": E,
                            "c": 1.0},
     {"h": (H, N), **{name: (H, (2, 2)) for name in ("b1", "b2", "e1", "e2")}}),
    (close_projection_isometry, {"e1": E, "e2": E}, {"e1": (H, N), "e2": (H, (2, 2))}),
    (symmetry_action, {"state": STATE, "w": SZ}, {"w": (F, (2, 2))}),
    (quasi_free_flow, {"rep": REP, "h_one": SX}, {"h_one": (H, (2, 2))}),
    (second_quantize, {"rep": REP, "h_one": SX}, {"h_one": (H, (2, 2))}),
    (quasi_free_generator, {"flow": FLOW, "x": X4}, {"x": (F, (4, 4))}),
    (FLOW.evolve, {"t": 0.5, "x": X4}, {"x": (F, (4, 4))}),
    (a_star, {"rep": REP, "xi": [1.0, 0.5j]}, {"xi": (F, (2,))}),
    (annihilator, {"rep": REP, "xi": [1.0, 0.5j]}, {"xi": (F, (2,))}),
    (wick_unitary, {"rep": REP, "coeffs": {((0,), (1,)): 1.0}, "family": np.eye(2)},
     {"family": (F, (2, "k"))}),
    (discrete_measure_state, {"atoms": [0.0, 0.5, 1.0], "weights": [0.25, 0.5, 0.25],
                              "amplitude": [1.0, 1.0, 1.0]},
     {"atoms": (F, ("n",)), "weights": (F, (3,)), "amplitude": (F, (3,))}),
    (three_point_weights, {"targets": [0.0, 0.5, 1.0], "c": 0.5, "v": 0.1},
     {"targets": (F, (3,))}),
)
# public functions that take sizes, scalars, paths, records or a sequence of
# scalars, and no array
NO_ARRAY = {build_calibration, build_mollifier, build_step, fock_rep, instance_rng,
            isometry_function_constant, kms_experiment, load_calibration, load_measure,
            modulus_sweep, pair_instance, save_calibration, select_three_points, sweep_medians,
            sweep_rows_to_csv, three_point_path}

CASES = [pytest.param(func, kwargs, name, kind, id=f"{func.__name__}-{name}-{kind}")
         for func, kwargs, args in TABLE
         for name, (check, _) in args.items() if check != S
         for kind in ("nan", "inf", *(("asymmetric",) if check == H else ()))]
SHAPE_CASES = [pytest.param(func, kwargs, name, shape, id=f"{func.__name__}-{name}")
               for func, kwargs, args in TABLE for name, (_, shape) in args.items()]


@contextlib.contextmanager
def named_error(pattern):
    """pytest.raises for a ValueError or NearcommError matching pattern, under -W error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((ValueError, NearcommError), match=pattern):
            yield


@pytest.mark.parametrize("func, kwargs, name, kind", CASES)
def test_array_argument_is_rejected_by_name(func, kwargs, name, kind):
    bad = np.array(kwargs[name], dtype=np.result_type(np.asarray(kwargs[name]), float))
    if kind == "asymmetric":
        bad.flat[1] += 1e-6
        message = rf"^{name} is not (self-adjoint|an orthogonal projection)"
    else:
        bad.flat[1] = {"nan": np.nan, "inf": np.inf}[kind]
        message = rf"^{name} has non-finite entries \(NaN or inf\)$"
    with named_error(message):
        func(**{**kwargs, name: bad})


def test_table_inputs_are_valid():
    # each row's own arguments pass, so every rejection here is the bad one's
    for func, kwargs, _ in TABLE:
        func(**kwargs)


def fits(shape, expected):
    sizes = {}
    return len(shape) == len(expected) and all(
        want is None or (got >= 1 and sizes.setdefault(want, got) == got
                         if isinstance(want, str) else got == want)
        for want, got in zip(expected, shape))


@st.composite
def wrong_shapes(draw, shape):
    """A wrong ndim, an off-by-one size or an empty axis, from a valid shape."""
    kind = draw(st.sampled_from(("ndim", "size", "empty")))
    axis = draw(st.integers(0, len(shape) - 1))
    if kind == "ndim":
        if draw(st.booleans()):
            return shape[:axis] + shape[axis + 1:]
        return shape[:axis] + (draw(st.integers(1, 3)),) + shape[axis:]
    size = shape[axis] + draw(st.sampled_from((-1, 1))) if kind == "size" else 0
    return shape[:axis] + (size,) + shape[axis + 1:]


@pytest.mark.parametrize("func, kwargs, name, expected", SHAPE_CASES)
@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(data=st.data())
def test_wrong_shape_is_rejected_by_name(func, kwargs, name, expected, data):
    shape = data.draw(wrong_shapes(np.shape(kwargs[name])))
    # a shape that fits is valid here, or wrong for another argument
    assume(not fits(shape, expected))
    with named_error(rf"^{name} has shape {re.escape(str(shape))}, expected \("):
        func(**{**kwargs, name: np.ones(shape)})


V2 = np.ones(2)
E3 = np.eye(3)
WRONG_SHAPES = {
    # these return a value at the parent: residuals of 0.0 and 1.336, a 3x3
    # "basis" marked converged, a 2x2 smoothed matrix
    "boundary_residual-rho": (lambda: boundary_residual(V2, SZ, 1.0, SX, SX, (0.0,)),
                              "rho has shape (2,), expected (2, 2)"),
    "boundary_residual-x": (lambda: boundary_residual(STATE.density, SZ, 1.0, V2, SX, (0.0,)),
                            "x has shape (2,), expected (2, 2)"),
    "kms_verify-y": (lambda: kms_verify(STATE, SX, V2), "y has shape (2,), expected (2, 2)"),
    "kms_verify-x-and-y": (lambda: kms_verify(STATE, V2, V2),
                           "x has shape (2,), expected (2, 2)"),
    "joint_diagonalize-vectors": (lambda: joint_diagonalize(np.ones(3), np.ones(3)),
                                  "a has shape (3,), expected (n, n)"),
    "band_smooth-b": (lambda: band_smooth(np.eye(2), V2), "b has shape (2,), expected (2, 2)"),
    # these raised numpy's own error, or a message that did not start with the name
    "boundary_residual-y": (lambda: boundary_residual(STATE.density, SZ, 1.0, SX, E3, (0.0,)),
                            "y has shape (3, 3), expected (2, 2)"),
    "boundary_residual-t_samples": (lambda: boundary_residual(STATE.density, SZ, 1.0, SX, SX,
                                                              [[0.0]]),
                                    "t_samples has shape (1, 1), expected (k,)"),
    "joint_diagonalize-b": (lambda: joint_diagonalize(SZ, E3),
                            "b has shape (3, 3), expected (2, 2)"),
    "commuting_approximation-a": (lambda: commuting_approximation(np.ones(3), SX),
                                  "a has shape (3,), expected (n, n)"),
    "commuting_approximation-b": (lambda: commuting_approximation(SZ, V2),
                                  "b has shape (2,), expected (2, 2)"),
    "commutator-a": (lambda: commutator(V2, V2), "a has shape (2,), expected (n, n)"),
    "commutator-b": (lambda: commutator(SX, E3), "b has shape (3, 3), expected (2, 2)"),
    "op_norm-x": (lambda: op_norm(np.ones(3)), "x has shape (3,), expected (*, *)"),
    "hermitian_part-m": (lambda: hermitian_part(V2), "m has shape (2,), expected (n, n)"),
    "lipschitz_commutator_check-b": (lambda: lipschitz_commutator_check(SZ, V2),
                                     "b has shape (2,), expected (2, 2)"),
    "partition-b": (lambda: partition(SZ, E3, 0.1), "b has shape (3, 3), expected (2, 2)"),
    "theorem_c_correct-a": (lambda: theorem_c_correct(np.zeros((0, 0)), np.zeros((0, 0)), 0.1),
                            "a has shape (0, 0), expected (n, n)"),
    "gibbs-h": (lambda: gibbs(np.zeros((0, 0)), 1.0), "h has shape (0, 0), expected (n, n)"),
    "perturbed_functional-b": (lambda: perturbed_functional(STATE, E3),
                               "b has shape (3, 3), expected (2, 2)"),
    "value-x": (lambda: STATE.value(V2), "x has shape (2,), expected (2, 2)"),
    "symmetry_action-w": (lambda: symmetry_action(STATE, E3),
                          "w has shape (3, 3), expected (2, 2)"),
    "close_projection_isometry-e1": (lambda: close_projection_isometry(np.ones((2, 3)), E),
                                     "e1 has shape (2, 3), expected (n, n)"),
    "close_projection_isometry-e2": (lambda: close_projection_isometry(E, E3),
                                     "e2 has shape (3, 3), expected (2, 2)"),
    "theorem_b_inequality-h": (lambda: theorem_b_inequality(*[np.zeros((0, 0))] * 5, 1.0),
                               "h has shape (0, 0), expected (n, n)"),
    "theorem_b_inequality-e1": (lambda: theorem_b_inequality(SZ, 0.1 * SZ, 0.2 * SZ, E3, E, 1.0),
                                "e1 has shape (3, 3), expected (2, 2)"),
    "a_star-xi": (lambda: a_star(REP, np.ones(3)), "xi has shape (3,), expected (2,)"),
    "evolve-x": (lambda: FLOW.evolve(0.5, E3), "x has shape (3, 3), expected (4, 4)"),
    "evolve-sparse-x": (lambda: FLOW.evolve(0.5, scipy.sparse.identity(3, format="csr")),
                        "x has shape (3, 3), expected (4, 4)"),
    "quasi_free_generator-x": (lambda: quasi_free_generator(FLOW, E3),
                               "x has shape (3, 3), expected (4, 4)"),
    "wick_unitary-family-rows": (lambda: wick_unitary(REP, {((), ()): 1.0}, E3),
                                 "family has shape (3, 3), expected (2, k)"),
    "wick_unitary-family-1d": (lambda: wick_unitary(REP, {((), ()): 1.0}, V2),
                               "family has shape (2,), expected (2, k)"),
    "discrete_measure_state-atoms": (lambda: discrete_measure_state([[0.0, 1.0]], [1.0], [1.0]),
                                     "atoms has shape (1, 2), expected (n,)"),
    "discrete_measure_state-weights": (lambda: discrete_measure_state([0.0, 1.0], [1.0], V2),
                                       "weights has shape (1,), expected (2,)"),
    "three_point_weights-targets": (lambda: three_point_weights([0.0, 1.0], 0.5, 0.1),
                                    "targets has shape (2,), expected (3,)"),
}
NOT_SHAPES = {
    "two_state_instance-n": (lambda: two_state_instance(0, 1.0, np.random.default_rng(1)),
                             "n must be >= 1, got 0"),
    "kms_experiment-dims": (lambda: kms_experiment(1, 1.0, 7, dims=(0,)),
                            "dims must be nonempty, each >= 1, got (0,)"),
    "wick_unitary-coeffs": (lambda: wick_unitary(REP, {((), ()): np.nan}),
                            "coeffs has non-finite entries (NaN or inf)"),
    "wick_unitary-family": (lambda: wick_unitary(REP, {((), ()): 1.0}, np.diag([np.nan, 1.0])),
                            "family has non-finite entries (NaN or inf)"),
    "pair_instance-n": (lambda: pair_instance(-1, 0.0, np.random.default_rng(1)),
                        "n must be >= 1, got -1"),
    "pair_instance-a_norm": (lambda: pair_instance(4, 1e-3, np.random.default_rng(1),
                                                   a_norm=np.nan),
                             "a_norm must be finite and positive, got nan"),
    "boundary_residual-c": (lambda: boundary_residual(STATE.density, SZ, np.nan, SX, SX, (0.0,)),
                            "c must be finite, got nan"),
    "three_point_weights-c": (lambda: three_point_weights((0.0, 0.5, 1.0), np.nan, 0.1),
                              "c has non-finite entries (NaN or inf)"),
    "three_point_weights-v": (lambda: three_point_weights((0.0, 0.5, 1.0), 0.5, np.nan),
                              "v has non-finite entries (NaN or inf)"),
    "three_point_weights-distinct": (lambda: three_point_weights((0.0, 0.0, 1.0), 0.5, 0.1),
                                     "targets must be distinct, got (0.0, 0.0, 1.0)"),
}


@pytest.mark.parametrize("call, message", [*WRONG_SHAPES.values(), *NOT_SHAPES.values()],
                         ids=[*WRONG_SHAPES, *NOT_SHAPES])
def test_named_error(call, message):
    with named_error(f"^{re.escape(message)}$"):
        call()


def test_every_public_function_has_a_row():
    public = {getattr(nearcomm, name) for name in nearcomm.__all__}
    functions = {f for f in public if callable(f) and not inspect.isclass(f)}
    rows = {func for func, _, _ in TABLE}
    assert functions - rows - NO_ARRAY == set()
    assert NO_ARRAY <= functions
    # no exempt function takes an argument under a name the table checks
    array_names = {name for _, _, args in TABLE for name in args}
    assert not any(array_names & set(inspect.signature(f).parameters) for f in NO_ARRAY)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_sparse_operator_is_checked_through_its_entries(value):
    x = scipy.sparse.csr_matrix(X4)
    x.data[1] = value
    with named_error(r"^x has non-finite entries \(NaN or inf\)$"):
        FLOW.evolve(0.5, x)
