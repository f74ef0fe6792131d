"""Every public array argument is checked by name: a NaN, an inf or (for a
Hermitian argument) an asymmetry raises a ValueError whose message starts
with the argument's name, before any arithmetic could warn."""

import warnings

import numpy as np
import pytest

import scipy.sparse

from nearcomm import (a_star, annihilator, band_smooth, boundary_residual,
                      close_projection_isometry, commuting_approximation,
                      discrete_measure_state, fock_rep, func_calc, gibbs, joint_diagonalize,
                      kms_verify, partition, perturbed_functional, quasi_free_flow,
                      second_quantize, spectral_decomp, symmetry_action, theorem_b_inequality,
                      theorem_c_correct, window_projection)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
E = np.diag([1.0, 0.0]).astype(complex)
STATE = gibbs(SZ, 1.0)
PAIR = {"a": np.diag([0.0, 1.0]), "b": 0.01 * SX}
FLOW = quasi_free_flow(fock_rep(2), SX)

# (function, valid keyword arguments, checked finite only, checked as Hermitian);
# e1 and e2 are checked as projections, and so self-adjoint, to 1e-10
TABLE = (
    (theorem_c_correct, {**PAIR, "eps": 0.1}, (), ("a", "b")),
    (partition, {**PAIR, "eps": 0.1}, (), ("a", "b")),
    (window_projection, {**PAIR, "t": 0.5, "eps": 0.1}, (), ("a", "b")),
    (joint_diagonalize, PAIR, ("a", "b"), ()),
    (commuting_approximation, PAIR, ("a", "b"), ()),
    (gibbs, {"h": SZ, "c": 1.0}, (), ("h",)),
    (perturbed_functional, {"state": STATE, "b": SX}, (), ("b",)),
    (boundary_residual, {"rho": STATE.density, "h": SZ, "c": 1.0, "x": SX, "y": SX,
                         "t_samples": (0.0,)}, ("rho", "x", "y"), ("h",)),
    (kms_verify, {"state": STATE, "x": SX, "y": SX}, ("x", "y"), ()),
    (theorem_b_inequality, {"h": SZ, "b1": 0.1 * SZ, "b2": 0.2 * SZ, "e1": E, "e2": E,
                            "c": 1.0}, (), ("h", "b1", "b2", "e1", "e2")),
    (close_projection_isometry, {"e1": E, "e2": E}, (), ("e1", "e2")),
    (symmetry_action, {"state": STATE, "w": SZ}, ("w",), ()),
    (quasi_free_flow, {"rep": fock_rep(2), "h_one": SX}, (), ("h_one",)),
    (second_quantize, {"rep": fock_rep(2), "h_one": SX}, (), ("h_one",)),
    (spectral_decomp, {"a": SZ}, (), ("a",)),
    (func_calc, {"a": SZ, "f": np.abs}, (), ("a",)),
    (band_smooth, PAIR, (), ("a",)),        # b waits until the pipeline stops re-checking it
    (a_star, {"rep": fock_rep(2), "xi": [1.0, 0.5j]}, ("xi",), ()),
    (annihilator, {"rep": fock_rep(2), "xi": [1.0, 0.5j]}, ("xi",), ()),
    (FLOW.evolve, {"t": 0.5, "x": np.kron(SX, SZ)}, ("x",), ()),
    (discrete_measure_state, {"atoms": [0.0, 0.5, 1.0], "weights": [0.25, 0.5, 0.25],
                              "amplitude": [1.0, 1.0, 1.0]}, ("atoms", "weights", "amplitude"),
     ()),
)

CASES = [pytest.param(func, kwargs, name, kind, id=f"{func.__name__}-{name}-{kind}")
         for func, kwargs, finite, hermitian in TABLE
         for name in (*finite, *hermitian)
         for kind in ("nan", "inf", *(("asymmetric",) if name in hermitian else ()))]


@pytest.mark.parametrize("func, kwargs, name, kind", CASES)
def test_array_argument_is_rejected_by_name(func, kwargs, name, kind):
    bad = np.array(kwargs[name], dtype=np.result_type(np.asarray(kwargs[name]), float))
    if kind == "asymmetric":
        bad.flat[1] += 1e-6
        message = rf"^{name} is not (self-adjoint|an orthogonal projection)"
    else:
        bad.flat[1] = {"nan": np.nan, "inf": np.inf}[kind]
        message = rf"^{name} has non-finite entries \(NaN or inf\)$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            func(**{**kwargs, name: bad})


def test_table_inputs_are_valid():
    # each row's own arguments pass, so every rejection above is the bad one's
    for func, kwargs, _, _ in TABLE:
        func(**kwargs)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_sparse_operator_is_checked_through_its_entries(value):
    x = scipy.sparse.csr_matrix(np.kron(SX, SZ))
    x.data[1] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^x has non-finite entries \(NaN or inf\)$"):
            FLOW.evolve(0.5, x)
