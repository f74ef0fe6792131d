"""Fermionic Fock space: CAR relations, quasi-free dynamics, Wick defects.

Creation and annihilation operators are built as sparse Jordan-Wigner
matrices; every identity below is a direct matrix computation.  The last
section is the coefficient-invariance diagnostic: moving every one-particle
vector of a Wick monomial by the same flow leaves the generator norm of the
assembled element unchanged.
"""

import numpy as np
import scipy.linalg

from nearcomm import (a_star, annihilator, commutator, fock_rep,
                      hermitian_part, op_norm, quasi_free_flow,
                      quasi_free_generator, rank_perturbation_norms,
                      second_quantize, wick_unitary)
from nearcomm.car import number_operator

rng = np.random.default_rng(20240915)
n = 4
rep = fock_rep(n)
print(f"{n} modes, Fock dimension {2 ** n}")

# CAR: {a(xi), a*(eta)} = <xi, eta> 1, same-type anticommutators vanish
xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
eta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
lo, hi = annihilator(rep, xi), a_star(rep, eta)
mixed = (lo @ hi + hi @ lo).toarray() - np.vdot(xi, eta) * np.eye(2 ** n)
same = (lo @ annihilator(rep, eta) + annihilator(rep, eta) @ lo).toarray()
print(f"CAR residuals: mixed {op_norm(mixed):.1e}, same-type {op_norm(same):.1e}")

num = number_operator(rep)
levels = sorted({int(round(v)) for v in np.diag(num.toarray()).real})
print(f"number operator spectrum: {levels}")

# quasi-free flow: alpha_t(a*(xi)) = a*(e^{itH} xi)
h_one = hermitian_part(rng.standard_normal((n, n))
                       + 1j * rng.standard_normal((n, n)))
flow = quasi_free_flow(rep, h_one)
x = a_star(rep, xi)
t = 0.8
moved = a_star(rep, scipy.linalg.expm(1j * t * h_one) @ xi).toarray()
print(f"\nquasi-free covariance at t={t}: "
      f"{op_norm(flow.evolve(t, x) - moved):.2e}")
gen = quasi_free_generator(flow, x)
print(f"generator identity: {op_norm(gen - 1j * a_star(rep, h_one @ xi).toarray()):.2e}")

# rank perturbations: the norm of b depends on the signs of the eigenvalues
t_matrix = np.diag([0.7, -0.4, 0.0, 0.0]).astype(np.complex128)
b_norm, tr_abs = rank_perturbation_norms(t_matrix)
print(f"\nrank-2 perturbation with eigenvalues (0.7, -0.4): "
      f"||b|| = {b_norm:.2f}, Tr|T| = {tr_abs:.2f}")
pert = second_quantize(rep, t_matrix)
cov = op_norm(commutator(1j * pert.toarray(), x.toarray())
              - 1j * a_star(rep, t_matrix @ xi).toarray())
print(f"inner-perturbation covariance [ib, a*(xi)] = i a*(T xi): {cov:.2e}")

# Wick elements: a phase rotation on mode 0 is unitary to rounding, while
# dropping the constant term leaves a visible defect
theta = 0.9
coeffs = {((), ()): 1.0, ((0,), (0,)): np.exp(1j * theta) - 1.0}
u, defect = wick_unitary(rep, coeffs)
print(f"\nWick phase rotation: unitarity defect {defect:.1e}")
_, bad = wick_unitary(rep, {((0,), (0,)): np.exp(1j * theta) - 1.0})
print(f"same element without the constant term: defect {bad:.2f}")

# coefficient invariance: assemble the same coefficients over the rotated
# family e^{itH} e_j and watch the generator norm stay constant
coeffs_big = {((), ()): 0.3, ((0,), (1,)): 0.5, ((0, 1), (0, 1)): 0.2j}
norms = []
for t in (0.0, 0.4, 1.1, 2.5):
    family = scipy.linalg.expm(1j * t * h_one)
    x_t, _ = wick_unitary(rep, coeffs_big, family=family)
    norms.append(op_norm(quasi_free_generator(flow, x_t).toarray()))
print(f"\n||delta(x_t)|| along the flow: {[f'{v:.10f}' for v in norms]}")
print(f"spread: {max(norms) - min(norms):.2e}")
