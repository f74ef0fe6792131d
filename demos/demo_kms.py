"""Gibbs states, perturbed functionals, and the two-state inequality chain.

Everything here is finite dimensional, so the analytic continuation that
drives KMS theory is an exact matrix computation: e^{izh} for complex z.
The last section runs the subdivision experiment: when two perturbations
are too far apart for the comparison isometry to exist, subdividing the
straight path between them restores the premise on every leg and the
inequality telescopes.
"""

import math

import numpy as np

from nearcomm import (gibbs, hermitian_part, isometry_function_constant,
                      kms_verify, op_norm, perturbed_functional,
                      symmetry_action, theorem_b_inequality)
from nearcomm.kms import two_state_instance

rng = np.random.default_rng(20240915)


def random_hermitian(n, norm):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = hermitian_part(g)
    return h * (norm / op_norm(h))


def bottom_projection(h, k):
    _, vecs = np.linalg.eigh(h)
    cols = vecs[:, :k]
    return cols @ cols.conj().T


# 1. a Gibbs state and its boundary identity F(t + ic) = omega(alpha_t(y) x)
n, c = 4, 1.0
h = random_hermitian(n, 1.2)
state = gibbs(h, c)
worst = max(kms_verify(state,
                       rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
                       rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            for _ in range(5))
print(f"gibbs state: n={n}, c={c}, log Z = {state.log_z:.6f}")
print(f"  KMS boundary residual over 5 random (x, y): {worst:.2e}")

# 2. perturbed functional = closed form through gibbs(h + b, c)
b = random_hermitian(n, 0.3)
pf = perturbed_functional(state, b)
closed = gibbs(h + b, c)
print(f"\nperturbed functional: weight = {pf.weight:.6f}, "
      f"Z(h+b)/Z(h) = {math.exp(closed.log_z - state.log_z):.6f}")
print(f"  normalized density vs gibbs(h+b): "
      f"{op_norm(pf.normalized_density() - closed.rho):.2e}")

# 3. inner symmetries act trivially once the flow cocycle is applied
g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
q, r = np.linalg.qr(g)
w = q * (np.diag(r) / np.abs(np.diag(r)))
print(f"\nsymmetry action of a Haar unitary: trace-norm residual = "
      f"{symmetry_action(state, w).residual:.2e}")

# 4. the two-state inequality on one random instance
res = two_state_instance(4, c, rng)
print(f"\ntwo-state inequality, random instance: lhs = {res.lhs:.3e}, "
      f"rhs = {res.rhs:.3e}, margin = {res.rhs - res.lhs:.3e}")

# 5. subdivision experiment: endpoints whose invariant projections are more
# than 1/2 apart, so no single comparison isometry exists; halve the path
# until every leg satisfies the premise
h_path = np.diag([0.0, 0.25, 1.6, 2.1]).astype(np.complex128)
coupling = np.zeros((4, 4), dtype=np.complex128)
coupling[1, 2] = coupling[2, 1] = 1.0    # mixes the levels across the gap
b_end = 3.0 * coupling


def path_projection(s):
    return bottom_projection(h_path + s * b_end, 2)


segments = 1
while True:
    nodes = np.linspace(0.0, 1.0, segments + 1)
    gaps = [op_norm(path_projection(s1) - path_projection(s2))
            for s1, s2 in zip(nodes[:-1], nodes[1:])]
    if max(gaps) < 0.45:
        break
    segments *= 2

print(f"\nsubdivision: endpoint projection distance = "
      f"{op_norm(path_projection(0.0) - path_projection(1.0)):.3f} (>= 1/2)")
print(f"  uniform subdivision into {segments} legs, worst leg distance "
      f"{max(gaps):.3f}")

base = gibbs(h_path, c)
weights = [perturbed_functional(base, s * b_end).weight for s in nodes]
total_lhs = total_rhs = 0.0
for s1, s2 in zip(nodes[:-1], nodes[1:]):
    leg = theorem_b_inequality(h_path, s1 * b_end, s2 * b_end,
                               path_projection(s1), path_projection(s2), c)
    total_lhs += leg.lhs
    total_rhs += leg.rhs
const = isometry_function_constant()
print(f"  functional norms along the path: M = {max(weights):.4f}, "
      f"m = {min(weights):.4f}")
print(f"  telescoped: sum lhs = {total_lhs:.4e} <= sum rhs = {total_rhs:.4e}")
print(f"  (rhs legs use C = {const:.4f} and the leg's own M)")
