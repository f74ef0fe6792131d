"""Band-limited smoothing and the two kernel constants.

Smoothing b against the spectrum of a kills every matrix element between
eigenvalues of a that are at least 1/2 apart, at a distance cost of
k1 * ||[a, b]||.  The companion step kernel transfers commutators through
functional calculus with factor c_const.  Both constants are measured from
the kernels at build time and reported here; nothing else in the package
hard-codes them.
"""

import numpy as np

from nearcomm import (band_smooth, build_mollifier, build_step, commutator,
                      lipschitz_commutator_check, op_norm)

mol = build_mollifier()
step = build_step()

print("kernel constants")
print(f"  k1      = {mol.k1:.12f}   (||b - b1|| <= k1 ||[a,b]||)")
print(f"  c_const = {step.c_const:.12f}   (||[b, f(a)]|| <= c_const ||[a,b]||)")

# one concrete pair: a with spectrum spread over ~4 units, b a contraction
rng = np.random.default_rng(7)
n = 10
a = np.diag(np.sort(rng.uniform(0.0, 4.0, n))).astype(np.complex128)
g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
b = (g + g.conj().T) / 2
b /= op_norm(b)

nu = op_norm(commutator(a, b))
b1 = band_smooth(a, b)
print("\nsmoothing a random 10x10 pair")
print(f"  input commutator nu      = {nu:.6f}")
print(f"  ||b - b1||               = {op_norm(b - b1):.6f}"
      f"   (bound {mol.k1 * nu:.6f})")
print(f"  ||[a, b1]||              = {op_norm(commutator(a, b1)):.6f}"
      f"   (bound {nu:.6f})")

# banding is exact: in the eigenbasis of a, entries between eigenvalues at
# distance >= 1/2 are identically zero
lam = np.diag(a).real
delta = np.abs(lam[:, None] - lam[None, :])
far = delta >= 0.5
print(f"  entries with eigengap >= 1/2: {int(far.sum())} of {n * n}, "
      f"max |b1_ij| there = {np.max(np.abs(b1[far])):.1e}")

lhs, rhs = lipschitz_commutator_check(a, b)
print("\nstep-function functional calculus")
print(f"  ||[b, f(a)]|| = {lhs:.6f}  <=  c_const ||[a,b]|| = {rhs:.6f}")
