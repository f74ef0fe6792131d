"""One almost-commuting pair walked through the full correction pipeline.

Stages: choose the window scale s, band-smooth b against s a, build a
partition of unity subordinate to unit spectral windows of s a, compress
both matrices to the blocks, solve each block by joint diagonalization in
the unit-norm regime, reassemble.  Every
intermediate bound of the construction is measured on the way and printed
next to its budget.  The final section repeats the run with ||a|| = 40 to
show that only ||b|| <= 1 matters.
"""

import numpy as np

from nearcomm import (band_smooth, commutator, op_norm, partition,
                      theorem_c_correct)
from nearcomm.ensembles import instance_rng, pair_instance

EPS = 0.05

inst = pair_instance(12, 1e-3, instance_rng(20240915, 0, 0, 0))
a, b = inst.a, inst.b
print(f"instance: n=12, ||a|| = {op_norm(a):.3f}, ||b|| = {op_norm(b):.3f}, "
      f"nu = {inst.nu_measured:.3e}")
print(f"ground truth: commuting pair at distance {inst.ground_distance:.3e}")

res = theorem_c_correct(a, b, EPS)
s = res.scale
print(f"\nstage 0  window scale: s = {s:g}, the largest power of two with "
      f"s nu <= min(eps/4, 1/8); the stages below run on s a")
a = s * a

smoothed = band_smooth(a, b)
print(f"stage 1  band-smooth: ||b - b'|| = {op_norm(b - smoothed):.3e}, "
      f"||[s a, b']|| = {op_norm(commutator(a, smoothed)):.3e}")

part = partition(a, smoothed, EPS)
windows = [(blk.k, blk.q @ blk.q.conj().T) for blk in part.blocks]
print(f"stage 2  partition: {len(windows)} nonempty windows, "
      f"sum residual {op_norm(sum(p for _, p in windows) - np.eye(12)):.1e}, "
      f"worst edge commutator {part.edge_comm:.1e} (budget {EPS / 2})")
for k, p in windows:
    print(f"         window {k:+d}: rank {round(np.trace(p).real):2d},  "
          f"||[s a,p]|| = {op_norm(commutator(a, p)):.2e},"
          f"  ||[b',p]|| = {op_norm(commutator(smoothed, p)):.2e}   (budget {EPS})")

print("stage 3  per-block solve and reassembly (block commutators and the a-defect in a's units)")
print(f"         blocks: {res.block_count}, worst block commutator "
      f"{max(res.block_comms):.2e}  (budget {2 * EPS + res.nu + 1e-8:.2e})")
print(f"         compression defects a/b: {res.compress_defect_a:.2e} / "
      f"{res.compress_defect_b:.2e}  (budget {4 * EPS:.2f})")
print(f"         tridiagonal residual: {res.tridiag_residual:.2e}")
print(f"\nresult: dist_a = {res.pair.dist_a:.3e}, dist_b = {res.pair.dist_b:.3e}")
print(f"        output commutator ||[a1, b1]|| = "
      f"{res.pair.commutation_residual():.2e}")
print(f"        out of regime: {res.out_of_regime}")

# same local structure, ||a|| = 40: eigenvalues of a come in pairs with a
# fixed 0.3 gap, b couples only within pairs, so nu is unchanged
pairs = 6
base = np.linspace(0.0, 39.7, pairs)
a_big = np.diag(np.concatenate([base, base + 0.3])).astype(np.complex128)
rng = np.random.default_rng(11)
b_big = np.diag(rng.uniform(-0.5, 0.5, 2 * pairs)).astype(np.complex128)
for i in range(pairs):
    u = 0.04 * np.exp(2j * np.pi * rng.uniform())
    b_big[i, i + pairs] = u
    b_big[i + pairs, i] = np.conj(u)
res_big = theorem_c_correct(a_big, b_big, EPS)
print(f"\n||a|| = {op_norm(a_big):.0f} pair with the same nu = {res_big.nu:.3e}:")
print(f"        {res_big.block_count} blocks, dist_a + dist_b = "
      f"{res_big.pair.dist_a + res_big.pair.dist_b:.3e}")
