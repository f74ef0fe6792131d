"""Acceptance gate: every shipped guarantee, measured at its stated tolerance.

Each test covers one numbered guarantee from the README acceptance table and
prints a single PASS/FAIL line with the measured margins (run with -rA or -s
to see the lines for passing tests).  The assert mirrors the printed verdict,
so this file is both the report and the gate.
"""

import functools
import json
import math
import pathlib
import re
import subprocess
import sys
import time

import numpy as np
import scipy.linalg

from nearcomm.calibration import DEFAULT_NU_GRID, load_calibration
from nearcomm.car import (a_star, annihilator, fock_rep, quasi_free_flow,
                          quasi_free_generator, second_quantize)
from nearcomm.ensembles import instance_rng, pair_instance
from nearcomm.errors import NearcommError
from nearcomm.hermitian import (ENDPOINT_RTOL, as_array, commutator,
                                hermitian_part, op_norm, spectral_decomp)
from nearcomm.kernels import (BAND_HALF_WIDTH, band_smooth, build_mollifier,
                              lipschitz_commutator_check)
from nearcomm.kms import (gibbs, isometry_function_constant, kms_verify,
                          perturbed_functional, symmetry_action,
                          two_state_instance)
from nearcomm.measurepath import (discrete_measure_state, load_measure,
                                  select_three_points, three_point_path)
from nearcomm.pipeline import modulus_sweep, sweep_medians, theorem_c_correct
from nearcomm.projections import partition
from nearcomm.serialize import matrix_to_json

SEED = 20240915
GAUSSIAN_FIXTURE = pathlib.Path(__file__).resolve().parents[1] / "demos" \
    / "measure_gaussian16.json"


def _report(label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _random_hermitian(n, rng, norm=1.5):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = hermitian_part(g)
    return h * (norm / op_norm(h))


def _haar_unitary(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@functools.lru_cache(maxsize=1)
def _smoothing_ensemble():
    """200 seeded pairs round-robin over n in {8,16,32}, nu in {1e-2..1e-4}."""
    combos = [(i, n, j, nu)
              for i, n in enumerate((8, 16, 32))
              for j, nu in enumerate((1e-2, 1e-3, 1e-4))]
    out = []
    for idx in range(200):
        i, n, j, nu = combos[idx % len(combos)]
        inst = pair_instance(n, nu, instance_rng(SEED, i, j, idx // len(combos)))
        out.append((inst.a, inst.b))
    return out


def test_1_smoothing_bounds():
    # ||b - b1|| <= k1 ||[a,b]|| + 1e-8 and ||[a,b1]|| <= ||[a,b]|| + 1e-8 on
    # all 200 pairs; in the eigenbasis of a the banded representation has
    # exact zeros outside the band, and its assembly is the returned matrix.
    start = time.perf_counter()
    kernel = build_mollifier()
    dist_margin, comm_margin, assembly_err = -math.inf, -math.inf, 0.0
    exact_zero = True
    for a, b in _smoothing_ensemble():
        comm = op_norm(commutator(a, b))
        b1 = band_smooth(a, b)
        dist_margin = max(dist_margin, op_norm(b - b1) - kernel.k1 * comm)
        comm_margin = max(comm_margin, op_norm(commutator(a, b1)) - comm)
        lam, v = np.linalg.eigh(a)
        delta = lam[:, None] - lam[None, :]
        banded = (v.conj().T @ b @ v) * kernel.multiplier(delta)
        exact_zero &= bool(np.all(banded[np.abs(delta) >= BAND_HALF_WIDTH] == 0.0))
        assembly_err = max(assembly_err, op_norm(v @ banded @ v.conj().T - b1))
    runtime = time.perf_counter() - start
    ok = (dist_margin <= 1e-8 and comm_margin <= 1e-8 and exact_zero
          and assembly_err <= 1e-10 and runtime < 30.0)
    _report("1 smoothing-bounds", ok,
            f"200 pairs, distance margin {dist_margin:.2e}, commutator margin "
            f"{comm_margin:.2e}, band zeros exact={exact_zero}, assembly err "
            f"{assembly_err:.2e}, {runtime:.1f}s")


def test_2_lipschitz_bound():
    # ||[b, f(a)]|| <= C ||[a,b]|| + 1e-8 on the same 200 pairs, no misses.
    worst = -math.inf
    passed = 0
    for a, b in _smoothing_ensemble():
        lhs, rhs = lipschitz_commutator_check(a, b)
        worst = max(worst, lhs - rhs)
        passed += lhs <= rhs + 1e-8
    total = len(_smoothing_ensemble())
    _report("2 lipschitz-bound", passed == total,
            f"{passed}/{total} pairs, worst lhs-rhs {worst:.2e}")


def _spectral_projection(am, inside):
    """Projection onto the eigenvectors of am whose eigenvalue x has
    inside(x, tol); tol is the endpoint tolerance, so an eigenvalue within
    it of a closed endpoint counts as inside."""
    dec = spectral_decomp(am)
    lam = dec.eigenvalues
    tol = ENDPOINT_RTOL * max(1.0, float(np.max(np.abs(lam))))
    cols = dec.basis[:, inside(lam, tol)]
    return hermitian_part(cols @ cols.conj().T)


def _block_residuals(part):
    """||sum_k p_k - 1|| and max ||p_i p_j|| = ||q_i^* q_j|| over distinct blocks."""
    qs = [blk.q for blk in part.blocks]
    total = sum(q @ q.conj().T for q in qs)
    ortho = max((op_norm(qi.conj().T @ qj) for i, qi in enumerate(qs) for qj in qs[i + 1:]),
                default=0.0)
    return op_norm(total - np.eye(total.shape[0])), ortho


def _edge_invariants(a, part):
    """Worst chain and sandwich residuals of the edges e_k = sum_{j>=k} p_j.

    The edges are rebuilt as tail sums of the stored blocks, for every cut
    point k from floor(min spec a) - 1 to ceil(max spec a) + 2.
    """
    am = as_array(a)
    lam = np.linalg.eigvalsh(am)
    eye = np.eye(am.shape[0])
    edges = []
    for k in range(math.floor(lam.min()) - 1, math.ceil(lam.max()) + 3):
        e_k = sum((blk.q @ blk.q.conj().T for blk in part.blocks if blk.k >= k),
                  np.zeros_like(am))
        edges.append((k, e_k))
    chain = max(op_norm(e_hi @ (eye - e_lo))
                for (_, e_lo), (_, e_hi) in zip(edges, edges[1:]))
    sandwich = 0.0
    for k, e_k in edges:
        t = float(k)
        e_hi = _spectral_projection(am, lambda x, tol: x >= t + 0.25 - tol)
        e_lo = _spectral_projection(am, lambda x, tol: x <= t - 0.25 + tol)
        sandwich = max(sandwich, op_norm(e_hi @ (eye - e_k)), op_norm(e_k @ e_lo))
    return chain, sandwich


def test_3_partition_invariants():
    # On the calibrated ensemble (every grid eps at its admissible nu, the
    # dims/trials/seed the table was measured with) at least 99% of the
    # partitions satisfy all four invariants at 1e-9; failures must raise
    # with numeric diagnostics, never return a bad partition.
    table = load_calibration()
    dims = tuple(table.meta["dims"])
    trials = int(table.meta["trials"])
    seed = int(table.meta["seed"])
    total = good = 0
    diagnosed = True
    worst = 0.0
    for eps, nu in zip(table.eps_grid, table.nu_admissible):
        i_nu = min(range(len(DEFAULT_NU_GRID)),
                   key=lambda i: abs(DEFAULT_NU_GRID[i] - nu))
        for i_dim, n in enumerate(dims):
            for trial in range(trials):
                inst = pair_instance(n, nu, instance_rng(seed, i_dim, i_nu, trial))
                smoothed = band_smooth(inst.a, inst.b)
                total += 1
                try:
                    part = partition(inst.a, smoothed, eps)
                except NearcommError as exc:
                    diagnosed &= bool(re.search(r"\d", str(exc)))
                    continue
                resid = max(*_block_residuals(part), *_edge_invariants(inst.a, part))
                worst = max(worst, resid)
                good += resid <= 1e-9
    ok = good / total >= 0.99 and diagnosed
    _report("3 partition-invariants", ok,
            f"{good}/{total} partitions clean, worst invariant residual "
            f"{worst:.2e}, failures diagnosed={diagnosed}")


def _norm_family(kappa, rng, n=8, gap=0.3, coupling=0.04):
    """Pair with ||a|| = kappa but scale-free local structure: eigenvalues of
    a come in pairs (x, x+gap) spread over [0, kappa]; b couples only within
    pairs, so ||[a,b]|| = gap*coupling independent of kappa."""
    pairs = n // 2
    base = np.linspace(0.0, kappa - gap, pairs)
    a = np.diag(np.concatenate([base, base + gap])).astype(np.complex128)
    b = np.diag(rng.uniform(-0.5, 0.5, n)).astype(np.complex128)
    for i in range(pairs):
        u = coupling * np.exp(2j * np.pi * rng.uniform())
        b[i, i + pairs] = u
        b[i + pairs, i] = np.conj(u)
    return a, b


def test_4_correction_pipeline():
    # Structural exactness, the compression and per-block budgets, strictly
    # decreasing median distances in nu, and distance stability when only
    # ||a|| grows (same nu).  Budget: under 5 minutes.
    start = time.perf_counter()
    dims, nus = (8, 16), (1e-1, 1e-2, 1e-4)
    eps_for = {1e-1: 0.1, 1e-2: 0.05, 1e-4: 0.05}
    resid_ok = compress_ok = block_ok = True
    worst_resid = worst_compress = worst_block = -math.inf
    for i, n in enumerate(dims):
        for j, nu in enumerate(nus):
            for trial in range(4):
                inst = pair_instance(n, nu, instance_rng(SEED + 2, i, j, trial))
                eps = eps_for[nu]
                res = theorem_c_correct(inst.a, inst.b, eps)
                scale = max(1.0, op_norm(res.pair.a1()))
                resid = res.pair.commutation_residual() - 1e-11 * scale
                compress = max(res.compress_defect_a, res.compress_defect_b) \
                    - (4 * eps + 1e-8)
                block = max(res.block_comms) - (2 * eps + res.nu + 1e-8)
                worst_resid = max(worst_resid, resid)
                worst_compress = max(worst_compress, compress)
                worst_block = max(worst_block, block)
    resid_ok = worst_resid <= 0
    compress_ok = worst_compress < 0
    block_ok = worst_block <= 0

    rows = modulus_sweep(dims, nus, trials=12, seed=SEED)
    med = sweep_medians(rows)
    decreasing = all(med[(n, 1e-1)] > med[(n, 1e-2)] > med[(n, 1e-4)]
                     for n in dims)

    ratios = []
    for trial in range(3):
        dists = []
        for kappa in (1.0, 10.0, 100.0):
            a, b = _norm_family(kappa, np.random.default_rng([SEED, 4, trial]))
            res = theorem_c_correct(a, b, 0.05)
            dists.append(res.pair.dist_a + res.pair.dist_b)
        ratios.append(max(dists) / min(dists))
    norm_ok = max(ratios) <= 3.0
    runtime = time.perf_counter() - start
    ok = (resid_ok and compress_ok and block_ok and decreasing and norm_ok
          and runtime < 300.0)
    _report("4 correction-pipeline", ok,
            f"residual margin {worst_resid:.2e}, compress margin "
            f"{worst_compress:.2e}, block margin {worst_block:.2e}, medians "
            f"decreasing={decreasing}, norm-scale ratio {max(ratios):.2f}, "
            f"{runtime:.1f}s")


def _gns_oracle(h, b, c, xs):
    """Purification-side evaluation of the perturbed functional: vector
    representative of the base state, generator left(h)-right(h), perturbed
    vector expm applied on the doubled space."""
    n = h.shape[0]
    eye = np.eye(n)
    left = lambda m: np.kron(m, eye)
    right = lambda m: np.kron(eye, m.T)
    z_h = float(np.trace(scipy.linalg.expm(-c * h)).real)
    omega = scipy.linalg.expm(-c * h / 2).reshape(-1) / math.sqrt(z_h)
    k_gns = left(h) - right(h)
    omega_b = scipy.linalg.expm(-c * (k_gns + left(b)) / 2) @ omega
    weight = float(np.vdot(omega_b, omega_b).real)
    return weight, [complex(np.vdot(omega_b, left(x) @ omega_b)) for x in xs]


def test_5_kms_states():
    # Gibbs boundary residual, perturbed functional against two independent
    # oracles, and inner symmetries acting trivially, all at 1e-9.
    rng = np.random.default_rng([SEED, 5])
    worst_boundary = 0.0
    for n in range(2, 9):
        for c in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
            state = gibbs(_random_hermitian(n, rng), c)
            for _ in range(20):
                x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                worst_boundary = max(worst_boundary, kms_verify(state, x, y))

    worst_perturbed = 0.0
    for n in (2, 3, 4, 5, 6):
        for c in (-1.3, 0.8):
            h = _random_hermitian(n, rng)
            b = _random_hermitian(n, rng, norm=0.4)
            state = gibbs(h, c)
            pf = perturbed_functional(state, b)
            closed = gibbs(h + b, c)
            z_ratio = math.exp(closed.log_z - state.log_z)
            xs = [_haar_unitary(n, rng) for _ in range(3)]
            weight_gns, vals_gns = _gns_oracle(h, b, c, xs)
            worst_perturbed = max(
                worst_perturbed,
                abs(pf.weight - z_ratio),
                abs(pf.weight - weight_gns),
                op_norm(pf.normalized_density() - closed.density),
                max(abs(pf.value(x) - v) for x, v in zip(xs, vals_gns)))

    worst_symmetry = 0.0
    for n in (2, 3, 4, 5, 6):
        for c in (-2.0, -1.0, 0.5, 1.0, 2.0):
            state = gibbs(_random_hermitian(n, rng), c)
            for _ in range(2):
                worst_symmetry = max(
                    worst_symmetry,
                    symmetry_action(state, _haar_unitary(n, rng)).residual)

    ok = worst_boundary < 1e-9 and worst_perturbed < 1e-9 and worst_symmetry < 1e-9
    _report("5 kms-states", ok,
            f"boundary {worst_boundary:.2e}, perturbed-functional "
            f"{worst_perturbed:.2e}, symmetry {worst_symmetry:.2e}")


def test_6_two_state_inequality():
    # |F(ic) - F(0)| <= |c| C M ||b1-b2|| + 1e-8 and the isometry defect
    # bound, 50 seeds at each c in {+-1, +-2}, zero violations.
    const = isometry_function_constant()
    violations = 0
    worst_main = worst_defect = -math.inf
    for seed in range(50):
        n = 2 + seed % 4
        for i_c, c in enumerate((1.0, -1.0, 2.0, -2.0)):
            rng = np.random.default_rng([SEED, 6, seed, i_c])
            res = two_state_instance(n, c, rng)
            main = res.lhs - (abs(c) * const * res.m_norm * res.norm_b_diff + 1e-8)
            defect = res.delta_v_norm - (const * res.norm_b_diff + 1e-8)
            worst_main = max(worst_main, main)
            worst_defect = max(worst_defect, defect)
            violations += (main > 0) + (defect > 0)
    _report("6 two-state-inequality", violations == 0,
            f"200 instances, {violations} violations, inequality margin "
            f"{worst_main:.2e}, defect margin {worst_defect:.2e}")


def test_7_car_relations():
    # Anticommutation at 1e-12 up to 6 modes, generator identity at 1e-10,
    # finite differences at 1e-6, inner-perturbation covariance at 1e-10.
    rng = np.random.default_rng([SEED, 7])
    worst_car = 0.0
    for n in range(1, 7):
        rep = fock_rep(n)
        eye = np.eye(2 ** n)
        for _ in range(3):
            xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            eta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            lo, hi = annihilator(rep, xi), a_star(rep, eta)
            worst_car = max(
                worst_car,
                op_norm((lo @ hi + hi @ lo).toarray() - np.vdot(xi, eta) * eye),
                op_norm((lo @ annihilator(rep, eta)
                         + annihilator(rep, eta) @ lo).toarray()),
                op_norm((hi @ a_star(rep, xi)
                         + a_star(rep, xi) @ hi).toarray()))

    worst_gen = worst_fd = worst_cov = worst_inner = 0.0
    for n in (2, 3, 4, 5):
        rep = fock_rep(n)
        h = _random_hermitian(n, rng)
        flow = quasi_free_flow(rep, h)
        for _ in range(2):
            xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            x = a_star(rep, xi)
            gen = quasi_free_generator(flow, x)
            worst_gen = max(worst_gen,
                            op_norm(gen - 1j * a_star(rep, h @ xi).toarray()))
            step = 1e-4
            fd = (flow.evolve(step, x) - flow.evolve(-step, x)) / (2 * step)
            worst_fd = max(worst_fd, op_norm(fd - gen))
            t = 0.7
            moved = a_star(rep, scipy.linalg.expm(1j * t * h) @ xi).toarray()
            worst_cov = max(worst_cov, op_norm(flow.evolve(t, x) - moved))
            t_matrix = _random_hermitian(n, rng)
            pert = second_quantize(rep, t_matrix)
            lhs = 1j * (pert @ x - x @ pert)
            worst_inner = max(
                worst_inner,
                op_norm(lhs.toarray() - 1j * a_star(rep, t_matrix @ xi).toarray()))

    ok = (worst_car <= 1e-12 and worst_gen <= 1e-10 and worst_fd <= 1e-6
          and worst_cov <= 1e-10 and worst_inner <= 1e-10)
    _report("7 car-relations", ok,
            f"anticommutators {worst_car:.2e}, generator {worst_gen:.2e}, "
            f"finite-diff {worst_fd:.2e}, covariance {worst_cov:.2e}, "
            f"inner perturbation {worst_inner:.2e}")


def _random_measure(n, rng):
    atoms = np.sort(rng.uniform(0.0, 1.0, n))
    while np.min(np.diff(atoms)) < 1e-3:
        atoms = np.sort(rng.uniform(0.0, 1.0, n))
    weights = rng.uniform(0.2, 1.0, n)
    weights /= weights.sum()
    amp = rng.uniform(0.3, 1.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    amp /= math.sqrt(float(np.sum(weights * np.abs(amp) ** 2)))
    return discrete_measure_state(atoms, weights, amp)


def test_8_measure_path():
    # Gaussian fixture plus 20 random measures: mean/variance drift at most
    # 1e-10 on the whole grid, final support exactly the 3 selected atoms
    # with strictly positive masses, all in under 5 seconds.
    start = time.perf_counter()
    states = [load_measure(str(GAUSSIAN_FIXTURE))]
    rng = np.random.default_rng([SEED, 8])
    states += [_random_measure(5 + k % 8, rng) for k in range(20)]
    worst_drift = 0.0
    support_ok = positive_ok = True
    for st in states:
        path = three_point_path(st)
        m0, v0 = st.mean(), st.variance()
        for stage_state in path.states:
            worst_drift = max(worst_drift, abs(stage_state.mean() - m0),
                              abs(stage_state.variance() - v0))
        final = path.states[-1]
        selected = np.sort(np.asarray(select_three_points(st)))
        support_ok &= bool(np.array_equal(final.support(), selected))
        support_ok &= bool(np.array_equal(np.sort(path.target_atoms), selected))
        final_masses = final.masses()
        positive_ok &= bool(np.count_nonzero(final_masses) == 3
                            and np.min(final_masses[final_masses != 0]) > 0)
    runtime = time.perf_counter() - start
    ok = worst_drift <= 1e-10 and support_ok and positive_ok and runtime < 5.0
    _report("8 measure-path", ok,
            f"21 measures, drift {worst_drift:.2e}, support exact={support_ok}, "
            f"positive={positive_ok}, {runtime:.1f}s")


def _run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "nearcomm.cli", *args],
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_9_cli_determinism(tmp_path):
    # Every command, run twice with identical config/seed, produces
    # byte-identical stdout and output files.
    pair = tmp_path / "pair.json"
    inst = pair_instance(6, 1e-3, instance_rng(SEED, 0, 0, 0))
    pair.write_text(json.dumps({"a": matrix_to_json(inst.a),
                                "b": matrix_to_json(inst.b)}))
    out = tmp_path / "out.dat"
    commands = {
        "correct": ["correct", "--input", str(pair), "--output", str(out),
                    "--eps", "0.05"],
        "sweep": ["sweep", "--output", str(out), "--dims", "6,8",
                  "--nu-targets", "1e-2,1e-3", "--trials", "2"],
        "kms": ["kms", "--output", str(out), "--trials", "5", "--c", "-1.0"],
        "car-path": ["car-path", "--input", str(GAUSSIAN_FIXTURE),
                     "--output", str(out)],
        "calibrate": ["calibrate", "--output", str(out), "--dims", "4",
                      "--trials", "1"],
    }
    mismatches = []
    for name, args in commands.items():
        snaps = []
        for _ in range(2):
            stdout = _run_cli(args)
            snaps.append((stdout, out.read_bytes()))
        if snaps[0] != snaps[1]:
            mismatches.append(name)
    _report("9 cli-determinism", not mismatches,
            f"5 commands x 2 runs, mismatches: {mismatches or 'none'}")
