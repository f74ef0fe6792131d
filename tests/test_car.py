"""CAR representation, quasi-free flows, Wick operators."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse

from nearcomm import car
from nearcomm.car import (MAX_MODES, a_star, annihilator, fock_rep,
                          number_operator, quasi_free_flow,
                          quasi_free_generator, second_quantize, wick_unitary)
from nearcomm.hermitian import op_norm

NON_HERMITIAN = np.array([[0.0, 1.0], [0.0, 0.0]])


def random_hermitian(n, rng):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (g + g.conj().T)


def random_vector(n, rng, unit=False):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v) if unit else v


def anticomm(x, y):
    return (x @ y + y @ x).toarray()


def reference_creator(n, k):
    """a*(e_{k+1}) built on its own from the definition: raising at bit
    n-1-k, sign (-1)^(occupied lower modes).  The oracle for the map."""
    dim = 1 << n
    pos = n - 1 - k
    states = np.arange(dim)
    src = states[(states >> pos) & 1 == 0]
    dst = src | (1 << pos)
    parity = np.array([bin(int(s) >> (pos + 1)).count("1") & 1 for s in src])
    signs = np.where(parity == 1, -1.0, 1.0).astype(np.complex128)
    return sparse.csr_matrix((signs, (dst, src)), shape=(dim, dim))


def reference_a_star(n, xi):
    out = sparse.csr_matrix((1 << n, 1 << n), dtype=np.complex128)
    for k, coeff in enumerate(xi):
        if coeff != 0:
            out = out + coeff * reference_creator(n, k)
    return out


def canonical(m):
    m = sparse.csr_matrix(m, copy=True)
    m.sort_indices()
    return m


def assert_same_bits(x, y):
    x, y = canonical(x), canonical(y)
    np.testing.assert_array_equal(x.indptr, y.indptr)
    np.testing.assert_array_equal(x.indices, y.indices)
    assert x.data.dtype == y.data.dtype and x.data.tobytes() == y.data.tobytes()


def off_diagonal(m):
    return m - sparse.diags(m.diagonal())


class TestFockRep:
    def test_single_mode_literal(self):
        rep = fock_rep(1)
        np.testing.assert_array_equal(rep.creators[0].toarray(),
                                      [[0.0, 0.0], [1.0, 0.0]])
        assert rep.dim == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            fock_rep(0)
        with pytest.raises(ValueError):
            fock_rep(MAX_MODES + 1)

    def test_cached(self):
        assert fock_rep(3) is fock_rep(3)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_car_relations(self, n):
        rep = fock_rep(n)
        rng = np.random.default_rng(600 + n)
        eye = rep.identity()
        for _ in range(4):
            xi = random_vector(n, rng)
            eta = random_vector(n, rng)
            pairing = np.vdot(xi, eta)  # (eta | xi), linear in eta
            res = anticomm(annihilator(rep, xi), a_star(rep, eta))
            assert op_norm(res - pairing * eye.toarray()) < 1e-12
            assert op_norm(anticomm(a_star(rep, xi), a_star(rep, eta))) < 1e-12
            assert op_norm(anticomm(annihilator(rep, xi),
                                    annihilator(rep, eta))) < 1e-12

    def test_creators_nilpotent(self):
        rep = fock_rep(3)
        for c in rep.creators:
            assert op_norm((c @ c).toarray()) == 0.0

    def test_a_star_linear_annihilator_antilinear(self):
        rep = fock_rep(3)
        rng = np.random.default_rng(607)
        xi, eta = random_vector(3, rng), random_vector(3, rng)
        z = 0.3 - 1.1j
        lin = a_star(rep, z * xi + eta) - (z * a_star(rep, xi) + a_star(rep, eta))
        assert op_norm(lin.toarray()) < 1e-13
        anti = annihilator(rep, z * xi) - np.conj(z) * annihilator(rep, xi)
        assert op_norm(anti.toarray()) < 1e-13

    def test_vacuum_and_filling(self):
        rep = fock_rep(2)
        vac = np.zeros(4)
        vac[0] = 1.0
        one = rep.creators[0] @ vac
        assert np.linalg.norm(one) == pytest.approx(1.0)
        # filling both modes in opposite orders differs by the CAR sign
        both_01 = rep.creators[1] @ (rep.creators[0] @ vac)
        both_10 = rep.creators[0] @ (rep.creators[1] @ vac)
        np.testing.assert_allclose(both_01, -both_10, atol=1e-15)


class TestJordanWignerMap:
    @pytest.mark.parametrize("n", range(1, MAX_MODES + 1))
    def test_map_matches_per_mode_creators(self, n):
        rep = fock_rep(n)
        ref = [reference_creator(n, k) for k in range(n)]
        assert rep.jw.shape == (rep.dim, n * rep.dim) and rep.modes == n
        assert_same_bits(rep.jw, sparse.hstack(ref, format="csr"))
        for got, want in zip(rep.creators, ref):
            assert_same_bits(got, want)

    @pytest.mark.parametrize("n", [2, 5, 8, 12])
    def test_creation_and_annihilation_exact(self, n):
        rng = np.random.default_rng(800 + n)
        rep = fock_rep(n)
        sparse_xi = random_vector(n, rng)
        sparse_xi[::2] = 0.0
        for xi in (random_vector(n, rng), sparse_xi):
            ref = reference_a_star(n, xi)
            assert (a_star(rep, xi) != ref).nnz == 0
            assert (annihilator(rep, xi) != ref.conj().T.tocsr()).nnz == 0

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_annihilator_is_the_transposed_creator_bit_for_bit(self, n):
        # a(xi) is read off the transposed pattern, not built by conjugating
        # and converting a*(xi): the same entries in the same order
        rng = np.random.default_rng(810 + n)
        sparse_xi = random_vector(n, rng)
        sparse_xi[::2] = 0.0
        rep = fock_rep(n)
        for xi in (random_vector(n, rng), sparse_xi):
            got, want = annihilator(rep, xi), a_star(rep, xi).conj().T.tocsr()
            assert got.data.tobytes() == want.data.tobytes()
            np.testing.assert_array_equal(got.indices, want.indices)
            np.testing.assert_array_equal(got.indptr, want.indptr)

    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_a_star_reads_the_map(self, n):
        # a*(xi) scales each entry of J by its mode's xi_k and folds the
        # column onto its source index: the sum of xi_k a*(e_k) exactly
        rng = np.random.default_rng(810 + n)
        rep = fock_rep(n)
        sparse_xi = random_vector(n, rng)
        sparse_xi[::2] = 0.0
        for xi in (random_vector(n, rng), sparse_xi):
            got = a_star(rep, xi)
            ref = sum(xi[k] * rep.creators[k] for k in range(n))
            assert got.shape == ref.shape and (got != ref).nnz == 0
            np.testing.assert_array_equal(got.toarray(), ref.toarray())

    @pytest.mark.parametrize("n", [2, 5, 8, 12])
    def test_second_quantize_matches_pairwise_entrywise(self, n):
        # off-diagonal entries of dGamma(H) are single +-H_ij, the diagonal
        # sums H_kk over the occupied modes
        rng = np.random.default_rng(820 + n)
        rep = fock_rep(n)
        h = random_hermitian(n, rng)
        creators = [reference_creator(n, k) for k in range(n)]
        ref = sparse.csr_matrix((rep.dim, rep.dim), dtype=np.complex128)
        for i in range(n):
            for j in range(n):
                ref = ref + h[i, j] * (creators[i] @ creators[j].conj().T)
        got = second_quantize(rep, h)
        assert (off_diagonal(got) != off_diagonal(ref)).nnz == 0
        tol = 1e-14 * n * np.max(np.abs(h))
        assert np.max(np.abs(got.diagonal() - ref.diagonal())) <= tol

    @pytest.mark.parametrize("n", [2, 5, 8, 12])
    def test_number_operator_counts_occupation(self, n):
        num = number_operator(fock_rep(n))
        counts = np.array([bin(s).count("1") for s in range(1 << n)])
        np.testing.assert_array_equal(num.diagonal(), counts)
        assert off_diagonal(num).count_nonzero() == 0


class TestSecondQuantization:
    def test_number_operator_spectrum(self):
        rep = fock_rep(3)
        num = number_operator(rep).toarray()
        counts = sorted(np.linalg.eigvalsh(num).real.round(12))
        expected = sorted(bin(k).count("1") for k in range(8))
        np.testing.assert_allclose(counts, expected, atol=1e-12)

    def test_generator_on_creators(self):
        # delta_alpha(a*(xi)) = i a*(H xi)
        rng = np.random.default_rng(703)
        for n in (2, 4):
            rep = fock_rep(n)
            h = random_hermitian(n, rng)
            flow = quasi_free_flow(rep, h)
            for _ in range(3):
                xi = random_vector(n, rng)
                lhs = quasi_free_generator(flow, a_star(rep, xi))
                rhs = 1j * a_star(rep, h @ xi)
                assert op_norm((lhs - rhs).toarray()) < 1e-10

    def test_finite_difference_generator(self):
        rng = np.random.default_rng(709)
        n = 3
        rep = fock_rep(n)
        h = random_hermitian(n, rng)
        flow = quasi_free_flow(rep, h)
        x = a_star(rep, random_vector(n, rng)).toarray()
        step = 1e-4
        fd = (flow.evolve(step, x) - flow.evolve(-step, x)) / (2 * step)
        gen = quasi_free_generator(flow, x)
        assert op_norm(fd - gen) < 1e-6

    def test_matches_pairwise_definition(self):
        # reference: the defining sum dGamma(H) = sum_ij H_ij a*(e_i) a(e_j)
        rng = np.random.default_rng(739)
        for n in (1, 3, 6):
            rep = fock_rep(n)
            h = random_hermitian(n, rng)
            ref = sum(h[i, j] * (rep.creators[i] @ rep.creators[j].conj().T)
                      for i in range(n) for j in range(n))
            assert op_norm((second_quantize(rep, h) - ref).toarray()) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="self-adjoint"):
            second_quantize(fock_rep(2), NON_HERMITIAN)

    def test_flow_rejects_non_hermitian(self):
        # no silent symmetrization into the flow of [[0, .5], [.5, 0]]
        with pytest.raises(ValueError, match="self-adjoint"):
            quasi_free_flow(fock_rep(2), NON_HERMITIAN)

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3), (4,)])
    def test_flow_rejects_wrong_shape(self, shape):
        # checked when the flow is built, though dGamma(H) is built later
        with pytest.raises(ValueError, match=r"^h_one has shape"):
            quasi_free_flow(fock_rep(2), np.zeros(shape))

    def test_covariance_identity(self):
        # alpha_t(a*(xi)) = a*(exp(itH) xi)
        rng = np.random.default_rng(719)
        n = 3
        rep = fock_rep(n)
        h = random_hermitian(n, rng)
        flow = quasi_free_flow(rep, h)
        for t in (-0.7, 0.4, 2.0):
            xi = random_vector(n, rng)
            lhs = flow.evolve(t, a_star(rep, xi))
            rhs = a_star(rep, scipy.linalg.expm(1j * t * h) @ xi).toarray()
            assert op_norm(lhs - rhs) < 1e-10

    def test_flow_preserves_vacuum_sector(self):
        rep = fock_rep(2)
        h = np.array([[1.0, 0.3], [0.3, -0.5]], dtype=complex)
        d = second_quantize(rep, h).toarray()
        vac = np.zeros(4)
        vac[0] = 1.0
        assert np.linalg.norm(d @ vac) < 1e-14


def dense_evolve(flow, t, x):
    """alpha_t(x) from the dense eigh of the whole 2^n generator: the
    reference for the per-sector path."""
    lam, v = np.linalg.eigh(flow.second_quantized.toarray())
    x = x.toarray() if sparse.issparse(x) else x
    phase = np.outer(np.exp(1j * t * lam), np.exp(-1j * t * lam))
    return v @ ((v.conj().T @ x @ v) * phase) @ v.conj().T


def mode_lists(n, m):
    """Ascending occupied modes of each sector-m basis index, in index order."""
    return [[k for k in range(n) if (s >> (n - 1 - k)) & 1]
            for s in range(1 << n) if bin(s).count("1") == m]


class TestSectorBases:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_minors_match_determinants(self, n):
        # entry [I, J] of Lambda^m W is det W[I, J], columns in the stable
        # ascending order of their subset sums of eigenvalues
        h = random_hermitian(n, np.random.default_rng(880 + n))
        eps, w = np.linalg.eigh(h)
        spectra = quasi_free_flow(fock_rep(n), h)._sector_spectra
        assert len(spectra) == n + 1
        np.testing.assert_array_equal(spectra[0].basis, [[1.0]])
        for m in range(1, n + 1):
            lists = mode_lists(n, m)
            sums = np.array([eps[j].sum() for j in lists])
            order = np.argsort(sums, kind="stable")
            oracle = np.array([[np.linalg.det(w[np.ix_(i, lists[q])]) for q in order]
                               for i in lists])
            assert np.max(np.abs(spectra[m].basis - oracle)) < 1e-13
            np.testing.assert_allclose(spectra[m].eigenvalues, sums[order], atol=1e-13)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_unitary_and_reconstructs_sector_blocks(self, n):
        rng = np.random.default_rng(890 + n)
        rep = fock_rep(n)
        degenerate = np.diag(rng.integers(-1, 2, size=n)).astype(complex)
        for h in (random_hermitian(n, rng), degenerate):
            d = second_quantize(rep, h)
            flow = quasi_free_flow(rep, h)
            for idx, dec in zip(car._sectors(n)[1], flow._sector_spectra):
                v = dec.basis
                assert np.all(np.diff(dec.eigenvalues) >= 0)
                assert np.max(np.abs(v.conj().T @ v - np.eye(len(idx)))) < 1e-12
                block = d[idx][:, idx].toarray()
                assert np.max(np.abs(dec.reconstruct() - block)) < 1e-12

    def test_evolve_runs_one_n_by_n_eigh(self, monkeypatch):
        # the flow diagonalizes H alone and never builds dGamma(H)
        rng = np.random.default_rng(897)
        rep = fock_rep(8)
        h, xi = random_hermitian(8, rng), random_vector(8, rng)
        sizes = []
        eigh = np.linalg.eigh

        def counting(m, *args, **kwargs):
            sizes.append(m.shape)
            return eigh(m, *args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("second_quantize was called")

        monkeypatch.setattr(np.linalg, "eigh", counting)
        monkeypatch.setattr(car, "second_quantize", forbidden)
        quasi_free_flow(rep, h).evolve(0.6, a_star(rep, xi))
        assert sizes == [(8, 8)]


class TestSectorEvolve:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_dense_reference(self, n):
        rng = np.random.default_rng(900 + n)
        rep = fock_rep(n)
        degenerate = np.diag(rng.integers(-1, 2, size=n)).astype(complex)
        for h in (random_hermitian(n, rng), degenerate):
            flow = quasi_free_flow(rep, h)
            dense_x = rng.normal(size=(rep.dim, rep.dim)) + 1j * rng.normal(size=(rep.dim, rep.dim))
            for x in (a_star(rep, random_vector(n, rng)), dense_x):
                for t in (-1.3, 0.0, 0.45, 2.0):
                    got = flow.evolve(t, x)
                    assert got.shape == (rep.dim, rep.dim)
                    assert np.max(np.abs(got - dense_evolve(flow, t, x))) < 1e-12

    def test_matches_one_particle_lift_at_10_modes(self):
        rng = np.random.default_rng(911)
        rep = fock_rep(10)
        h = random_hermitian(10, rng)
        flow = quasi_free_flow(rep, h)
        xi = random_vector(10, rng, unit=True)
        lifted = a_star(rep, scipy.linalg.expm(1j * 0.8 * h) @ xi).toarray()
        assert np.linalg.norm(flow.evolve(0.8, a_star(rep, xi)) - lifted) < 1e-10

    @pytest.mark.parametrize("shape", [(16, 16), (4, 4), (8, 16)])
    def test_rejects_wrong_shape(self, shape):
        # sector indexing would take a sub-block of an oversized x
        flow = quasi_free_flow(fock_rep(3), np.eye(3))
        for x in (np.zeros(shape), sparse.csr_matrix(shape, dtype=complex)):
            with pytest.raises(ValueError, match="shape"):
                flow.evolve(0.5, x)
            with pytest.raises(ValueError, match="shape"):
                quasi_free_generator(flow, x)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_time(self, t):
        rep = fock_rep(3)
        flow = quasi_free_flow(rep, np.eye(3))
        with pytest.raises(ValueError, match="finite"):
            flow.evolve(t, a_star(rep, np.ones(3)))


class TestInnerPerturbation:
    def test_covariance_identity(self):
        # [i b, a*(xi)] = i a*(T xi) to 1e-10
        rng = np.random.default_rng(727)
        for n in (2, 4):
            t_mat = random_hermitian(n, rng)
            rep = fock_rep(n)
            b = second_quantize(rep, t_mat)
            for _ in range(3):
                xi = random_vector(n, rng)
                created = a_star(rep, xi)
                lhs = 1j * (b @ created - created @ b)
                rhs = 1j * a_star(rep, t_mat @ xi)
                assert op_norm((lhs - rhs).toarray()) < 1e-10

    def test_zero_rank(self):
        b = second_quantize(fock_rep(2), np.zeros((2, 2)))
        assert op_norm(b.toarray()) == 0.0

    def test_rank_one_literal(self):
        # T = |e1><e1|: b is the mode-1 number operator with norm 1
        t_mat = np.diag([1.0, 0.0]).astype(complex)
        b = second_quantize(fock_rep(2), t_mat)
        assert op_norm(b.toarray()) == pytest.approx(1.0, abs=1e-12)

    def test_norm_formula_matches_operator_norm(self):
        # dGamma(T) has the subset sums of T's eigenvalues as spectrum, so
        # ||b|| = max(sum of positive, -sum of negative) <= Tr|T|
        rng = np.random.default_rng(733)
        for n in (2, 3, 4):
            t_mat = random_hermitian(n, rng)
            lam = np.linalg.eigvalsh(t_mat)
            norm_b = max(np.sum(lam[lam > 0]), -np.sum(lam[lam < 0]))
            b = second_quantize(fock_rep(n), t_mat)
            assert norm_b == pytest.approx(op_norm(b.toarray()), abs=1e-10)
            assert norm_b <= np.sum(np.abs(lam)) + 1e-12

    def test_mixed_signs_below_trace_norm(self):
        # eigenvalues (1, -1): ||b|| = 1, half of Tr|T| = 2
        b = second_quantize(fock_rep(2), np.diag([1.0, -1.0]).astype(complex))
        assert op_norm(b.toarray()) == pytest.approx(1.0, abs=1e-12)


class TestWickUnitary:
    def test_phase_rotation_matches_expm_oracle(self):
        # exp(i theta N_1) = 1 + (e^{i theta} - 1) a*_1 a_1
        rep = fock_rep(2)
        theta = 0.8
        coeffs = {((), ()): 1.0, ((0,), (0,)): np.exp(1j * theta) - 1.0}
        x, defect = wick_unitary(rep, coeffs)
        n1 = (rep.creators[0] @ rep.creators[0].conj().T).toarray()
        oracle = scipy.linalg.expm(1j * theta * n1)
        assert op_norm(x.toarray() - oracle) < 1e-13
        assert defect < 1e-13

    def test_defect_reported_not_raised(self):
        rep = fock_rep(2)
        x, defect = wick_unitary(rep, {((0,), ()): 1.0})  # a*_1 alone
        assert defect == pytest.approx(1.0, abs=1e-12)

    def test_defect_invariant_under_family_rotation(self):
        # a rotated orthonormal family implements a Bogoliubov conjugation,
        # which cannot change ||x*x - 1||
        rng = np.random.default_rng(739)
        rep = fock_rep(3)
        coeffs = {((), ()): 0.5, ((0, 1), (0, 2)): 0.25 + 0.1j,
                  ((2,), (1,)): -0.3}
        _, base_defect = wick_unitary(rep, coeffs)
        for _ in range(3):
            q = np.linalg.qr(rng.normal(size=(3, 3))
                             + 1j * rng.normal(size=(3, 3)))[0]
            _, defect = wick_unitary(rep, coeffs, family=q)
            assert defect == pytest.approx(base_defect, abs=1e-10)

    def test_generator_norm_constant_along_flow_family(self):
        # family exp(itH) e_k turns x into alpha_t(x), so ||delta_alpha(x_t)||
        # must not depend on t
        rng = np.random.default_rng(743)
        n = 3
        rep = fock_rep(n)
        h = random_hermitian(n, rng)
        flow = quasi_free_flow(rep, h)
        coeffs = {((), ()): 0.4, ((0,), (1,)): 0.7 - 0.2j, ((1, 2), (0, 2)): 0.1}
        norms = []
        for t in (0.0, 0.6, 1.7):
            fam = scipy.linalg.expm(1j * t * h)
            x, _ = wick_unitary(rep, coeffs, family=fam)
            norms.append(op_norm(quasi_free_generator(flow, x).toarray()))
        assert max(norms) - min(norms) < 1e-10

    @pytest.mark.parametrize("coeffs, rotated", [
        ({((), ()): 0.5, ((0, 1), (0, 2)): 0.25 + 0.1j, ((2,), (1,)): -0.3}, False),
        ({((0,), ()): 0.5, ((), (2,)): 0.3, ((1, 2), (0,)): 0.2}, False),
        # x*x - 1 couples sectors m and m +- 2; their blocks alone read 0.34
        ({((), ()): 1.0, ((0,), ()): 0.5, ((), (2,)): 0.3, ((1, 2), (0,)): 0.2}, False),
        ({((), ()): 0.9, ((1,), ()): 0.4j, ((0, 3), (2,)): -0.2}, True),
    ])
    def test_defect_matches_dense_norm(self, coeffs, rotated):
        # number-conserving, number-changing, and in a rotated family: the
        # norm over the coupled sector groups is the norm of the whole
        rep = fock_rep(4)
        rng = np.random.default_rng(757)
        fam = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        x, defect = wick_unitary(rep, coeffs, family=fam if rotated else None)
        dense = op_norm((x.conj().T @ x).toarray() - np.eye(rep.dim))
        assert defect > 0.1
        assert defect == pytest.approx(dense, abs=1e-13)

    @pytest.mark.parametrize("coeffs", [
        {((), ()): 1.0, ((2,), (2,)): np.exp(0.8j) - 1.0},
        {((), ()): 0.5, ((0, 1), (0, 2)): 0.25 + 0.1j, ((2,), (1,)): -0.3, ((3,), ()): 0.2j},
        {((0,), ()): 0.5, ((), (2,)): 0.3, ((1, 2, 3), (0,)): -0.2, ((), ()): 0.7},
    ])
    def test_standard_family_matches_identity_product_chain(self, coeffs):
        # reference: each term as coeff * identity times its factors, summed
        # into a zero matrix term by term
        rep = fock_rep(4)
        x, defect = wick_unitary(rep, coeffs)
        ref = sparse.csr_matrix((rep.dim, rep.dim), dtype=np.complex128)
        for (mu, nu), coeff in coeffs.items():
            term = coeff * rep.identity()
            for i in mu:
                term = term @ rep.creators[i]
            for j in nu:
                term = term @ rep.creators[j].conj().T
            ref = ref + term
        assert x.toarray().tobytes() == ref.toarray().tobytes()
        dense = op_norm((ref.conj().T @ ref).toarray() - np.eye(rep.dim))
        assert defect == pytest.approx(dense, abs=1e-13)

    def test_partial_family_defect_matches_dense_norm(self):
        # k = 3 orthonormal vectors in 5 modes: indices run over the family
        rep = fock_rep(5)
        rng = np.random.default_rng(761)
        fam = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))[0][:, :3]
        coeffs = {((), ()): 0.8, ((0,), (2,)): 0.3j, ((1, 2), ()): -0.25, ((), (1,)): 0.1}
        x, defect = wick_unitary(rep, coeffs, family=fam)
        dense = op_norm((x.conj().T @ x).toarray() - np.eye(rep.dim))
        assert defect > 0.1
        assert defect == pytest.approx(dense, abs=1e-13)
        with pytest.raises(ValueError, match="out of range"):
            wick_unitary(rep, {((3,), ()): 1.0}, family=fam)

    @pytest.mark.parametrize("coeffs", [
        {((), ()): 1.0},
        {((), ()): 1.0, ((1,), (1,)): -2.0},                  # 1 - 2 N_2, a reflection
        # -(1 - 2 N_1)(1 - 2 N_3), with N_1 N_3 = -a*_1 a*_3 a_1 a_3
        {((), ()): -1.0, ((0,), (0,)): 2.0, ((2,), (2,)): 2.0, ((0, 2), (0, 2)): 4.0},
    ])
    def test_exact_unitary_reports_zero(self, coeffs):
        # x*x - 1 is exactly zero: no sector group holds an entry
        rep = fock_rep(3)
        x, defect = wick_unitary(rep, coeffs)
        assert (x.conj().T @ x - rep.identity()).count_nonzero() == 0
        assert defect == 0.0

    def test_rejects_bad_indices(self):
        rep = fock_rep(2)
        with pytest.raises(ValueError, match="strictly increasing"):
            wick_unitary(rep, {((1, 0), ()): 1.0})
        with pytest.raises(ValueError, match="out of range"):
            wick_unitary(rep, {((5,), ()): 1.0})

    def test_rejects_non_orthonormal_family(self):
        rep = fock_rep(2)
        fam = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="orthonormal"):
            wick_unitary(rep, {((), ()): 1.0}, family=fam)
