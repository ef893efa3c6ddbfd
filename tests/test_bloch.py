import math
from functools import reduce
from itertools import combinations, product

import numpy as np
import pytest

from helpers import (GELL_MANN, PAULI, dm_of, kron_all, oracle_basis,
                     oracle_cumulant, oracle_pair_c, oracle_ptrace, oracle_vectors,
                     random_density_mat, random_pure_vec, random_unitary)

from mpcorr.bloch import (BlochDecomposition, _real_within, coherence_vector,
                          decompose, decompose_bipartite,
                          decompose_quadripartite, decompose_tripartite,
                          reconstruct)
from mpcorr.density import DensityMatrix, from_pure, partial_trace, tensor
from mpcorr.su_basis import pauli_basis

PSI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def rand_state(dims, rng):
    return DensityMatrix(dims, random_density_mat(int(np.prod(dims)), rng))


class TestCoherenceVector:
    def test_up_state(self):
        rho = DensityMatrix((2,), np.diag([1.0, 0.0]))
        assert np.abs(coherence_vector(rho) - np.array([0, 0, 1])).max() < 1e-15

    def test_maximally_mixed_qutrit(self):
        rho = DensityMatrix((3,), np.eye(3) / 3)
        assert np.abs(coherence_vector(rho)).max() < 1e-15

    def test_rashid_marginal(self):
        theta = 0.9
        rho = DensityMatrix((2,), np.diag([1 - math.tanh(2 * theta), 1 + math.tanh(2 * theta)]) / 2)
        want = np.array([0, 0, -math.tanh(2 * theta)])
        assert np.abs(coherence_vector(rho) - want).max() < 1e-14

    def test_dimension_mismatch(self):
        rho = DensityMatrix((3,), np.eye(3) / 3)
        with pytest.raises(ValueError, match="dimension"):
            coherence_vector(rho, pauli_basis())

    def test_multiparty_rejected(self, rng):
        with pytest.raises(ValueError, match="single-party"):
            coherence_vector(rand_state((2, 2), rng))


class TestBipartite:
    def test_singlet(self):
        dec = decompose_bipartite(from_pure(PSI_MINUS, (2, 2)))
        assert np.abs(dec.coherence_vectors[0]).max() < 1e-14
        assert np.abs(dec.coherence_vectors[1]).max() < 1e-14
        assert np.abs(dec.pair(0, 1) + np.eye(3)).max() < 1e-14

    def test_rashid_correlations(self):
        theta = 0.6
        norm = math.sqrt(2 * math.cosh(2 * theta))
        dec = decompose_bipartite(from_pure([math.exp(-theta) / norm, 0, 0, math.exp(theta) / norm], (2, 2)))
        sech = 1 / math.cosh(2 * theta)
        want = np.diag([sech, -sech, sech ** 2])
        assert np.abs(dec.pair(0, 1) - want).max() < 1e-13

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_matches_oracle(self, dims, rng):
        bases = [oracle_basis(d) for d in dims]
        for _ in range(10):
            rho = rand_state(dims, rng)
            dec = decompose_bipartite(rho)
            for p in range(2):
                want = oracle_vectors(rho.matrix, dims, bases)[p]
                assert np.abs(dec.coherence_vectors[p] - want).max() < 1e-12
            assert np.abs(dec.pair(0, 1) - oracle_pair_c(rho.matrix, dims, bases)).max() < 1e-12

    def test_party_count_enforced(self, rng):
        with pytest.raises(ValueError, match="2 parties"):
            decompose_bipartite(rand_state((2, 2, 2), rng))

    def test_pair_accessor_transposes(self, rng):
        dec = decompose_bipartite(rand_state((2, 3), rng))
        assert np.array_equal(dec.pair(1, 0), dec.pair(0, 1).T)


class TestTripartite:
    def test_product_state_has_no_correlations(self, rng):
        a, b, c = (rand_state((2,), rng) for _ in range(3))
        dec = decompose_tripartite(tensor(tensor(a, b), c))
        for mat in dec.pair_correlations.values():
            assert np.abs(mat).max() < 1e-12
        assert np.abs(dec.triple(0, 1, 2)).max() < 1e-12

    def test_ghz_qubits(self):
        vec = np.zeros(8)
        vec[0] = vec[7] = 1 / np.sqrt(2)
        dec = decompose_tripartite(from_pure(vec, (2, 2, 2)))
        d = dec.triple(0, 1, 2)
        want = np.zeros((3, 3, 3))
        want[0, 0, 0] = 1.0
        want[0, 1, 1] = want[1, 0, 1] = want[1, 1, 0] = -1.0
        assert np.abs(d - want).max() < 1e-13
        for pair in [(0, 1), (0, 2), (1, 2)]:
            assert dec.pair(*pair)[2, 2] == pytest.approx(1.0, abs=1e-13)

    def test_ghz_qutrits_triple_norm(self):
        vec = np.zeros(27)
        vec[0] = vec[13] = vec[26] = 1 / np.sqrt(3)
        dec = decompose_tripartite(from_pure(vec, (3, 3, 3)))
        total = (dec.triple(0, 1, 2) ** 2).sum()
        assert total == pytest.approx(160 / 27, abs=1e-10)

    def test_matches_oracle(self, rng):
        rho = rand_state((2, 2, 2), rng)
        dec = decompose_tripartite(rho)
        want = oracle_cumulant(rho.matrix, rho.dims, [PAULI] * 3)
        assert np.abs(dec.triple(0, 1, 2) - want).max() < 1e-12

    def test_unequal_dims_match_oracle(self, rng):
        rho = rand_state((2, 2, 3), rng)
        want = oracle_cumulant(rho.matrix, rho.dims, [PAULI, PAULI, GELL_MANN])
        assert np.abs(decompose_tripartite(rho).triple(0, 1, 2) - want).max() < 1e-12

    def test_party_count_enforced(self, rng):
        with pytest.raises(ValueError, match="3 parties"):
            decompose_tripartite(rand_state((2, 2), rng))


class TestQuadripartite:
    def test_product_state_all_zero(self, rng):
        parts = [rand_state((2,), rng) for _ in range(4)]
        rho = parts[0]
        for part in parts[1:]:
            rho = tensor(rho, part)
        dec = decompose_quadripartite(rho)
        for mat in dec.pair_correlations.values():
            assert np.abs(mat).max() < 1e-12
        for d in dec.triple_correlations.values():
            assert np.abs(d).max() < 1e-12
        assert np.abs(dec.quad_correlations).max() < 1e-12

    def test_ghz_four_qubits(self):
        vec = np.zeros(16)
        vec[0] = vec[15] = 1 / np.sqrt(2)
        dec = decompose_quadripartite(from_pure(vec, (2, 2, 2, 2)))
        e = dec.quad_correlations
        assert e[0, 0, 0, 0] == pytest.approx(1.0, abs=1e-13)
        for idx in product(range(3), repeat=4):
            if sum(1 for i in idx if i == 1) % 2 == 1:
                assert abs(e[idx]) < 1e-13

    def test_two_singlets_factorized_structure(self):
        rho = tensor(from_pure(PSI_MINUS, (2, 2)), from_pure(PSI_MINUS, (2, 2)))
        dec = decompose_quadripartite(rho)
        e = dec.quad_correlations
        want = np.multiply.outer(dec.pair(0, 1), dec.pair(2, 3))
        assert np.abs(e - want).max() < 1e-12
        oracle = oracle_cumulant(rho.matrix, rho.dims, [PAULI] * 4)
        assert np.abs(e - oracle).max() < 1e-12

    def test_non_qubits_match_oracle(self, rng):
        rho = rand_state((2, 2, 2, 3), rng)
        want = oracle_cumulant(rho.matrix, rho.dims, [PAULI] * 3 + [GELL_MANN])
        assert np.abs(decompose_quadripartite(rho).quad_correlations - want).max() < 1e-12


class TestReconstruct:
    def test_zero_tensors_give_maximally_mixed(self):
        dec = BlochDecomposition((2, 2), (np.zeros(3), np.zeros(3)),
                                 {(0, 1): np.zeros((3, 3))})
        rho = reconstruct(dec)
        assert np.abs(rho.matrix - np.eye(4) / 4).max() < 1e-15

    def test_phi_plus_roundtrip(self):
        rho = from_pure(PHI_PLUS, (2, 2))
        again = reconstruct(decompose_bipartite(rho))
        assert np.abs(again.matrix - rho.matrix).max() < 1e-14

    def test_hand_built_singlet(self):
        dec = BlochDecomposition((2, 2), (np.zeros(3), np.zeros(3)),
                                 {(0, 1): -np.eye(3)})
        assert np.abs(reconstruct(dec).matrix - dm_of(PSI_MINUS)).max() < 1e-15

    def test_vector_shape_mismatch(self):
        dec = BlochDecomposition((2, 2), (np.zeros(4), np.zeros(3)),
                                 {(0, 1): np.zeros((3, 3))})
        with pytest.raises(ValueError, match="shape"):
            reconstruct(dec)

    def test_pair_shape_mismatch(self):
        dec = BlochDecomposition((2, 3), (np.zeros(3), np.zeros(8)),
                                 {(0, 1): np.zeros((3, 3))})
        with pytest.raises(ValueError, match="shape"):
            reconstruct(dec)

    @pytest.mark.parametrize("key", [(1, 0), (0, 0), (0, 2)])
    def test_bad_pair_key_rejected(self, key):
        dec = BlochDecomposition((2, 2), (np.zeros(3), np.zeros(3)),
                                 {key: np.zeros((3, 3))})
        with pytest.raises(ValueError, match="increasing order"):
            reconstruct(dec)

    def test_quad_tensor_needs_four_parties(self):
        dec = BlochDecomposition((2, 2, 2), (np.zeros(3),) * 3, {(0, 1, 2, 3): np.zeros((3, 3, 3, 3))})
        with pytest.raises(ValueError, match=r"\(0, 1, 2, 3\)"):
            reconstruct(dec)


class TestNonFiniteDecomposition:
    """A hand-built decomposition with a NaN or infinite entry is refused when
    it is built, so reconstruct, the measures and the PH invariants never see
    it."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_coherence_vector(self, bad):
        with pytest.raises(ValueError, match="decomposition has a non-finite"):
            BlochDecomposition((2, 2), (np.zeros(3), np.array([0.0, bad, 0.0])), {(0, 1): np.zeros((3, 3))})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_pair_tensor(self, bad):
        c = np.zeros((3, 3))
        c[1, 2] = bad
        with pytest.raises(ValueError, match="decomposition has a non-finite"):
            BlochDecomposition((2, 2), (np.zeros(3), np.zeros(3)), {(0, 1): c})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_triple_tensor(self, bad):
        d = np.zeros((3, 3, 3))
        d[0, 1, 2] = bad
        sectors = {(0, 1): np.zeros((3, 3)), (0, 1, 2): d}
        with pytest.raises(ValueError, match="decomposition has a non-finite"):
            BlochDecomposition((2, 2, 2), (np.zeros(3),) * 3, sectors)


def _correlation_of(dec, parties):
    if len(parties) == 2:
        return dec.pair_correlations.get(parties)
    if len(parties) == 3:
        return (dec.triple_correlations or {}).get(parties)
    return dec.quad_correlations if len(parties) == 4 else None


def oracle_reconstruct(dec):
    """sum over party subsets S of prod_{p in S}(n_p/2) (corr_S + x_p n_p)
    G_S x 1, divided by prod n_p, by explicit kron products."""
    dims = dec.dims
    bases = [oracle_basis(d) for d in dims]
    total = np.zeros((math.prod(dims),) * 2, dtype=complex)
    for size in range(len(dims) + 1):
        for parties in combinations(range(len(dims)), size):
            coef = reduce(np.multiply.outer, [dec.coherence_vectors[p] for p in parties], np.array(1.0))
            corr = _correlation_of(dec, parties)
            if corr is not None:
                coef = coef + corr
            scale = math.prod(dims[p] / 2 for p in parties)
            for idx in product(*(range(len(bases[p])) for p in parties)):
                ops = [np.eye(d) for d in dims]
                for p, i in zip(parties, idx):
                    ops[p] = bases[p][i]
                total += scale * coef[idx] * kron_all(ops)
    return total / math.prod(dims)


def _hand_built(dims, rng, with_triples=True, with_quad=True):
    def rand(*parties):
        return rng.normal(size=tuple(dims[p] ** 2 - 1 for p in parties))

    n = len(dims)
    arities = [2] + [3] * with_triples + [4] * with_quad
    return BlochDecomposition(dims, tuple(rand(p) for p in range(n)),
                              {s: rand(*s) for k in arities for s in combinations(range(n), k)})


@pytest.mark.parametrize("dims, with_triples, with_quad", [
    ((2, 3), False, False),
    ((2, 2, 2), False, False),
    ((3, 3, 3), False, False),
    ((3, 3, 3), True, False),
    ((2, 2, 2, 2), True, True),
    ((2, 2, 2, 2), False, True),
])
def test_reconstruct_hand_built_matches_oracle(dims, with_triples, with_quad, rng):
    # random tensors of unit scale: not states, so only the linear map is tested
    dec = _hand_built(dims, rng, with_triples, with_quad)
    got = reconstruct(dec).matrix
    assert np.abs(got - oracle_reconstruct(dec)).max() < 1e-12
    assert np.trace(got) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(got - got.conj().T).max() < 1e-12


def test_non_hermitian_input_reports_imaginary_residue():
    mat = np.eye(4, dtype=complex) / 4
    mat[0, 1] = 1e-6
    with pytest.raises(ValueError, match="imaginary residue"):
        decompose(DensityMatrix((2, 2), mat))


SHAPES = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 3, 3), (2, 2, 2, 2), (2, 2, 3), (2, 2, 2, 3), (3, 3, 3, 3)]


@pytest.mark.parametrize("dims", SHAPES)
def test_roundtrip_random_states(dims, rng):
    for _ in range(25):
        rho = rand_state(dims, rng)
        again = reconstruct(decompose(rho))
        assert np.abs(again.matrix - rho.matrix).max() < 1e-12


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3), (2, 2, 2, 2), (2, 3), (2, 2, 3), (2, 2, 2, 3), (3, 3, 3, 3)])
def test_sub_tensors_match_marginal_oracle(dims, rng):
    # the engine slices one moment tensor; the oracle decomposes marginals
    rho = rand_state(dims, rng)
    dec = decompose(rho)
    bases = [oracle_basis(d) for d in dims]
    for p, vec in enumerate(oracle_vectors(rho.matrix, dims, bases)):
        assert np.abs(dec.coherence_vectors[p] - vec).max() < 1e-12
    for size in range(2, len(dims) + 1):
        for parties in combinations(range(len(dims)), size):
            marginal = oracle_ptrace(rho.matrix, dims, parties)
            sub = tuple(dims[p] for p in parties)
            want = oracle_cumulant(marginal, sub, [bases[p] for p in parties])
            assert np.abs(_correlation_of(dec, parties) - want).max() < 1e-12


def test_five_qubits_match_marginal_oracle(rng):
    # beyond four parties, every sector is a key of the one correlations mapping
    dims = (2,) * 5
    rho = rand_state(dims, rng)
    dec = decompose(rho)
    for p, vec in enumerate(oracle_vectors(rho.matrix, dims, [PAULI] * 5)):
        assert np.abs(dec.coherence_vectors[p] - vec).max() < 1e-12
    subsets = [s for size in range(2, 6) for s in combinations(range(5), size)]
    assert sorted(dec.correlations) == sorted(subsets)
    for parties in subsets:
        marginal = oracle_ptrace(rho.matrix, dims, parties)
        want = oracle_cumulant(marginal, (2,) * len(parties), [PAULI] * len(parties))
        assert np.abs(dec.correlations[parties] - want).max() < 1e-12
    assert np.abs(reconstruct(dec).matrix - rho.matrix).max() < 1e-12


@pytest.mark.parametrize("dims", [(2, 3, 4), (2,) * 6])
def test_pair_sectors_of_larger_shapes_match_marginals(dims, rng):
    # the oracle basis stops at n = 3, so (2, 3, 4) is checked against the
    # two-party decompositions of the oracle's marginals
    rho = rand_state(dims, rng)
    dec = decompose(rho)
    assert np.abs(reconstruct(dec).matrix - rho.matrix).max() < 1e-12
    for pair in combinations(range(len(dims)), 2):
        marginal = DensityMatrix(tuple(dims[p] for p in pair), oracle_ptrace(rho.matrix, dims, pair))
        assert np.abs(dec.correlations[pair] - decompose(marginal).pair(0, 1)).max() < 1e-12


@pytest.mark.parametrize("dims", SHAPES)
def test_decomposition_arrays_read_only(dims, rng):
    dec = decompose(rand_state(dims, rng))
    arrays = list(dec.coherence_vectors) + list(dec.pair_correlations.values())
    arrays += list((dec.triple_correlations or {}).values())
    if dec.quad_correlations is not None:
        arrays.append(dec.quad_correlations)
    assert len(arrays) == 2 ** len(dims) - 1
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1.0


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_operator_form_identity(dims, rng):
    # Tr[(rho_AB - rho_A x rho_B)^2] = (1/4) Tr(C C^T); the factor 1/4 comes
    # from the Tr(G_i G_j) = 2 delta_ij normalization.
    for _ in range(20):
        rho = rand_state(dims, rng)
        dec = decompose_bipartite(rho)
        prod_part = tensor(partial_trace(rho, [0]), partial_trace(rho, [1]))
        delta = rho.matrix - prod_part.matrix
        lhs = np.trace(delta @ delta).real
        rhs = 0.25 * (dec.pair(0, 1) ** 2).sum()
        assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3)])
def test_singular_values_invariant_under_local_unitaries(dims, rng):
    for _ in range(10):
        rho = rand_state(dims, rng)
        u = kron_all([random_unitary(d, rng) for d in dims])
        rotated = DensityMatrix(dims, u @ rho.matrix @ u.conj().T)
        sv0 = np.linalg.svd(decompose_bipartite(rho).pair(0, 1), compute_uv=False)
        sv1 = np.linalg.svd(decompose_bipartite(rotated).pair(0, 1), compute_uv=False)
        assert np.abs(sv0 - sv1).max() < 1e-10


def test_marginal_consistency(rng):
    rho = rand_state((2, 3), rng)
    dec = decompose_bipartite(rho)
    for p in range(2):
        direct = coherence_vector(partial_trace(rho, [p]))
        assert np.abs(direct - dec.coherence_vectors[p]).max() < 1e-12


def test_decompose_dispatch(rng):
    assert decompose(rand_state((2, 2), rng)).dims == (2, 2)
    assert decompose(rand_state((2, 2, 2), rng)).triple_correlations is not None
    assert decompose(rand_state((2, 2, 2, 2), rng)).quad_correlations is not None
    with pytest.raises(ValueError, match="at least two parties"):
        decompose(rand_state((2,), rng))


def test_real_within_guards_imaginary_residue():
    clean = _real_within(np.array([1.0 + 1e-15j]), "x")
    assert clean.dtype == float
    with pytest.raises(ValueError, match="imaginary"):
        _real_within(np.array([1.0 + 1e-6j]), "x")


def test_pure_state_oracle_cross_check(rng):
    # einsum route vs kron-loop route on a 3-qutrit pure state
    rho = from_pure(random_pure_vec(27, rng), (3, 3, 3))
    dec = decompose_tripartite(rho)
    want = oracle_cumulant(rho.matrix, rho.dims, [GELL_MANN] * 3)
    assert np.abs(dec.triple(0, 1, 2) - want).max() < 1e-12
