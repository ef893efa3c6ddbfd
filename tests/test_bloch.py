import math
from functools import reduce
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (GELL_MANN, PAULI, dm_of, kron_all, oracle_basis,
                     oracle_coherence, oracle_cumulant, oracle_pair_c,
                     oracle_ptrace, oracle_vectors, random_density_mat,
                     random_pure_vec, random_unitary)

from mpcorr.bloch import (BlochDecomposition, coherence_vector, decompose,
                          decompose_stack, reconstruct)
from mpcorr.density import DensityMatrix, NotHermitianError, from_pure, partial_trace, pure_states, tensor
from mpcorr.families import (generalized_werner_states, ghz, rashid_states,
                             tripartite_qutrit_e3_states)
from mpcorr.measures import e_c_multipartite, e_d

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

    def test_multiparty_rejected(self, rng):
        with pytest.raises(ValueError, match="single-party"):
            coherence_vector(rand_state((2, 2), rng))


class TestBipartite:
    def test_singlet(self):
        dec = decompose(from_pure(PSI_MINUS, (2, 2)))
        assert np.abs(dec.coherence_vectors[0]).max() < 1e-14
        assert np.abs(dec.coherence_vectors[1]).max() < 1e-14
        assert np.abs(dec.pair(0, 1) + np.eye(3)).max() < 1e-14

    def test_rashid_correlations(self):
        theta = 0.6
        norm = math.sqrt(2 * math.cosh(2 * theta))
        dec = decompose(from_pure([math.exp(-theta) / norm, 0, 0, math.exp(theta) / norm], (2, 2)))
        sech = 1 / math.cosh(2 * theta)
        want = np.diag([sech, -sech, sech ** 2])
        assert np.abs(dec.pair(0, 1) - want).max() < 1e-13

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_matches_oracle(self, dims, rng):
        bases = [oracle_basis(d) for d in dims]
        for _ in range(10):
            rho = rand_state(dims, rng)
            dec = decompose(rho)
            for p in range(2):
                want = oracle_vectors(rho.matrix, dims, bases)[p]
                assert np.abs(dec.coherence_vectors[p] - want).max() < 1e-12
            assert np.abs(dec.pair(0, 1) - oracle_pair_c(rho.matrix, dims, bases)).max() < 1e-12

    def test_pair_accessor_transposes(self, rng):
        dec = decompose(rand_state((2, 3), rng))
        assert np.array_equal(dec.pair(1, 0), dec.pair(0, 1).T)

    @pytest.mark.parametrize("i, j", [(0, 5), (-1, 0), (2, 0), (1, -2)])
    def test_pair_party_out_of_range(self, i, j, rng):
        dec = decompose(rand_state((2, 3), rng))
        with pytest.raises(ValueError, match=rf"parties \({i}, {j}\) must both be in 0\.\.1"):
            dec.pair(i, j)

    def test_pair_of_one_party_rejected(self, rng):
        dec = decompose(rand_state((2, 3), rng))
        with pytest.raises(ValueError, match="two distinct parties"):
            dec.pair(1, 1)

    def test_pair_missing_from_hand_built_decomposition_is_zero(self):
        # reconstruct counts a missing tensor as zero; pair reads it the same way
        z = np.zeros(3)
        dec = BlochDecomposition((2, 2, 3), (z, z, np.zeros(8)), {})
        for i, j, shape in [(0, 1, (3, 3)), (2, 0, (8, 3))]:
            c = dec.pair(i, j)
            assert c.shape == shape and not c.any()
            with pytest.raises(ValueError, match="read-only"):
                c[0, 0] = 1.0

    def test_pair_non_integer_party_rejected(self, rng):
        dec = decompose(rand_state((2, 2), rng))
        with pytest.raises(TypeError, match="integer"):
            dec.pair(0.5, 1)


class TestTripartite:
    def test_product_state_has_no_correlations(self, rng):
        a, b, c = (rand_state((2,), rng) for _ in range(3))
        dec = decompose(tensor(tensor(a, b), c))
        for mat in (t for s, t in dec.correlations.items() if len(s) == 2):
            assert np.abs(mat).max() < 1e-12
        assert np.abs(dec.correlations[(0, 1, 2)]).max() < 1e-12

    def test_ghz_qubits(self):
        vec = np.zeros(8)
        vec[0] = vec[7] = 1 / np.sqrt(2)
        dec = decompose(from_pure(vec, (2, 2, 2)))
        d = dec.correlations[(0, 1, 2)]
        want = np.zeros((3, 3, 3))
        want[0, 0, 0] = 1.0
        want[0, 1, 1] = want[1, 0, 1] = want[1, 1, 0] = -1.0
        assert np.abs(d - want).max() < 1e-13
        for pair in [(0, 1), (0, 2), (1, 2)]:
            assert dec.pair(*pair)[2, 2] == pytest.approx(1.0, abs=1e-13)

    def test_ghz_qutrits_triple_norm(self):
        vec = np.zeros(27)
        vec[0] = vec[13] = vec[26] = 1 / np.sqrt(3)
        dec = decompose(from_pure(vec, (3, 3, 3)))
        total = (dec.correlations[(0, 1, 2)] ** 2).sum()
        assert total == pytest.approx(160 / 27, abs=1e-10)

    def test_matches_oracle(self, rng):
        rho = rand_state((2, 2, 2), rng)
        dec = decompose(rho)
        want = oracle_cumulant(rho.matrix, rho.dims, [PAULI] * 3)
        assert np.abs(dec.correlations[(0, 1, 2)] - want).max() < 1e-12

    def test_unequal_dims_match_oracle(self, rng):
        rho = rand_state((2, 2, 3), rng)
        want = oracle_cumulant(rho.matrix, rho.dims, [PAULI, PAULI, GELL_MANN])
        assert np.abs(decompose(rho).correlations[(0, 1, 2)] - want).max() < 1e-12


class TestQuadripartite:
    def test_product_state_all_zero(self, rng):
        parts = [rand_state((2,), rng) for _ in range(4)]
        rho = parts[0]
        for part in parts[1:]:
            rho = tensor(rho, part)
        dec = decompose(rho)
        for mat in (t for s, t in dec.correlations.items() if len(s) == 2):
            assert np.abs(mat).max() < 1e-12
        for d in (t for s, t in dec.correlations.items() if len(s) == 3):
            assert np.abs(d).max() < 1e-12
        assert np.abs(dec.correlations[(0, 1, 2, 3)]).max() < 1e-12

    def test_ghz_four_qubits(self):
        vec = np.zeros(16)
        vec[0] = vec[15] = 1 / np.sqrt(2)
        dec = decompose(from_pure(vec, (2, 2, 2, 2)))
        e = dec.correlations[(0, 1, 2, 3)]
        assert e[0, 0, 0, 0] == pytest.approx(1.0, abs=1e-13)
        for idx in product(range(3), repeat=4):
            if sum(1 for i in idx if i == 1) % 2 == 1:
                assert abs(e[idx]) < 1e-13

    def test_two_singlets_factorized_structure(self):
        rho = tensor(from_pure(PSI_MINUS, (2, 2)), from_pure(PSI_MINUS, (2, 2)))
        dec = decompose(rho)
        e = dec.correlations[(0, 1, 2, 3)]
        want = np.multiply.outer(dec.pair(0, 1), dec.pair(2, 3))
        assert np.abs(e - want).max() < 1e-12
        oracle = oracle_cumulant(rho.matrix, rho.dims, [PAULI] * 4)
        assert np.abs(e - oracle).max() < 1e-12

    def test_non_qubits_match_oracle(self, rng):
        rho = rand_state((2, 2, 2, 3), rng)
        want = oracle_cumulant(rho.matrix, rho.dims, [PAULI] * 3 + [GELL_MANN])
        assert np.abs(decompose(rho).correlations[(0, 1, 2, 3)] - want).max() < 1e-12


class TestReconstruct:
    def test_zero_tensors_give_maximally_mixed(self):
        dec = BlochDecomposition((2, 2), (np.zeros(3), np.zeros(3)),
                                 {(0, 1): np.zeros((3, 3))})
        rho = reconstruct(dec)
        assert np.abs(rho.matrix - np.eye(4) / 4).max() < 1e-15

    def test_phi_plus_roundtrip(self):
        rho = from_pure(PHI_PLUS, (2, 2))
        again = reconstruct(decompose(rho))
        assert np.abs(again.matrix - rho.matrix).max() < 1e-14

    def test_hand_built_singlet(self):
        dec = BlochDecomposition((2, 2), (np.zeros(3), np.zeros(3)),
                                 {(0, 1): -np.eye(3)})
        assert np.abs(reconstruct(dec).matrix - dm_of(PSI_MINUS)).max() < 1e-15

    # a malformed decomposition is refused when it is built, before reconstruct sees it
    def test_vector_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            BlochDecomposition((2, 2), (np.zeros(4), np.zeros(3)), {(0, 1): np.zeros((3, 3))})

    def test_pair_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            BlochDecomposition((2, 3), (np.zeros(3), np.zeros(8)), {(0, 1): np.zeros((3, 3))})

    @pytest.mark.parametrize("key", [(1, 0), (0, 0), (0, 2)])
    def test_bad_pair_key_rejected(self, key):
        with pytest.raises(ValueError, match="increasing order"):
            BlochDecomposition((2, 2), (np.zeros(3), np.zeros(3)), {key: np.zeros((3, 3))})

    def test_quad_tensor_needs_four_parties(self):
        with pytest.raises(ValueError, match=r"\(0, 1, 2, 3\)"):
            BlochDecomposition((2, 2, 2), (np.zeros(3),) * 3, {(0, 1, 2, 3): np.zeros((3, 3, 3, 3))})


class TestMalformedDecomposition:
    """Construction is the one check of a decomposition: every malformed one
    raises ValueError when it is built, so no measure turns it into a number
    or a numpy error, and the parts it keeps are its own."""

    @pytest.mark.parametrize("dims, vectors, sectors", [
        ((2, 2, 2), 3, {(0, 1, 2): np.ones((2, 2, 2))}),          # D of the wrong shape
        ((2, 2, 2), 3, {(2, 1, 0): np.ones((3, 3, 3))}),          # D under a decreasing key
        ((2, 2, 2), 3, {(0, 1): np.ones((4, 4))}),                # a 4x4 "C" on qubits
        ((2, 2), 2, {(0, 1): np.zeros((3, 3)), (0,): np.zeros(3)}),   # a one-party key
        ((2, 2), 2, {(0, 1.5): np.zeros((3, 3))}),                # a non-integer party
        ((2, 2), 2, {"01": np.zeros((3, 3))}),                    # not a tuple
        ((2, 2, 2, 2), 4, {(0, 1, 2, 3): np.ones((3, 3, 3))}),    # E missing an axis
        ((2, 2), 1, {}),                                          # one vector for two parties
        ((2, 2), 3, {}),                                          # three vectors for two parties
    ], ids=["d-shape", "d-key", "c-4x4", "one-party-key", "float-key", "str-key", "e-axes",
            "few-vectors", "many-vectors"])
    def test_refused_when_built(self, dims, vectors, sectors):
        with pytest.raises(ValueError):
            BlochDecomposition(dims, (np.zeros(3),) * vectors, sectors)

    def test_short_vectors_refused(self):
        # two length-2 "Bloch vectors": once a PHInvariants, now refused
        with pytest.raises(ValueError, match=r"parties \(0,\) has shape \(2,\)"):
            BlochDecomposition((2, 2), (np.ones(2), np.ones(2)), {(0, 1): np.zeros((3, 3))})

    @pytest.mark.parametrize("dims", [(0, 2), (1,), (), (2.0, 2)])
    def test_bad_dims_refused(self, dims):
        with pytest.raises((TypeError, ValueError)):
            BlochDecomposition(dims, (np.zeros(3),) * len(dims), {})

    def test_caller_writes_do_not_reach_it(self, rng):
        vectors = [rng.normal(size=3) for _ in range(3)]
        sectors = {s: rng.normal(size=(3,) * len(s)) for k in (2, 3) for s in combinations(range(3), k)}
        dec = BlochDecomposition((2, 2, 2), tuple(vectors), sectors)
        kept = [v.copy() for v in dec.coherence_vectors], {s: c.copy() for s, c in dec.correlations.items()}
        before = e_c_multipartite(dec), e_d(dec), reconstruct(dec).matrix
        for arr in (*vectors, *sectors.values()):
            arr[...] = np.nan
        sectors[(0, 1)] = np.ones((3, 3))
        assert all(np.array_equal(a, b) for a, b in zip(dec.coherence_vectors, kept[0]))
        assert dec.correlations.keys() == kept[1].keys()
        assert all(np.array_equal(dec.correlations[s], c) for s, c in kept[1].items())
        after = e_c_multipartite(dec), e_d(dec), reconstruct(dec).matrix
        assert before[:2] == after[:2] and np.array_equal(before[2], after[2])

    def test_parts_read_only(self):
        dec = BlochDecomposition((2, 2), ([0.0] * 3, [0.0] * 3), {(0, 1): [[0.0] * 3] * 3})
        for arr in (*dec.coherence_vectors, *dec.correlations.values()):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
        with pytest.raises(TypeError):
            dec.correlations[(0, 1)] = np.zeros((3, 3))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_one_party_decomposition(n, rng):
    rho = rand_state((n,), rng)
    dec = decompose(rho)
    assert dec.dims == (n,) and dict(dec.correlations) == {}
    assert same_bits(dec.coherence_vectors[0], coherence_vector(rho))
    assert np.abs(reconstruct(dec).matrix - rho.matrix).max() < 1e-15


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


def oracle_reconstruct(dec):
    """sum over party subsets S of prod_{p in S}(n_p/2) (corr_S + x_p n_p)
    G_S x 1, divided by prod n_p, by explicit kron products."""
    dims = dec.dims
    bases = [oracle_basis(d) for d in dims]
    total = np.zeros((math.prod(dims),) * 2, dtype=complex)
    for size in range(len(dims) + 1):
        for parties in combinations(range(len(dims)), size):
            coef = reduce(np.multiply.outer, [dec.coherence_vectors[p] for p in parties], np.array(1.0))
            corr = dec.correlations.get(parties)
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


def test_non_hermitian_matrix_refused_at_construction():
    # so no state reaches decompose, measure_set, classify_two_qubit or the PH tests
    mat = np.eye(4, dtype=complex) / 4
    mat[0, 1] = 1e-6
    with pytest.raises(NotHermitianError, match="matrix is not Hermitian") as err:
        DensityMatrix((2, 2), mat)
    assert err.value.residual == 1e-6


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
            assert np.abs(dec.correlations.get(parties) - want).max() < 1e-12


@pytest.mark.parametrize("dims", SHAPES)
def test_decomposition_arrays_read_only(dims, rng):
    dec = decompose(rand_state(dims, rng))
    arrays = list(dec.coherence_vectors) + list(dec.correlations.values())
    assert len(arrays) == 2 ** len(dims) - 1
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1.0


# The shapes the moment map is held to the oracle on, each with the number of
# its seeded random states the oracle checks: the first state is mixed, the
# second pure, the rest mixed, and every state, 25 or more, is round-tripped.
# (3, 3, 3, 3) has one state, since its oracle alone takes about half a second.
ORACLE_SHAPES = {
    (2,): 50, (3,): 50, (4,): 50, (5,): 50,
    (2, 2): 10, (2, 3): 10, (3, 3): 10,
    (2, 2, 2): 2, (2, 2, 3): 2, (3, 3, 3): 2, (2, 3, 4): 2,
    (2, 2, 2, 2): 2, (2, 2, 2, 3): 2, (3, 3, 3, 3): 1,
    (2,) * 5: 2, (2,) * 6: 2,
}
# the oracle checks the pair sectors only here: all 57 take it 0.5 s a state
PAIRS_ONLY = {(2,) * 6}


@pytest.mark.parametrize("dims", ORACLE_SHAPES, ids=str)
def test_moment_map_matches_oracle(dims, rng):
    """Every coherence vector, and every correlation tensor against the
    oracle's decomposition of the marginal on its parties; the sector keys,
    read-only parts and the round trip."""
    n, oracle_states = len(dims), ORACLE_SHAPES[dims]
    bases = [oracle_basis(m) for m in dims]
    sectors = {s for k in range(2, n + 1) for s in combinations(range(n), k)}
    checked = [s for s in sectors if len(s) == 2 or dims not in PAIRS_ONLY]
    for k in range(max(25, oracle_states)):
        rho = DensityMatrix(dims, random_density_mat(math.prod(dims), rng, rank=1 if k == 1 else None))
        dec = decompose(rho)
        assert dec.dims == dims and dec.correlations.keys() == sectors
        for arr in (*dec.coherence_vectors, *dec.correlations.values()):
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1.0
        assert np.abs(reconstruct(dec).matrix - rho.matrix).max() < (1e-15 if n == 1 else 1e-12)
        if n == 1:
            assert same_bits(dec.coherence_vectors[0], coherence_vector(rho))
        if k >= oracle_states:
            continue
        for got, want in zip(dec.coherence_vectors, oracle_vectors(rho.matrix, dims, bases)):
            assert np.abs(got - want).max() < 1e-12
        for s in checked:
            want = oracle_cumulant(oracle_ptrace(rho.matrix, dims, s), tuple(dims[p] for p in s), [bases[p] for p in s])
            assert np.abs(dec.correlations[s] - want).max() < 1e-12


@pytest.mark.parametrize("dims", ORACLE_SHAPES, ids=str)
def test_oracle_kron_is_numpy_kron(dims, rng):
    # the oracle's Kronecker product gives np.kron's bits: on the generator
    # products the oracle forms for these shapes, and on random complex and
    # real factors with signed zeros
    bases = [oracle_basis(m) for m in dims]
    factors = [[basis[rng.integers(len(basis))] for basis in bases] for _ in range(10)]
    for _ in range(5):
        mats = [rng.normal(size=(m, m)) + (1j * rng.normal(size=(m, m)) if rng.integers(2) else 0) for m in dims]
        factors.append([np.where(rng.random(mat.shape) < 0.3, -0.0, mat) for mat in mats])
    for mats in factors:
        want = reduce(np.kron, mats)
        got = kron_all(mats)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_operator_form_identity(dims, rng):
    # Tr[(rho_AB - rho_A x rho_B)^2] = (1/4) Tr(C C^T); the factor 1/4 comes
    # from the Tr(G_i G_j) = 2 delta_ij normalization.
    for _ in range(20):
        rho = rand_state(dims, rng)
        dec = decompose(rho)
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
        sv0 = np.linalg.svd(decompose(rho).pair(0, 1), compute_uv=False)
        sv1 = np.linalg.svd(decompose(rotated).pair(0, 1), compute_uv=False)
        assert np.abs(sv0 - sv1).max() < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_coherence_vector_matches_oracle(n, rng):
    # Tr(rho G_i) term by term
    basis = oracle_basis(n)
    for _ in range(50):
        mat = random_density_mat(n, rng)
        got = coherence_vector(DensityMatrix((n,), mat))
        assert np.abs(got - oracle_coherence(mat, basis)).max() < 1e-12


def test_marginal_consistency(rng):
    rho = rand_state((2, 3), rng)
    dec = decompose(rho)
    for p in range(2):
        direct = coherence_vector(partial_trace(rho, [p]))
        assert np.abs(direct - dec.coherence_vectors[p]).max() < 1e-12


def test_decompose_dispatch(rng):
    assert decompose(rand_state((2, 2), rng)).dims == (2, 2)
    assert (0, 1, 2) in decompose(rand_state((2, 2, 2), rng)).correlations
    assert (0, 1, 2, 3) in decompose(rand_state((2, 2, 2, 2), rng)).correlations
    assert decompose(rand_state((2,), rng)).correlations == {}


REAL_SHAPES = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 3, 3), (2, 2, 2, 2), (2, 3, 4), (2,) * 5]


def real_states(dims, rng):
    """A real (B, d, d) stack: pure states of dense and of sparse real
    amplitudes (exact zeros, as in product and GHZ states), real mixed states
    of rank 2 and d, and the maximally mixed state."""
    d = math.prod(dims)
    amplitudes = rng.normal(size=(4, d))
    amplitudes[2:] *= rng.random((2, d)) < 0.3
    amplitudes[2:, 0] = 1.0
    factors = [rng.normal(size=(d, rank)) for rank in (2, d)]
    mixed = [f @ f.T / np.trace(f @ f.T) for f in factors]
    return np.concatenate([pure_states(amplitudes), mixed, [np.eye(d) / d]])


FAMILY_STACKS = {
    (2, 2): lambda: np.concatenate([rashid_states(np.linspace(-3, 3, 7)),
                                    generalized_werner_states(np.linspace(0, 1, 5), np.linspace(-2, 2, 5))]),
    (3, 3, 3): lambda: tripartite_qutrit_e3_states(np.linspace(-2, 2, 6), np.linspace(2, -2, 6)),
}


def same_bits(a, b) -> bool:
    """Equal bit for bit, reading -0.0 and +0.0 as one value."""
    return a.dtype == b.dtype and a.shape == b.shape and (a + 0.0).tobytes() == (b + 0.0).tobytes()


@pytest.mark.parametrize("dims", REAL_SHAPES, ids=str)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_real_stack_decomposes_as_its_complex_copy(dims, seed):
    """A real stack gives its complex copy's vectors and tensors bit for
    bit.  Only the sign of an exact zero may differ: the complex branch
    pins zeros to +0.0, while the real branch's x *= Re(i^k) may still leave
    -0.0, on the entries of odd k where 0 multiplies a negative residue and
    where -1 multiplies a zero."""
    stacks = [real_states(dims, np.random.default_rng(seed))]
    if dims in FAMILY_STACKS:
        stacks.append(FAMILY_STACKS[dims]())
    if len(set(dims)) == 1 and dims[0] ** len(dims) <= 256:
        stacks.append(ghz(len(dims), dims[0]).matrix.real[None])
    for mats in stacks:
        assert mats.dtype == float
        real, complex_ = decompose_stack(dims, mats), decompose_stack(dims, mats.astype(complex))
        assert real[1].keys() == complex_[1].keys()
        arrays = list(zip(real[0], complex_[0])) + [(real[1][s], complex_[1][s]) for s in real[1]]
        for a, b in arrays:
            assert same_bits(a, b)
            assert not a.flags.writeable and not b.flags.writeable


def test_pure_state_oracle_cross_check(rng):
    # einsum route vs kron-loop route on a 3-qutrit pure state
    rho = from_pure(random_pure_vec(27, rng), (3, 3, 3))
    dec = decompose(rho)
    want = oracle_cumulant(rho.matrix, rho.dims, [GELL_MANN] * 3)
    assert np.abs(dec.correlations[(0, 1, 2)] - want).max() < 1e-12
