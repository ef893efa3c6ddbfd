import math

import numpy as np
import pytest

from helpers import random_density_mat, random_pure_vec

from mpcorr.bloch import BlochDecomposition, decompose
from mpcorr.density import DensityMatrix, from_pure, tensor
from mpcorr.families import bell, generalized_werner, ghz, rashid, tripartite_qutrit_e3
from mpcorr.measures import (COLUMNS, Context, MeasureSet, MixedStateError, concurrence_pure, e_c_bipartite,
                             e_c_multipartite, e_d, e_e, entanglement_entropy, evaluate,
                             measure_set, require_column)

PSI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)


def rand_state(dims, rng):
    return DensityMatrix(dims, random_density_mat(int(np.prod(dims)), rng))


def without(dec, sector):
    """The decomposition with the tensor of ``sector`` left out."""
    return BlochDecomposition(dec.dims, dec.coherence_vectors,
                              {s: c for s, c in dec.correlations.items() if s != sector})


def binary_entropy(p):
    if p <= 0 or p >= 1:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


class TestECBipartite:
    @pytest.mark.parametrize("which", ["phi+", "phi-", "psi+", "psi-"])
    def test_bell_states_maximal(self, which):
        dec = decompose(bell(which))
        assert e_c_bipartite(dec.pair(0, 1), (2, 2)) == pytest.approx(1.0, abs=1e-12)

    def test_rashid_closed_form(self):
        theta = 0.5
        sech = 1 / math.cosh(2 * theta)
        dec = decompose(rashid(theta))
        got = e_c_bipartite(dec.pair(0, 1), (2, 2))
        assert got == pytest.approx((2 * sech ** 2 + sech ** 4) / 3, abs=1e-12)
        # cross-check against the raw matrix-element sum
        assert got == pytest.approx((dec.pair(0, 1) ** 2).sum() / 3, abs=1e-14)

    def test_cc_zz_only(self):
        # C with a single entry C_zz = -1 (two-term classically correlated
        # mixture at theta = 0) scores 1/3
        c = np.zeros((3, 3))
        c[2, 2] = -1.0
        assert e_c_bipartite(c, (2, 2)) == pytest.approx(1 / 3, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            e_c_bipartite(np.zeros((3, 3)), (2, 3))

    def test_qutrit_normalization(self):
        # maximally entangled two-qutrit state reaches 1
        vec = np.zeros(9)
        vec[0] = vec[4] = vec[8] = 1 / np.sqrt(3)
        dec = decompose(from_pure(vec, (3, 3)))
        assert e_c_bipartite(dec.pair(0, 1), (3, 3)) == pytest.approx(1.0, abs=1e-12)


class TestECMultipartite:
    def test_product_state(self, rng):
        a, b, c = (rand_state((2,), rng) for _ in range(3))
        dec = decompose(tensor(tensor(a, b), c))
        assert e_c_multipartite(dec) == pytest.approx(0.0, abs=1e-12)

    def test_singlet_times_mixed(self):
        rho = tensor(from_pure(PSI_MINUS, (2, 2)), DensityMatrix((2,), np.eye(2) / 2))
        assert e_c_multipartite(decompose(rho)) == pytest.approx(1.0, abs=1e-12)

    def test_ghz_qubits(self):
        # each pair marginal contributes C_zz = 1, i.e. 1/3 per pair
        assert e_c_multipartite(decompose(ghz(3, 2))) == pytest.approx(1.0, abs=1e-12)

    def test_additivity_with_bipartite(self, rng):
        pair = rand_state((2, 2), rng)
        rho = tensor(pair, rand_state((2,), rng))
        got = e_c_multipartite(decompose(rho))
        want = e_c_bipartite(decompose(pair).pair(0, 1), (2, 2))
        assert got == pytest.approx(want, abs=1e-12)

    def test_unequal_dims_rejected(self, rng):
        for dims in [(2, 3), (2, 2, 3)]:
            with pytest.raises(ValueError, match="equal|3 parties|>= 3"):
                e_c_multipartite(decompose(rand_state(dims, rng)))


class TestED:
    def test_product_state(self, rng):
        a, b, c = (rand_state((2,), rng) for _ in range(3))
        assert e_d(decompose(tensor(tensor(a, b), c))) == pytest.approx(0.0, abs=1e-12)

    def test_ghz_qubits(self):
        assert e_d(decompose(ghz(3, 2))) == pytest.approx(1.0, abs=1e-12)

    def test_ghz_qutrits(self):
        assert e_d(decompose(ghz(3, 3))) == pytest.approx(1.0, abs=1e-10)

    def test_wrong_party_count(self, rng):
        with pytest.raises(ValueError, match="three qubits or three qutrits"):
            e_d(decompose(rand_state((2, 2), rng)))


class TestEDOperatorForm:
    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3)])
    def test_cross_check_against_subtracted_reconstruction(self, dims, rng):
        # Subtracting the product-plus-pair reconstruction leaves
        # delta = (1/8) sum_ijk D_ijk G G G, so Tr(delta^2) = sum D^2 / 8 and
        # e_d = K * 8 * Tr(delta^2).
        from mpcorr.bloch import BlochDecomposition, reconstruct
        k = {2: 0.25, 3: 27 / 160}[dims[0]]
        for _ in range(5):
            rho = rand_state(dims, rng)
            dec = decompose(rho)
            without_triple = BlochDecomposition(dec.dims, dec.coherence_vectors,
                                                {s: c for s, c in dec.correlations.items() if len(s) == 2})
            delta = rho.matrix - reconstruct(without_triple).matrix
            want = k * 8.0 * float(np.trace(delta @ delta).real)
            assert e_d(dec) == pytest.approx(want, abs=1e-12)


class TestEE:
    def test_product_state(self, rng):
        rho = rand_state((2,), rng)
        for _ in range(3):
            rho = tensor(rho, rand_state((2,), rng))
        assert e_e(decompose(rho)) == pytest.approx(0.0, abs=1e-12)

    def test_ghz_four_qubits(self):
        # sum E^2 = 9 for the four-qubit GHZ state (brute-force value)
        assert e_e(decompose(ghz(4, 2))) == pytest.approx(9 / 8, abs=1e-12)

    def test_two_singlets(self):
        rho = tensor(from_pure(PSI_MINUS, (2, 2)), from_pure(PSI_MINUS, (2, 2)))
        assert e_e(decompose(rho)) == pytest.approx(9 / 8, abs=1e-12)

    def test_wrong_shape(self, rng):
        with pytest.raises(ValueError, match="four"):
            e_e(decompose(rand_state((2, 2, 2), rng)))

    def test_missing_four_party_tensor_is_zero(self, rng):
        assert e_e(without(decompose(rand_state((2, 2, 2, 2), rng)), (0, 1, 2, 3))).hex() == (0.0).hex()


class TestConcurrence:
    def test_phi_plus(self):
        assert concurrence_pure(bell("phi+")) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.0, 2.0])
    def test_rashid(self, theta):
        assert concurrence_pure(rashid(theta)) == pytest.approx(1 / math.cosh(2 * theta), abs=1e-12)

    def test_product_state(self, rng):
        rho = from_pure(np.kron(random_pure_vec(2, rng), random_pure_vec(2, rng)), (2, 2))
        assert concurrence_pure(rho) == pytest.approx(0.0, abs=1e-7)

    def test_mixed_state_rejected(self):
        with pytest.raises(MixedStateError):
            concurrence_pure(DensityMatrix((2, 2), np.eye(4) / 4))


class TestEntropy:
    def test_singlet_one_bit(self):
        assert entanglement_entropy(bell("psi-")) == pytest.approx(1.0, abs=1e-12)

    def test_product_state(self, rng):
        rho = from_pure(np.kron(random_pure_vec(2, rng), random_pure_vec(3, rng)), (2, 3))
        assert entanglement_entropy(rho) == pytest.approx(0.0, abs=1e-9)

    def test_basis_product_is_positive_zero(self):
        # the one eigenvalue 1 contributes -1 * log2(1) = -0.0
        value = entanglement_entropy(from_pure([1, 0, 0, 0], (2, 2)))
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_rashid_binary_entropy(self):
        theta = 0.5
        want = binary_entropy((1 - math.tanh(2 * theta)) / 2)
        assert entanglement_entropy(rashid(theta)) == pytest.approx(want, abs=1e-12)

    def test_mixed_state_rejected(self):
        with pytest.raises(MixedStateError):
            entanglement_entropy(DensityMatrix((2, 2), np.eye(4) / 4))


@pytest.mark.parametrize("dims,count", [((2, 2), 4000), ((2, 3), 3000), ((3, 3), 3000)])
def test_e_c_range_random_states(dims, count, rng):
    top = 0.0
    for _ in range(count):
        dec = decompose(rand_state(dims, rng))
        val = e_c_bipartite(dec.pair(0, 1), dims)
        assert -1e-12 <= val <= 1.0 + 1e-10
        top = max(top, val)
    assert top > 0.0


def test_rashid_measures_monotone_decreasing():
    thetas = np.arange(0.0, 2.0001, 0.1)
    ec, cc, ss = [], [], []
    for theta in thetas:
        rho = rashid(theta)
        dec = decompose(rho)
        ec.append(e_c_bipartite(dec.pair(0, 1), (2, 2)))
        cc.append(concurrence_pure(rho))
        ss.append(entanglement_entropy(rho))
    for series in (ec, cc, ss):
        assert series[0] == pytest.approx(1.0, abs=1e-12)
        assert all(a > b for a, b in zip(series, series[1:]))


class TestMeasureSet:
    def test_pure_bipartite(self):
        ms = measure_set(rashid(0.0))
        assert ms.e_c == pytest.approx(1.0, abs=1e-12)
        assert ms.concurrence == pytest.approx(1.0, abs=1e-12)
        assert ms.entropy_bits == pytest.approx(1.0, abs=1e-12)
        assert ms.e_d is None and ms.e_e is None

    def test_mixed_bipartite(self):
        ms = measure_set(DensityMatrix((2, 2), np.eye(4) / 4))
        assert ms.e_c == pytest.approx(0.0, abs=1e-14)
        assert ms.concurrence is None and ms.entropy_bits is None

    def test_three_qutrits(self):
        ms = measure_set(ghz(3, 3))
        assert ms.e_d == pytest.approx(1.0, abs=1e-10)
        assert ms.e_c is not None

    def test_four_qubits(self):
        ms = measure_set(ghz(4, 2))
        assert ms.e_e == pytest.approx(9 / 8, abs=1e-12)

    def test_unsupported_shape(self, rng):
        with pytest.raises(ValueError, match="party structure"):
            measure_set(rand_state((2, 2, 3), rng))

    def test_nan_purity_is_not_pure(self):
        # a NaN matrix is no state at all: construction refuses it, so no
        # measure can turn it into a number
        mat = np.eye(4) / 4
        mat[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix((2, 2), mat)

    @pytest.mark.parametrize("dims", [(2,)])
    def test_shapes_without_measures(self, dims):
        d = int(np.prod(dims))
        with pytest.raises(ValueError, match=r"no measures defined for party structure \(" + str(dims[0])):
            measure_set(DensityMatrix(dims, np.eye(d) / d))

    @pytest.mark.parametrize("dims", [(3, 3, 3, 3), (2, 2, 2, 2, 2)])
    def test_shapes_with_only_the_pairwise_sum(self, dims, rng):
        rho = rand_state(dims, rng)
        ms = measure_set(rho)
        assert ms == MeasureSet(e_c=e_c_multipartite(decompose(rho)))

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 3, 3), (4, 4, 4), (2, 2, 2, 2)])
    @pytest.mark.parametrize("rank", ["pure", "mixed"])
    def test_equals_the_scalar_measures(self, dims, rank, rng):
        # bit for bit: the same sums of squares in the same order
        d = int(np.prod(dims))
        rho = DensityMatrix(dims, random_density_mat(d, rng, rank=1 if rank == "pure" else d))
        dec = decompose(rho)
        bipartite, pure = len(dims) == 2, rank == "pure"
        want = {
            "e_c": e_c_bipartite(dec.pair(0, 1), dims) if bipartite else e_c_multipartite(dec),
            "e_d": e_d(dec) if dims in ((2, 2, 2), (3, 3, 3)) else None,
            "e_e": e_e(dec) if dims == (2, 2, 2, 2) else None,
            "concurrence": concurrence_pure(rho) if bipartite and pure else None,
            "entropy_bits": entanglement_entropy(rho) if bipartite and pure else None,
        }
        ms = measure_set(rho)
        assert {key: getattr(ms, key) for key in want} == want


@pytest.mark.parametrize("measure, dims", [(e_d, (2, 2, 2)), (e_d, (3, 3, 3)), (e_c_multipartite, (2, 2, 2)),
                                           (e_c_multipartite, (3, 3, 3)), (e_c_multipartite, (2, 2, 2, 2))])
def test_missing_sector_reads_as_zeros(measure, dims, rng):
    # a sector left out gives, bit for bit, the value of that sector given as zeros
    dec = decompose(rand_state(dims, rng))
    for sector in dec.correlations:
        zeros = {s: np.zeros_like(c) if s == sector else c for s, c in dec.correlations.items()}
        given = measure(BlochDecomposition(dims, dec.coherence_vectors, zeros))
        assert measure(without(dec, sector)).hex() == given.hex(), sector


@pytest.mark.parametrize("dims", [(3, 3, 3), (2, 2, 2, 2)], ids=str)
def test_sector_order_of_a_decomposition_leaves_every_bit(dims, rng):
    # the sectors are summed in one order whatever order the mapping lists them in
    for _ in range(10):
        dec = decompose(rand_state(dims, rng))
        reordered = BlochDecomposition(dims, dec.coherence_vectors, dict(reversed(dec.correlations.items())))
        assert e_c_multipartite(reordered).hex() == e_c_multipartite(dec).hex()


def test_tripartite_qutrit_family_reaches_unit_e_d():
    assert e_d(decompose(tripartite_qutrit_e3(0.0, 0.0))) == pytest.approx(1.0, abs=1e-10)


def test_werner_e_c_direct_value():
    # direct Tr(C C^T) at p = 0.5, theta = 0 is 0.75 (so e_c = 0.25)
    dec = decompose(generalized_werner(0.5, 0.0))
    assert (dec.pair(0, 1) ** 2).sum() == pytest.approx(0.75, abs=1e-12)
    assert e_c_bipartite(dec.pair(0, 1), (2, 2)) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("dims", [(2.9, 2), ("2", "2"), (2.0, 2)])
def test_e_c_bipartite_rejects_non_integer_dims(dims):
    with pytest.raises(TypeError, match="dims must be a list of integers"):
        e_c_bipartite(0.5 * np.eye(3), dims)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_e_c_bipartite_rejects_non_finite_entry(bad):
    c = np.zeros((3, 3))
    c[0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        e_c_bipartite(c, (2, 2))


def test_e_c_bipartite_rejects_other_than_two_parties():
    # used to raise "too many values to unpack"
    with pytest.raises(ValueError, match="needs two parties"):
        e_c_bipartite(np.zeros((3, 3)), (2, 2, 2))


def test_e_c_bipartite_rejects_one_level_party():
    # used to raise ZeroDivisionError in the pair weight 1 / (4 (n^2 - 1))
    with pytest.raises(ValueError, match=">= 2"):
        e_c_bipartite(np.zeros((0, 3)), (1, 2))


def test_unknown_row_name_is_a_value_error():
    # used to raise a bare KeyError; the sweep's --outputs relies on this message
    message = f"unknown output 'nope'; known: {tuple(COLUMNS)}"
    with pytest.raises(ValueError) as info:
        require_column("nope", (2, 2))
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        evaluate(Context((2, 2), np.eye(4)[None] / 4), ["ec", "nope"])
    assert str(info.value) == message
