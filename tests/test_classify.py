import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (kron_all, random_bloch, random_density_mat,
                     random_pure_vec, random_unitary)

from mpcorr import measures
from mpcorr.bloch import BlochDecomposition, decompose
from mpcorr.classify import (Category, DegenerateBlochVectorsError,
                             PHInvariants, classify_two_qubit,
                             correlation_spectrum, ph_condition_explicit,
                             ph_invariants, ph_test, ph_test_signflip)
from mpcorr.density import PURITY_TOL, DensityMatrix, NotHermitianError, from_pure, mix, tensor
from mpcorr.families import bell, cc_mixture, generalized_werner
from mpcorr.measures import PT_NEGATIVITY_TOL, Context, evaluate

PSI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)


def rand_state(dims, rng):
    return DensityMatrix(dims, random_density_mat(int(np.prod(dims)), rng))


def random_cc_qubit(k, rng):
    weights = rng.dirichlet(np.ones(k))
    return cc_mixture([(w, random_bloch(rng), random_bloch(rng)) for w in weights])


def random_cc_qutrit(k, rng):
    weights = rng.dirichlet(np.ones(k))
    parts = [tensor(DensityMatrix((3,), random_density_mat(3, rng)),
                    DensityMatrix((3,), random_density_mat(3, rng))) for _ in range(k)]
    return mix(weights, parts)


class TestCorrelationSpectrum:
    def test_zero_matrix(self):
        spec = correlation_spectrum(np.zeros((3, 3)))
        assert spec.nsv_count == 0

    def test_singlet(self):
        spec = correlation_spectrum(decompose(bell("psi-")).pair(0, 1))
        assert np.abs(spec.singular_values - 1.0).max() < 1e-12
        assert spec.nsv_count == 3

    def test_two_term_cc_mixture(self, rng):
        spec = correlation_spectrum(decompose(random_cc_qubit(2, rng)).pair(0, 1))
        assert spec.nsv_count == 1

    def test_threshold_is_relative(self):
        c = np.diag([1e-6, 1e-18, 0.0])
        spec = correlation_spectrum(c)
        assert spec.nsv_count == 1
        assert spec.threshold_used == pytest.approx(max(1e-12, 1e-9 * 1e-6))

    def test_rectangular_has_one_singular_value_per_row(self):
        spec = correlation_spectrum(np.ones((3, 8)))
        assert spec.singular_values.shape == (3,)

    @pytest.mark.parametrize("shape", [(3, 3), (3, 8), (8, 3), (15, 15)], ids=str)
    def test_rank_one_on_every_pair_shape(self, shape):
        assert correlation_spectrum(np.ones(shape)).nsv_count == 1

    @pytest.mark.parametrize("shape", [(4, 4), (3, 4), (3,), (3, 3, 3)], ids=str)
    def test_shape_of_no_party_pair_rejected(self, shape):
        # C of an n x m pair is (n^2 - 1) x (m^2 - 1)
        with pytest.raises(ValueError, match="decomposition part|correlation key"):
            correlation_spectrum(np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        c = np.eye(3)
        c[2, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            correlation_spectrum(c)


class TestPHTest:
    def test_singlet(self):
        verdict = ph_test(from_pure(PSI_MINUS, (2, 2)))
        assert verdict.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)
        assert verdict.entangled and verdict.conclusive

    def test_werner_boundary(self):
        verdict = ph_test(generalized_werner(1 / 3, 0.0))
        assert verdict.min_eigenvalue == pytest.approx(0.0, abs=1e-12)
        assert not verdict.entangled

    def test_product_state(self, rng):
        rho = tensor(rand_state((2,), rng), rand_state((2,), rng))
        assert ph_test(rho).min_eigenvalue > -1e-12

    def test_two_qutrit_ppt_is_inconclusive(self, rng):
        rho = tensor(rand_state((3,), rng), rand_state((3,), rng))
        verdict = ph_test(rho)
        assert not verdict.entangled
        assert not verdict.conclusive

    def test_qubit_qutrit_is_conclusive(self, rng):
        rho = tensor(rand_state((2,), rng), rand_state((3,), rng))
        assert ph_test(rho).conclusive

    def test_non_hermitian_matrix_rejected(self):
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 1] = 0.1
        with pytest.raises(NotHermitianError, match="not Hermitian"):
            ph_test(DensityMatrix((2, 2), mat))

    def test_party_count_enforced(self, rng):
        with pytest.raises(ValueError, match="bipartite"):
            ph_test(rand_state((2, 2, 2), rng))


class TestPHSignFlip:
    def test_singlet_agrees(self):
        rho = from_pure(PSI_MINUS, (2, 2))
        a, b = ph_test(rho), ph_test_signflip(rho)
        assert a.entangled and b.entangled
        assert a.min_eigenvalue == pytest.approx(b.min_eigenvalue, abs=1e-12)

    def test_maximally_mixed(self):
        assert not ph_test_signflip(DensityMatrix((2, 2), np.eye(4) / 4)).entangled

    def test_werner_grid_agreement(self):
        for p in np.linspace(0, 1, 11):
            for theta in np.linspace(-1.5, 1.5, 7):
                rho = generalized_werner(p, theta)
                assert ph_test(rho).entangled == ph_test_signflip(rho).entangled

    def test_random_states_agree(self, rng):
        for _ in range(200):
            rho = rand_state((2, 2), rng)
            a, b = ph_test(rho), ph_test_signflip(rho)
            assert a.entangled == b.entangled
            assert a.min_eigenvalue == pytest.approx(b.min_eigenvalue, abs=1e-10)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (3, 4)], ids=str)
    def test_agrees_with_spectral_test_on_bipartite_shapes(self, dims, rng):
        for _ in range(50):
            rho = rand_state(dims, rng)
            a, b = ph_test(rho), ph_test_signflip(rho)
            assert (a.entangled, a.conclusive) == (b.entangled, b.conclusive)
            assert a.min_eigenvalue == pytest.approx(b.min_eigenvalue, abs=1e-12)

    def test_non_bipartite_rejected(self, rng):
        with pytest.raises(ValueError, match="bipartite"):
            ph_test_signflip(rand_state((2, 2, 2), rng))


class TestPHInvariants:
    def test_werner_closed_forms(self):
        p, theta = 0.6, 0.45
        inv = ph_invariants(decompose(generalized_werner(p, theta)))
        sech = 1 / math.cosh(2 * theta)
        assert inv.xi == pytest.approx(-2 * p * sech, abs=1e-12)
        assert inv.na_dot_nb == pytest.approx(-(p * math.tanh(2 * theta)) ** 2, abs=1e-12)

    def test_degenerate_at_theta_zero(self):
        dec = decompose(generalized_werner(0.5, 0.0))
        with pytest.raises(DegenerateBlochVectorsError):
            ph_invariants(dec)

    def test_paper_identity(self):
        p, theta = 0.5, 0.3
        inv = ph_invariants(decompose(generalized_werner(p, theta)))
        lhs = -inv.xi + math.sqrt(inv.xi ** 2 / 4 - inv.na_dot_nb)
        rhs = p * (1 + 2 / math.cosh(2 * theta))
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_invariance_under_simultaneous_local_rotations(self, rng):
        # n_A.C.n_B, which has no row, is preserved by the *same* rotation on
        # both parties (U x U), which rotates n_A, n_B and C simultaneously;
        # the rows xi and nanb are held to that law by test_every_row_keeps_its_law
        rho = rand_state((2, 2), rng)
        base = decompose(rho)
        try:
            inv0 = ph_invariants(base)
        except DegenerateBlochVectorsError:
            pytest.skip("degenerate draw")
        for _ in range(10):
            single = random_unitary(2, rng)
            u = kron_all([single, single])
            rotated = DensityMatrix((2, 2), u @ rho.matrix @ u.conj().T)
            inv1 = ph_invariants(decompose(rotated))
            assert inv1.na_dot_c_nb == pytest.approx(inv0.na_dot_c_nb, abs=1e-10)

    def test_non_two_qubit_rejected(self, rng):
        with pytest.raises(ValueError, match="two-qubit state"):
            ph_invariants(decompose(rand_state((3, 3), rng)))

    def test_hand_built_decomposition_without_c(self):
        # a missing C counts as zero, as in reconstruct: xi = Tr C - 0 = 0
        v = np.full(3, 0.1)
        inv = ph_invariants(BlochDecomposition((2, 2), (v, v), {}))
        assert (inv.xi, inv.na_dot_c_nb) == (0.0, 0.0)
        assert inv.na_dot_nb == pytest.approx(0.03, abs=1e-15)


class TestPHExplicit:
    def test_strongly_entangled_werner(self):
        inv = ph_invariants(decompose(generalized_werner(0.9, 0.2)))
        assert ph_condition_explicit(inv)

    def test_separable_value_from_invariants(self):
        # p = 0.2, theta = 0: xi = -0.4, n_A.n_B = 0, condition value 0.6 < 1
        inv = PHInvariants(xi=-0.4, na_dot_nb=0.0, na_dot_c_nb=0.0)
        assert not ph_condition_explicit(inv)

    def test_agrees_with_spectral_test_on_werner_grid(self):
        for p in np.linspace(0.05, 1.0, 20):
            for theta in list(np.linspace(-2, 2, 17)):
                if abs(math.tanh(2 * theta)) < 1e-6:
                    continue
                rho = generalized_werner(p, theta)
                inv = ph_invariants(decompose(rho))
                assert ph_condition_explicit(inv) == ph_test(rho).entangled

    def test_negative_discriminant_rejected(self):
        with pytest.raises(ValueError, match="discriminant"):
            ph_condition_explicit(PHInvariants(xi=0.1, na_dot_nb=1.0, na_dot_c_nb=0.0))

    def test_not_a_criterion_off_the_werner_family(self):
        # two entangled mixtures of a Bell state and a product: the condition
        # misses one and is undefined on the other
        half = [0.5, 0.5]
        missed = mix(half, [bell("psi+"), from_pure([0, 1, 0, 0], (2, 2))])
        assert ph_test(missed).min_eigenvalue == pytest.approx(-0.25, abs=1e-12)
        assert ph_condition_explicit(ph_invariants(decompose(missed))) is False
        undefined = mix(half, [bell("phi+"), from_pure([1, 0, 0, 0], (2, 2))])
        assert ph_test(undefined).entangled
        with pytest.raises(ValueError, match="negative discriminant"):
            ph_condition_explicit(ph_invariants(decompose(undefined)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["xi", "na_dot_nb", "na_dot_c_nb"])
    def test_non_finite_invariant_rejected(self, field, bad):
        inv = PHInvariants(**{"xi": -2.0, "na_dot_nb": 0.1, "na_dot_c_nb": 0.0, field: bad})
        with pytest.raises(ValueError, match="non-finite"):
            ph_condition_explicit(inv)


class TestClassify:
    def test_bell_state(self):
        rep = classify_two_qubit(bell("phi+"))
        assert rep.category is Category.PURE_ENTANGLED
        assert rep.nsv_count == 3
        assert rep.ph_entangled

    def test_two_term_cc(self):
        rho = mix([0.5, 0.5],
                  [from_pure([0, 1, 0, 0], (2, 2)), from_pure([0, 0, 1, 0], (2, 2))])
        rep = classify_two_qubit(rho)
        assert rep.category is Category.CLASSICALLY_CORRELATED
        assert rep.nsv_count == 1
        assert not rep.ph_entangled

    def test_werner_entangled(self):
        rep = classify_two_qubit(generalized_werner(0.9, 0.0))
        assert rep.category is Category.MIXED_ENTANGLED
        assert rep.nsv_count == 3

    def test_pure_product(self, rng):
        rho = from_pure(np.kron(random_pure_vec(2, rng), random_pure_vec(2, rng)), (2, 2))
        assert classify_two_qubit(rho).category is Category.PURE_PRODUCT

    def test_mixed_product_uncorrelated(self, rng):
        rho = tensor(rand_state((2,), rng), rand_state((2,), rng))
        rep = classify_two_qubit(rho)
        assert rep.category is Category.UNCORRELATED
        assert rep.nsv_count == 0

    def test_invariants_attached_when_defined(self):
        rep = classify_two_qubit(generalized_werner(0.7, 0.4))
        assert rep.invariants is not None
        rep0 = classify_two_qubit(generalized_werner(0.7, 0.0))
        assert rep0.invariants is None

    def test_non_qubit_rejected(self, rng):
        with pytest.raises(ValueError, match="two qubits"):
            classify_two_qubit(rand_state((2, 3), rng))


class TestNSVLaws:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8])
    def test_qubit_cc_term_count(self, k, rng):
        want = min(k - 1, 3)
        hits = 0
        draws = 200
        for _ in range(draws):
            spec = correlation_spectrum(decompose(random_cc_qubit(k, rng)).pair(0, 1))
            assert spec.nsv_count <= want
            hits += spec.nsv_count == want
        assert hits / draws >= 0.99

    def test_qutrit_cc_two_terms(self, rng):
        for _ in range(100):
            spec = correlation_spectrum(decompose(random_cc_qutrit(2, rng)).pair(0, 1))
            assert spec.nsv_count == 1

    @pytest.mark.parametrize("k", [3, 5, 9, 12])
    def test_qutrit_cc_bound(self, k, rng):
        for _ in range(40):
            spec = correlation_spectrum(decompose(random_cc_qutrit(k, rng)).pair(0, 1))
            assert spec.nsv_count <= min(k - 1, 8)

    def test_pure_two_qutrit_schmidt_classes(self, rng):
        for _ in range(50):
            lam = rng.uniform(0.05, 0.95)
            vec = (math.sqrt(lam) * np.kron([1, 0, 0], [1, 0, 0])
                   + math.sqrt(1 - lam) * np.kron([0, 1, 0], [0, 1, 0]))
            u = kron_all([random_unitary(3, rng), random_unitary(3, rng)])
            spec = correlation_spectrum(
                decompose(from_pure(u @ vec, (3, 3))).pair(0, 1))
            assert spec.nsv_count == 3
        for _ in range(50):
            spec = correlation_spectrum(
                decompose(from_pure(random_pure_vec(9, rng), (3, 3))).pair(0, 1))
            assert spec.nsv_count == 8

    def test_cc_states_never_ph_entangled(self, rng):
        for k in (2, 3, 5):
            for _ in range(60):
                assert not ph_test(random_cc_qubit(k, rng)).entangled

    @pytest.mark.parametrize("which", ["phi+", "phi-", "psi+", "psi-"])
    def test_bell_states_always_entangled(self, which):
        assert ph_test(bell(which)).entangled


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=9, max_size=9))
def test_hypothesis_spectrum_counts_within_rank(entries):
    c = np.array(entries).reshape(3, 3)
    spec = correlation_spectrum(c)
    assert 0 <= spec.nsv_count <= 3
    assert spec.nsv_count == (spec.singular_values > spec.threshold_used).sum()
    assert np.all(np.diff(spec.singular_values) <= 0)


def report_states(seed):
    """Random mixed states of rank 2 to 4, a pure entangled state, a pure
    product and a Werner state at theta = 0, where n_A . n_B = 0."""
    rng = np.random.default_rng(seed)
    rhos = [DensityMatrix((2, 2), random_density_mat(4, rng, rank=rank)) for rank in (2, 3, 4)]
    return rhos + [from_pure(random_pure_vec(4, rng), (2, 2)),
                   from_pure(np.kron(random_pure_vec(2, rng), random_pure_vec(2, rng)), (2, 2)),
                   generalized_werner(rng.uniform(0, 1), 0.0)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_hypothesis_report_fields_are_row_values(seed):
    # the report is what a one-point sweep of its rows gives, bit for bit
    for rho in report_states(seed):
        rep = classify_two_qubit(rho)
        values = evaluate(Context((2, 2), rho.matrix[None]), ("nsv", "ph", "xi", "nanb", "purity", "pt_min"))
        row = {name: column[0] for name, column in values.items()}
        assert (rep.purity, rep.nsv_count, rep.min_pt_eigenvalue) == (row["purity"], row["nsv"], row["pt_min"])
        assert rep.ph_entangled == bool(row["ph"]) == (row["pt_min"] < -PT_NEGATIVITY_TOL)
        if np.isnan(row["xi"]):
            assert rep.invariants is None
        else:
            inv = ph_invariants(decompose(rho))
            assert (rep.invariants.xi, rep.invariants.na_dot_nb) == (row["xi"], row["nanb"])
            assert rep.invariants.na_dot_c_nb == inv.na_dot_c_nb
        if row["purity"] >= 1 - PURITY_TOL:
            want = Category.PURE_PRODUCT if row["nsv"] == 0 else Category.PURE_ENTANGLED
        elif row["nsv"] == 0:
            want = Category.UNCORRELATED
        else:
            want = Category.MIXED_ENTANGLED if row["ph"] else Category.CLASSICALLY_CORRELATED
        assert rep.category is want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_hypothesis_invariant_rows_do_not_depend_on_the_stack(seed):
    # each state's xi, n_A . n_B and n_A . C . n_B in a stack are its values alone, bit for bit
    mats = np.stack([rho.matrix for rho in report_states(seed)])
    rows = measures._invariants(Context((2, 2), mats))
    for b in range(len(mats)):
        alone = measures._invariants(Context((2, 2), mats[b:b + 1]))
        assert all(row[b:b + 1].tobytes() == one.tobytes() for row, one in zip(rows, alone))


def test_report_states_cover_every_pure_category_and_degenerate_invariants():
    reps = [classify_two_qubit(rho) for rho in report_states(0)]
    assert [rep.category for rep in reps[3:5]] == [Category.PURE_ENTANGLED, Category.PURE_PRODUCT]
    assert reps[5].invariants is None
    assert all(rep.invariants is not None for rep in reps[:5])
