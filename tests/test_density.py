import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (SX, dm_of, kron_all, oracle_ptrace,
                     random_density_mat, random_pure_vec)

import mpcorr as mc
from mpcorr.density import (DensityMatrix, HermitianOperator, NotHermitianError, NotPSDError,
                            StateValidationError, TraceNotOneError, from_pure, mix, partial_trace,
                            partial_transpose, pure_states, purity, state_from_json_dict,
                            state_to_json_dict, tensor, validate)

PSI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


class TestFromPure:
    def test_phi_plus_sigma_xx_expectation(self):
        rho = from_pure(PHI_PLUS, (2, 2))
        assert np.trace(kron_all([SX, SX]) @ rho.matrix).real == pytest.approx(1.0, abs=1e-14)

    def test_basis_state(self):
        rho = from_pure([1, 0], (2,))
        assert np.abs(rho.matrix - np.diag([1.0, 0.0])).max() < 1e-15

    def test_normalization_invariance(self):
        a = from_pure([2, 0, 0, 2], (2, 2))
        b = from_pure([1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], (2, 2))
        assert np.abs(a.matrix - b.matrix).max() < 1e-15

    def test_unit_purity(self, rng):
        rho = from_pure(random_pure_vec(6, rng), (2, 3))
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            from_pure([0, 0, 0, 0], (2, 2))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            from_pure([1, 0, 0], (2, 2))

    @pytest.mark.parametrize("amplitudes", [np.eye(2), [[1, 0, 0, 1]], 1.0])
    def test_non_flat_amplitudes_rejected(self, amplitudes):
        # np.eye(2) has the four entries of phi+, but it is a matrix, not a state vector
        with pytest.raises(ValueError, match="1-D"):
            from_pure(amplitudes, (2, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            from_pure([bad, 0, 0, 1], (2, 2))


class TestPureStates:
    """A real row of amplitudes gives a float64 stack that is bit for bit the
    real part of the complex stack of the same row, whose imaginary part is
    zero; a complex row keeps the complex stack."""

    @staticmethod
    def rows(rng):
        dense = rng.normal(size=(3, 6))
        sparse = dense * (rng.random((3, 6)) < 0.4)
        sparse[:, 1] = -1.0
        signed_zeros = np.array([[-0.0, 1.0, -2.0, 0.0, 0.5, -0.0]])
        huge = np.array([[1e308, -1.7e308, 0.0, 1e308, -0.0, 3.0],        # norm past the float range
                         [1.5e308, 1.5e308, 1.5e308, -1.5e308, 0.0, 0.0],
                         [1e-290, -3e-295, 0.0, 0.0, 0.0, 2e-299]])         # scaled up by 2^963
        return np.concatenate([dense, sparse, signed_zeros, huge])

    def test_real_rows_give_real_part_of_complex_stack(self, rng):
        amplitudes = self.rows(rng)
        real, complex_ = pure_states(amplitudes), pure_states(amplitudes.astype(complex))
        assert real.dtype == float and complex_.dtype == complex
        assert real.tobytes() == np.ascontiguousarray(complex_.real).tobytes()
        assert not complex_.imag.any()
        assert np.all(np.isfinite(real)) and np.abs(np.trace(real, axis1=1, axis2=2) - 1).max() < 1e-15

    def test_integer_rows_are_real(self):
        assert pure_states([[1, 0, 0, 1]]).dtype == float

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_zero_row_rejected(self, dtype, rng):
        amplitudes = np.concatenate([self.rows(rng), np.zeros((1, 6))]).astype(dtype)
        with pytest.raises(ValueError, match="amplitude vector is zero"):
            pure_states(amplitudes)


class TestValidate:
    def test_maximally_mixed_valid(self):
        rho = validate(np.eye(4) / 4, (2, 2))
        assert rho.dims == (2, 2)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NotPSDError) as err:
            validate(np.diag([1.5, -0.5]), (2,))
        assert err.value.residual == pytest.approx(0.5, abs=1e-12)
        assert err.value.kind == "NotPSD"

    def test_partial_transpose_of_singlet_rejected(self):
        pt = partial_transpose(from_pure(PSI_MINUS, (2, 2)), 1)
        eigs = np.sort(np.linalg.eigvalsh(pt.matrix))
        assert np.abs(eigs - np.array([-0.5, 0.5, 0.5, 0.5])).max() < 1e-12
        with pytest.raises(NotPSDError) as err:
            validate(pt.matrix, (2, 2))
        assert err.value.residual == pytest.approx(0.5, abs=1e-12)

    def test_non_hermitian_rejected(self):
        mat = np.diag([0.5, 0.5]).astype(complex)
        mat[0, 1] = 0.1
        with pytest.raises(NotHermitianError):
            validate(mat, (2,))

    def test_wrong_trace_rejected(self):
        with pytest.raises(TraceNotOneError) as err:
            validate(np.eye(2), (2,))
        assert err.value.residual == pytest.approx(1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            validate(np.eye(4) / 4, (2, 3))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, complex(0.25, np.nan)])
    def test_non_finite_rejected(self, bad):
        # every tolerance comparison with NaN is False, so without this check
        # a NaN matrix would pass all three invariants
        mat = (np.eye(4) / 4).astype(complex)
        mat[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite") as err:
            validate(mat, (2, 2))
        assert not isinstance(err.value, StateValidationError)


@pytest.mark.parametrize("build", [lambda m: DensityMatrix((2, 2), m), lambda m: validate(m, (2, 2))],
                         ids=["DensityMatrix", "validate"])
def test_state_owns_its_matrix(build):
    # the caller's array stays writeable, and writing to it (or to the array
    # it is a view of) leaves the state unchanged
    big = np.stack([np.eye(4, dtype=complex) / 4, dm_of(PSI_MINUS)])
    rho = build(big[0])
    assert big.flags.writeable and rho.matrix.flags.owndata and not rho.matrix.flags.writeable
    big[0] = dm_of(PHI_PLUS)
    assert purity(rho) == pytest.approx(0.25, abs=1e-15)
    assert np.array_equal(rho.matrix, np.eye(4) / 4)


class TestTensor:
    def test_basis_states(self):
        a = DensityMatrix((2,), np.diag([1.0, 0.0]))
        b = DensityMatrix((2,), np.diag([0.0, 1.0]))
        assert np.array_equal(tensor(a, b).matrix, np.diag([0, 1, 0, 0]).astype(complex))

    def test_identity_factors(self):
        half = DensityMatrix((2,), np.eye(2) / 2)
        assert np.abs(tensor(half, half).matrix - np.eye(4) / 4).max() < 1e-15

    def test_purity_multiplicative(self, rng):
        a = DensityMatrix((2,), random_density_mat(2, rng))
        b = DensityMatrix((3,), random_density_mat(3, rng))
        assert purity(tensor(a, b)) == pytest.approx(purity(a) * purity(b), abs=1e-12)

    def test_dims_concatenate(self, rng):
        a = DensityMatrix((2, 2), random_density_mat(4, rng))
        b = DensityMatrix((3,), random_density_mat(3, rng))
        assert tensor(a, b).dims == (2, 2, 3)


class TestMix:
    def test_single_term(self, rng):
        rho = DensityMatrix((2,), random_density_mat(2, rng))
        assert np.abs(mix([1.0], [rho]).matrix - rho.matrix).max() < 1e-15

    def test_equal_mixture_of_up_down(self):
        ud = from_pure([0, 1, 0, 0], (2, 2))
        du = from_pure([0, 0, 1, 0], (2, 2))
        mixed = mix([0.5, 0.5], [ud, du])
        assert np.abs(mixed.matrix - np.diag([0, 0.5, 0.5, 0])).max() < 1e-15

    def test_negative_weight_rejected(self, rng):
        rho = DensityMatrix((2,), random_density_mat(2, rng))
        with pytest.raises(ValueError, match="positive"):
            mix([1.5, -0.5], [rho, rho])

    def test_weight_sum_enforced(self, rng):
        rho = DensityMatrix((2,), random_density_mat(2, rng))
        with pytest.raises(ValueError, match="sum"):
            mix([0.7, 0.4], [rho, rho])

    def test_weight_count_must_match_states(self, rng):
        rho = DensityMatrix((2,), random_density_mat(2, rng))
        with pytest.raises(ValueError, match="2 weights for 1 states"):
            mix([0.5, 0.5], [rho])

    def test_dims_mismatch_rejected(self, rng):
        a = DensityMatrix((2,), random_density_mat(2, rng))
        b = DensityMatrix((3,), random_density_mat(3, rng))
        with pytest.raises(ValueError, match="dims"):
            mix([0.5, 0.5], [a, b])


class TestPartialTrace:
    def test_singlet_marginal_maximally_mixed(self):
        rho = from_pure(PSI_MINUS, (2, 2))
        assert np.abs(partial_trace(rho, [0]).matrix - np.eye(2) / 2).max() < 1e-14

    def test_rashid_marginal(self):
        theta = 0.7
        norm = math.sqrt(2 * math.cosh(2 * theta))
        rho = from_pure([math.exp(-theta) / norm, 0, 0, math.exp(theta) / norm], (2, 2))
        want = np.diag([1 - math.tanh(2 * theta), 1 + math.tanh(2 * theta)]) / 2
        assert np.abs(partial_trace(rho, [0]).matrix - want).max() < 1e-14

    def test_product_recovers_factor(self, rng):
        a = DensityMatrix((2,), random_density_mat(2, rng))
        b = DensityMatrix((3,), random_density_mat(3, rng))
        assert np.abs(partial_trace(tensor(a, b), [1]).matrix - b.matrix).max() < 1e-14

    def test_matches_oracle_three_party(self, rng):
        mat = random_density_mat(12, rng)
        rho = DensityMatrix((2, 3, 2), mat)
        for keep in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
            got = partial_trace(rho, keep).matrix
            want = oracle_ptrace(mat, (2, 3, 2), keep)
            assert np.abs(got - want).max() < 1e-13

    def test_keep_everything_is_identity(self, rng):
        rho = DensityMatrix((2, 2), random_density_mat(4, rng))
        assert partial_trace(rho, [0, 1]) is rho

    def test_empty_keep_rejected(self, rng):
        rho = DensityMatrix((2, 2), random_density_mat(4, rng))
        with pytest.raises(ValueError, match="empty"):
            partial_trace(rho, [])

    def test_bad_index_rejected(self, rng):
        rho = DensityMatrix((2, 2), random_density_mat(4, rng))
        with pytest.raises(ValueError, match="range"):
            partial_trace(rho, [2])

    def test_fractional_index_rejected(self):
        # int() would read 0.5 as party 0 and return the singlet's marginal
        with pytest.raises(TypeError):
            partial_trace(tensor(from_pure(PSI_MINUS, (2, 2)), from_pure([1, 0], (2,))), [0.5])

    def test_string_index_rejected(self):
        with pytest.raises(TypeError):
            partial_trace(tensor(from_pure(PSI_MINUS, (2, 2)), from_pure([1, 0], (2,))), ["1"])


class TestPartialTranspose:
    def test_product_state_stays_psd(self, rng):
        a = DensityMatrix((2,), random_density_mat(2, rng))
        b = DensityMatrix((3,), random_density_mat(3, rng))
        pt = partial_transpose(tensor(a, b), 1)
        assert np.linalg.eigvalsh(pt.matrix).min() > -1e-12
        assert np.abs(pt.matrix - np.kron(a.matrix, b.matrix.T)).max() < 1e-14

    def test_singlet_negativity(self):
        pt = partial_transpose(from_pure(PSI_MINUS, (2, 2)), 1)
        assert np.linalg.eigvalsh(pt.matrix).min() == pytest.approx(-0.5, abs=1e-12)

    def test_involution(self, rng):
        rho = DensityMatrix((2, 3), random_density_mat(6, rng))
        twice = partial_transpose(
            DensityMatrix(rho.dims, partial_transpose(rho, 0).matrix), 0)
        assert np.abs(twice.matrix - rho.matrix).max() < 1e-15

    def test_trace_and_hermiticity_preserved(self, rng):
        for _ in range(20):
            rho = DensityMatrix((2, 2, 3), random_density_mat(12, rng))
            pt = partial_transpose(rho, 2)
            assert np.trace(pt.matrix).real == pytest.approx(1.0, abs=1e-12)
            assert np.abs(pt.matrix - pt.matrix.conj().T).max() < 1e-12

    def test_bad_party_rejected(self, rng):
        rho = DensityMatrix((2, 2), random_density_mat(4, rng))
        with pytest.raises(ValueError, match="range"):
            partial_transpose(rho, 5)

    def test_fractional_party_rejected(self):
        # int() would read 1.7 as party 1
        with pytest.raises(TypeError):
            partial_transpose(from_pure([1, 0, 0, 1], (2, 2)), 1.7)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hermitian_operator_rejects_non_finite_entry(bad):
    # a NaN residual compares False with the Hermiticity tolerance, so the
    # finiteness check has to come first
    mat = np.eye(4, dtype=complex) / 4
    mat[0, 0] = bad
    with pytest.raises(ValueError, match="operator has a non-finite"):
        HermitianOperator((2, 2), mat)


class TestPurity:
    def test_maximally_mixed(self):
        assert purity(DensityMatrix((2, 2), np.eye(4) / 4)) == pytest.approx(0.25)

    def test_pure(self, rng):
        assert purity(from_pure(random_pure_vec(9, rng), (3, 3))) == pytest.approx(1.0, abs=1e-12)

    def test_werner_half(self):
        rho = mix([0.5, 0.5],
                  [from_pure(PSI_MINUS, (2, 2)), DensityMatrix((2, 2), np.eye(4) / 4)])
        assert purity(rho) == pytest.approx(7 / 16, abs=1e-14)


class TestJson:
    def test_matrix_roundtrip(self, rng):
        rho = DensityMatrix((2, 3), random_density_mat(6, rng))
        again = state_from_json_dict(state_to_json_dict(rho))
        assert again.dims == rho.dims
        assert np.abs(again.matrix - rho.matrix).max() < 1e-15

    def test_pure_form(self):
        obj = {"dims": [2, 2], "pure": [[1, 0], [0, 0], [0, 0], [1, 0]]}
        rho = state_from_json_dict(obj)
        assert np.abs(rho.matrix - dm_of(PHI_PLUS)).max() < 1e-15

    def test_requires_exactly_one_payload(self):
        with pytest.raises(ValueError, match="exactly one"):
            state_from_json_dict({"dims": [2], "pure": [[1, 0], [0, 0]], "matrix": [[[1, 0]]]})

    def test_missing_dims(self):
        with pytest.raises(ValueError, match="dims"):
            state_from_json_dict({"pure": [[1, 0], [0, 0]]})

    def test_matrix_is_validated(self):
        obj = {"dims": [2], "matrix": [[[1.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]}
        with pytest.raises(NotPSDError):
            state_from_json_dict(obj)


@pytest.mark.parametrize("build", [
    lambda dims: DensityMatrix(dims, np.eye(4) / 4),
    lambda dims: from_pure([1, 0, 0, 0], dims),
    lambda dims: validate(np.eye(4) / 4, dims),
], ids=["DensityMatrix", "from_pure", "validate"])
def test_float_dims_rejected(build):
    # int() would truncate 2.5 to 2
    with pytest.raises(TypeError, match="dims must be a list of integers"):
        build((2.5, 2))
    assert build((np.int64(2), 2)).dims == (2, 2)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1, 1), min_size=8, max_size=8),
       st.lists(st.floats(-1, 1), min_size=8, max_size=8))
def test_hypothesis_partial_trace_recovers_tensor_factors(re_parts, im_parts):
    vec = np.array(re_parts[:4]) + 1j * np.array(im_parts[:4])
    wec = np.array(re_parts[4:]) + 1j * np.array(im_parts[4:])
    if np.linalg.norm(vec) < 1e-3 or np.linalg.norm(wec) < 1e-3:
        return
    a = from_pure(vec, (2, 2))
    b = from_pure(wec, (2, 2))
    joint = tensor(a, b)
    assert np.abs(partial_trace(joint, [0, 1]).matrix - a.matrix).max() < 1e-12
    assert np.abs(partial_trace(joint, [2, 3]).matrix - b.matrix).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.01, 1), min_size=2, max_size=5), st.integers(0, 2 ** 31 - 1))
def test_hypothesis_mixture_purity_in_unit_interval(raw_weights, seed):
    weights = np.array(raw_weights) / np.sum(raw_weights)
    gen = np.random.default_rng(seed)
    states = [from_pure(random_pure_vec(4, gen), (2, 2)) for _ in weights]
    rho = mix(weights, states)
    assert 0.25 - 1e-12 <= purity(rho) <= 1.0 + 1e-12


@pytest.mark.parametrize("build", [
    lambda: HermitianOperator((2,), np.eye(2)),
    lambda: mc.bell("phi+"),
    lambda: mc.decompose(mc.bell("phi+")),
    lambda: mc.correlation_spectrum(-np.eye(3)),
    lambda: mc.project_exchange(mc.bell("phi+"), "symmetric"),
], ids=["operator", "state", "decomposition", "correlation-spectrum", "exchange-projection"])
def test_values_holding_arrays_compare_and_hash_by_identity(build):
    # field-wise == would compare arrays, whose truth value is ambiguous, and hash them, which fails
    a, b = build(), build()
    assert a == a and a != b
    assert len({a, b, a}) == 2
