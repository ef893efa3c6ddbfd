import numpy as np
import pytest

from helpers import dm_of, random_density_mat

from mpcorr.bloch import decompose
from mpcorr.density import DensityMatrix, from_pure, purity
from mpcorr.exchange import NullProjectionError, exchange_projector, project_exchange

PSI_MINUS = dm_of([0, 1, -1, 0])
PSI_PLUS_VEC = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)


def test_projector_algebra():
    for n in (2, 3, 4):
        s = exchange_projector(n, "symmetric").matrix
        a = exchange_projector(n, "antisymmetric").matrix
        assert np.abs(s @ s - s).max() < 1e-14
        assert np.abs(a @ a - a).max() < 1e-14
        assert np.abs(s + a - np.eye(n * n)).max() < 1e-14
        assert np.abs(s @ a).max() < 1e-14


def test_sector_ranks():
    for n in (2, 3, 4):
        assert np.linalg.matrix_rank(exchange_projector(n, "symmetric").matrix) == n * (n + 1) // 2
        assert np.linalg.matrix_rank(exchange_projector(n, "antisymmetric").matrix) == n * (n - 1) // 2


def test_antisymmetrizer_is_singlet_projector():
    assert np.abs(exchange_projector(2, "antisymmetric").matrix - PSI_MINUS).max() < 1e-14


def test_symmetrizer_fixes_triplet():
    s = exchange_projector(2, "symmetric").matrix
    assert np.abs(s @ PSI_PLUS_VEC - PSI_PLUS_VEC).max() < 1e-14


def test_pauli_expansion_forms():
    # S = 3/4 + (sx sx + sy sy + sz sz)/4 and A = 1/4 - (...)/4
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    dot = sum(np.kron(m, m) for m in (sx, sy, sz))
    assert np.abs(exchange_projector(2, "symmetric").matrix - (0.75 * np.eye(4) + dot / 4)).max() < 1e-14
    assert np.abs(exchange_projector(2, "antisymmetric").matrix - (0.25 * np.eye(4) - dot / 4)).max() < 1e-14


def test_maximally_mixed_antisymmetric_projection():
    proj = project_exchange(DensityMatrix((2, 2), np.eye(4) / 4), "antisymmetric")
    assert proj.weight == pytest.approx(0.25, abs=1e-14)
    assert np.abs(proj.projected.matrix - PSI_MINUS).max() < 1e-13


def test_triplet_has_no_antisymmetric_part():
    rho = from_pure(PSI_PLUS_VEC, (2, 2))
    with pytest.raises(NullProjectionError):
        project_exchange(rho, "antisymmetric")


def test_random_states_project_to_singlet(rng):
    for _ in range(200):
        rho = DensityMatrix((2, 2), random_density_mat(4, rng))
        proj = project_exchange(rho, "antisymmetric")
        if proj.weight > 1e-6:
            assert np.abs(proj.projected.matrix - PSI_MINUS).max() < 1e-10


def test_sector_weights_sum_to_one(rng):
    for _ in range(50):
        rho = DensityMatrix((2, 2), random_density_mat(4, rng))
        w_sym = project_exchange(rho, "symmetric").weight
        w_anti = project_exchange(rho, "antisymmetric").weight
        assert w_sym + w_anti == pytest.approx(1.0, abs=1e-12)


def test_symmetric_projection_can_be_mixed():
    proj = project_exchange(DensityMatrix((2, 2), np.eye(4) / 4), "symmetric")
    assert proj.weight == pytest.approx(0.75, abs=1e-14)
    assert purity(proj.projected) < 1 - 1e-3


def test_idempotence(rng):
    rho = DensityMatrix((2, 2), random_density_mat(4, rng))
    once = project_exchange(rho, "symmetric")
    twice = project_exchange(once.projected, "symmetric")
    assert twice.weight == pytest.approx(1.0, abs=1e-12)
    assert np.abs(twice.projected.matrix - once.projected.matrix).max() < 1e-12


def test_unknown_kind_rejected(rng):
    rho = DensityMatrix((2, 2), random_density_mat(4, rng))
    with pytest.raises(ValueError, match="kind"):
        project_exchange(rho, "bosonic")


def test_two_parties_of_one_dimension_required(rng):
    for dims in [(2, 3), (2, 2, 2), (3,)]:
        rho = DensityMatrix(dims, random_density_mat(int(np.prod(dims)), rng))
        with pytest.raises(ValueError, match="two parties of one dimension"):
            project_exchange(rho, "symmetric")
    rho = DensityMatrix((3, 3), random_density_mat(9, rng))
    assert project_exchange(rho, "symmetric").projected.dims == (3, 3)


@pytest.mark.parametrize("n", [1, -1])
def test_exchange_projector_rejects_small_n(n):
    with pytest.raises(ValueError, match="dimensions must all be >= 2"):
        exchange_projector(n, "symmetric")


@pytest.mark.parametrize("n", [2.5, "2"])
def test_exchange_projector_rejects_non_integer_n(n):
    with pytest.raises(TypeError, match="dims must be a list of integers"):
        exchange_projector(n, "symmetric")


def test_exchange_projector_rejects_unhashable_kind():
    with pytest.raises(ValueError, match="kind"):
        exchange_projector(2, ["symmetric"])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_swap_expectation_invariant_form(n, rng):
    # Tr(S rho) = 1/n + (Tr C + n_A.n_B)/2, and the symmetric weight is (1 + Tr(S rho))/2
    swap = exchange_projector(n, "symmetric").matrix - exchange_projector(n, "antisymmetric").matrix
    for _ in range(50):
        rho = DensityMatrix((n, n), random_density_mat(n * n, rng))
        dec = decompose(rho)
        n_a, n_b = dec.coherence_vectors
        tr_s = np.trace(swap @ rho.matrix).real
        assert tr_s == pytest.approx(1 / n + (np.trace(dec.pair(0, 1)) + n_a @ n_b) / 2, abs=1e-12)
        assert project_exchange(rho, "symmetric").weight == pytest.approx((1 + tr_s) / 2, abs=1e-12)


def test_qutrit_antisymmetric_projection_is_mixed():
    # the antisymmetric sector of two qutrits has dimension 3, so I/9 projects to A/3
    proj = project_exchange(DensityMatrix((3, 3), np.eye(9) / 9), "antisymmetric")
    assert proj.weight == pytest.approx(1 / 3, abs=1e-14)
    assert purity(proj.projected) == pytest.approx(1 / 3, abs=1e-14)
