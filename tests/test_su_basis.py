import numpy as np
import pytest

from helpers import GELL_MANN, PAULI, random_unitary

from mpcorr.su_basis import gell_mann_basis


def residuals(gens: np.ndarray) -> tuple[float, float, float]:
    """Worst Hermiticity, trace and Tr(G_i G_j) - 2 delta_ij residuals of a
    (k, n, n) stack of candidate generators."""
    herm = float(np.abs(gens - gens.conj().transpose(0, 2, 1)).max())
    trace = float(np.abs(np.trace(gens, axis1=1, axis2=2)).max())
    gram = np.einsum("iab,jba->ij", gens, gens)
    return herm, trace, float(np.abs(gram - 2.0 * np.eye(len(gens))).max())


def test_pauli_third_element_is_sigma_z():
    assert np.array_equal(gell_mann_basis(2)[2], np.diag([1.0, -1.0]).astype(complex))


def test_pauli_normalization():
    sx = gell_mann_basis(2)[0]
    assert np.trace(sx @ sx) == pytest.approx(2.0)


def test_pauli_commutator_algebra():
    sx, sy, sz = gell_mann_basis(2)
    assert np.abs((sx @ sy - sy @ sx) - 2j * sz).max() < 1e-15


def test_n2_equals_pauli():
    assert np.array_equal(gell_mann_basis(2), np.stack(PAULI))


def test_n3_matches_textbook_gell_mann():
    gens = gell_mann_basis(3)
    assert len(gens) == 8
    for got, want in zip(gens, GELL_MANN):
        assert np.abs(got - want).max() < 1e-15


def test_lambda8_diagonal():
    lam8 = gell_mann_basis(3)[7]
    assert np.abs(lam8 - np.diag([1, 1, -2]) / np.sqrt(3)).max() < 1e-15


def test_n4_count_and_orthogonality():
    gens = gell_mann_basis(4)
    assert len(gens) == 15
    gram = np.einsum("iab,jba->ij", gens, gens)
    assert np.abs(gram - 2 * np.eye(15)).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_invariants_all_dimensions(n):
    gens = gell_mann_basis(n)
    assert gens.shape == (n * n - 1, n, n) and gens.dtype == complex
    herm, trace, ortho = residuals(gens)
    assert herm <= 1e-14
    assert trace <= 1e-14
    assert ortho <= 1e-12


def test_verify_pauli_exact():
    assert max(residuals(gell_mann_basis(2))) <= 1e-15


def test_verify_n5_orthogonality_residual():
    assert residuals(gell_mann_basis(5))[2] <= 1e-12


def test_rejects_dimension_below_two():
    with pytest.raises(ValueError):
        gell_mann_basis(1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_completeness_random_traceless_hermitian(n, rng):
    gens = gell_mann_basis(n)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (g + g.conj().T) / 2
    h -= np.trace(h) / n * np.eye(n)
    coeffs = np.einsum("iab,ba->i", gens, h) / 2.0
    rebuilt = np.einsum("i,iab->ab", coeffs, gens)
    assert np.abs(rebuilt - h).max() < 1e-12


def test_generators_shared_and_immutable():
    a = gell_mann_basis(3)
    assert a is gell_mann_basis(3)
    with pytest.raises(ValueError):
        a[0, 0, 0] = 5.0
    with pytest.raises(ValueError):
        a[0][0, 0] = 5.0


def test_basis_unitary_conjugation_stays_orthonormal(rng):
    # sanity for the local-rotation arguments used elsewhere
    gens = gell_mann_basis(3)
    u = random_unitary(3, rng)
    rotated = np.einsum("ab,ibc,dc->iad", u, gens, u.conj())
    herm, trace, ortho = residuals(rotated)
    assert ortho < 1e-12
    assert herm < 1e-14
    assert trace < 1e-14
