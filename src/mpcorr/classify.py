"""Classification of bipartite states: correlation-matrix singular values,
the Peres-Horodecki partial-transpose test (in both its spectral and
decomposition-level forms), and the two-qubit category report.

Counting nonzero singular values (NSVs) of C separates uncorrelated, pure
entangled, and few-term classically-correlated states; the partial-transpose
sign distinguishes mixed entangled states from classically correlated ones
when the NSV count alone cannot.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .bloch import BlochDecomposition, _from_moments, _moments, decompose_bipartite
from .density import DensityMatrix, HermitianOperator, _require_finite, is_pure

NSV_ABS_FLOOR = 1e-12
NSV_REL_FACTOR = 1e-9
PT_NEGATIVITY_TOL = 1e-10
BLOCH_DEGENERACY_TOL = 1e-12

# Multiplies party B's axis (identity, sigma_x, sigma_y, sigma_z) of a
# two-qubit moment tensor.
_SIGMA_Y_FLIP = np.array([1.0, 1.0, -1.0, 1.0])


class DegenerateBlochVectorsError(ValueError):
    """n_A . n_B is (numerically) zero, so the xi invariant is undefined."""


@dataclass(frozen=True)
class CorrelationSpectrum:
    """Singular values of a correlation matrix with the NSV count.

    ``eigenvalues`` is populated for square C only; a non-normal C can have
    complex eigenvalues (in conjugate pairs), so they are kept complex.  Their
    sum always equals Tr C.
    """

    singular_values: np.ndarray
    eigenvalues: np.ndarray | None
    nsv_count: int
    threshold_used: float


@dataclass(frozen=True)
class PHVerdict:
    """Partial-transpose test outcome.

    ``entangled`` means a negative eigenvalue was found, which certifies
    entanglement for any dimensions.  A nonnegative spectrum is conclusive
    separability only for 2x2 and 2x3 systems; ``conclusive`` is False for a
    PPT result in larger dimensions.
    """

    min_eigenvalue: float
    entangled: bool
    conclusive: bool


@dataclass(frozen=True)
class PHInvariants:
    """The invariant parameters entering the explicit two-qubit PH condition:
    xi = Tr C - (n_A . C . n_B)/(n_A . n_B), together with the two scalar
    products themselves.  (Tr C is the signed-eigenvalue sum of C; the signed
    reading is the one that closes the generalized-Werner identity.)"""

    xi: float
    na_dot_nb: float
    na_dot_c_nb: float


class Category(enum.Enum):
    PURE_PRODUCT = "PureProduct"
    PURE_ENTANGLED = "PureEntangled"
    CLASSICALLY_CORRELATED = "ClassicallyCorrelated"
    MIXED_ENTANGLED = "MixedEntangled"
    UNCORRELATED = "Uncorrelated"


@dataclass(frozen=True)
class ClassificationReport:
    category: Category
    nsv_count: int
    ph_entangled: bool
    min_pt_eigenvalue: float
    invariants: PHInvariants | None


def _spectrum(c: np.ndarray):
    """Singular values, NSV threshold max(1e-12, 1e-9 * largest singular
    value) and NSV count of one correlation matrix or of a (B, ...) stack."""
    sv = np.linalg.svd(c, compute_uv=False)
    threshold = np.maximum(NSV_ABS_FLOOR, NSV_REL_FACTOR * sv.max(axis=-1, initial=0.0))
    return sv, threshold, (sv > threshold[..., None]).sum(axis=-1)


def _pt_min(dims: tuple[int, int], mats: np.ndarray) -> np.ndarray:
    """Least eigenvalue of the partial transpose on the second party of one
    (d, d) bipartite state or of a (B, d, d) stack."""
    pt = mats.reshape(mats.shape[:-2] + dims + dims).swapaxes(-3, -1).reshape(mats.shape)
    return np.linalg.eigvalsh(pt).min(axis=-1)


def _invariants(vectors, sectors):
    """xi, n_A . n_B and n_A . C . n_B of one two-qubit state's vectors and
    tensors, or of stacks of them; xi is NaN where |n_A . n_B| <= 1e-12."""
    (na, nb), c = vectors, sectors[(0, 1)]
    na_nb = (na * nb).sum(axis=-1)
    na_c_nb = np.einsum("...i,...ij,...j->...", na, c, nb)
    with np.errstate(divide="ignore", invalid="ignore"):
        xi = np.trace(c, axis1=-2, axis2=-1) - na_c_nb / na_nb
    return np.where(np.abs(na_nb) <= BLOCH_DEGENERACY_TOL, np.nan, xi), na_nb, na_c_nb


def correlation_spectrum(c: np.ndarray) -> CorrelationSpectrum:
    """SVD-based spectrum of a real correlation matrix; the NSV threshold is
    relative (see :func:`_spectrum`), so weakly correlated states are counted
    on their own scale."""
    c = np.asarray(c, dtype=float)
    if c.ndim != 2:
        raise ValueError(f"correlation matrix must be 2-D, got shape {c.shape}")
    _require_finite(c, "correlation matrix")
    sv, threshold, count = _spectrum(c)
    eig = None
    if c.shape[0] == c.shape[1]:
        eig = np.linalg.eigvals(c)
        eig = eig[np.argsort(-eig.real)]
        eig.setflags(write=False)
    sv.setflags(write=False)
    return CorrelationSpectrum(singular_values=sv, eigenvalues=eig, nsv_count=int(count),
                               threshold_used=float(threshold))


def ph_test(rho: DensityMatrix) -> PHVerdict:
    """Spectral Peres-Horodecki test: transpose the second party and look for
    a negative eigenvalue."""
    if rho.num_parties != 2:
        raise ValueError(f"PH test needs a bipartite state, got dims {rho.dims}")
    HermitianOperator(rho.dims, rho.matrix)     # NotHermitianError for a hand-built non-Hermitian matrix
    min_eig = float(_pt_min(rho.dims, rho.matrix))
    entangled = min_eig < -PT_NEGATIVITY_TOL
    conclusive = entangled or sorted(rho.dims) in ([2, 2], [2, 3])
    return PHVerdict(min_eigenvalue=min_eig, entangled=entangled, conclusive=conclusive)


def ph_test_signflip(rho: DensityMatrix) -> PHVerdict:
    """Decomposition-level PH test for two qubits.

    Transposing party B is the same as flipping the sign of its sigma_y axis
    of the moment tensor (sigma_x, sigma_z and the identity are symmetric,
    sigma_y antisymmetric), which flips n_{y,B} and the C column that
    multiplies sigma_{y,B}; the flipped tensor is mapped back to a matrix and
    checked for positivity.  Agrees with :func:`ph_test`.
    """
    if rho.dims != (2, 2):
        raise ValueError(f"sign-flip PH test supports two qubits only, got dims {rho.dims}")
    pt = _from_moments(rho.dims, _moments(rho.dims, rho.matrix[None]) * _SIGMA_Y_FLIP)
    min_eig = float(np.linalg.eigvalsh(pt[0]).min())
    return PHVerdict(min_eigenvalue=min_eig, entangled=min_eig < -PT_NEGATIVITY_TOL,
                     conclusive=True)


def ph_invariants(decomp: BlochDecomposition) -> PHInvariants:
    """xi and the Bloch-vector scalar products of a two-qubit decomposition.

    Undefined (raises DegenerateBlochVectorsError) when |n_A . n_B| <= 1e-12.
    """
    if decomp.dims != (2, 2):
        raise ValueError(f"PH invariants are defined for two qubits, got dims {decomp.dims}")
    xi, na_nb, na_c_nb = _invariants(decomp.coherence_vectors, decomp.correlations)
    if np.isnan(xi):
        raise DegenerateBlochVectorsError(
            f"n_A . n_B = {na_nb:.3e}; xi is undefined for (near-)orthogonal Bloch vectors")
    return PHInvariants(xi=float(xi), na_dot_nb=float(na_nb), na_dot_c_nb=float(na_c_nb))


def ph_condition_explicit(inv: PHInvariants) -> bool:
    """Entanglement condition written in the invariants alone:
    -xi/2 + (-xi + sqrt(xi^2 - 4 n_A.n_B))/2 >= 1, equivalently the largest
    root of (x + xi/2)^2 + xi (x + xi/2) + n_A.n_B = 0 exceeds unity.

    Boundary states (value within 1e-10 of 1) are reported entangled here
    while the spectral test sees a zero eigenvalue as separable; off the
    boundary the two agree.  A NaN or infinite invariant raises ValueError.
    """
    _require_finite(np.array([inv.xi, inv.na_dot_nb, inv.na_dot_c_nb]), "PH invariants")
    disc = inv.xi * inv.xi - 4.0 * inv.na_dot_nb
    if disc < 0:
        raise ValueError(f"negative discriminant {disc:.3e}; PH condition undefined")
    largest_root = -inv.xi / 2.0 + (-inv.xi + np.sqrt(disc)) / 2.0
    return bool(largest_root >= 1.0 - 1e-10)


def classify_two_qubit(rho: DensityMatrix) -> ClassificationReport:
    """Category of a two-qubit state from its purity, NSV count, and PH test.

    Decision table: pure states are products (NSV 0) or entangled (any
    correlation at all; NSV 3 in exact arithmetic).  Mixed states with no
    correlation are products of their marginals; correlated mixed states are
    entangled or classically correlated according to the partial-transpose
    sign.  ``invariants`` is None when n_A . n_B degenerates.
    """
    if rho.dims != (2, 2):
        raise ValueError(f"classification supports two qubits only, got dims {rho.dims}")
    dec = decompose_bipartite(rho)
    nsv_count = int(_spectrum(dec.pair(0, 1))[2])
    verdict = ph_test(rho)
    xi, na_nb, na_c_nb = _invariants(dec.coherence_vectors, dec.correlations)
    invariants = None if np.isnan(xi) else PHInvariants(float(xi), float(na_nb), float(na_c_nb))
    if is_pure(rho):
        category = Category.PURE_PRODUCT if nsv_count == 0 else Category.PURE_ENTANGLED
    elif nsv_count == 0:
        category = Category.UNCORRELATED
    elif verdict.entangled:
        category = Category.MIXED_ENTANGLED
    else:
        category = Category.CLASSICALLY_CORRELATED
    return ClassificationReport(category=category, nsv_count=nsv_count, ph_entangled=verdict.entangled,
                                min_pt_eigenvalue=verdict.min_eigenvalue, invariants=invariants)


# The classification quantities as columns, in the form of
# measures.COLUMNS: the NSV count, the PH verdict (0/1), and the two-qubit
# invariants, xi being NaN where n_A . n_B degenerates.  Each column is its
# helper above, applied to the whole stack.
COLUMNS = {
    "nsv": ("a bipartite state", lambda dims: len(dims) == 2,
            lambda dims, mats, vectors, sectors: _spectrum(sectors[(0, 1)])[2]),
    "ph": ("a bipartite state", lambda dims: len(dims) == 2,
           lambda dims, mats, vectors, sectors: (_pt_min(dims, mats) < -PT_NEGATIVITY_TOL).astype(int)),
    "xi": ("a two-qubit state", lambda dims: dims == (2, 2),
           lambda dims, mats, vectors, sectors: _invariants(vectors, sectors)[0]),
    "nanb": ("a two-qubit state", lambda dims: dims == (2, 2),
             lambda dims, mats, vectors, sectors: _invariants(vectors, sectors)[1]),
}
