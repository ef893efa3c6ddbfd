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
from .density import DensityMatrix, partial_transpose, purity

NSV_ABS_FLOOR = 1e-12
NSV_REL_FACTOR = 1e-9
PT_NEGATIVITY_TOL = 1e-10
PURE_PURITY_CUTOFF = 1.0 - 1e-8
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


def correlation_spectrum(c: np.ndarray) -> CorrelationSpectrum:
    """SVD-based spectrum of a real correlation matrix.

    The NSV threshold is relative, max(1e-12, 1e-9 * largest singular value),
    so weakly correlated states are counted on their own scale.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 2:
        raise ValueError(f"correlation matrix must be 2-D, got shape {c.shape}")
    sv = np.linalg.svd(c, compute_uv=False)
    dmax = float(sv[0]) if sv.size else 0.0
    threshold = max(NSV_ABS_FLOOR, NSV_REL_FACTOR * dmax)
    eig = None
    if c.shape[0] == c.shape[1]:
        eig = np.linalg.eigvals(c)
        eig = eig[np.argsort(-eig.real)]
        eig.setflags(write=False)
    sv.setflags(write=False)
    return CorrelationSpectrum(
        singular_values=sv,
        eigenvalues=eig,
        nsv_count=int((sv > threshold).sum()),
        threshold_used=threshold,
    )


def ph_test(rho: DensityMatrix) -> PHVerdict:
    """Spectral Peres-Horodecki test: transpose the second party and look for
    a negative eigenvalue."""
    if rho.num_parties != 2:
        raise ValueError(f"PH test needs a bipartite state, got dims {rho.dims}")
    pt = partial_transpose(rho, 1)
    min_eig = float(np.linalg.eigvalsh(pt.matrix).min())
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
    na, nb = decomp.coherence_vectors
    c = decomp.pair(0, 1)
    na_nb = float(np.dot(na, nb))
    na_c_nb = float(na @ c @ nb)
    if abs(na_nb) <= BLOCH_DEGENERACY_TOL:
        raise DegenerateBlochVectorsError(
            f"n_A . n_B = {na_nb:.3e}; xi is undefined for (near-)orthogonal Bloch vectors")
    xi = float(np.trace(c)) - na_c_nb / na_nb
    return PHInvariants(xi=xi, na_dot_nb=na_nb, na_dot_c_nb=na_c_nb)


def ph_condition_explicit(inv: PHInvariants) -> bool:
    """Entanglement condition written in the invariants alone:
    -xi/2 + (-xi + sqrt(xi^2 - 4 n_A.n_B))/2 >= 1, equivalently the largest
    root of (x + xi/2)^2 + xi (x + xi/2) + n_A.n_B = 0 exceeds unity.

    Boundary states (value within 1e-10 of 1) are reported entangled here
    while the spectral test sees a zero eigenvalue as separable; off the
    boundary the two agree.
    """
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
    spectrum = correlation_spectrum(dec.pair(0, 1))
    verdict = ph_test(rho)
    try:
        invariants = ph_invariants(dec)
    except DegenerateBlochVectorsError:
        invariants = None
    pure = purity(rho) >= PURE_PURITY_CUTOFF
    if pure:
        category = Category.PURE_PRODUCT if spectrum.nsv_count == 0 else Category.PURE_ENTANGLED
    elif spectrum.nsv_count == 0:
        category = Category.UNCORRELATED
    elif verdict.entangled:
        category = Category.MIXED_ENTANGLED
    else:
        category = Category.CLASSICALLY_CORRELATED
    return ClassificationReport(
        category=category,
        nsv_count=spectrum.nsv_count,
        ph_entangled=verdict.entangled,
        min_pt_eigenvalue=verdict.min_eigenvalue,
        invariants=invariants,
    )
