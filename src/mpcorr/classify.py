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

from .bloch import BlochDecomposition, _augmented, _from_moments, _moments
from .density import DensityMatrix, _partial_transpose, _pure, _purity, _require_finite
from .measures import Context, _tensors, evaluate, require_column

NSV_ABS_FLOOR = 1e-12
NSV_REL_FACTOR = 1e-9
PT_NEGATIVITY_TOL = 1e-10
BLOCH_DEGENERACY_TOL = 1e-12


class DegenerateBlochVectorsError(ValueError):
    """n_A . n_B is (numerically) zero, so the xi invariant is undefined."""


@dataclass(frozen=True)
class CorrelationSpectrum:
    """Singular values of a correlation matrix with the NSV count."""

    singular_values: np.ndarray
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
    purity: float


def _spectrum(c: np.ndarray):
    """Singular values, NSV threshold max(1e-12, 1e-9 * largest singular
    value) and NSV count of one correlation matrix or of a (B, ...) stack."""
    sv = np.linalg.svd(c, compute_uv=False)
    threshold = np.maximum(NSV_ABS_FLOOR, NSV_REL_FACTOR * sv.max(axis=-1, initial=0.0))
    return sv, threshold, (sv > threshold[..., None]).sum(axis=-1)


def _pt_min(ctx: Context) -> np.ndarray:
    """Least eigenvalue of the partial transpose on the second party of each
    bipartite state of a context, from the complex eigensolver also for a
    real stack, so both give the same bits."""
    return np.linalg.eigvalsh(_partial_transpose(ctx.dims, ctx.mats, 1).astype(complex, copy=False)).min(axis=-1)


def _invariants(ctx: Context):
    """xi, n_A . n_B and n_A . C . n_B of the two-qubit states of a context,
    from its vectors and C; xi is NaN where |n_A . n_B| <= 1e-12.  The sums
    run in a fixed order, so a state gives the same bits alone as in a stack."""
    (na, nb), sectors = ctx(_tensors)
    na_nb = (na * nb).sum(axis=-1)
    na_c_nb = ((na[..., :, None] * sectors[(0, 1)]).sum(axis=-2) * nb).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        xi = np.trace(sectors[(0, 1)], axis1=-2, axis2=-1) - na_c_nb / na_nb
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
    sv.setflags(write=False)
    return CorrelationSpectrum(singular_values=sv, nsv_count=int(count), threshold_used=float(threshold))


def _verdict(dims: tuple[int, int], min_eig: float) -> PHVerdict:
    entangled = min_eig < -PT_NEGATIVITY_TOL
    return PHVerdict(min_eig, entangled, conclusive=entangled or sorted(dims) in ([2, 2], [2, 3]))


def ph_test(rho: DensityMatrix) -> PHVerdict:
    """Spectral Peres-Horodecki test: transpose the second party and look for
    a negative eigenvalue."""
    column = require_column(COLUMNS, "pt_min", rho.dims)
    return _verdict(rho.dims, float(column(Context(rho.dims, rho.matrix))))


def ph_test_signflip(rho: DensityMatrix) -> PHVerdict:
    """Decomposition-level PH test for any bipartite state: transposing party
    B negates each moment-tensor entry whose B index is an antisymmetric
    generator (for two qubits sigma_y, so n_{y,B} and the C column of
    sigma_{y,B}); the flipped tensor, mapped back to a matrix, is checked for
    positivity.  Agrees with :func:`ph_test`."""
    require_column(COLUMNS, "pt_min", rho.dims)
    flip = 1 - 2 * _augmented(rho.dims[1])[2]
    pt = _from_moments(rho.dims, _moments(rho.dims, rho.matrix[None]) * flip)
    return _verdict(rho.dims, float(np.linalg.eigvalsh(pt[0]).min()))


def ph_invariants(decomp: BlochDecomposition) -> PHInvariants:
    """xi and the Bloch-vector scalar products of a two-qubit decomposition.

    Undefined (raises DegenerateBlochVectorsError) when |n_A . n_B| <= 1e-12.
    """
    require_column(COLUMNS, "xi", decomp.dims)
    xi, na_nb, na_c_nb = _invariants(Context(decomp.dims, tensors=(decomp.coherence_vectors,
                                                                   {(0, 1): decomp.pair(0, 1)})))
    if np.isnan(xi):
        raise DegenerateBlochVectorsError(
            f"n_A . n_B = {na_nb:.3e}; xi is undefined for (near-)orthogonal Bloch vectors")
    return PHInvariants(xi=float(xi), na_dot_nb=float(na_nb), na_dot_c_nb=float(na_c_nb))


def ph_condition_explicit(inv: PHInvariants) -> bool:
    """Entanglement condition in the invariants alone, for the generalized
    Werner family: -xi/2 + (-xi + sqrt(xi^2 - 4 n_A.n_B))/2 >= 1, that is the
    largest root of (x + xi/2)^2 + xi (x + xi/2) + n_A.n_B = 0 exceeds unity.
    On that family it agrees with the spectral test off the boundary (a value
    within 1e-10 of 1 is reported entangled).  On other two-qubit states it
    may disagree with :func:`ph_test` or raise ValueError for a negative
    discriminant, so it is no criterion there.  A NaN or infinite invariant
    raises ValueError."""
    _require_finite(np.array([inv.xi, inv.na_dot_nb, inv.na_dot_c_nb]), "PH invariants")
    disc = inv.xi * inv.xi - 4.0 * inv.na_dot_nb
    if disc < 0:
        raise ValueError(f"negative discriminant {disc:.3e}; PH condition undefined")
    largest_root = -inv.xi / 2.0 + (-inv.xi + np.sqrt(disc)) / 2.0
    return bool(largest_root >= 1.0 - 1e-10)


def classify_two_qubit(rho: DensityMatrix) -> ClassificationReport:
    """Category of a two-qubit state from the values of its rows: purity,
    NSV count, PH verdict and least PT eigenvalue.

    Decision table: pure states are products (NSV 0) or entangled (any
    correlation at all; NSV 3 in exact arithmetic).  Mixed states with no
    correlation are products of their marginals; correlated mixed states are
    entangled or classically correlated according to the partial-transpose
    sign.  ``invariants`` is None when n_A . n_B degenerates.
    """
    if rho.dims != (2, 2):
        raise ValueError(f"classification supports two qubits (dims [2, 2]), got dims {list(rho.dims)}")
    ctx = Context(rho.dims, rho.matrix[None])
    names = ("purity", "nsv", "ph", "pt_min")
    purity, nsv, ph, pt_min = (values[0].item() for values in evaluate(COLUMNS, ctx, names).values())
    entangled = bool(ph)
    if _pure(purity):
        category = Category.PURE_PRODUCT if nsv == 0 else Category.PURE_ENTANGLED
    elif nsv == 0:
        category = Category.UNCORRELATED
    elif entangled:
        category = Category.MIXED_ENTANGLED
    else:
        category = Category.CLASSICALLY_CORRELATED
    inv = PHInvariants(*(float(values[0]) for values in ctx(_invariants)))
    return ClassificationReport(category=category, nsv_count=nsv, ph_entangled=entangled, min_pt_eigenvalue=pt_min,
                                invariants=None if np.isnan(inv.xi) else inv, purity=purity)


# The classification quantities as columns, in the form of measures.COLUMNS:
# the NSV count, the PH verdict (0/1), the two-qubit invariants, xi being NaN
# where n_A . n_B degenerates, the purity and the least PT eigenvalue.  nsv
# and the invariants read the context's decomposition, xi and nanb its one
# invariants pass, ph and pt_min its one PT eigensolve, and purity its
# matrices.
COLUMNS = {
    "nsv": ("a bipartite state", lambda dims: len(dims) == 2,
            lambda ctx: _spectrum(ctx(_tensors)[1][(0, 1)])[2]),
    "ph": ("a bipartite state", lambda dims: len(dims) == 2,
           lambda ctx: (ctx(_pt_min) < -PT_NEGATIVITY_TOL).astype(int)),
    "xi": ("a two-qubit state", lambda dims: dims == (2, 2), lambda ctx: ctx(_invariants)[0]),
    "nanb": ("a two-qubit state", lambda dims: dims == (2, 2), lambda ctx: ctx(_invariants)[1]),
    "purity": ("any state", lambda dims: True, lambda ctx: _purity(ctx.mats)),
    "pt_min": ("a bipartite state", lambda dims: len(dims) == 2, lambda ctx: ctx(_pt_min)),
}
