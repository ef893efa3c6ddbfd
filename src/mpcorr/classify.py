"""Classification of bipartite states: correlation-matrix singular values,
the Peres-Horodecki partial-transpose test (in both its spectral and
decomposition-level forms), and the two-qubit category report, each built on
rows of :data:`measures.COLUMNS`; this module defines no row.

Counting nonzero singular values (NSVs) of C separates uncorrelated, pure
entangled, and few-term classically-correlated states; the partial-transpose
sign distinguishes mixed entangled states from classically correlated ones
when the NSV count alone cannot.
"""

import enum
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .bloch import BlochDecomposition, _augmented, _from_moments, _moments
from .density import DensityMatrix, _pure, _require_finite
from .measures import (PT_NEGATIVITY_TOL, _invariants, _one, _pair_decomposition, _spectrum, _stack_of_one, evaluate,
                       require_column)


class DegenerateBlochVectorsError(ValueError):
    """n_A . n_B is (numerically) zero, so the xi invariant is undefined."""


@dataclass(frozen=True, eq=False)
class CorrelationSpectrum:
    """Singular values of a correlation matrix with the NSV count; ``==`` is identity."""

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
    xi = Tr C - (n_A . C . n_B)/(n_A . n_B) and the two scalar products.  Tr C is
    C's signed-eigenvalue sum, the reading that closes the generalized-Werner
    identity.  All three are invariant under U x U, not under local U_A x U_B."""

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


def correlation_spectrum(c: np.ndarray) -> CorrelationSpectrum:
    """SVD-based spectrum of a real correlation matrix; the NSV threshold is
    relative (see :func:`measures._spectrum`), so weakly correlated states
    are counted on their own scale.  C is checked as the pair tensor of
    parties whose dimensions its shape gives (n^2 - 1 per axis): ValueError
    for any other shape or a non-finite entry."""
    dims = tuple(isqrt(k + 1) for k in np.shape(c))
    sv, threshold, count = (values[0] for values in _spectrum(_pair_decomposition(dims, c).pair(0, 1)[None]))
    sv.setflags(write=False)
    return CorrelationSpectrum(singular_values=sv, nsv_count=int(count), threshold_used=float(threshold))


def _verdict(dims: tuple[int, int], min_eig: float) -> PHVerdict:
    entangled = min_eig < -PT_NEGATIVITY_TOL
    return PHVerdict(min_eig, entangled, conclusive=entangled or sorted(dims) in ([2, 2], [2, 3]))


def ph_test(rho: DensityMatrix) -> PHVerdict:
    """Spectral Peres-Horodecki test: transpose the second party and look for
    a negative eigenvalue."""
    return _verdict(rho.dims, _one("pt_min", rho))


def ph_test_signflip(rho: DensityMatrix) -> PHVerdict:
    """Decomposition-level PH test for any bipartite state: transposing party
    B negates each moment-tensor entry whose B index is an antisymmetric
    generator (for two qubits sigma_y, so n_{y,B} and the C column of
    sigma_{y,B}); the flipped tensor, mapped back to a matrix, is checked for
    positivity.  Agrees with :func:`ph_test`."""
    require_column("pt_min", rho.dims)
    flip = 1 - 2 * _augmented(rho.dims[1])[2]
    pt = _from_moments(rho.dims, _moments(rho.dims, rho.matrix[None]) * flip)
    return _verdict(rho.dims, float(np.linalg.eigvalsh(pt[0]).min()))


def ph_invariants(decomp: BlochDecomposition) -> PHInvariants:
    """xi and the Bloch-vector scalar products of a two-qubit decomposition.

    Undefined (raises DegenerateBlochVectorsError) when |n_A . n_B| <= 1e-12.
    """
    require_column("xi", decomp.dims)
    inv = PHInvariants(*(float(values[0]) for values in _stack_of_one(decomp)(_invariants)))
    if np.isnan(inv.xi):
        raise DegenerateBlochVectorsError(
            f"n_A . n_B = {inv.na_dot_nb:.3e}; xi is undefined for (near-)orthogonal Bloch vectors")
    return inv


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
    ctx = _stack_of_one(rho)
    purity, nsv, ph, pt_min = (values[0].item() for values in evaluate(ctx, ("purity", "nsv", "ph", "pt_min")).values())
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

