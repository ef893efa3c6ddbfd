"""Correlation-tensor representation of multipartite states.

Every quantity here is a slice of one real tensor, the moment tensor

    T[m_1, ..., m_N] = Tr(rho A_{m_1} x ... x A_{m_N})

of a state on parties with dimensions (n_1, ..., n_N), where A is the
augmented basis {1, G_1, ..., G_{n^2-1}} of each party and G the SU(n)
generators of :mod:`mpcorr.su_basis`.  With every index of a party subset S
running over the generators (m >= 1) and the other indices at 0 (identity):

    n_I      = T[.. i ..]                              (S = {I})
    C_ij     = T[.. i .. j ..]       - n_i n_j         (pairs)
    D_ijk    = T[.. i .. j .. k ..]  - n_i n_j n_k     (triples)
    E_ijkl   = T[i j k l]            - n n n n         (four parties)

and so on for every subset of two or more parties.  These are raw moments
minus products of coherence vectors, not cumulants, so the slices are exact:
a pair tensor of three or more parties equals the one taken on the two-party
marginal.  T has exactly as many entries as rho, and costs one mode product
per party and no partial traces.

:func:`reconstruct` inverts the map.  It refills T from the vectors and
tensors, sector by sector, and expands rho = (1 / prod n_I) sum_m T[m] w_m
A_{m_1} x ... with weight 1 for the identity and n_I / 2 for a generator of
party I, from Tr(1) = n and Tr(G_i G_j) = 2 delta_ij.  On a correlation
sector S this is the prefactor prod_{I in S} (n_I / 2).
"""

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from math import prod
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .density import DensityMatrix, _require_finite
from .su_basis import GeneratorBasis, gell_mann_basis

IMAG_TOL = 1e-12


def _real_within(arr: np.ndarray, what: str, tol: float = IMAG_TOL) -> np.ndarray:
    """Drop an imaginary part that is guaranteed zero analytically; a large
    residue means a bug upstream, not data to keep."""
    arr = np.asarray(arr)
    if not np.iscomplexobj(arr):
        return arr.astype(float)
    resid = float(np.abs(arr.imag).max()) if arr.size else 0.0
    if resid > tol:
        raise ValueError(f"{what} has imaginary residue {resid:.3e} (tolerance {tol:.1e})")
    out = arr.real.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class BlochDecomposition:
    """Coherence vectors plus the correlation tensor of every party subset.

    ``coherence_vectors[I]`` has length n_I^2 - 1.  ``correlations`` maps each
    subset of two or more parties, as an increasing tuple, to its tensor.
    ``pair_correlations`` (the C matrices), ``triple_correlations`` (the D
    tensors, None below three parties) and ``quad_correlations`` (the E tensor
    of a four-party state, else None) are read-only views of it.  A NaN or
    infinite entry raises ValueError.
    """

    dims: tuple[int, ...]
    coherence_vectors: tuple[np.ndarray, ...]
    correlations: Mapping[tuple[int, ...], np.ndarray]

    def __post_init__(self):
        parts = (*self.coherence_vectors, *self.correlations.values())
        _require_finite(np.concatenate([np.zeros(0), *map(np.ravel, parts)]), "decomposition")

    def _arity(self, k: int) -> Mapping[tuple[int, ...], np.ndarray]:
        return MappingProxyType({s: c for s, c in self.correlations.items() if len(s) == k})

    @property
    def pair_correlations(self) -> Mapping[tuple[int, int], np.ndarray]:
        return self._arity(2)

    @property
    def triple_correlations(self) -> Mapping[tuple[int, int, int], np.ndarray] | None:
        return self._arity(3) if len(self.dims) >= 3 else None

    @property
    def quad_correlations(self) -> np.ndarray | None:
        return self.correlations.get((0, 1, 2, 3)) if len(self.dims) == 4 else None

    def pair(self, i: int, j: int) -> np.ndarray:
        """C matrix for an (unordered) party pair, transposed as needed."""
        if i == j:
            raise ValueError("a correlation matrix needs two distinct parties")
        if i < j:
            return self.correlations[(i, j)]
        return self.correlations[(j, i)].T

    def triple(self, i: int, j: int, k: int) -> np.ndarray:
        if len(self.dims) < 3:
            raise ValueError("no triple correlations in this decomposition")
        return self.correlations[tuple(sorted((i, j, k)))]


@lru_cache(maxsize=None)
def _augmented(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Mode-product matrices of one n-level party, both (n^2, n^2).  Forward
    maps (row, col) of rho to m by A_m[col, row], so its products give
    Tr(rho A_m); inverse maps m back to (row, col) by the dual basis
    A_m / Tr(A_m^2), the weights 1/n for the identity and 1/2 for a generator."""
    aug = np.concatenate([np.eye(n, dtype=complex)[None], gell_mann_basis(n).generators])
    norms = np.array([n] + [2] * (n * n - 1), dtype=float)
    forward = aug.transpose(2, 1, 0).reshape(n * n, n * n)
    inverse = (aug / norms[:, None, None]).reshape(n * n, n * n)
    for mat in (forward, inverse):
        mat.setflags(write=False)
    return forward, inverse


def _interleave(n: int) -> tuple[int, ...]:
    return tuple(a for p in range(n) for a in (p, p + n))


def _mode_products(t: np.ndarray, mats: list[np.ndarray]) -> np.ndarray:
    """Contract the leading axis of t with each matrix in turn; the new axis
    goes last, so after one product per party the axes are back in order and
    a batch axis that came last comes first."""
    for mat in mats:
        t = t.reshape(mat.shape[0], -1).T @ mat
    return t


def _moments(dims: tuple[int, ...], mats: np.ndarray) -> np.ndarray:
    """The complex moment tensors T[b, m_1, ..., m_N] of a (B, d, d) stack."""
    n = len(dims)
    t = mats.reshape((len(mats),) + dims + dims).transpose(tuple(1 + a for a in _interleave(n)) + (0,))
    forward = [_augmented(d)[0] for d in dims]
    return _mode_products(t, forward).reshape((len(mats),) + tuple(d * d for d in dims))


def _from_moments(dims: tuple[int, ...], t: np.ndarray) -> np.ndarray:
    """The (B, d, d) stack of matrices whose moment tensors are t[b]."""
    n = len(dims)
    out = _mode_products(np.moveaxis(t, 0, -1), [_augmented(d)[1] for d in dims])
    back = (0,) + tuple(1 + a for a in np.argsort(_interleave(n)))
    size = prod(dims)
    return out.reshape((len(t),) + tuple(d for d in dims for _ in range(2))).transpose(back).reshape(-1, size, size)


@lru_cache(maxsize=None)
def _sector(n: int, parties: tuple[int, ...]) -> tuple:
    """Index of T, with or without a batch axis, selecting the generators of
    ``parties``, identity elsewhere."""
    return (Ellipsis,) + tuple(slice(1, None) if p in parties else 0 for p in range(n))


def _with_identity(vectors) -> list[np.ndarray]:
    return [np.concatenate(([1.0], np.asarray(v, dtype=float))) for v in vectors]


def _require_parties(dims: tuple[int, ...]) -> None:
    if len(dims) < 2:
        raise ValueError(f"a decomposition needs at least two parties, got dims {dims}")


def decompose_stack(dims: tuple[int, ...], mats: np.ndarray):
    """Coherence vectors (a tuple of (B, n_I^2 - 1) arrays) and correlation
    tensors (a dict from each party subset of two or more to a (B, ...) array)
    of a (B, d, d) stack of states of two or more parties; :func:`decompose`
    is the one-state case."""
    _require_parties(dims)
    n = len(dims)
    t = _real_within(_moments(dims, mats), "moment tensor")
    vectors = tuple(t[_sector(n, (p,))] for p in range(n))
    ones = np.ones((len(t), 1))
    outer = [np.concatenate((ones, v), axis=1).reshape((-1,) + (1,) * p + (v.shape[1] + 1,) + (1,) * (n - 1 - p))
             for p, v in enumerate(vectors)]
    corr = t - reduce(np.multiply, outer)  # raw moments minus products
    corr.setflags(write=False)
    return vectors, {s: corr[_sector(n, s)] for k in range(2, n + 1) for s in combinations(range(n), k)}


def decompose(rho: DensityMatrix) -> BlochDecomposition:
    """Coherence vectors and correlation tensors of a state of two or more
    parties."""
    vectors, sectors = decompose_stack(rho.dims, rho.matrix[None])
    return BlochDecomposition(rho.dims, tuple(v[0] for v in vectors),
                              MappingProxyType({s: c[0] for s, c in sectors.items()}))


def coherence_vector(rho: DensityMatrix, basis: GeneratorBasis | None = None) -> np.ndarray:
    """Generator expectation values <G_i> of a single-party state."""
    if rho.num_parties != 1:
        raise ValueError(f"coherence_vector needs a single-party state, got dims {rho.dims}")
    if basis is None:
        basis = gell_mann_basis(rho.dims[0])
    if basis.dimension != rho.dims[0]:
        raise ValueError(f"basis dimension {basis.dimension} does not match state dimension {rho.dims[0]}")
    vals = np.einsum("iab,ba->i", basis.generators, rho.matrix)
    return _real_within(vals, "coherence vector")


def decompose_bipartite(rho: DensityMatrix) -> BlochDecomposition:
    """Coherence vectors and the C matrix of a two-party state (any n x m)."""
    if rho.num_parties != 2:
        raise ValueError(f"expected 2 parties, got dims {rho.dims}")
    return decompose(rho)


def decompose_tripartite(rho: DensityMatrix) -> BlochDecomposition:
    """Coherence vectors, the three pairwise C matrices, and the D tensor of
    a three-party state."""
    if rho.num_parties != 3:
        raise ValueError(f"expected 3 parties, got dims {rho.dims}")
    return decompose(rho)


def decompose_quadripartite(rho: DensityMatrix) -> BlochDecomposition:
    """Full decomposition of a four-party state: coherence vectors, six pair
    C matrices, four triple D tensors, and the four-party E tensor."""
    if rho.num_parties != 4:
        raise ValueError(f"expected 4 parties, got dims {rho.dims}")
    return decompose(rho)


def reconstruct(decomp: BlochDecomposition) -> DensityMatrix:
    """Rebuild the density matrix from a decomposition.

    Exact (to roundoff) for decompositions produced by this module.  For
    hand-built tensors the result is Hermitian with unit trace but may fail
    positivity; it is not re-validated here.  A missing correlation tensor
    counts as zero.
    """
    dims = tuple(decomp.dims)
    _require_parties(dims)
    n = len(dims)
    shapes = [np.shape(v) for v in decomp.coherence_vectors]
    if shapes != [(d * d - 1,) for d in dims]:
        raise ValueError(f"coherence vectors have shapes {shapes}, expected lengths n^2 - 1 for dims {dims}")
    t = reduce(np.multiply.outer, _with_identity(decomp.coherence_vectors))
    for parties, corr in decomp.correlations.items():
        if len(parties) < 2 or list(parties) != sorted(set(parties)) or parties[0] < 0 or parties[-1] >= n:
            raise ValueError(f"correlation key {parties} must name 2+ distinct parties of the {n} in increasing order")
        corr = np.asarray(corr, dtype=float)
        want = tuple(dims[p] ** 2 - 1 for p in parties)
        if corr.shape != want:
            raise ValueError(f"correlation tensor {parties} has shape {corr.shape}, expected {want}")
        t[_sector(n, parties)] += corr
    return DensityMatrix(dims, _from_moments(dims, t[None])[0])
