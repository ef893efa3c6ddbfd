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

:func:`decompose` (:func:`decompose_stack` for a stack) is the one way in,
for any shape of two or more parties; :func:`coherence_vector` gives n of one party.

A real stack, as every sweepable family builds, takes a real map.  The
identity, symmetric and diagonal generators are real and the antisymmetric
ones are i times real, so each party's forward matrix is a real one R times
i on the antisymmetric columns, and for a real rho T = i^k x, with x the real
mode products with R and k the number of antisymmetric generators of the
entry.  T is therefore Re(i^k) x, which is x, 0 or -x as k mod 4 is 0, odd
or 2; on the entries of odd k, x is the imaginary part, held to IMAG_TOL as a
complex T's is.  A complex stack, which every DensityMatrix is, keeps the
complex map.

:func:`reconstruct` inverts the map.  It refills T from the vectors and
tensors, sector by sector, and expands rho = (1 / prod n_I) sum_m T[m] w_m
A_{m_1} x ... with weight 1 for the identity and n_I / 2 for a generator of
party I, from Tr(1) = n and Tr(G_i G_j) = 2 delta_ij.  On a correlation
sector S this is the prefactor prod_{I in S} (n_I / 2).
"""

import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from math import prod
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .density import DensityMatrix, _require_finite
from .su_basis import gell_mann_basis

IMAG_TOL = 1e-12


def _require_real(residue: np.ndarray, what: str) -> None:
    """Refuse an imaginary part that is zero analytically unless it is within
    IMAG_TOL; a large residue means a bug upstream, not data to keep."""
    resid = float(np.abs(residue).max()) if residue.size else 0.0
    if resid > IMAG_TOL:
        raise ValueError(f"{what} has imaginary residue {resid:.3e} (tolerance {IMAG_TOL:.1e})")


def _real_within(arr: np.ndarray, what: str) -> np.ndarray:
    """The real part of a complex array, read-only, after :func:`_require_real`
    on its imaginary part."""
    _require_real(arr.imag, what)
    out = arr.real.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class BlochDecomposition:
    """Coherence vectors plus the correlation tensor of every party subset.

    ``coherence_vectors[I]`` has length n_I^2 - 1.  ``correlations`` is the
    one tensor mapping: each subset of two or more parties, as an increasing
    tuple, maps to its tensor (C for a pair, D for a triple, E for four
    parties, and so on), so ``correlations[(0, 1, 2)]`` is D.  :meth:`pair`
    reads a C matrix in either party order.  A NaN or infinite entry raises
    ValueError.
    """

    dims: tuple[int, ...]
    coherence_vectors: tuple[np.ndarray, ...]
    correlations: Mapping[tuple[int, ...], np.ndarray]

    def __post_init__(self):
        parts = (*self.coherence_vectors, *self.correlations.values())
        _require_finite(np.concatenate([np.zeros(0), *map(np.ravel, parts)]), "decomposition")

    def pair(self, i: int, j: int) -> np.ndarray:
        """C matrix for an (unordered) party pair, transposed as needed; a
        read-only zero matrix where ``correlations`` has no tensor for it."""
        n, i, j = len(self.dims), operator.index(i), operator.index(j)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"parties ({i}, {j}) must both be in 0..{n - 1} for dims {self.dims}")
        if i == j:
            raise ValueError("a correlation matrix needs two distinct parties")
        a, b = sorted((i, j))
        c = self.correlations.get((a, b), np.broadcast_to(0.0, (self.dims[a] ** 2 - 1, self.dims[b] ** 2 - 1)))
        return c if i < j else c.T


@lru_cache(maxsize=None)
def _augmented(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Mode-product matrices of one n-level party, both (n^2, n^2).  Forward
    maps (row, col) of rho to m by A_m[col, row], so its products give
    Tr(rho A_m); inverse maps m back to (row, col) by the dual basis
    A_m / Tr(A_m^2), the weights 1/n for the identity and 1/2 for a generator."""
    aug = np.concatenate([np.eye(n, dtype=complex)[None], gell_mann_basis(n)])
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


def _contract(dims: tuple[int, ...], mats: np.ndarray, forward: list[np.ndarray]) -> np.ndarray:
    """Mode products of a (B, d, d) stack with one forward matrix per party,
    (B, n_1^2, ..., n_N^2)."""
    n = len(dims)
    t = mats.reshape((len(mats),) + dims + dims).transpose(tuple(1 + a for a in _interleave(n)) + (0,))
    return _mode_products(t, forward).reshape((len(mats),) + tuple(d * d for d in dims))


def _moments(dims: tuple[int, ...], mats: np.ndarray) -> np.ndarray:
    """The complex moment tensors T[b, m_1, ..., m_N] of a (B, d, d) stack."""
    return _contract(dims, mats, [_augmented(d)[0] for d in dims])


@lru_cache(maxsize=None)
def _real_forward(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The real factor R of one party's forward matrix F = R diag(i^a), and a:
    1 on the columns of the antisymmetric generators, which are i times
    real, and 0 on the identity, symmetric and diagonal ones, which are real."""
    forward = _augmented(n)[0]
    odd = (forward.imag != 0).any(axis=0)
    real = np.where(odd, forward.imag, forward.real)
    real.setflags(write=False)
    return real, odd.astype(int)


@lru_cache(maxsize=None)
def _parity(dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Re(i^k) on each entry of T, for k the number of its antisymmetric
    generators, and the flat indices of the entries with k odd, where it is 0."""
    k = reduce(np.add.outer, [_real_forward(d)[1] for d in dims])
    weight = np.array([1.0, 0.0, -1.0, 0.0])[k % 4]
    weight.setflags(write=False)
    return weight, np.flatnonzero(k % 2)


def _real_moments(dims: tuple[int, ...], mats: np.ndarray) -> np.ndarray:
    """The moment tensors of a real (B, d, d) stack, read-only: T = Re(i^k) x
    for x the real mode products, whose entries of odd k are the imaginary
    part of T."""
    x = _contract(dims, mats, [_real_forward(d)[0] for d in dims])
    weight, odd = _parity(dims)
    _require_real(x.reshape(-1, weight.size)[:, odd], "moment tensor")
    x *= weight
    x.setflags(write=False)
    return x


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
    t = _real_within(_moments(dims, mats), "moment tensor") if np.iscomplexobj(mats) else _real_moments(dims, mats)
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


def coherence_vector(rho: DensityMatrix) -> np.ndarray:
    """Generator expectation values <G_i> of a single-party state: the
    generator slice of its moment tensor."""
    if rho.num_parties != 1:
        raise ValueError(f"coherence_vector needs a single-party state, got dims {rho.dims}")
    return _real_within(_moments(rho.dims, rho.matrix[None])[0, 1:], "coherence vector")


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
