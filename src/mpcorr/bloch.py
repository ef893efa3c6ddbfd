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
for any number of parties; a :class:`BlochDecomposition` is checked when built.

The map is real both ways, for real and complex stacks.  The identity,
symmetric and diagonal generators are real and the antisymmetric ones i
times real, so T = Re(i^k (x + i y)), with x and y the real mode products
of Re rho and Im rho and k the number of antisymmetric generators of the
entry.  Re Tr(rho A) = Tr(((rho + rho^dag) / 2) A), so T is the moment
tensor of the Hermitian part of rho; Im(i^k (x + i y)) is never formed.
Every state given to the map is Hermitian already: a DensityMatrix within
HERMITICITY_TOL from construction, a family stack by construction.  A real
stack, as every sweepable family builds, has y = 0, never computed:
T = Re(i^k) x is x, 0 or -x as k mod 4 is 0, odd or 2.  A complex stack's
T gets + 0.0, so an analytic zero is +0.0 whatever sign the matrix products
leave.

:func:`reconstruct` inverts the map.  It refills T from the vectors and
tensors, sector by sector, and expands rho = (1 / prod n_I) sum_m T[m] w_m
A_{m_1} x ... with weight 1 for the identity and n_I / 2 for a generator of
party I, from Tr(1) = n and Tr(G_i G_j) = 2 delta_ij.  On a correlation
sector S this is the prefactor prod_{I in S} (n_I / 2).  With the phases
taken off the generators, rho is the real inverse products of Re(i^k) T
plus i times those of Im(i^k) T.
"""

import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from math import prod
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .density import DensityMatrix, _dims, _hermitian_part, _require_finite
from .su_basis import gell_mann_basis


@lru_cache(maxsize=None)
def _shapes(dims: tuple[int, ...]) -> dict:
    """Each party subset, as an increasing tuple, to its part's shape: one axis of n_I^2 - 1 per party."""
    n = len(dims)
    return {s: tuple(dims[p] ** 2 - 1 for p in s) for k in range(1, n + 1) for s in combinations(range(n), k)}


@dataclass(frozen=True, eq=False)
class BlochDecomposition:
    """Coherence vectors plus the correlation tensor of every party subset.

    ``coherence_vectors[I]`` has length n_I^2 - 1.  ``correlations`` is the
    one tensor mapping: each subset of two or more parties, as an increasing
    tuple, maps to its tensor (C for a pair, D for a triple, E for four
    parties, and so on), so ``correlations[(0, 1, 2)]`` is D; one party has
    none.  :meth:`pair` reads a C matrix in either party order.  Construction
    is the one check of a decomposition: dims as for a DensityMatrix, one
    vector per party, keys as above, each part of its sector's shape and
    finite, else ValueError; the parts are kept as read-only copies.
    ``==`` and ``hash`` are identity; compare values through the arrays.
    """

    dims: tuple[int, ...]
    coherence_vectors: tuple[np.ndarray, ...]
    correlations: Mapping[tuple[int, ...], np.ndarray]

    def __post_init__(self):
        dims, vectors = _dims(self.dims), tuple(self.coherence_vectors)
        n, shapes = len(dims), _shapes(dims)
        if len(vectors) != n:
            raise ValueError(f"got {len(vectors)} coherence vectors for the {n} parties of dims {dims}")
        for key in self.correlations:
            if key not in shapes or len(key) < 2:
                raise ValueError(f"correlation key {key!r} must name 2+ of the {n} parties in increasing order")
        parts = {key: np.array(part, dtype=float)      # copies, which the caller's arrays do not reach
                 for key, part in [*(((p,), v) for p, v in enumerate(vectors)), *self.correlations.items()]}
        for key, arr in parts.items():
            if arr.shape != shapes[key]:
                raise ValueError(f"decomposition part on parties {key} has shape {arr.shape}, expected {shapes[key]}")
            arr.setflags(write=False)
        _require_finite(np.concatenate([arr.ravel() for arr in parts.values()]), "decomposition")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "coherence_vectors", tuple(parts.pop((p,)) for p in range(n)))
        object.__setattr__(self, "correlations", MappingProxyType(parts))

    def pair(self, i: int, j: int) -> np.ndarray:
        """C matrix for an (unordered) party pair, transposed as needed; a
        read-only zero matrix where ``correlations`` has no tensor for it."""
        n, i, j = len(self.dims), operator.index(i), operator.index(j)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"parties ({i}, {j}) must both be in 0..{n - 1} for dims {self.dims}")
        if i == j:
            raise ValueError("a correlation matrix needs two distinct parties")
        a, b = sorted((i, j))
        c = self.correlations.get((a, b), np.broadcast_to(0.0, _shapes(self.dims)[(a, b)]))
        return c if i < j else c.T


@lru_cache(maxsize=None)
def _augmented(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real mode-product factors of one n-level party, both (n^2, n^2), and
    the parity a of its augmented generators A_m = i^(a_m) R_m, 1 on the
    antisymmetric ones.  Forward maps (row, col) of rho to m by R_m[col, row];
    inverse maps m back to (row, col) by R_m / Tr(A_m^2), the weights 1/n for
    the identity and 1/2 for a generator."""
    aug = np.concatenate([np.eye(n, dtype=complex)[None], gell_mann_basis(n)])
    odd = (aug.imag != 0).any(axis=(1, 2))
    real = np.where(odd[:, None, None], aug.imag, aug.real)
    norms = np.array([n] + [2] * (n * n - 1), dtype=float)
    forward = real.transpose(2, 1, 0).reshape(n * n, n * n)
    inverse = (real / norms[:, None, None]).reshape(n * n, n * n)
    parity = odd.astype(int)
    for arr in (forward, inverse, parity):
        arr.setflags(write=False)
    return forward, inverse, parity


@lru_cache(maxsize=None)
def _parity(dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Re(i^k) and Im(i^k) on each entry of T, for k the number of its
    antisymmetric generators."""
    k = reduce(np.add.outer, [_augmented(d)[2] for d in dims]) % 4
    re, im = np.array([1.0, 0.0, -1.0, 0.0])[k], np.array([0.0, 1.0, 0.0, -1.0])[k]
    for w in (re, im):
        w.setflags(write=False)
    return re, im


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
    """The real, read-only moment tensors T[b, m_1, ..., m_N] of a (B, d, d)
    stack: T = Re(i^k (x + i y)) for x and y the forward products of Re rho
    and Im rho, the moments of the Hermitian part (rho + rho^dag) / 2."""
    forward = [_augmented(d)[0] for d in dims]
    re, im = _parity(dims)
    if np.iscomplexobj(mats):
        x, y = (_contract(dims, part, forward) for part in (mats.real, mats.imag))
        t = re * x - im * y + 0.0           # + 0.0: an analytic zero is +0.0 whatever the GEMM leaves
    else:
        t = _contract(dims, mats, forward)
        t *= re
    t.setflags(write=False)
    return t


def _from_moments(dims: tuple[int, ...], t: np.ndarray) -> np.ndarray:
    """The (B, d, d) stack of matrices whose real moment tensors are t[b]:
    the inverse mode products of Re(i^k) t plus i times those of Im(i^k) t."""
    inverse = [_augmented(d)[1] for d in dims]
    back = (0,) + tuple(1 + a for a in np.argsort(_interleave(len(dims))))
    size = prod(dims)

    def chain(weight):
        out = _mode_products(np.moveaxis(weight * t, 0, -1), inverse)
        return out.reshape((len(t),) + tuple(d for d in dims for _ in range(2))).transpose(back).reshape(-1, size, size)

    re, im = _parity(dims)
    return chain(re) + 1j * chain(im)


@lru_cache(maxsize=None)
def _sector(n: int, parties: tuple[int, ...]) -> tuple:
    """Index of T, with or without a batch axis, selecting the generators of
    ``parties``, identity elsewhere."""
    return (Ellipsis,) + tuple(slice(1, None) if p in parties else 0 for p in range(n))


def _products(vectors) -> np.ndarray:
    """prod_p [1, n_p] over (B, n_p^2 - 1) coherence vectors, (B, n_1^2, ...,
    n_N^2): the moment tensors of the products of the one-party marginals."""
    n = len(vectors)
    return reduce(np.multiply, [np.concatenate((np.ones((len(v), 1)), v), axis=1)
                                .reshape((-1,) + (1,) * p + (v.shape[1] + 1,) + (1,) * (n - 1 - p))
                                for p, v in enumerate(vectors)])


def decompose_stack(dims: tuple[int, ...], mats: np.ndarray):
    """Coherence vectors (a tuple of (B, n_I^2 - 1) arrays) and correlation
    tensors (a dict from each party subset of two or more to a (B, ...) array)
    of a (B, d, d) stack of states, none for one party; :func:`decompose` is
    the one-state case."""
    n = len(dims)
    t = _moments(dims, mats)
    vectors = tuple(t[_sector(n, (p,))] for p in range(n))
    corr = t - _products(vectors)  # raw moments minus products
    corr.setflags(write=False)
    return vectors, {s: corr[_sector(n, s)] for s in _shapes(dims) if len(s) > 1}


def decompose(rho: DensityMatrix) -> BlochDecomposition:
    """Coherence vectors and correlation tensors of a state; one party gives
    its :func:`coherence_vector` and no tensors."""
    vectors, sectors = decompose_stack(rho.dims, rho.matrix[None])
    return BlochDecomposition(rho.dims, tuple(v[0] for v in vectors), {s: c[0] for s, c in sectors.items()})


def coherence_vector(rho: DensityMatrix) -> np.ndarray:
    """Generator expectation values <G_i> of a single-party state: the
    generator slice of its moment tensor."""
    if rho.num_parties != 1:
        raise ValueError(f"coherence_vector needs a single-party state, got dims {rho.dims}")
    return _moments(rho.dims, rho.matrix[None])[0, 1:]


def reconstruct(decomp: BlochDecomposition) -> DensityMatrix:
    """Rebuild the density matrix from a decomposition.

    Exact (to roundoff) for decompositions produced by this module.  For
    hand-built tensors the result is Hermitian with unit trace but may fail
    positivity; it is not re-validated here.  A missing correlation tensor
    counts as zero.
    """
    dims, n = decomp.dims, len(decomp.dims)
    t = _products([v[None] for v in decomp.coherence_vectors])
    for parties, corr in decomp.correlations.items():
        t[_sector(n, parties)] += corr
    return DensityMatrix(dims, _hermitian_part(_from_moments(dims, t)[0]))
