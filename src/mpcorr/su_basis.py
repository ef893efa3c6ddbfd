"""Generalized Gell-Mann generator bases for SU(n).

Every decomposition in this package expands operators in these bases, so the
conventions are pinned here once: generators are Hermitian, traceless, and
orthogonal with Tr(G_i G_j) = 2 delta_ij, matching the usual Pauli and
Gell-Mann normalization.  For n = 2 the basis is exactly (sigma_x, sigma_y,
sigma_z) and for n = 3 exactly the textbook lambda_1 ... lambda_8, so
component names like C_xx or C_88 keep their conventional meaning.
"""

from functools import lru_cache

import numpy as np


def _pair_generators(n: int, j: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    sym = np.zeros((n, n), dtype=complex)
    sym[j, k] = sym[k, j] = 1.0
    anti = np.zeros((n, n), dtype=complex)
    anti[j, k] = -1.0j
    anti[k, j] = 1.0j
    return sym, anti


def _diagonal_generator(n: int, l: int) -> np.ndarray:
    # sqrt(2/(l(l+1))) * (E_00 + ... + E_{l-1,l-1} - l E_{l,l}), 1 <= l <= n-1
    d = np.zeros(n)
    d[:l] = 1.0
    d[l] = -float(l)
    return np.diag(d.astype(complex)) * np.sqrt(2.0 / (l * (l + 1)))


@lru_cache(maxsize=None)
def gell_mann_basis(n: int) -> np.ndarray:
    """The n^2 - 1 generalized Gell-Mann generators of SU(n), as one read-only
    complex array of shape (n^2 - 1, n, n), built once per n.

    Ordering: the symmetric/antisymmetric generator pair for each index pair
    (j, k), j < k, in lexicographic order, followed by the n - 1 diagonal
    generators.  n = 3 is pinned to the textbook Gell-Mann order instead
    (diag(1,-1,0) sits third); n = 2 already comes out as (x, y, z).
    """
    if n < 2:
        raise ValueError(f"generator basis requires dimension >= 2, got {n}")
    pairs: list[np.ndarray] = []
    for j in range(n):
        for k in range(j + 1, n):
            pairs.extend(_pair_generators(n, j, k))
    diags = [_diagonal_generator(n, l) for l in range(1, n)]
    if n == 3:
        ordered = pairs[:2] + diags[:1] + pairs[2:] + diags[1:]
    else:
        ordered = pairs + diags
    generators = np.stack(ordered)
    generators.setflags(write=False)
    return generators
