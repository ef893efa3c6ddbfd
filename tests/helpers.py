"""Shared test utilities: an independent brute-force oracle (explicit kron
products and loops, no use of the package's einsum paths) plus random-state
generators."""

from functools import reduce
from itertools import product

import numpy as np

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = [SX, SY, SZ]

# textbook Gell-Mann matrices, hardcoded independently of the package
GELL_MANN = [
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
    np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex),
    np.diag([1, 1, -2]).astype(complex) / np.sqrt(3),
]


def oracle_basis(n):
    if n == 2:
        return PAULI
    if n == 3:
        return GELL_MANN
    raise ValueError(f"oracle basis only covers n in (2, 3), got {n}")


def kron_all(mats):
    return reduce(np.kron, mats)


def dm_of(vec):
    v = np.asarray(vec, dtype=complex).reshape(-1)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def oracle_expect(mat, op):
    return complex(np.trace(op @ mat))


def oracle_ptrace(mat, dims, keep):
    """Partial trace by explicit np.trace over axes."""
    dims = tuple(dims)
    n = len(dims)
    t = mat.reshape(dims + dims)
    for i in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=i, axis2=i + t.ndim // 2)
    d = int(np.prod([dims[i] for i in sorted(keep)]))
    return t.reshape(d, d)


def oracle_ptranspose(mat, dims, party):
    """Partial transpose of one party by a loop over the matrix entries: the
    entry at (row, col) moves to the multi-indices with that party's row and
    column index exchanged."""
    index = list(product(*(range(d) for d in dims)))    # row-major, as np.kron orders
    position = {multi: k for k, multi in enumerate(index)}
    out = np.empty_like(mat)
    for r, row in enumerate(index):
        for c, col in enumerate(index):
            row_t, col_t = list(row), list(col)
            row_t[party], col_t[party] = col[party], row[party]
            out[position[tuple(row_t)], position[tuple(col_t)]] = mat[r, c]
    return out


def oracle_coherence(mat, basis):
    return np.array([oracle_expect(mat, g).real for g in basis])


def oracle_raw(mat, dims, bases):
    """<G x G x ...> over every party by looping kron products."""
    shape = tuple(len(b) for b in bases)
    out = np.zeros(shape, dtype=complex)
    for idx in product(*(range(s) for s in shape)):
        op = kron_all([bases[p][idx[p]] for p in range(len(dims))])
        out[idx] = oracle_expect(mat, op)
    assert abs(out.imag).max() < 1e-10
    return out.real


def oracle_vectors(mat, dims, bases):
    return [oracle_coherence(oracle_ptrace(mat, dims, [p]), bases[p]) for p in range(len(dims))]


def oracle_pair_c(mat, dims, bases):
    """Correlation matrix of a bipartite state."""
    na, nb = oracle_vectors(mat, dims, bases)
    return oracle_raw(mat, dims, bases) - np.multiply.outer(na, nb)


def oracle_cumulant(mat, dims, bases):
    """<G...G> - n x n x ... over all parties (the D/E construction)."""
    ns = oracle_vectors(mat, dims, bases)
    return oracle_raw(mat, dims, bases) - reduce(np.multiply.outer, ns)


def random_pure_vec(d, rng):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_density_mat(d, rng, rank=None):
    rank = d if rank is None else rank
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_unitary(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_bloch(rng, length=None):
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    return n * (rng.uniform(0.0, 1.0) if length is None else length)
