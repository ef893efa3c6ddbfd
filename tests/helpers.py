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
    """The textbook lists for n = 2 and 3; beyond, the generalized Gell-Mann
    matrices written out entry by entry: the symmetric and antisymmetric pair
    of each (j, k), j < k, in lexicographic order, then the diagonals
    sqrt(2 / (l (l + 1))) diag(1, ..., 1, -l, 0, ..., 0), l = 1 .. n - 1."""
    if n == 2:
        return PAULI
    if n == 3:
        return GELL_MANN
    basis = []
    for j in range(n):
        for k in range(j + 1, n):
            sym, anti = np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex)
            sym[j, k] = sym[k, j] = 1
            anti[j, k], anti[k, j] = -1j, 1j
            basis += [sym, anti]
    for l in range(1, n):
        diag = np.zeros((n, n), dtype=complex)
        for m in range(l):
            diag[m, m] = 1
        diag[l, l] = -l
        basis.append(diag * np.sqrt(2 / (l * (l + 1))))
    return basis


def kron_all(mats):
    """The Kronecker product of 2-D factors, as np.kron forms it (each entry
    one product of entries) with one outer product per factor, not np.kron's
    per-call axis bookkeeping, which dominated the oracle's time."""
    out, *rest = (np.asarray(m) for m in mats)
    for m in rest:
        (r, c), (s, t) = out.shape, m.shape
        out = np.multiply.outer(out, m).transpose(0, 2, 1, 3).reshape(r * s, c * t)
    return out


def dm_of(vec):
    v = np.asarray(vec, dtype=complex).reshape(-1)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def oracle_expect(mat, op):
    """Tr(op mat) as the sum over i, j of op[i, j] mat[j, i]."""
    return complex((op * mat.T).sum())


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


def random_density_mat(d, rng, rank=None, real=False):
    rank = d if rank is None else rank
    g = rng.normal(size=(d, rank)) + (0 if real else 1j * rng.normal(size=(d, rank)))
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
