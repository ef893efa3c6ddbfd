"""Multipartite density matrices: construction, validation, and the standard
linear-algebra operations (tensor products, convex mixtures, partial trace,
partial transpose).

All values are immutable after construction and all operations are pure
functions, so everything here is safe to share across threads.  Matrices are
dense complex double precision; the intended scale is a handful of parties
with total dimension up to a few hundred.
"""

import string
from dataclasses import dataclass
from math import prod

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10


class StateValidationError(ValueError):
    """A candidate matrix failed one of the density-matrix invariants."""

    kind = "Invalid"

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = float(residual)


class NotHermitianError(StateValidationError):
    kind = "NotHermitian"


class TraceNotOneError(StateValidationError):
    kind = "TraceNotOne"


class NotPSDError(StateValidationError):
    kind = "NotPSD"


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=complex)
    arr.setflags(write=False)
    return arr


def _check_shape(dims: tuple[int, ...], matrix: np.ndarray) -> None:
    if len(dims) == 0 or any(d < 2 for d in dims):
        raise ValueError(f"subsystem dimensions must all be >= 2, got {dims}")
    d = prod(dims)
    if matrix.shape != (d, d):
        raise ValueError(f"matrix shape {matrix.shape} does not match dims {dims} (expected {(d, d)})")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over a tensor
    product of subsystems.

    ``dims`` lists the subsystem dimensions in tensor-product order and
    ``matrix`` is the full prod(dims) x prod(dims) complex matrix.  The
    constructors in this module guarantee the invariants; arbitrary matrices
    should go through :func:`validate`.
    """

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "matrix", _freeze(np.asarray(self.matrix)))
        _check_shape(self.dims, self.matrix)

    @property
    def total_dimension(self) -> int:
        return prod(self.dims)

    @property
    def num_parties(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class HermitianOperator:
    """Hermitian matrix over the same tensor structure as a DensityMatrix,
    without the trace/positivity requirements (partial transposes,
    symmetrizers, ...)."""

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "matrix", _freeze(np.asarray(self.matrix)))
        _check_shape(self.dims, self.matrix)
        herm = float(np.abs(self.matrix - self.matrix.conj().T).max())
        if herm > HERMITICITY_TOL:
            raise NotHermitianError(f"operator is not Hermitian (residual {herm:.3e})", herm)


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} has a non-finite (NaN or infinite) entry")


def pure_states(amplitudes) -> np.ndarray:
    """The (B, d, d) stack of |psi><psi|, one per row of a (B, d) array of
    (not necessarily normalized) amplitudes.  Rows are first scaled exactly,
    by a power of two, to a largest real or imaginary part in [0.5, 1): no
    modulus or norm overflows."""
    vec = np.asarray(amplitudes, dtype=complex)
    _require_finite(vec, "amplitude vector")
    largest = np.maximum(np.abs(vec.real), np.abs(vec.imag)).max(axis=1, keepdims=True)
    if (largest < 1e-300).any():
        raise ValueError("amplitude vector is zero")
    vec = vec * np.ldexp(1.0, -np.frexp(largest)[1])
    vec = vec / np.linalg.norm(vec, axis=1, keepdims=True)
    return vec[:, :, None] * vec[:, None, :].conj()


def from_pure(amplitudes, dims) -> DensityMatrix:
    """Density matrix |psi><psi| of a (not necessarily normalized) state
    vector with the given subsystem dimensions."""
    dims = tuple(int(d) for d in dims)
    vec = np.asarray(amplitudes, dtype=complex).reshape(1, -1)
    if vec.size != prod(dims):
        raise ValueError(f"amplitude vector length {vec.size} does not match dims {dims}")
    return DensityMatrix(dims, pure_states(vec)[0])


def validate(matrix, dims) -> DensityMatrix:
    """Check the three density-matrix invariants and return a DensityMatrix.

    Raises NotHermitianError, TraceNotOneError, or NotPSDError, each carrying
    the offending residual magnitude, and a plain ValueError for a NaN or
    infinite entry, which every comparison with a tolerance would let pass.
    """
    dims = tuple(int(d) for d in dims)
    mat = np.asarray(matrix, dtype=complex)
    _check_shape(dims, mat)
    _require_finite(mat, "matrix")
    herm = float(np.abs(mat - mat.conj().T).max())
    if herm > HERMITICITY_TOL:
        raise NotHermitianError(f"matrix is not Hermitian (max |rho - rho^dag| = {herm:.3e})", herm)
    tr = complex(np.trace(mat))
    tr_res = abs(tr - 1.0)
    if tr_res > TRACE_TOL:
        raise TraceNotOneError(f"trace is {tr:.12g}, not 1 (residual {tr_res:.3e})", tr_res)
    min_eig = float(np.linalg.eigvalsh(mat).min())
    if min_eig < -PSD_TOL:
        raise NotPSDError(f"matrix is not PSD (min eigenvalue {min_eig:.3e})", -min_eig)
    return DensityMatrix(dims, mat)


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product of two states; dims concatenate."""
    return DensityMatrix(a.dims + b.dims, np.kron(a.matrix, b.matrix))


def mix(weights, states) -> DensityMatrix:
    """Convex mixture sum_k p_k rho_k of states on identical subsystems."""
    ws = np.asarray(weights, dtype=float)
    states = list(states)
    if ws.ndim != 1 or len(states) != ws.size:
        raise ValueError(f"{ws.size} weights for {len(states)} states")
    if ws.size == 0:
        raise ValueError("empty mixture")
    if np.any(ws <= 0):
        raise ValueError(f"mixture weights must be positive, got {ws.tolist()}")
    if abs(ws.sum() - 1.0) > 1e-12:
        raise ValueError(f"mixture weights sum to {ws.sum():.15g}, not 1")
    dims = states[0].dims
    for s in states[1:]:
        if s.dims != dims:
            raise ValueError(f"mixture requires equal dims, got {dims} and {s.dims}")
    acc = sum(w * s.matrix for w, s in zip(ws, states))
    return DensityMatrix(dims, acc)


def _axis_letters(n: int) -> tuple[list[str], list[str]]:
    letters = string.ascii_lowercase
    return list(letters[:n]), list(letters[n : 2 * n])


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the given parties (traces out the rest).

    ``keep`` is a nonempty set of party indices; kept parties stay in their
    original tensor order.
    """
    n = rho.num_parties
    kept = sorted(set(int(i) for i in keep))
    if not kept:
        raise ValueError("keep set is empty")
    if kept[0] < 0 or kept[-1] >= n:
        raise ValueError(f"keep indices {kept} out of range for {n} parties")
    if len(kept) == n:
        return rho
    row, col = _axis_letters(n)
    for i in range(n):
        if i not in kept:
            col[i] = row[i]
    out = "".join(row[i] for i in kept) + "".join(col[i] for i in kept)
    t = rho.matrix.reshape(rho.dims + rho.dims)
    reduced = np.einsum("".join(row) + "".join(col) + "->" + out, t)
    d = prod(rho.dims[i] for i in kept)
    return DensityMatrix(tuple(rho.dims[i] for i in kept), reduced.reshape(d, d))


def partial_transpose(rho: DensityMatrix, party: int) -> HermitianOperator:
    """Transpose the indices of one party only.

    The result is Hermitian with unit trace but need not be positive; a
    negative eigenvalue certifies entanglement across the party cut.
    """
    n = rho.num_parties
    party = int(party)
    if party < 0 or party >= n:
        raise ValueError(f"party index {party} out of range for {n} parties")
    t = rho.matrix.reshape(rho.dims + rho.dims)
    t = np.swapaxes(t, party, party + n)
    d = rho.total_dimension
    return HermitianOperator(rho.dims, t.reshape(d, d))


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2); equals 1 exactly for pure states."""
    return float(np.einsum("ij,ji->", rho.matrix, rho.matrix).real)


def is_pure(rho: DensityMatrix, tol: float = 1e-8) -> bool:
    return purity(rho) >= 1.0 - tol


# --- JSON state format -------------------------------------------------------
#
# {"dims": [n1, ...], "pure": [[re, im], ...]}            state vector, or
# {"dims": [n1, ...], "matrix": [[[re, im], ...], ...]}   row-major matrix.


def _complex_pairs(obj, what: str) -> np.ndarray:
    arr = np.asarray(obj, dtype=float)
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise ValueError(f"{what} entries must be [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def state_from_json_dict(obj: dict) -> DensityMatrix:
    """Parse the CLI's JSON state format into a validated DensityMatrix."""
    if not isinstance(obj, dict):
        raise ValueError("state JSON must be an object")
    if "dims" not in obj:
        raise ValueError('state JSON is missing "dims"')
    dims = tuple(int(d) for d in obj["dims"])
    has_pure = "pure" in obj
    has_matrix = "matrix" in obj
    if has_pure == has_matrix:
        raise ValueError('state JSON must have exactly one of "pure" or "matrix"')
    if has_pure:
        vec = _complex_pairs(obj["pure"], "pure")
        if vec.ndim != 1:
            raise ValueError('"pure" must be a flat list of [re, im] pairs')
        return from_pure(vec, dims)
    mat = _complex_pairs(obj["matrix"], "matrix")
    if mat.ndim != 2:
        raise ValueError('"matrix" must be a list of rows of [re, im] pairs')
    return validate(mat, dims)


def state_to_json_dict(rho: DensityMatrix) -> dict:
    """Serialize a state to the CLI's JSON state format (matrix form)."""
    m = rho.matrix
    return {
        "dims": list(rho.dims),
        "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in m],
    }
