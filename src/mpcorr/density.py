"""Multipartite density matrices: construction, validation, and the standard
linear-algebra operations (tensor products, convex mixtures, partial trace,
partial transpose).

All values are immutable after construction and all operations are pure
functions, so everything here is safe to share across threads.  Matrices are
dense complex double precision; the intended scale is a handful of parties
with total dimension up to a few hundred.
"""

import operator
from dataclasses import dataclass
from math import prod

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
PURITY_TOL = 1e-8                   # pure iff Tr rho^2 >= 1 - PURITY_TOL


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


def _freeze(arr) -> np.ndarray:
    arr = np.array(arr, dtype=complex, order="C")     # a copy: the caller's array stays its own
    arr.setflags(write=False)
    return arr


def _dims(dims) -> tuple[int, ...]:
    try:                                # operator.index refuses 2.5, 2.0 and "2", which int() would take
        dims = tuple(operator.index(d) for d in dims)
    except TypeError as exc:
        raise TypeError(f"dims must be a list of integers, got {dims!r}") from exc
    if len(dims) == 0 or any(d < 2 for d in dims):
        raise ValueError(f"subsystem dimensions must all be >= 2, got {dims}")
    return dims


def _check_shape(dims: tuple[int, ...], matrix: np.ndarray) -> None:
    d = prod(dims)
    if matrix.shape != (d, d):
        raise ValueError(f"matrix shape {matrix.shape} does not match dims {dims} (expected {(d, d)})")


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Hermitian matrix over a tensor product of subsystems, without the
    trace/positivity requirements (partial transposes, symmetrizers, ...).

    ``dims`` lists the subsystem dimensions in tensor-product order and
    ``matrix`` is the full prod(dims) x prod(dims) complex matrix.  This is
    the one place Hermiticity is checked: construction raises ValueError for
    a NaN or infinite entry, NotHermitianError when max |M - M^dag| exceeds
    HERMITICITY_TOL, and FloatingPointError when that residual overflows.
    ``==`` and ``hash`` are identity; compare values through ``matrix``.
    """

    dims: tuple[int, ...]
    matrix: np.ndarray
    _noun = "operator"              # not a field: the word the messages use

    def __post_init__(self):
        object.__setattr__(self, "dims", _dims(self.dims))
        object.__setattr__(self, "matrix", _freeze(self.matrix))
        _check_shape(self.dims, self.matrix)
        _require_finite(self.matrix, self._noun)
        with np.errstate(over="raise"):
            herm = float(np.abs(self.matrix - self.matrix.conj().T).max())
        if herm > HERMITICITY_TOL:
            raise NotHermitianError(f"{self._noun} is not Hermitian (max |M - M^dag| = {herm:.3e})", herm)


@dataclass(frozen=True, eq=False)
class DensityMatrix(HermitianOperator):
    """A HermitianOperator that is also unit-trace and positive
    semidefinite, so Hermitian within HERMITICITY_TOL from construction.

    The constructors in this module guarantee trace and positivity;
    arbitrary matrices should go through :func:`validate`, which checks them.
    A state derived from states (partial_trace, tensor, mix, reconstruct,
    project_exchange) is built from its Hermitian part, never refused for roundoff.
    """

    _noun = "matrix"

    @property
    def num_parties(self) -> int:
        return len(self.dims)


def _hermitian_part(mat: np.ndarray) -> np.ndarray:
    """(M + M^dag) / 2 of one (d, d) M, Hermitian to the last bit: entry (j, i) is the exact conjugate of (i, j)."""
    return (mat + mat.conj().T) / 2


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} has a non-finite (NaN or infinite) entry")


def pure_states(amplitudes) -> np.ndarray:
    """The (B, d, d) stack of |psi><psi|, one per row of a (B, d) array of
    (not necessarily normalized) amplitudes.  Rows are first scaled exactly,
    by a power of two, to a largest real or imaginary part in [0.5, 1): no
    modulus or norm overflows.

    The dtype follows the amplitudes: real amplitudes give a float64 stack,
    bit for bit the real part of the complex stack of the same amplitudes,
    so the moment map can run in real arithmetic.  That is why a real row is
    multiplied by the reciprocal of its norm where a complex row is divided
    by it: numpy divides a complex number by a real one as the product with
    that reciprocal.  A complex row keeps the division, whose signs of zero
    the product does not always repeat."""
    vec = np.asarray(amplitudes)
    vec = vec.astype(complex if np.iscomplexobj(vec) else float, copy=False)
    _require_finite(vec, "amplitude vector")
    largest = np.maximum(np.abs(vec.real), np.abs(vec.imag)).max(axis=1, keepdims=True)
    if (largest < 1e-300).any():
        raise ValueError("amplitude vector is zero")
    vec = vec * np.ldexp(1.0, -np.frexp(largest)[1])
    norm = np.linalg.norm(vec, axis=1, keepdims=True)
    if np.iscomplexobj(vec):
        vec = vec / norm
        return vec[:, :, None] * vec[:, None, :].conj()
    vec = vec * (1.0 / norm)
    return vec[:, :, None] * vec[:, None, :] + 0.0     # +0.0, not 0 * -x = -0.0, as the complex product gives


def from_pure(amplitudes, dims) -> DensityMatrix:
    """Density matrix |psi><psi| of a (not necessarily normalized) state
    vector with the given subsystem dimensions; ValueError unless the
    amplitudes are one flat (1-D) array."""
    dims = _dims(dims)
    vec = np.asarray(amplitudes, dtype=complex)
    if vec.ndim != 1:
        raise ValueError(f"amplitude vector must be 1-D, got shape {vec.shape}")
    if vec.size != prod(dims):
        raise ValueError(f"amplitude vector length {vec.size} does not match dims {dims}")
    return DensityMatrix(dims, pure_states(vec[None])[0])


def validate(matrix, dims) -> DensityMatrix:
    """Check the three density-matrix invariants and return a DensityMatrix.

    Hermiticity is checked by the DensityMatrix constructor; trace and
    positivity here.  Raises NotHermitianError, TraceNotOneError, or
    NotPSDError, each carrying the offending residual magnitude, a plain
    ValueError for a NaN or infinite entry, which every comparison with a
    tolerance would let pass, and FloatingPointError for entries so large
    (near 1e308) that a residual or an eigenvalue overflows.
    """
    rho = DensityMatrix(dims, matrix)
    mat = rho.matrix
    with np.errstate(over="raise"):
        tr = complex(np.trace(mat))
    tr_res = abs(tr - 1.0)
    if tr_res > TRACE_TOL:
        raise TraceNotOneError(f"trace is {tr:.12g}, not 1 (residual {tr_res:.3e})", tr_res)
    min_eig = float(np.linalg.eigvalsh(mat).min())
    if not np.isfinite(min_eig):
        raise FloatingPointError(f"matrix eigenvalues overflow (least eigenvalue {min_eig})")
    if min_eig < -PSD_TOL:
        raise NotPSDError(f"matrix is not PSD (min eigenvalue {min_eig:.3e})", -min_eig)
    return rho


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product of two states; dims concatenate."""
    return DensityMatrix(a.dims + b.dims, _hermitian_part(np.kron(a.matrix, b.matrix)))


def mix(weights, states) -> DensityMatrix:
    """Convex mixture sum_k p_k rho_k of states on identical subsystems."""
    ws = np.asarray(weights, dtype=float)
    states = list(states)
    if ws.ndim != 1 or len(states) != ws.size:
        raise ValueError(f"{ws.size} weights for {len(states)} states")
    if ws.size == 0:
        raise ValueError("empty mixture")
    if not np.all(ws > 0):                  # NaN weights too
        raise ValueError(f"mixture weights must be positive, got {ws.tolist()}")
    if abs(ws.sum() - 1.0) > 1e-12:
        raise ValueError(f"mixture weights sum to {ws.sum():.15g}, not 1")
    dims = states[0].dims
    for s in states[1:]:
        if s.dims != dims:
            raise ValueError(f"mixture requires equal dims, got {dims} and {s.dims}")
    acc = sum(w * s.matrix for w, s in zip(ws, states))
    return DensityMatrix(dims, _hermitian_part(acc))


def _partial_trace(dims: tuple[int, ...], mats: np.ndarray, kept: list[int]) -> np.ndarray:
    """Marginals on the increasing parties ``kept`` of each matrix of a (B, d, d) stack."""
    n, b = len(dims), len(mats)
    cols = [n + i if i in kept else i for i in range(n)]
    t = np.einsum(mats.reshape((b,) + dims + dims), [..., *range(n), *cols], [..., *kept, *(n + i for i in kept)])
    return t.reshape((b,) + 2 * (prod(dims[i] for i in kept),))


def _partial_transpose(dims: tuple[int, ...], mats: np.ndarray, party: int) -> np.ndarray:
    """A (B, d, d) stack with the indices of ``party`` transposed."""
    return mats.reshape((len(mats),) + dims + dims).swapaxes(1 + party, 1 + party + len(dims)).reshape(mats.shape)


def _purity(mats: np.ndarray) -> np.ndarray:
    """Tr(rho^2) of each matrix of a (B, d, d) stack."""
    return np.einsum("bij,bji->b", mats, mats).real


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the given parties (traces out the rest).

    ``keep`` is a nonempty set of party indices; kept parties stay in their
    original tensor order.
    """
    n = rho.num_parties
    kept = sorted(set(operator.index(i) for i in keep))
    if not kept:
        raise ValueError("keep set is empty")
    if kept[0] < 0 or kept[-1] >= n:
        raise ValueError(f"keep indices {kept} out of range for {n} parties")
    if len(kept) == n:
        return rho
    marginal = _partial_trace(rho.dims, rho.matrix[None], kept)[0]
    return DensityMatrix(tuple(rho.dims[i] for i in kept), _hermitian_part(marginal))


def partial_transpose(rho: DensityMatrix, party: int) -> HermitianOperator:
    """Transpose the indices of one party only.

    The result is Hermitian with unit trace but need not be positive; a
    negative eigenvalue certifies entanglement across the party cut.
    """
    n = rho.num_parties
    party = operator.index(party)
    if party < 0 or party >= n:
        raise ValueError(f"party index {party} out of range for {n} parties")
    return HermitianOperator(rho.dims, _partial_transpose(rho.dims, rho.matrix[None], party)[0])


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2); equals 1 exactly for pure states."""
    return float(_purity(rho.matrix[None])[0])


def _pure(purity):
    return purity >= 1.0 - PURITY_TOL       # of one state or of an array of them; NaN counts as mixed


def is_pure(rho: DensityMatrix) -> bool:
    return _pure(purity(rho))


# --- JSON state format -------------------------------------------------------
#
# {"dims": [n1, ...], "pure": [[re, im], ...]}            state vector, or
# {"dims": [n1, ...], "matrix": [[[re, im], ...], ...]}   row-major matrix.


def _complex_pairs(obj, what: str) -> np.ndarray:
    arr = np.asarray(obj, dtype=float)
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise ValueError(f"{what} entries must be [re, im] pairs")
    with np.errstate(invalid="ignore"):     # 1j * inf; from_pure and validate reject it
        return arr[..., 0] + 1j * arr[..., 1]


def state_from_json_dict(obj: dict) -> DensityMatrix:
    """Parse the CLI's JSON state format into a validated DensityMatrix."""
    if not isinstance(obj, dict):
        raise ValueError("state JSON must be an object")
    if "dims" not in obj:
        raise ValueError('state JSON is missing "dims"')
    dims = _dims(obj["dims"])
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
