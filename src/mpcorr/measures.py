"""Scalar correlation measures over the correlation tensors, plus the
pure-state comparison quantities (concurrence, entanglement entropy).

The bipartite measure is K * sum_ij C_ij^2 with K = n_<^2 / (4 (n_<^2 - 1)),
n_< the smaller party dimension; it reaches exactly 1 on maximally entangled
pairs.  The triple and quadruple analogues use K = 1/4 (qubits) or 27/160
(qutrits) and K' = 1/8.  All of them are invariant under local unitaries.
"""

from dataclasses import dataclass
from math import log2

import numpy as np

from .bloch import BlochDecomposition, decompose_stack
from .density import DensityMatrix, _dims, _require_finite, is_pure, partial_trace, purity

TRIPLE_WEIGHTS = {2: 0.25, 3: 27.0 / 160.0}
QUAD_WEIGHT = 0.125


class MixedStateError(ValueError):
    """Raised by the pure-state-only measures when Tr(rho^2) < 1."""


@dataclass(frozen=True)
class MeasureSet:
    """The measures applicable to one state's party structure; inapplicable
    entries are None."""

    e_c: float | None = None
    e_d: float | None = None
    e_e: float | None = None
    concurrence: float | None = None
    entropy_bits: float | None = None


def _pair_weight(n: int, m: int) -> float:
    small = min(n, m)
    return small * small / (4.0 * (small * small - 1.0))


def e_c_bipartite(c: np.ndarray, dims: tuple[int, int]) -> float:
    """Bipartite correlation measure K * Tr(C C^T) for an n x m system."""
    n, m = _dims(dims)
    c = np.asarray(c, dtype=float)
    want = (n * n - 1, m * m - 1)
    if c.shape != want:
        raise ValueError(f"C has shape {c.shape}, expected {want} for dims {dims}")
    _require_finite(c, "C")
    return _norm("ec", (n, m), {(0, 1): c})


def e_c_multipartite(decomp: BlochDecomposition) -> float:
    """Sum of the bipartite measure over all unordered party pairs.

    Defined for >= 3 parties of equal dimension.  A single maximally
    entangled pair in an otherwise uncorrelated system scores 1, matching the
    bipartite scale (an ordered-pair sum would double every term).
    """
    dims = decomp.dims
    if len(dims) < 3:
        raise ValueError(f"multipartite measure needs >= 3 parties, got dims {dims}")
    if len(set(dims)) != 1:
        raise ValueError(f"multipartite measure requires equal party dimensions, got {dims}")
    return _norm("ec", dims, decomp.correlations)


def e_d(decomp: BlochDecomposition) -> float:
    """Tripartite correlation measure K * sum D_ijk^2 (qubits or qutrits)."""
    dims = decomp.dims
    if len(dims) != 3:
        raise ValueError(f"tripartite measure needs exactly 3 parties, got dims {dims}")
    if len(set(dims)) != 1 or dims[0] not in TRIPLE_WEIGHTS:
        raise ValueError(f"tripartite measure supports (2,2,2) and (3,3,3), got {dims}")
    return _norm("ed", dims, decomp.correlations)


def e_e(decomp: BlochDecomposition) -> float:
    """Four-party correlation measure (1/8) * sum E_ijkl^2 for four qubits."""
    if decomp.dims != (2, 2, 2, 2):
        raise ValueError(f"four-party measure supports four qubits only, got dims {decomp.dims}")
    if decomp.quad_correlations is None:
        raise ValueError("decomposition carries no four-party tensor")
    return _norm("ee", decomp.dims, decomp.correlations)


def _require_pure(rho: DensityMatrix, what: str) -> None:
    if not is_pure(rho):
        raise MixedStateError(f"{what} is defined for pure states only (Tr rho^2 = {purity(rho):.9f})")


def concurrence_pure(rho: DensityMatrix) -> float:
    """sqrt(2 (1 - Tr rho_A^2)) for a pure bipartite state."""
    if rho.num_parties != 2:
        raise ValueError(f"concurrence needs a bipartite state, got dims {rho.dims}")
    _require_pure(rho, "concurrence")
    pa = purity(partial_trace(rho, [0]))
    return float(np.sqrt(max(0.0, 2.0 * (1.0 - pa))))


def entanglement_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy (bits) of the reduced state of a pure bipartite
    state, with 0 log 0 = 0."""
    if rho.num_parties != 2:
        raise ValueError(f"entanglement entropy needs a bipartite state, got dims {rho.dims}")
    _require_pure(rho, "entanglement entropy")
    mu = np.linalg.eigvalsh(partial_trace(rho, [0]).matrix).real
    return float(sum(-m * log2(m) for m in mu if m > 1e-15))      # +0.0, not -0.0, for a product


def _sector_norm(parties: int, weight):
    """weight(dims) times the summed squares of the correlation tensors on
    ``parties`` parties: the pairwise sum for ec, D for ed, E for ee.  Each
    tensor is summed over its last ``parties`` axes, so ``sectors`` may hold
    one state's tensors or (B, ...) stacks."""
    return lambda dims, mats, vectors, sectors: weight(dims) * sum(
        np.square(c).sum(axis=tuple(range(-parties, 0))) for s, c in sectors.items() if len(s) == parties)


def _norm(name: str, dims: tuple[int, ...], sectors) -> float:
    """The ``name`` sector-norm column on one state's correlation tensors."""
    return float(COLUMNS[name][2](dims, None, None, sectors))


def _per_state(measure):
    return lambda dims, mats, vectors, sectors: [measure(DensityMatrix(dims, m)) for m in mats]


# The measures as columns: name -> (what it needs, test on dims, column
# function).  A column function maps a (B, d, d) stack, its coherence vectors
# and its correlation tensors (see bloch.decompose_stack) to B values.  The
# sector norms ec, ed and ee are the only code for E_C, E_D and E_E: the e_*
# functions check their input and call them on one state's tensors.
# Concurrence and entropy go state by state, through the scalar functions, and
# raise MixedStateError on a mixed state.
COLUMNS = {
    "ec": ("two parties, three equal-dimension parties or four qubits",
           lambda dims: len(dims) == 2 or len(dims) == 3 and len(set(dims)) == 1 or dims == (2, 2, 2, 2),
           _sector_norm(2, lambda dims: _pair_weight(dims[0], dims[-1]))),
    "ed": ("three qubits or three qutrits", lambda dims: dims in ((2, 2, 2), (3, 3, 3)),
           _sector_norm(3, lambda dims: TRIPLE_WEIGHTS[dims[0]])),
    "ee": ("four qubits", lambda dims: dims == (2, 2, 2, 2), _sector_norm(4, lambda dims: QUAD_WEIGHT)),
    "concurrence": ("a bipartite state", lambda dims: len(dims) == 2, _per_state(concurrence_pure)),
    "entropy": ("a bipartite state", lambda dims: len(dims) == 2, _per_state(entanglement_entropy)),
}

# MeasureSet field of each column
_FIELDS = {"ec": "e_c", "ed": "e_d", "ee": "e_e", "concurrence": "concurrence", "entropy": "entropy_bits"}


def measure_set(rho: DensityMatrix) -> MeasureSet:
    """All measures applicable to the state's party structure.

    Bipartite states get e_c plus concurrence/entropy when pure; equal-
    dimension 3-party states get the pairwise sum and (for qubits/qutrits)
    e_d; four-qubit states get the pairwise sum and e_e.
    """
    columns = {name: column for name, (_, applies, column) in COLUMNS.items() if applies(rho.dims)}
    if not columns:
        raise ValueError(f"no measures defined for party structure {rho.dims}")
    mats = rho.matrix[None]
    vectors, sectors = decompose_stack(rho.dims, mats)
    values = {}
    for name, column in columns.items():
        try:
            values[_FIELDS[name]] = float(column(rho.dims, mats, vectors, sectors)[0])
        except MixedStateError:
            pass
    return MeasureSet(**values)
