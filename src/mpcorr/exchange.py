"""Exchange symmetry of two identical n-level parties: the projectors
(1 +- S)/2, with S the party swap, onto the symmetric and antisymmetric
sectors of dimensions n(n+1)/2 and n(n-1)/2, and projections of states.

For two qubits the antisymmetric sector is one-dimensional, so any state's
antisymmetric projection renormalizes to the pure singlet; for n >= 3 it can
be mixed, as the symmetric projection can be for every n.
"""

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .density import DensityMatrix, HermitianOperator, _dims, _hermitian_part

NULL_PROJECTION_TOL = 1e-12

ExchangeKind = Literal["symmetric", "antisymmetric"]


class NullProjectionError(ValueError):
    """The state has (numerically) no weight in the requested sector."""


@dataclass(frozen=True)
class ExchangeProjection:
    """Renormalized projection of a state onto one exchange sector, together
    with the sector weight Tr(P rho P).  Weights of the two sectors sum
    to 1."""

    kind: ExchangeKind
    projected: DensityMatrix
    weight: float


def exchange_projector(n: int, kind: ExchangeKind) -> HermitianOperator:
    """Projector (1 + S)/2 ("symmetric") or (1 - S)/2 ("antisymmetric") on
    two n-level parties, where S|i j> = |j i> is the identity with its party
    indices swapped.  For two qubits the antisymmetric one is |psi-><psi-|."""
    n = _dims((n, n))[0]
    if kind not in ("symmetric", "antisymmetric"):
        raise ValueError(f"kind must be 'symmetric' or 'antisymmetric', got {kind!r}")
    eye = np.eye(n * n)
    swap = np.eye(n * n, dtype=complex).reshape(n, n, n * n).swapaxes(0, 1).reshape(n * n, n * n)
    return HermitianOperator((n, n), (eye + swap if kind == "symmetric" else eye - swap) / 2.0)


def project_exchange(rho: DensityMatrix, kind: ExchangeKind) -> ExchangeProjection:
    """P rho P restricted to one exchange sector, renormalized.

    Raises NullProjectionError when the sector weight is below 1e-12 (for
    example, antisymmetrizing a pure triplet state).
    """
    if len(rho.dims) != 2 or rho.dims[0] != rho.dims[1]:
        raise ValueError(f"exchange projection needs two parties of one dimension, got dims {rho.dims}")
    proj = exchange_projector(rho.dims[0], kind).matrix
    raw = proj @ rho.matrix @ proj
    weight = float(np.trace(raw).real)
    if weight <= NULL_PROJECTION_TOL:
        raise NullProjectionError(f"state has weight {weight:.3e} in the {kind} sector")
    return ExchangeProjection(kind=kind, projected=DensityMatrix(rho.dims, _hermitian_part(raw) / weight),
                              weight=weight)
