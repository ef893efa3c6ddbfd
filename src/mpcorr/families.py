"""Named state families: Bell pairs, Rashid tilted pairs, classically
correlated qubit mixtures, generalized Werner states, GHZ states, and the
three-parameter tripartite qutrit superposition.

These constructors are the stable vocabulary of the sweep CLI; every output
is a valid DensityMatrix.
"""

from math import cosh, exp, sqrt

import numpy as np

from .density import DensityMatrix, from_pure, mix, tensor
from .su_basis import pauli_basis

BELL_VECTORS = {
    "phi+": (1, 0, 0, 1),
    "phi-": (1, 0, 0, -1),
    "psi+": (0, 1, 1, 0),
    "psi-": (0, 1, -1, 0),
}


def bell(which: str) -> DensityMatrix:
    """One of the four maximally entangled two-qubit states
    ('phi+', 'phi-', 'psi+', 'psi-')."""
    if not isinstance(which, str):
        raise ValueError(f"Bell state name must be a string, got {which!r}")
    key = which.lower().replace("_", "").replace(" ", "")
    if key not in BELL_VECTORS:
        raise ValueError(f"unknown Bell state {which!r}; choose from {sorted(BELL_VECTORS)}")
    return from_pure(np.array(BELL_VECTORS[key], dtype=complex) / sqrt(2.0), (2, 2))


def rashid(theta: float) -> DensityMatrix:
    """Tilted pure pair (e^-theta |00> + e^theta |11>) / sqrt(2 cosh 2 theta);
    maximally entangled at theta = 0, product as |theta| -> infinity."""
    theta = float(theta)
    norm = sqrt(2.0 * cosh(2.0 * theta))
    return from_pure([exp(-theta) / norm, 0.0, 0.0, exp(theta) / norm], (2, 2))


def _bloch_qubit(n: np.ndarray) -> DensityMatrix:
    sig = pauli_basis().generators
    return DensityMatrix((2,), (np.eye(2, dtype=complex) + np.einsum("i,iab->ab", n, sig)) / 2.0)


def cc_mixture(terms) -> DensityMatrix:
    """Classically correlated two-qubit state sum_k p_k rho_A,k x rho_B,k,
    each factor given by its Bloch vector.

    ``terms`` is a sequence of (weight, bloch_a, bloch_b) with positive
    weights summing to 1 and Bloch norms <= 1.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("mixture needs at least one term")
    weights = []
    products = []
    for k, (p, na, nb) in enumerate(terms):
        na = np.asarray(na, dtype=float).reshape(3)
        nb = np.asarray(nb, dtype=float).reshape(3)
        for tag, n in (("A", na), ("B", nb)):
            if np.linalg.norm(n) > 1.0 + 1e-12:
                raise ValueError(f"term {k}: Bloch vector {tag} has norm {np.linalg.norm(n):.6f} > 1")
        weights.append(float(p))
        products.append(tensor(_bloch_qubit(na), _bloch_qubit(nb)))
    return mix(weights, products)


def generalized_werner(p: float, theta: float = 0.0) -> DensityMatrix:
    """Mixture p |psi-(theta)><psi-(theta)| + (1-p)/4 of a tilted singlet with
    the maximally mixed state; theta = 0 is the standard Werner family.

    The tilted singlet is (e^theta |01> - e^-theta |10>) / sqrt(2 cosh 2
    theta), which puts the A-party Bloch vector at +p tanh(2 theta) z and
    gives the correlation matrix -p diag(sech 2theta, sech 2theta,
    1 - p + p sech^2 2theta).
    """
    p = float(p)
    theta = float(theta)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing probability p must lie in [0, 1], got {p}")
    norm = sqrt(2.0 * cosh(2.0 * theta))
    singlet = from_pure([0.0, exp(theta) / norm, -exp(-theta) / norm, 0.0], (2, 2))
    maximally_mixed = DensityMatrix((2, 2), np.eye(4, dtype=complex) / 4.0)
    if p == 0.0:
        return maximally_mixed
    if p == 1.0:
        return singlet
    return mix([p, 1.0 - p], [singlet, maximally_mixed])


def ghz(parties: int = 3, level: int = 2) -> DensityMatrix:
    """Equal superposition of |i i ... i> over all levels i, for 3 or 4
    parties of 2 or 3 levels (4 parties: qubits only)."""
    parties = int(parties)
    level = int(level)
    if (parties, level) not in [(3, 2), (3, 3), (4, 2)]:
        raise ValueError(f"supported (parties, level): (3,2), (3,3), (4,2); got ({parties}, {level})")
    dims = (level,) * parties
    vec = np.zeros(level ** parties, dtype=complex)
    stride = (level ** parties - 1) // (level - 1)
    vec[::stride] = 1.0 / sqrt(level)
    return from_pure(vec, dims)


def tripartite_qutrit_e3(theta1: float, theta2: float) -> DensityMatrix:
    """Three-qutrit pure state with amplitudes (e^{t1+t2}, e^{-t1}, e^{-t2})
    on |111>, |222>, |333>, normalized.  Equals the three-qutrit GHZ state at
    theta1 = theta2 = 0."""
    t1 = float(theta1)
    t2 = float(theta2)
    vec = np.zeros(27, dtype=complex)
    vec[0] = exp(t1 + t2)
    vec[13] = exp(-t1)
    vec[26] = exp(-t2)
    return from_pure(vec, (3, 3, 3))
