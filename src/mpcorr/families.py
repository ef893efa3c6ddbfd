"""Named state families: Bell pairs, Rashid tilted pairs, classically
correlated qubit mixtures, generalized Werner states, GHZ states, and the
three-parameter tripartite qutrit superposition.

These constructors are the stable vocabulary of the sweep CLI; every output
is a valid DensityMatrix.  The ``*_states`` forms take arrays of parameters
and return a (B, d, d) stack; the scalar constructor of the same family is
their one-point case.  An exponential that overflows raises FloatingPointError.
"""

from math import sqrt

import numpy as np

from .density import DensityMatrix, from_pure, mix, pure_states, tensor
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
    return DensityMatrix((2, 2), rashid_states([float(theta)])[0])


def rashid_states(theta) -> np.ndarray:
    """:func:`rashid` over an array of theta."""
    theta = np.asarray(theta, dtype=float)
    zero = np.zeros_like(theta)
    with np.errstate(over="raise", invalid="ignore"):
        norm = np.sqrt(2.0 * np.cosh(2.0 * theta))
        return pure_states(np.stack([np.exp(-theta) / norm, zero, zero, np.exp(theta) / norm], axis=-1))


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
    return DensityMatrix((2, 2), generalized_werner_states([float(p)], [float(theta)])[0])


def generalized_werner_states(p, theta=0.0) -> np.ndarray:
    """:func:`generalized_werner` over arrays of p and theta."""
    p, theta = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(theta, dtype=float))
    outside = ~((0.0 <= p) & (p <= 1.0))
    if outside.any():
        raise ValueError(f"mixing probability p must lie in [0, 1], got {p[outside][0]}")
    zero = np.zeros_like(theta)
    with np.errstate(over="raise", invalid="ignore"):
        norm = np.sqrt(2.0 * np.cosh(2.0 * theta))
        singlet = pure_states(np.stack([zero, np.exp(theta) / norm, -np.exp(-theta) / norm, zero], axis=-1))
    return p[:, None, None] * singlet + (1.0 - p)[:, None, None] * (np.eye(4) / 4.0)


def _whole(name: str, value) -> int:
    number = float(value)
    if not number.is_integer():
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(number)


def ghz(parties: int = 3, level: int = 2) -> DensityMatrix:
    """Equal superposition of |i i ... i> over all levels i, for 3 or 4
    parties of 2 or 3 levels (4 parties: qubits only)."""
    parties = _whole("parties", parties)
    level = _whole("level", level)
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
    return DensityMatrix((3, 3, 3), tripartite_qutrit_e3_states([float(theta1)], [float(theta2)])[0])


def tripartite_qutrit_e3_states(theta1, theta2) -> np.ndarray:
    """:func:`tripartite_qutrit_e3` over arrays of theta1 and theta2."""
    t1, t2 = np.broadcast_arrays(np.asarray(theta1, dtype=float), np.asarray(theta2, dtype=float))
    vec = np.zeros(t1.shape + (27,))
    with np.errstate(over="raise", invalid="ignore"):
        vec[:, 0], vec[:, 13], vec[:, 26] = np.exp(t1 + t2), np.exp(-t1), np.exp(-t2)
    return pure_states(vec)
