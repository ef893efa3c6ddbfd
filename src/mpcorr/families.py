"""Named state families and FAMILY_BUILDERS, the one table of them, which
the CLI reads: build_family builds a family at one point and family_stacks at
the points of a sweep.  Every output is a valid DensityMatrix.  The
``*_states`` forms take arrays of parameters and return a (B, d, d) stack; the
scalar constructor is their one-point case.  A stack's dtype follows the
amplitudes (see :func:`density.pure_states`): every sweepable family has real
amplitudes, so its stacks are float64 and the moment map of :mod:`bloch`
skips the products of their imaginary part, while a scalar constructor's
DensityMatrix is complex.  An overflow, in an exponential or in the Bloch
norms and weights of a mixture, raises FloatingPointError.
"""

from functools import cache
from inspect import signature
from math import isfinite, sqrt
from numbers import Real

import numpy as np

from .bloch import BlochDecomposition, reconstruct
from .density import DensityMatrix, from_pure, mix, pure_states, tensor

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


def _real(name: str, value) -> float:
    """``value`` as a finite float: numpy scalars pass, strings, booleans, NaN and infinities do not."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not isfinite(value):
        raise ValueError(f"{name} must be finite, got {float(value)}")
    return float(value)


def rashid(theta: float) -> DensityMatrix:
    """Tilted pure pair (e^-theta |00> + e^theta |11>) / sqrt(2 cosh 2 theta);
    maximally entangled at theta = 0, product as |theta| -> infinity."""
    return DensityMatrix((2, 2), rashid_states([_real("theta", theta)])[0])


def rashid_states(theta) -> np.ndarray:
    """:func:`rashid` over an array of theta."""
    theta = np.asarray(theta, dtype=float)
    zero = np.zeros_like(theta)
    with np.errstate(over="raise", invalid="ignore"):
        norm = np.sqrt(2.0 * np.cosh(2.0 * theta))
        return pure_states(np.stack([np.exp(-theta) / norm, zero, zero, np.exp(theta) / norm], axis=-1))


def _list(name: str, value, length: int | None = None) -> list:
    if not (isinstance(value, (list, tuple)) or getattr(value, "ndim", 0) == 1) or length not in (None, len(value)):
        raise ValueError(f"{name} must be a list{f' of {length}' if length else ''}, got {value!r}")
    return list(value)


@np.errstate(over="raise")
def cc_mixture(terms) -> DensityMatrix:
    """Classically correlated two-qubit state sum_k p_k rho_A,k x rho_B,k,
    each factor given by its Bloch vector.

    ``terms`` is a list of [weight, bloch_a, bloch_b] with positive
    weights summing to 1 and Bloch vectors of three components and norm <= 1.
    """
    weights, products = [], []
    for k, term in enumerate(_list("terms", terms)):
        p, na, nb = _list(f"term {k} (weight, Bloch vector A, Bloch vector B)", term, 3)
        na, nb = (np.array([_real(f"term {k}: Bloch component", c) for c in _list(f"term {k}: Bloch vector {t}", n, 3)])
                  for t, n in (("A", na), ("B", nb)))
        for tag, n in (("A", na), ("B", nb)):
            if not np.linalg.norm(n) <= 1.0 + 1e-12:
                raise ValueError(f"term {k}: Bloch vector {tag} has norm {np.linalg.norm(n):.6f} > 1")
        weights.append(_real(f"term {k}: weight", p))
        # (1 + n . sigma) / 2, the qubit whose coherence vector is n
        products.append(tensor(*(reconstruct(BlochDecomposition((2,), (n,), {})) for n in (na, nb))))
    return mix(weights, products)


def generalized_werner(p: float, theta: float = 0.0) -> DensityMatrix:
    """Mixture p |psi-(theta)><psi-(theta)| + (1-p)/4 of a tilted singlet with
    the maximally mixed state; theta = 0 is the standard Werner family.

    The tilted singlet is (e^theta |01> - e^-theta |10>) / sqrt(2 cosh 2
    theta), which puts the A-party Bloch vector at +p tanh(2 theta) z and
    gives the correlation matrix -p diag(sech 2theta, sech 2theta,
    1 - p + p sech^2 2theta).
    """
    return DensityMatrix((2, 2), generalized_werner_states([_real("p", p)], [_real("theta", theta)])[0])


def generalized_werner_states(p, theta) -> np.ndarray:
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
    number = _real(name, value)
    if not number.is_integer():
        raise ValueError(f"{name} must be a whole number, got {number}")
    return int(number)


def ghz(parties: int = 3, level: int = 2) -> DensityMatrix:
    """Equal superposition of |i i ... i> over all levels i, for parties >= 2
    and level >= 2 with level**parties <= 256 (up to eight qubits)."""
    parties, level = _whole("parties", parties), _whole("level", level)
    if not (2 <= parties <= 8 and 2 <= level and level ** parties <= 256):  # bounds parties before the power
        raise ValueError(f"ghz needs parties, level >= 2 with level**parties <= 256, got ({parties}, {level})")
    vec = np.zeros(level ** parties, dtype=complex)
    vec[::(level ** parties - 1) // (level - 1)] = 1.0 / sqrt(level)        # at |0...0>, |1...1>, ...
    return from_pure(vec, (level,) * parties)


def _ghz_groups(**params):
    """:func:`ghz` over arrays of parameters, one group per distinct point."""
    groups: dict[tuple, list[int]] = {}
    for i, point in enumerate(zip(*np.broadcast_arrays(*params.values()))):
        groups.setdefault(point, []).append(i)
    states = [(idx, ghz(**dict(zip(params, point)))) for point, idx in groups.items()]
    # GHZ amplitudes are real, so each group repeats a real matrix
    return [(idx, rho.dims, np.repeat(rho.matrix.real[None], len(idx), axis=0)) for idx, rho in states]


def tripartite_qutrit_e3(theta1: float, theta2: float) -> DensityMatrix:
    """Three-qutrit pure state with amplitudes (e^{t1+t2}, e^{-t1}, e^{-t2})
    on |111>, |222>, |333>, normalized.  Equals the three-qutrit GHZ state at
    theta1 = theta2 = 0."""
    theta1, theta2 = _real("theta1", theta1), _real("theta2", theta2)
    return DensityMatrix((3, 3, 3), tripartite_qutrit_e3_states([theta1], [theta2])[0])


def tripartite_qutrit_e3_states(theta1, theta2) -> np.ndarray:
    """:func:`tripartite_qutrit_e3` over arrays of theta1 and theta2."""
    t1, t2 = np.broadcast_arrays(np.asarray(theta1, dtype=float), np.asarray(theta2, dtype=float))
    vec = np.zeros(t1.shape + (27,))
    with np.errstate(over="raise", invalid="ignore"):
        vec[:, 0], vec[:, 13], vec[:, 26] = np.exp(t1 + t2), np.exp(-t1), np.exp(-t2)
    return pure_states(vec)


def _one_group(states, dims):
    return lambda **params: [(slice(None), dims, states(**params))]


_signature = cache(signature)           # a builder's signature, read once and not once per command
# name -> (scalar builder, stack function).  The builder's signature declares the family's parameters
# and their defaults; the stack function maps one array per parameter to the (indices, dims, (B, d, d)
# stack) groups of the points, or is None where the parameters are not numbers, so no grid sweeps them.
FAMILY_BUILDERS = {
    "bell": (bell, None),
    "rashid": (rashid, _one_group(rashid_states, (2, 2))),
    "cc-mixture": (cc_mixture, None),
    "generalized-werner": (generalized_werner, _one_group(generalized_werner_states, (2, 2))),
    "ghz": (ghz, _ghz_groups),
    "tripartite-qutrit-e3": (tripartite_qutrit_e3, _one_group(tripartite_qutrit_e3_states, (3, 3, 3))),
}


def family_row(name: str, params, sweep: bool = False) -> tuple:
    """A family's row, after checking its name, its stack function if ``sweep``, and that ``params`` is a dict
    of its builder's parameters with every one that has no default: with the value readers, the one check."""
    if not isinstance(name, str) or name not in FAMILY_BUILDERS:
        raise ValueError(f"unknown family {name!r}; known: {sorted(FAMILY_BUILDERS)}")
    row = FAMILY_BUILDERS[name]
    if sweep and row[1] is None:
        raise ValueError(f"family {name!r} cannot be swept: its parameters are not numbers")
    if not isinstance(params, dict):
        raise ValueError(f"parameters of family {name!r} must be an object, got {type(params).__name__}")
    declared = _signature(row[0]).parameters
    if unknown := params.keys() - declared:
        raise ValueError(f"unknown parameter(s) {sorted(unknown)} for family {name!r}; allowed: {sorted(declared)}")
    if missing := {key for key, p in declared.items() if p.default is p.empty} - params.keys():
        raise ValueError(f"missing parameter(s) {sorted(missing)} for family {name!r}")
    return row


def build_family(name: str, params: dict) -> DensityMatrix:
    """A family's state at one point, from its scalar builder."""
    return family_row(name, params)[0](**params)


def family_stacks(name: str, params: dict) -> list:
    """(indices, dims, (B, d, d) stack) groups of a family's states at ``params`` and the builder's defaults."""
    builder, stacks = family_row(name, params, sweep=True)
    defaults = {key: p.default for key, p in _signature(builder).parameters.items() if p.default is not p.empty}
    return stacks(**{key: np.atleast_1d(value) for key, value in {**defaults, **params}.items()})
