"""Reference values the benchmark checks mpcorr's outputs against, computed
apart from the package: closed forms of the generalized Werner family, state
matrices written from the family definitions, the paper's measure weights,
an index-loop partial transpose and swap operator, and the brute-force
Kronecker-loop oracle of ``tests/helpers.py`` (imported, not copied).
"""

import importlib.util
from functools import cache
from itertools import combinations
from math import log2
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# The paper's weights: K = n^2 / (4 (n^2 - 1)) for a pair with smaller
# dimension n, 1/4 and 27/160 for qubit and qutrit triples, 1/8 for four qubits.
TRIPLE_WEIGHT = {2: 0.25, 3: 27.0 / 160.0}
QUAD_WEIGHT = 0.125
PURE_CUTOFF = 1.0 - 1e-8


def pair_weight(n: int, m: int) -> float:
    s = min(n, m)
    return s * s / (4.0 * (s * s - 1.0))


@cache
def oracle():
    """The test suite's brute-force oracle module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("mpcorr_test_oracle", ROOT / "tests" / "helpers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# --- generalized Werner closed forms ----------------------------------------

def werner_ec(p, theta):
    s2 = 1.0 / np.cosh(2.0 * theta) ** 2
    return p * p / 3.0 * (2.0 * s2 + (1.0 - p + p * s2) ** 2)


def werner_ph_threshold(p, theta):
    """p (1 + 2 sech 2 theta); the state is entangled where this exceeds 1."""
    return p * (1.0 + 2.0 / np.cosh(2.0 * theta))


def werner_xi_lhs(xi, p, theta):
    """-xi + sqrt(xi^2/4 + p^2 tanh^2 2 theta), equal to the PH threshold."""
    return -xi + np.sqrt(xi * xi / 4.0 + (p * np.tanh(2.0 * theta)) ** 2)


# --- state matrices from the family definitions ------------------------------

def ket_matrix(amplitudes) -> np.ndarray:
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def bloch_qubit(n) -> np.ndarray:
    x, y, z = (float(c) for c in n)
    return np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]]) / 2.0


BELL = {"phi+": (1, 0, 0, 1), "phi-": (1, 0, 0, -1), "psi+": (0, 1, 1, 0), "psi-": (0, 1, -1, 0)}


def family_matrix(family: str, params: dict) -> np.ndarray:
    if family == "bell":
        return ket_matrix(BELL[params["which"]])
    if family == "rashid":
        t = params["theta"]
        return ket_matrix([np.exp(-t), 0, 0, np.exp(t)])
    if family == "generalized-werner":
        p, t = params["p"], params["theta"]
        return p * ket_matrix([0, np.exp(t), -np.exp(-t), 0]) + (1 - p) * np.eye(4) / 4
    if family == "cc-mixture":
        return sum(w * np.kron(bloch_qubit(a), bloch_qubit(b)) for w, a, b in params["terms"])
    if family == "ghz":
        n, d = params["parties"], params["level"]
        v = np.zeros(d ** n)
        for i in range(d):
            v[sum(i * d ** k for k in range(n))] = 1.0
        return ket_matrix(v)
    if family == "tripartite-qutrit-e3":
        t1, t2 = params["theta1"], params["theta2"]
        v = np.zeros(27)
        v[0], v[13], v[26] = np.exp(t1 + t2), np.exp(-t1), np.exp(-t2)
        return ket_matrix(v)
    raise ValueError(f"no reference matrix for family {family!r}")


# --- two-qubit partial transpose and exchange --------------------------------

def partial_transpose_second(mat: np.ndarray, da: int, db: int) -> np.ndarray:
    out = np.empty_like(mat)
    for i in range(da):
        for j in range(db):
            for k in range(da):
                for l in range(db):
                    out[i * db + j, k * db + l] = mat[i * db + l, k * db + j]
    return out


def min_pt_eigenvalue(mat: np.ndarray, da: int, db: int) -> float:
    return float(np.linalg.eigvalsh(partial_transpose_second(mat, da, db)).min())


def exchange_projection(mat: np.ndarray, sign: int) -> tuple[float, np.ndarray]:
    """Weight Tr(P rho P) and renormalized P rho P for P = (1 + sign*SWAP)/2."""
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[2 * i + j, 2 * j + i] = 1.0
    proj = (np.eye(4) + sign * swap) / 2.0
    raw = proj @ mat @ proj
    weight = float(np.trace(raw).real)
    return weight, raw / weight if weight > 0 else raw


# --- oracle decomposition and measures ---------------------------------------

def decomposition(mat: np.ndarray, dims: tuple[int, ...]) -> dict:
    """Coherence vectors and the pair / triple / four-party tensors, in the
    layout of the ``decompose`` report, from the Kronecker-loop oracle."""
    o = oracle()
    bases = [o.oracle_basis(d) for d in dims]

    def cumulant(parties):
        sub = o.oracle_ptrace(mat, dims, list(parties))
        return o.oracle_cumulant(sub, tuple(dims[p] for p in parties), [bases[p] for p in parties])

    n = len(dims)
    return {
        "coherence_vectors": o.oracle_vectors(mat, dims, bases),
        "pair_correlations": {f"{i}-{j}": cumulant((i, j)) for i, j in combinations(range(n), 2)},
        "triple_correlations": None if n < 3 else {
            "-".join(map(str, t)): cumulant(t) for t in combinations(range(n), 3)},
        "quad_correlations": cumulant(range(4)) if n == 4 else None,
    }


def purity(mat: np.ndarray) -> float:
    return float(np.trace(mat @ mat).real)


def measures(mat: np.ndarray, dims: tuple[int, ...], dec: dict) -> dict:
    """The ``measure`` report's entries for a state, from its oracle tensors."""
    pair_sq = sum(float((c * c).sum()) for c in dec["pair_correlations"].values())
    if len(dims) == 2:
        out = {"e_c": pair_weight(*dims) * pair_sq}
        if purity(mat) >= PURE_CUTOFF:
            rho_a = oracle().oracle_ptrace(mat, dims, [0])
            mu = np.linalg.eigvalsh(rho_a)
            out["concurrence"] = float(np.sqrt(max(0.0, 2.0 * (1.0 - purity(rho_a)))))
            out["entropy_bits"] = float(-sum(m * log2(m) for m in mu if m > 1e-15))
        return out
    out = {"e_c": pair_weight(dims[0], dims[0]) * pair_sq}
    if len(dims) == 3:
        d = dec["triple_correlations"]["0-1-2"]
        out["e_d"] = TRIPLE_WEIGHT[dims[0]] * float((d * d).sum())
    else:
        e = dec["quad_correlations"]
        out["e_e"] = QUAD_WEIGHT * float((e * e).sum())
    return out


def max_abs_diff(got, want) -> float:
    """Largest entry-wise difference of two nested tensors; inf on a shape mismatch."""
    got, want = np.asarray(got, dtype=complex), np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        return float("inf")
    return float(np.abs(got - want).max()) if got.size else 0.0
