"""The one table of quantities, :data:`COLUMNS`: the correlation measures
over the correlation tensors, the pure-state comparison quantities
(concurrence, entanglement entropy) and the classification quantities, with
the weights and tolerances they apply; :mod:`classify` builds on its rows.

The bipartite measure is K * sum_ij C_ij^2 with K = n_<^2 / (4 (n_<^2 - 1)),
n_< the smaller party dimension; it reaches exactly 1 on maximally entangled
pairs.  The triple and quadruple analogues use K = 1/4 (qubits) or 27/160
(qutrits) and K' = 1/8.  All of them are invariant under local unitaries.
"""

from dataclasses import dataclass

import numpy as np

from .bloch import BlochDecomposition, decompose_stack
from .density import DensityMatrix, _dims, _partial_trace, _partial_transpose, _pure, _purity

TRIPLE_WEIGHTS = {2: 0.25, 3: 27.0 / 160.0}
QUAD_WEIGHT = 0.125
NSV_ABS_FLOOR = 1e-12
NSV_REL_FACTOR = 1e-9
PT_NEGATIVITY_TOL = 1e-10
BLOCH_DEGENERACY_TOL = 1e-12


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


def _pair_decomposition(dims: tuple[int, ...], c) -> BlochDecomposition:
    """A bare correlation matrix as a decomposition: zero coherence vectors
    and C on parties (0, 1), so C's shape and entries get the one check."""
    return BlochDecomposition(dims, tuple(np.zeros(d * d - 1) for d in dims), {(0, 1): c})


def e_c_bipartite(c: np.ndarray, dims: tuple[int, int]) -> float:
    """Bipartite correlation measure K * Tr(C C^T) for an n x m system."""
    dims = _dims(dims)
    if len(dims) != 2:
        raise ValueError(f"e_c_bipartite needs two parties, got dims {dims}")
    return _one("ec", Context(dims, tensors=((), _pair_decomposition(dims, c).correlations)))


def e_c_multipartite(decomp: BlochDecomposition) -> float:
    """Sum of the bipartite measure over all unordered party pairs.

    Defined for >= 3 parties of equal dimension.  A single maximally
    entangled pair in an otherwise uncorrelated system scores 1, matching the
    bipartite scale (an ordered-pair sum would double every term).
    """
    if len(decomp.dims) < 3:
        raise ValueError(f"multipartite measure needs >= 3 parties, got dims {decomp.dims}")
    return _one("ec", Context(decomp.dims, tensors=((), decomp.correlations)))


def e_d(decomp: BlochDecomposition) -> float:
    """Tripartite correlation measure K * sum D_ijk^2 (qubits or qutrits)."""
    return _one("ed", Context(decomp.dims, tensors=((), decomp.correlations)))


def e_e(decomp: BlochDecomposition) -> float:
    """Four-party correlation measure (1/8) * sum E_ijkl^2 for four qubits;
    a missing four-party tensor counts as zero."""
    return _one("ee", Context(decomp.dims, tensors=((), decomp.correlations)))


def concurrence_pure(rho: DensityMatrix) -> float:
    """sqrt(2 (1 - Tr rho_A^2)) for a pure bipartite state."""
    return _one("concurrence", Context(rho.dims, rho.matrix))


def entanglement_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy (bits) of the reduced state of a pure bipartite
    state, with 0 log 0 = 0."""
    return _one("entropy", Context(rho.dims, rho.matrix))


class Context:
    """A (B, d, d) stack as the rows read it: ``dims``, ``mats`` and
    ``ctx(f)``, the value f(ctx) of a shared quantity such as
    :func:`_tensors`, computed on its first read and kept with the context,
    so a quantity may read another.  ``tensors`` is the value of
    :func:`_tensors` where no mats are given.  Only the rows that read the
    matrices (concurrence, entropy, ph, purity, pt_min) also take one (d, d)
    state; the rows that decompose (ec, ed, ee, nsv, xi, nanb) raise
    ValueError on it, as :func:`_tensors` needs the batch axis.  So the
    scalar entry points pass one state only to concurrence, entropy and
    pt_min, and pass a decomposition's parts as ``tensors``."""

    def __init__(self, dims: tuple[int, ...], mats: np.ndarray | None = None, tensors=None):
        self.dims, self.mats, self._memo = dims, mats, {} if tensors is None else {_tensors: tensors}

    def __call__(self, f):
        return self._memo[f] if f in self._memo else self._memo.setdefault(f, f(self))


def _tensors(ctx: Context):
    """The coherence vectors and correlation tensors of a context's stack."""
    return decompose_stack(ctx.dims, ctx.mats)


def _sector_norm(parties: int, weight):
    """weight(dims) times the summed squares of the correlation tensors on
    ``parties`` parties: the pairwise sum for ec, D for ed, E for ee.  Each
    tensor is summed over its last ``parties`` axes, so a context may hold
    one state's tensors or (B, ...) stacks."""
    return lambda ctx: weight(ctx.dims) * sum(np.square(c).sum(axis=tuple(range(-parties, 0)))
                                              for s, c in ctx(_tensors)[1].items() if len(s) == parties)


def require_column(name: str, dims: tuple[int, ...]):
    """The column function of row ``name`` of :data:`COLUMNS`; ValueError
    for a name with no row, or unless the row's test holds for ``dims``."""
    if name not in COLUMNS:
        raise ValueError(f"unknown output {name!r}; known: {tuple(COLUMNS)}")
    needs, applies, column, _ = COLUMNS[name]
    if not applies(dims):
        raise ValueError(f"{name} output needs {needs}, got dims {dims}")
    return column


def evaluate(ctx: Context, names) -> dict:
    """The rows ``names`` of :data:`COLUMNS` on the context of a (B, d, d)
    stack, one array of B values per row; the rows share what the context
    computes for them.  ValueError if a row does not apply to its dims."""
    columns = {name: require_column(name, ctx.dims) for name in names}
    return {name: column(ctx) for name, column in columns.items()}


def _one(name: str, ctx: Context) -> float:
    """The ``name`` row of COLUMNS on the context of one state."""
    return float(require_column(name, ctx.dims)(ctx))


def _marginals(ctx: Context):
    """Tr rho^2 of each state of a context, and the party-A marginals if all are pure (else None)."""
    purity = _purity(ctx.mats)
    return purity, _partial_trace(ctx.dims, ctx.mats, [0]) if _pure(purity).all() else None


def _pure_marginals(what: str, ctx: Context) -> np.ndarray:
    """The context's party-A marginals; MixedStateError, naming ``what``, at its first mixed state."""
    purity, marginals = ctx(_marginals)
    if marginals is None:
        raise MixedStateError(f"{what} is defined for pure states only (Tr rho^2 = {purity[~_pure(purity)][0]:.9f})")
    return marginals


def _entropy_bits(marginals: np.ndarray) -> np.ndarray:
    # the complex eigensolver for real marginals too, so both give the same bits
    mu = np.linalg.eigvalsh(marginals.astype(complex, copy=False))
    terms = np.where(mu > 1e-15, -mu * np.log2(np.where(mu > 1e-15, mu, 1.0)), 0.0)
    return terms.sum(axis=-1) + 0.0        # +0.0, not -0.0, for a product


def _spectrum(c: np.ndarray):
    """Singular values, NSV threshold max(1e-12, 1e-9 * largest singular
    value) and NSV count of one correlation matrix or of a (B, ...) stack."""
    sv = np.linalg.svd(c, compute_uv=False)
    threshold = np.maximum(NSV_ABS_FLOOR, NSV_REL_FACTOR * sv.max(axis=-1, initial=0.0))
    return sv, threshold, (sv > threshold[..., None]).sum(axis=-1)


def _pt_min(ctx: Context) -> np.ndarray:
    """Least eigenvalue of the partial transpose on the second party of each
    bipartite state of a context, from the complex eigensolver also for a
    real stack, so both give the same bits."""
    return np.linalg.eigvalsh(_partial_transpose(ctx.dims, ctx.mats, 1).astype(complex, copy=False)).min(axis=-1)


def _invariants(ctx: Context):
    """xi, n_A . n_B and n_A . C . n_B of the two-qubit states of a context,
    from its vectors and C; xi is NaN where |n_A . n_B| <= 1e-12.  The sums
    run in a fixed order, so a state gives the same bits alone as in a stack."""
    (na, nb), sectors = ctx(_tensors)
    na_nb = (na * nb).sum(axis=-1)
    na_c_nb = ((na[..., :, None] * sectors[(0, 1)]).sum(axis=-2) * nb).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        xi = np.trace(sectors[(0, 1)], axis1=-2, axis2=-1) - na_c_nb / na_nb
    return np.where(np.abs(na_nb) <= BLOCH_DEGENERACY_TOL, np.nan, xi), na_nb, na_c_nb


# Every quantity as a column: name -> (what it needs, test on dims, column
# function, law).  A column function maps the Context of a stack of B states
# to B values; evaluate applies rows to a stack, and the scalar functions
# apply a row to one state through _one or require_column, so each column is
# the only code for its quantity and its test the only statement of where it
# is defined.  The sector norms ec, ed and ee, the NSV count and the two-qubit
# invariants (xi being NaN where n_A . n_B degenerates) read the context's
# decomposition, xi and nanb its one invariants pass, and ph (0/1) and pt_min
# its one PT eigensolve; concurrence and entropy (_PURE_ONLY) read its one
# pass of purities and party-A marginals, never decompose, and raise
# MixedStateError on a mixed state; purity reads the matrices.  The law is the
# set of groups under which the row moves by at most LAW_TOL: local unitaries
# U_1 x ... x U_N, collective unitaries U x ... x U on parties of one dimension,
# and party permutations, which reorder the parties with their dims; only the
# paper's invariants xi and nanb lack the local unitaries.
LOCAL_UNITARIES, COLLECTIVE_UNITARIES, PARTY_PERMUTATIONS = "local", "collective", "permutation"
LAW_TOL = 1e-10
_LOCAL = frozenset({LOCAL_UNITARIES, PARTY_PERMUTATIONS})
_COLLECTIVE = frozenset({COLLECTIVE_UNITARIES, PARTY_PERMUTATIONS})
COLUMNS = {
    "ec": ("two parties or three or more equal-dimension parties",
           lambda dims: len(dims) == 2 or len(dims) > 2 and len(set(dims)) == 1,
           _sector_norm(2, lambda dims: _pair_weight(dims[0], dims[-1])), _LOCAL),
    "ed": ("three qubits or three qutrits", lambda dims: dims in ((2, 2, 2), (3, 3, 3)),
           _sector_norm(3, lambda dims: TRIPLE_WEIGHTS[dims[0]]), _LOCAL),
    "ee": ("four qubits", lambda dims: dims == (2, 2, 2, 2), _sector_norm(4, lambda dims: QUAD_WEIGHT), _LOCAL),
    "concurrence": ("a bipartite state", lambda dims: len(dims) == 2, lambda ctx:
                    np.sqrt(np.maximum(0.0, 2.0 * (1.0 - _purity(_pure_marginals("concurrence", ctx))))), _LOCAL),
    "entropy": ("a bipartite state", lambda dims: len(dims) == 2,
                lambda ctx: _entropy_bits(_pure_marginals("entanglement entropy", ctx)), _LOCAL),
    "nsv": ("a bipartite state", lambda dims: len(dims) == 2,
            lambda ctx: _spectrum(ctx(_tensors)[1][(0, 1)])[2], _LOCAL),
    "ph": ("a bipartite state", lambda dims: len(dims) == 2,
           lambda ctx: (ctx(_pt_min) < -PT_NEGATIVITY_TOL).astype(int), _LOCAL),
    "xi": ("a two-qubit state", lambda dims: dims == (2, 2), lambda ctx: ctx(_invariants)[0], _COLLECTIVE),
    "nanb": ("a two-qubit state", lambda dims: dims == (2, 2), lambda ctx: ctx(_invariants)[1], _COLLECTIVE),
    "purity": ("any state", lambda dims: True, lambda ctx: _purity(ctx.mats), _LOCAL),
    "pt_min": ("a bipartite state", lambda dims: len(dims) == 2, lambda ctx: ctx(_pt_min), _LOCAL),
}
_PURE_ONLY = ("concurrence", "entropy")

# the rows of the measure report, each with its MeasureSet field
_FIELDS = {"ec": "e_c", "ed": "e_d", "ee": "e_e", "concurrence": "concurrence", "entropy": "entropy_bits"}


def measure_set(rho: DensityMatrix) -> MeasureSet:
    """The measures of every row of _FIELDS whose rule holds for the state's
    party structure; concurrence and entropy only when the state is pure."""
    ctx = Context(rho.dims, rho.matrix[None])
    names = [name for name in _FIELDS if COLUMNS[name][1](rho.dims)
             and (name not in _PURE_ONLY or ctx(_marginals)[1] is not None)]
    if not names:
        raise ValueError(f"no measures defined for party structure {rho.dims}")
    values = evaluate(ctx, names)
    return MeasureSet(**{_FIELDS[name]: float(column[0]) for name, column in values.items()})
