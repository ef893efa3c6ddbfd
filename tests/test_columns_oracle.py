"""The classification and measure columns, and the spectral PH test, held to
the brute-force oracle of helpers.py: an index-loop partial transpose, a
partial trace by np.trace and kron-product expectation values.  Every scalar
function is the one-state case of its column, so comparing the two no longer
checks the arithmetic; these tests do, on stacks of random, product and
classically correlated states, and for concurrence and entropy, which are
defined on pure states only, on stacks of pure random and pure product states.
Every row is also held to its law, the groups it is invariant under, and to
the stack contract: a state gets the same bits from its row in a stack, alone,
through its scalar entry point and, for a real state, as its complex copy."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entry_points import ENTRY_POINTS
from helpers import (kron_all, oracle_basis, oracle_cumulant, oracle_pair_c, oracle_ptrace,
                     oracle_ptranspose, oracle_vectors, random_density_mat, random_unitary)

from mpcorr import measures
from mpcorr.bloch import decompose
from mpcorr.classify import ph_test
from mpcorr.density import DensityMatrix
from mpcorr.measures import (BLOCH_DEGENERACY_TOL, NSV_ABS_FLOOR, NSV_REL_FACTOR, PT_NEGATIVITY_TOL, Context,
                             MixedStateError)

SHAPES = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 3, 3), (2, 2, 2, 2)]


def product_state(dims, rng, rank):
    return kron_all([random_density_mat(d, rng, rank=min(rank, d)) for d in dims])


def oracle_columns(mat, dims):
    """Every column that applies to dims, and the least PT eigenvalue, built
    from the oracle with the paper's weights written out."""
    bases = [oracle_basis(d) for d in dims]
    pairs = {(i, j): oracle_pair_c(oracle_ptrace(mat, dims, [i, j]), (dims[i], dims[j]), [bases[i], bases[j]])
             for i, j in combinations(range(len(dims)), 2)}
    small = min(dims[0], dims[-1])
    out = {"ec": small ** 2 / (4 * (small ** 2 - 1)) * sum((c ** 2).sum() for c in pairs.values()),
           "purity": np.trace(mat @ mat).real}
    if len(dims) == 2:
        out["pt_min"] = np.linalg.eigvalsh(oracle_ptranspose(mat, dims, 1)).min()
        out["ph"] = int(out["pt_min"] < -PT_NEGATIVITY_TOL)
        sv = np.linalg.svd(pairs[(0, 1)], compute_uv=False)
        out["nsv"] = int((sv > max(NSV_ABS_FLOOR, NSV_REL_FACTOR * sv.max())).sum())
    if dims == (2, 2):
        (na, nb), c = oracle_vectors(mat, dims, bases), pairs[(0, 1)]
        out["nanb"] = na @ nb
        out["xi"] = math.nan if abs(na @ nb) <= BLOCH_DEGENERACY_TOL else np.trace(c) - na @ c @ nb / (na @ nb)
    if dims in ((2, 2, 2), (3, 3, 3)):
        out["ed"] = {2: 1 / 4, 3: 27 / 160}[dims[0]] * (oracle_cumulant(mat, dims, bases) ** 2).sum()
    if dims == (2, 2, 2, 2):
        out["ee"] = (oracle_cumulant(mat, dims, bases) ** 2).sum() / 8
    return out


@pytest.mark.parametrize("dims", SHAPES, ids=lambda dims: "x".join(map(str, dims)))
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rank=st.integers(1, 4))
def test_columns_and_ph_test_match_oracle(dims, seed, rank):
    rng = np.random.default_rng(seed)
    d = math.prod(dims)
    # a random state, a product state (C = 0), a two-term mixture of products
    # (C of rank one) and that mixture with a 1e-11 admixture of the random
    # state, whose small singular values only the relative NSV threshold drops
    noisy = random_density_mat(d, rng, rank=min(rank, d))
    classical = 0.3 * product_state(dims, rng, 1) + 0.7 * product_state(dims, rng, 1)
    mats = np.stack([noisy, product_state(dims, rng, rank), classical, (1 - 1e-11) * classical + 1e-11 * noisy])
    ctx = Context(dims, mats)
    columns = {name: column for name, (_, applies, column, _) in measures.COLUMNS.items()
               if applies(dims)}
    if len(dims) == 2:      # the stack holds mixed states, which the pure-state rows refuse
        for name in ("concurrence", "entropy"):
            with pytest.raises(MixedStateError, match="defined for pure states only"):
                columns.pop(name)(ctx)
    for b, mat in enumerate(mats):
        want = oracle_columns(mat, dims)
        assert set(columns) == set(want)
        if "pt_min" in want:
            assert ph_test(DensityMatrix(dims, mat)).min_eigenvalue == pytest.approx(want["pt_min"], abs=1e-12)
        for name, column in columns.items():
            got = np.asarray(column(ctx))[b]
            if name in ("ph", "nsv"):
                assert got == want[name], (name, b)
            else:
                assert got == pytest.approx(want[name], rel=1e-10, abs=1e-12, nan_ok=True), (name, b)


@pytest.mark.parametrize("dims", [dims for dims in SHAPES if len(dims) == 2], ids=lambda dims: "x".join(map(str, dims)))
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_pure_state_columns_match_oracle(dims, seed):
    rng = np.random.default_rng(seed)
    mats = np.stack([random_density_mat(math.prod(dims), rng, rank=1), product_state(dims, rng, 1)])
    ctx = Context(dims, mats)
    concurrence = np.asarray(measures.COLUMNS["concurrence"][2](ctx))
    entropy = np.asarray(measures.COLUMNS["entropy"][2](ctx))
    for b, mat in enumerate(mats):
        marginal = oracle_ptrace(mat, dims, [0])
        # C^2 / 2 = 1 - Tr rho_A^2; C itself is the square root of roundoff on a product
        assert concurrence[b] ** 2 / 2 == pytest.approx(1 - np.trace(marginal @ marginal).real, abs=1e-12)
        mu = np.linalg.eigvalsh(marginal)
        assert entropy[b] == pytest.approx(-sum(m * math.log2(m) for m in mu if m > 1e-15), rel=1e-10, abs=1e-12)


LAW_SHAPES = [(2,), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (2, 2, 2), (3, 3, 3), (2, 2, 2, 2), (2, 3, 4)]

# every row on every shape of LAW_SHAPES it applies to
each_case = pytest.mark.parametrize(
    "name, dims", [(name, dims) for name, (_, applies, _, _) in measures.COLUMNS.items()
                   for dims in LAW_SHAPES if applies(dims)],
    ids=lambda value: "x".join(map(str, value)) if isinstance(value, tuple) else value)


def conjugated(mats, unitaries):
    return unitaries @ mats @ unitaries.conj().transpose(0, 2, 1)


def local_image(dims, mats, rng):
    """Each state under its own random U_1 x ... x U_N."""
    return dims, conjugated(mats, np.stack([kron_all([random_unitary(d, rng) for d in dims]) for _ in mats]))


def collective_image(dims, mats, rng):
    """Each state under its own random U x ... x U."""
    return dims, conjugated(mats, np.stack([kron_all([random_unitary(dims[0], rng)] * len(dims)) for _ in mats]))


def permuted_image(dims, mats, rng):
    """The stack with its parties reordered by a random permutation, the
    identity only where there is one party."""
    order = rng.permutation(len(dims))
    if len(dims) > 1 and (order == np.arange(len(dims))).all():
        order = order[::-1]
    axes = (0, *(1 + order), *(1 + len(dims) + order))
    return tuple(dims[i] for i in order), mats.reshape(len(mats), *dims, *dims).transpose(axes).reshape(mats.shape)


IMAGES = {measures.LOCAL_UNITARIES: local_image, measures.COLLECTIVE_UNITARIES: collective_image,
          measures.PARTY_PERMUTATIONS: permuted_image}


@each_case
def test_every_row_keeps_its_law(name, dims, rng):
    """Each row's value on a stack of random mixed and random pure states (pure
    only for the pure-state rows) moves by at most LAW_TOL under random
    elements of each group of its law, and a row whose law lacks the local
    unitaries moves under some local unitary; xi is skipped only where it is
    NaN on both sides."""
    law, d = measures.COLUMNS[name][3], math.prod(dims)
    mixed = [] if name in measures._PURE_ONLY else [random_density_mat(d, rng) for _ in range(4)]
    mats = np.stack(mixed + [random_density_mat(d, rng, rank=1) for _ in range(8 - len(mixed))])
    value = measures.evaluate(Context(dims, mats), [name])[name]

    def moved(image):
        image_dims, image_mats = image(dims, mats, rng)
        got = measures.evaluate(Context(image_dims, image_mats), [name])[name]
        both_nan = np.isnan(got) & np.isnan(value) if name == "xi" else False
        return np.where(both_nan, 0.0, np.abs(got - value))

    for group, image in IMAGES.items():
        if group in law and (group != measures.COLLECTIVE_UNITARIES or len(set(dims)) == 1):
            assert moved(image).max() <= measures.LAW_TOL, group
    if measures.LOCAL_UNITARIES not in law:
        assert moved(local_image).max() > measures.LAW_TOL


def contract_stacks(name, dims, rng):
    """A complex and a real stack of random states: pure ones and, for a row
    that applies to mixed states, ones of rank 2 and of full rank.  On two
    parties the mixed stacks also hold a near-classical state, C of rank one
    plus a 1e-11 admixture, whose small singular values only the NSV
    threshold of its own C drops, and a weakly correlated one, a product plus
    a 1e-10 admixture, whose singular values of about 1e-10 that threshold
    counts and one taken from the whole stack would drop."""
    d, mixed = math.prod(dims), name not in measures._PURE_ONLY
    ranks = [1, 1, 1, 1, 2, d, 2, d] if mixed else [1] * 8
    for real in (False, True):
        states = [random_density_mat(d, rng, rank=rank, real=real) for rank in ranks]
        if mixed and len(dims) == 2:
            noise = [random_density_mat(d, rng, real=real) for _ in range(2)]
            product = kron_all([random_density_mat(n, rng, real=real) for n in dims])
            classical = np.diag([0.5] + [0.0] * (d - 2) + [0.5])
            states += [(1 - 1e-11) * classical + 1e-11 * noise[0], (1 - 1e-10) * product + 1e-10 * noise[1]]
        yield np.stack(states)


@each_case
def test_every_row_gives_each_state_one_value(name, dims, rng):
    """The stack contract, bit for bit and NaN matching NaN: the row gives each
    state of a stack the value it gives the state alone, as a stack of one,
    and the value of its scalar entry point, and a real stack the values of
    its complex copy.  Where the entry point has no n_A . n_B, as xi is
    undefined, the row's value is within BLOCH_DEGENERACY_TOL of 0."""
    def row(mats):
        return np.asarray(measures.evaluate(Context(dims, mats), [name])[name])

    for mats in contract_stacks(name, dims, rng):
        value = row(mats)
        rhos = [DensityMatrix(dims, mat) for mat in mats]
        scalar = np.array([ENTRY_POINTS[name](rho, decompose(rho)) for rho in rhos])
        if name == "nanb":
            undefined = np.isnan(scalar)
            assert (np.abs(value[undefined]) <= BLOCH_DEGENERACY_TOL).all()
            scalar[undefined] = value[undefined]
        others = {"alone": np.concatenate([row(mat[None]) for mat in mats]), "scalar entry point": scalar}
        if mats.dtype == float:
            others["complex copy"] = row(mats.astype(complex))
        for path, got in others.items():
            assert got.tobytes() == value.tobytes(), (path, got.tolist(), value.tolist())
