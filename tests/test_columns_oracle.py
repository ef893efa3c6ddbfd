"""The classification and measure columns, and the spectral PH test, held to
the brute-force oracle of helpers.py: an index-loop partial transpose and
kron-product expectation values.  The scalar functions are the one-state case
of the columns, so comparing the two no longer checks the arithmetic; this
test does, on stacks of random, product and classically correlated states."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (kron_all, oracle_basis, oracle_cumulant, oracle_pair_c, oracle_ptrace,
                     oracle_ptranspose, oracle_vectors, random_density_mat)

from mpcorr import classify, measures
from mpcorr.bloch import decompose_stack
from mpcorr.classify import BLOCH_DEGENERACY_TOL, NSV_ABS_FLOOR, NSV_REL_FACTOR, PT_NEGATIVITY_TOL, ph_test
from mpcorr.density import DensityMatrix

SHAPES = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 3, 3), (2, 2, 2, 2)]

# the state-by-state columns, which call the scalar functions themselves
PER_STATE = {"concurrence", "entropy"}


def product_state(dims, rng, rank):
    return kron_all([random_density_mat(d, rng, rank=min(rank, d)) for d in dims])


def oracle_columns(mat, dims):
    """Every column that applies to dims, and the least PT eigenvalue, built
    from the oracle with the paper's weights written out."""
    bases = [oracle_basis(d) for d in dims]
    pairs = {(i, j): oracle_pair_c(oracle_ptrace(mat, dims, [i, j]), (dims[i], dims[j]), [bases[i], bases[j]])
             for i, j in combinations(range(len(dims)), 2)}
    small = min(dims[0], dims[-1])
    out = {"ec": small ** 2 / (4 * (small ** 2 - 1)) * sum((c ** 2).sum() for c in pairs.values())}
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
    vectors, sectors = decompose_stack(dims, mats)
    columns = {name: column for name, (_, applies, column) in {**measures.COLUMNS, **classify.COLUMNS}.items()
               if applies(dims) and name not in PER_STATE}
    for b, mat in enumerate(mats):
        want = oracle_columns(mat, dims)
        assert set(columns) == set(want) - {"pt_min"}
        if "pt_min" in want:
            assert ph_test(DensityMatrix(dims, mat)).min_eigenvalue == pytest.approx(want["pt_min"], abs=1e-12)
        for name, column in columns.items():
            got = np.asarray(column(dims, mats, vectors, sectors))[b]
            if name in ("ph", "nsv"):
                assert got == want[name], (name, b)
            else:
                assert got == pytest.approx(want[name], rel=1e-10, abs=1e-12, nan_ok=True), (name, b)
