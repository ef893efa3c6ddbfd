"""Each numerical tolerance, probed just inside and just outside its bound.

Every input puts the quantity a tolerance bounds at 0.9 or 1.1 times the
tolerance's documented value, and is built so that roundoff stays far below
that margin.  The values are written out here rather than imported, so that
changing a constant fails these tests too.
"""

import math

import numpy as np
import pytest

from mpcorr import measures
from mpcorr.bloch import BlochDecomposition, decompose, decompose_stack, reconstruct
from mpcorr.classify import (Category, DegenerateBlochVectorsError, PHInvariants, classify_two_qubit,
                             correlation_spectrum, ph_condition_explicit, ph_invariants, ph_test, ph_test_signflip)
from mpcorr.density import (DensityMatrix, HermitianOperator, NotHermitianError, NotPSDError, TraceNotOneError, mix,
                            partial_trace, partial_transpose, tensor, validate)
from mpcorr.exchange import NullProjectionError, exchange_projector, project_exchange
from mpcorr.families import generalized_werner
from mpcorr.measures import Context, measure_set

HERMITICITY_TOL = TRACE_TOL = 1e-12     # density
PSD_TOL = 1e-10
PURITY_TOL = 1e-8
NSV_ABS_FLOOR = 1e-12                   # measures
NSV_REL_FACTOR = 1e-9
PT_NEGATIVITY_TOL = 1e-10
PH_EXPLICIT_MARGIN = 1e-10              # classify.ph_condition_explicit
BLOCH_DEGENERACY_TOL = 1e-12
NULL_PROJECTION_TOL = 1e-12             # exchange

# (multiple of the tolerance, whether that crosses the bound)
SIDES = pytest.mark.parametrize("factor,crossed", [(0.9, False), (1.1, True)], ids=["inside", "outside"])

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0])
PSI_MINUS = np.array([0, 1, -1, 0]) / math.sqrt(2)


def two_qubit(*terms) -> DensityMatrix:
    """(1 + sum_k c_k A_k x B_k) / 4 for terms (c_k, A_k, B_k)."""
    return DensityMatrix((2, 2), (np.eye(4) + sum(c * np.kron(a, b) for c, a, b in terms)) / 4)


def column(name: str, rho: DensityMatrix):
    """The value of one classification column on the one-state stack of rho."""
    return measures.COLUMNS[name][2](Context(rho.dims, rho.matrix[None])).tolist()[0]


def expect(crossed: bool, error, call):
    """call() raises error exactly when the bound is crossed; returns the
    exception or call's result."""
    if crossed:
        with pytest.raises(error) as info:
            call()
        return info.value
    return call()


@SIDES
def test_hermiticity(factor, crossed):
    mat = np.eye(2, dtype=complex) / 2
    mat[0, 1] = factor * HERMITICITY_TOL
    result = expect(crossed, NotHermitianError, lambda: validate(mat, (2,)))
    if crossed:
        assert result.residual == factor * HERMITICITY_TOL


@SIDES
def test_trace(factor, crossed):
    mat = np.diag([0.5 + factor * TRACE_TOL, 0.5])
    result = expect(crossed, TraceNotOneError, lambda: validate(mat, (2,)))
    if crossed:
        assert result.residual == pytest.approx(factor * TRACE_TOL, rel=1e-3)


@SIDES
def test_psd(factor, crossed):
    delta = factor * PSD_TOL
    result = expect(crossed, NotPSDError, lambda: validate(np.diag([1 + delta, -delta]), (2,)))
    if crossed:
        assert result.residual == delta


@SIDES
def test_nsv_absolute_floor(factor, crossed):
    s = factor * NSV_ABS_FLOOR
    assert correlation_spectrum(np.diag([s, 0.0, 0.0])).nsv_count == crossed
    assert column("nsv", two_qubit((s, Z, Z))) == crossed


@SIDES
def test_nsv_relative_factor(factor, crossed):
    # largest singular value 0.5, so the threshold is 0.5 * NSV_REL_FACTOR, far above the floor
    r = factor * 0.5 * NSV_REL_FACTOR
    assert correlation_spectrum(np.diag([0.5, r, 0.0])).nsv_count == 1 + crossed
    assert column("nsv", two_qubit((0.5, Z, Z), (r, X, X))) == 1 + crossed


@SIDES
def test_pt_negativity(factor, crossed):
    # a Werner state whose partial transpose has least eigenvalue (1 - 3p)/4 = -delta
    delta = factor * PT_NEGATIVITY_TOL
    p = (1 + 4 * delta) / 3
    rho = DensityMatrix((2, 2), p * np.outer(PSI_MINUS, PSI_MINUS) + (1 - p) * np.eye(4) / 4)
    verdict = ph_test(rho)
    assert verdict.min_eigenvalue == pytest.approx(-delta, rel=1e-3)
    assert verdict.entangled == crossed
    assert column("ph", rho) == crossed


@SIDES
def test_bloch_degeneracy(factor, crossed):
    # product state with n_A = 0.5 z and n_B = b z, so n_A . n_B = b / 2
    b = 2 * factor * BLOCH_DEGENERACY_TOL
    rho = DensityMatrix((2, 2), np.kron((I2 + 0.5 * Z) / 2, (I2 + b * Z) / 2))
    # crossing this bound leaves the degenerate region: xi becomes defined
    expect(not crossed, DegenerateBlochVectorsError, lambda: ph_invariants(decompose(rho)))
    assert math.isnan(column("xi", rho)) != crossed


@SIDES
def test_purity(factor, crossed):
    # diag(1 - t, 0, 0, t) has 1 - Tr rho^2 = 2t - 2t^2
    eps = factor * PURITY_TOL
    t = (1 - math.sqrt(1 - 2 * eps)) / 2
    rho = DensityMatrix((2, 2), np.diag([1 - t, 0.0, 0.0, t]))
    ms = measure_set(rho)
    assert ms.e_c is not None
    assert (ms.concurrence is None) == crossed
    assert (ms.entropy_bits is None) == crossed
    # classify: correlated (NSV 1), so pure entangled inside and classically correlated outside
    assert classify_two_qubit(rho).category == (Category.CLASSICALLY_CORRELATED if crossed else
                                                Category.PURE_ENTANGLED)


@SIDES
@pytest.mark.parametrize("cls", [DensityMatrix, HermitianOperator])
def test_hermiticity_at_construction(cls, factor, crossed):
    # 1/4 + i (delta / 4) X x 1 has max |M - M^dag| = delta / 2, exactly
    delta = 2 * factor * HERMITICITY_TOL
    mat = np.eye(4) / 4 + 1j * delta / 4 * np.kron(X, I2)
    result = expect(crossed, NotHermitianError, lambda: cls((2, 2), mat))
    if crossed:
        assert result.residual == factor * HERMITICITY_TOL
        assert "not Hermitian" in str(result)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2)], ids=str)
def test_decompose_maps_the_hermitian_part(dims, rng):
    # a state plus an anti-Hermitian error just inside HERMITICITY_TOL
    # decomposes as its Hermitian part (rho + rho^dag) / 2
    d = math.prod(dims)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    err = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    err -= err.conj().T
    rho = DensityMatrix(dims, g @ g.conj().T / np.trace(g @ g.conj().T).real
                        + err * (0.9 * HERMITICITY_TOL / np.abs(err - err.conj().T).max()))
    assert 0.5 * HERMITICITY_TOL < np.abs(rho.matrix - rho.matrix.conj().T).max() < HERMITICITY_TOL
    got, want = decompose(rho), decompose(DensityMatrix(dims, (rho.matrix + rho.matrix.conj().T) / 2))
    for a, b in zip((*got.coherence_vectors, *got.correlations.values()),
                    (*want.coherence_vectors, *want.correlations.values())):
        assert np.abs(a - b).max() <= 1e-15
    if len(dims) == 2:          # the decomposition-level PH test reads the Hermitian part too
        hermitian = DensityMatrix(dims, (rho.matrix + rho.matrix.conj().T) / 2)
        want = np.linalg.eigvalsh(partial_transpose(hermitian, 1).matrix).min()
        assert abs(ph_test_signflip(rho).min_eigenvalue - want) <= 1e-15
    # a real stack with an antisymmetric error: its symmetric part
    real = rho.matrix.real[None]
    got, want = decompose_stack(dims, real), decompose_stack(dims, (real + real.transpose(0, 2, 1)) / 2)
    for a, b in zip((*got[0], *got[1].values()), (*want[0], *want[1].values())):
        assert np.abs(a - b).max() <= 1e-15


def test_derived_states_are_built_from_their_hermitian_part():
    # 1/4 + i (r / 2) X x 1 has residual r; its partial trace adds two
    # blocks, so 2r, past the bound.  The derived state is the Hermitian part.
    r = 0.75 * HERMITICITY_TOL
    rho = validate(np.eye(4) / 4 + 1j * r / 2 * np.kron(X, I2), (2, 2))
    assert np.array_equal(partial_trace(rho, [0]).matrix, I2 / 2)
    # diag(1 + i s, 0) has residual 2s, and its tensor square 4s
    qubit = validate(np.diag([1 + 0.45j * HERMITICITY_TOL, 0]), (2,))
    assert np.array_equal(tensor(qubit, qubit).matrix, np.diag([1.0, 0.0, 0.0, 0.0]))
    vector = np.array([0.6, 0.0, 0.8])
    derived = [mix([0.5, 0.5], [rho, tensor(qubit, qubit)]),
               reconstruct(BlochDecomposition((2, 2), [vector, -vector], {(0, 1): np.outer(vector, -vector)}))]
    for state in derived:
        assert np.array_equal(state.matrix, state.matrix.conj().T)


def test_exchange_projection_of_a_small_sector(rng):
    # antisymmetric weight 1e-6 and an anti-Hermitian error inside the bound:
    # dividing P rho P by the weight magnifies the error a millionfold, but
    # the projection is built from the Hermitian part of P rho P
    weight = 1e-6
    sym, anti = (exchange_projector(3, kind).matrix for kind in ("symmetric", "antisymmetric"))
    g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    a, b = sym @ g @ g.conj().T @ sym, anti @ g @ g.conj().T @ anti
    err = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    err -= err.conj().T
    err *= 0.9 * HERMITICITY_TOL / np.abs(err - err.conj().T).max()
    rho = DensityMatrix((3, 3), (1 - weight) * a / np.trace(a).real + weight * b / np.trace(b).real + err)
    result = project_exchange(rho, "antisymmetric")
    assert result.weight == pytest.approx(weight, rel=1e-9)
    assert np.array_equal(result.projected.matrix, result.projected.matrix.conj().T)
    assert np.abs(result.projected.matrix - b / np.trace(b).real).max() < 1e-5


@SIDES
def test_null_projection(factor, crossed):
    w = factor * NULL_PROJECTION_TOL
    zero_zero = np.diag([1.0, 0.0, 0.0, 0.0])
    rho = DensityMatrix((2, 2), (1 - w) * zero_zero + w * np.outer(PSI_MINUS, PSI_MINUS))
    # crossing this bound leaves the null region: the projection exists
    result = expect(not crossed, NullProjectionError, lambda: project_exchange(rho, "antisymmetric"))
    if crossed:
        assert result.weight == pytest.approx(w, rel=1e-12)


@SIDES
def test_explicit_ph_condition_margin(factor, crossed):
    # with n_A.n_B = 0 and xi < 0 the largest root is -1.5 xi, here 1 - delta:
    # within the margin of 1 it is reported entangled
    delta = factor * PH_EXPLICIT_MARGIN
    assert ph_condition_explicit(PHInvariants(xi=-(1 - delta) / 1.5, na_dot_nb=0.0, na_dot_c_nb=0.0)) != crossed


def test_explicit_ph_condition_disagrees_on_the_boundary():
    # At p* = 1 / (1 + 2 sech 2 theta) the PT has a zero eigenvalue: the
    # spectral test calls it separable, the invariant form entangled.
    theta = 0.5
    rho = generalized_werner(1 / (1 + 2 / math.cosh(2 * theta)), theta)
    assert abs(ph_test(rho).min_eigenvalue) < 1e-15
    assert not ph_test(rho).entangled
    assert ph_condition_explicit(ph_invariants(decompose(rho)))
