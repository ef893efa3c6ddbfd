"""Each numerical tolerance, probed just inside and just outside its bound.

Every input puts the quantity a tolerance bounds at 0.9 or 1.1 times the
tolerance's documented value, and is built so that roundoff stays far below
that margin.  The values are written out here rather than imported, so that
changing a constant fails these tests too.
"""

import math

import numpy as np
import pytest

from mpcorr import classify
from mpcorr.bloch import decompose, decompose_stack
from mpcorr.classify import (Category, DegenerateBlochVectorsError, classify_two_qubit, correlation_spectrum,
                             ph_condition_explicit, ph_invariants, ph_test, ph_test_signflip)
from mpcorr.density import DensityMatrix, NotHermitianError, NotPSDError, TraceNotOneError, validate
from mpcorr.exchange import NullProjectionError, project_exchange
from mpcorr.families import generalized_werner
from mpcorr.measures import Context, measure_set

HERMITICITY_TOL = TRACE_TOL = 1e-12     # density
PSD_TOL = 1e-10
PURITY_TOL = 1e-8
NSV_ABS_FLOOR = 1e-12                   # classify
NSV_REL_FACTOR = 1e-9
PT_NEGATIVITY_TOL = 1e-10
BLOCH_DEGENERACY_TOL = 1e-12
IMAG_TOL = 1e-12                        # bloch
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
    return classify.COLUMNS[name][2](Context(rho.dims, rho.matrix[None])).tolist()[0]


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
def test_imaginary_residue(factor, crossed):
    # 1/4 + i (delta / 4) X x 1 is not Hermitian; its moment <X x 1> is i delta,
    # which the sign-flip PH test reads too
    delta = factor * IMAG_TOL
    rho = DensityMatrix((2, 2), np.eye(4) / 4 + 1j * delta / 4 * np.kron(X, I2))
    for call in (decompose, ph_test_signflip):
        result = expect(crossed, ValueError, lambda: call(rho))
        if crossed:
            assert "moment tensor has imaginary residue" in str(result)


@SIDES
def test_imaginary_residue_of_real_stack(factor, crossed):
    # 1/4 + (delta / 4) iY x 1 is real and not symmetric; its moment <Y x 1> is i delta
    delta = factor * IMAG_TOL
    i_y = np.array([[0.0, 1.0], [-1.0, 0.0]])
    mats = (np.eye(4) / 4 + delta / 4 * np.kron(i_y, I2))[None]
    result = expect(crossed, ValueError, lambda: decompose_stack((2, 2), mats))
    if crossed:
        assert "moment tensor has imaginary residue" in str(result)


@SIDES
def test_null_projection(factor, crossed):
    w = factor * NULL_PROJECTION_TOL
    zero_zero = np.diag([1.0, 0.0, 0.0, 0.0])
    rho = DensityMatrix((2, 2), (1 - w) * zero_zero + w * np.outer(PSI_MINUS, PSI_MINUS))
    # crossing this bound leaves the null region: the projection exists
    result = expect(not crossed, NullProjectionError, lambda: project_exchange(rho, "antisymmetric"))
    if crossed:
        assert result.weight == pytest.approx(w, rel=1e-12)


def test_explicit_ph_condition_disagrees_on_the_boundary():
    # At p* = 1 / (1 + 2 sech 2 theta) the PT has a zero eigenvalue: the
    # spectral test calls it separable, the invariant form entangled.
    theta = 0.5
    rho = generalized_werner(1 / (1 + 2 / math.cosh(2 * theta)), theta)
    assert abs(ph_test(rho).min_eigenvalue) < 1e-15
    assert not ph_test(rho).entangled
    assert ph_condition_explicit(ph_invariants(decompose(rho)))
