"""Each row of measures.COLUMNS is the one statement of the party structures
its quantity is defined on.  The scalar entry points raise ValueError exactly
where the row's test is False, and measure_set fills a field of a report row
(measures._FIELDS) exactly where its row applies, with the entry point's value."""

import math

import numpy as np
import pytest

from entry_points import ENTRY_POINTS
from helpers import random_pure_vec

from mpcorr import measures
from mpcorr.bloch import decompose
from mpcorr.density import from_pure
from mpcorr.measures import measure_set

SHAPES = [(2,), (2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3), (3, 3, 3), (4, 4, 4), (2, 2, 2, 2),
          (3, 3, 3, 3), (2,) * 5]

ROWS = measures.COLUMNS

FIELDS = {"ec": "e_c", "ed": "e_d", "ee": "e_e", "concurrence": "concurrence", "entropy": "entropy_bits"}


def pure_state(dims, rng):
    return from_pure(random_pure_vec(math.prod(dims), rng), dims)


def test_every_row_is_covered():
    assert set(ENTRY_POINTS) == set(ROWS)
    assert FIELDS == measures._FIELDS


@pytest.mark.parametrize("dims", SHAPES, ids=lambda dims: "x".join(map(str, dims)))
# correlation_spectrum, the entry point of nsv, takes a bare matrix, not a party structure
@pytest.mark.parametrize("name", sorted(set(ENTRY_POINTS) - {"nsv"}))
def test_entry_point_raises_exactly_where_its_row_does_not_apply(name, dims, rng):
    rho = pure_state(dims, rng)
    dec = decompose(rho)
    if ROWS[name][1](dims):
        ENTRY_POINTS[name](rho, dec)
    else:
        with pytest.raises(ValueError):
            ENTRY_POINTS[name](rho, dec)


@pytest.mark.parametrize("dims", SHAPES, ids=lambda dims: "x".join(map(str, dims)))
def test_measure_set_fills_exactly_the_rows_that_apply(dims, rng):
    rho = pure_state(dims, rng)
    applying = [name for name in measures._FIELDS if ROWS[name][1](dims)]
    if not applying:
        with pytest.raises(ValueError, match="no measures defined"):
            measure_set(rho)
        return
    ms, dec = measure_set(rho), decompose(rho)
    want = {FIELDS[name]: ENTRY_POINTS[name](rho, dec) for name in applying}
    got = {field: getattr(ms, field) for field in FIELDS.values()}
    assert got == {field: want.get(field) for field in FIELDS.values()}
    assert all(np.isfinite(value) for value in want.values())
