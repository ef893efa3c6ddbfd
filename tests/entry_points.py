"""The public scalar entry point of each row of measures.COLUMNS, as one value
of one state, given the state and its decomposition.  xi and nanb are NaN
where ph_invariants refuses the state (|n_A . n_B| <= BLOCH_DEGENERACY_TOL);
correlation_spectrum, the entry point of nsv, has no shape rule of its own."""

import math

from mpcorr.classify import DegenerateBlochVectorsError, correlation_spectrum, ph_invariants, ph_test
from mpcorr.density import purity
from mpcorr.measures import (concurrence_pure, e_c_bipartite, e_c_multipartite, e_d, e_e,
                             entanglement_entropy)


def invariant(field: str):
    def entry(rho, dec) -> float:
        try:
            return getattr(ph_invariants(dec), field)
        except DegenerateBlochVectorsError:
            return math.nan
    return entry


ENTRY_POINTS = {
    "ec": lambda rho, dec: e_c_bipartite(dec.pair(0, 1), rho.dims) if rho.num_parties == 2 else e_c_multipartite(dec),
    "ed": lambda rho, dec: e_d(dec),
    "ee": lambda rho, dec: e_e(dec),
    "concurrence": lambda rho, dec: concurrence_pure(rho),
    "entropy": lambda rho, dec: entanglement_entropy(rho),
    "nsv": lambda rho, dec: correlation_spectrum(dec.pair(0, 1)).nsv_count,
    "ph": lambda rho, dec: int(ph_test(rho).entangled),
    "xi": invariant("xi"),
    "nanb": invariant("na_dot_nb"),
    "purity": lambda rho, dec: purity(rho),
    "pt_min": lambda rho, dec: ph_test(rho).min_eigenvalue,
}
