"""mpcorr: SU(n) correlation-tensor decomposition, correlation measures, and
entanglement classification for multipartite qudit density matrices."""

from .bloch import BlochDecomposition, coherence_vector, decompose, reconstruct
from .classify import (Category, ClassificationReport, CorrelationSpectrum,
                       DegenerateBlochVectorsError, PHInvariants, PHVerdict,
                       classify_two_qubit, correlation_spectrum,
                       ph_condition_explicit, ph_invariants, ph_test,
                       ph_test_signflip)
from .density import (DensityMatrix, HermitianOperator, NotHermitianError,
                      NotPSDError, StateValidationError, TraceNotOneError,
                      from_pure, is_pure, mix, partial_trace,
                      partial_transpose, purity, state_from_json_dict,
                      state_to_json_dict, tensor, validate)
from .exchange import (ExchangeProjection, NullProjectionError,
                       exchange_projector, project_exchange)
from .families import (bell, cc_mixture, generalized_werner, ghz, rashid,
                       tripartite_qutrit_e3)
from .measures import (MeasureSet, MixedStateError, concurrence_pure,
                       e_c_bipartite, e_c_multipartite, e_d, e_e,
                       entanglement_entropy, measure_set)
from .su_basis import gell_mann_basis

__version__ = "0.1.0"

__all__ = [
    "BlochDecomposition", "Category", "ClassificationReport",
    "CorrelationSpectrum", "DegenerateBlochVectorsError", "DensityMatrix",
    "ExchangeProjection", "HermitianOperator", "MeasureSet", "MixedStateError",
    "NotHermitianError", "NotPSDError", "NullProjectionError", "PHInvariants",
    "PHVerdict", "StateValidationError", "TraceNotOneError",
    "bell", "cc_mixture", "classify_two_qubit",
    "coherence_vector", "concurrence_pure", "correlation_spectrum",
    "decompose", "e_c_bipartite", "e_c_multipartite", "e_d", "e_e",
    "entanglement_entropy", "exchange_projector", "from_pure",
    "gell_mann_basis", "generalized_werner", "ghz", "is_pure", "measure_set",
    "mix", "partial_trace", "partial_transpose",
    "ph_condition_explicit", "ph_invariants", "ph_test", "ph_test_signflip",
    "project_exchange", "purity", "rashid", "reconstruct",
    "state_from_json_dict", "state_to_json_dict",
    "tensor", "tripartite_qutrit_e3", "validate",
]
