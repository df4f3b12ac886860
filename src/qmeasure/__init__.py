"""Finite-dimensional quantum measurement toolkit.

Generalized, projective, and POVM measurements on dense complex state
vectors; reversible single-outcome measurements built from unitaries or
operator superpositions; mirror measurements that preserve projective
probabilities; and the compute/uncompute truth protocol.
"""

from .errors import (
    DimensionMismatch,
    IncompleteSet,
    InvalidProjectorSet,
    NotHermitian,
    NotMirror,
    NotPositive,
    NotUnitary,
    OrthogonalityViolation,
    ParseError,
    PhaseNotUnimodular,
    QmeasureError,
    UnknownOutcome,
    ZeroProbabilityOutcome,
)
from .linalg import DEFAULT_TOL, Judgement, adjoint
from .measurement import (
    DensityMatrix,
    MeasurementKind,
    MeasurementOperatorSet,
    MeasurementRecord,
    Observable,
    Povm,
    ProjectorSet,
    QuantumState,
    apply_outcome,
    classify_measurement,
    fidelity,
    outcome_probabilities,
    povm_from_operators,
    povm_probabilities,
    sample_histogram,
    sample_measurement,
    spectral_decompose,
    validate_completeness,
)
from .mirror import (
    BELL_LABELS,
    BELL_STATES,
    BellComparisonReport,
    MirrorUnitary,
    PreservationReport,
    TruthProtocolTranscript,
    bell_comparison,
    build_qubit_mirror,
    computational_projector_set,
    extend_mirror,
    is_mirror,
    truth_protocol,
    verify_probability_preservation,
)
from .reversible import (
    PhaseVector,
    UnitaryOperator,
    exp_observable,
    irm_povm,
    phase_superpose_projectors,
    superpose_operators,
    unitary_as_measurement,
)

__version__ = "0.1.0"

__all__ = [
    "QmeasureError", "DimensionMismatch", "NotHermitian", "NotPositive",
    "IncompleteSet", "ZeroProbabilityOutcome",
    "UnknownOutcome", "NotUnitary", "OrthogonalityViolation",
    "PhaseNotUnimodular", "InvalidProjectorSet", "NotMirror", "ParseError",
    "DEFAULT_TOL", "Judgement", "adjoint",
    "QuantumState", "DensityMatrix", "MeasurementOperatorSet",
    "ProjectorSet", "Observable", "Povm", "MeasurementRecord",
    "MeasurementKind", "validate_completeness",
    "outcome_probabilities", "apply_outcome", "sample_measurement",
    "sample_histogram", "spectral_decompose", "povm_from_operators",
    "povm_probabilities", "classify_measurement", "fidelity",
    "UnitaryOperator", "PhaseVector", "unitary_as_measurement",
    "superpose_operators", "phase_superpose_projectors", "exp_observable",
    "irm_povm",
    "MirrorUnitary", "PreservationReport",
    "BellComparisonReport", "TruthProtocolTranscript", "BELL_STATES",
    "BELL_LABELS", "is_mirror", "verify_probability_preservation",
    "build_qubit_mirror", "extend_mirror", "bell_comparison",
    "truth_protocol", "computational_projector_set",
]
