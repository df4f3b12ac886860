"""Every exception of the toolkit survives a pickle round trip with its
message, its ``residuals`` and its own attributes, and every error that
judges a residual carries it in ``residuals``."""

import inspect
import pickle

import numpy as np
import pytest

from qmeasure import errors, linalg
from qmeasure.measurement import (
    DensityMatrix,
    MeasurementOperatorSet,
    QuantumState,
    apply_outcome,
    outcome_probabilities,
)
from qmeasure.reversible import PhaseVector, superpose_operators

CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
           if issubclass(cls, Exception) and cls.__module__ == errors.__name__]


def instance(cls):
    records = (linalg.judge("hermiticity", 1.0, 1e-10, n=2),)
    return cls("residual 1.000e+00 exceeds tolerance", records, {"hermiticity": 1.0, "n_eigenspaces": 2})


def test_every_exception_class_is_covered():
    assert len(CLASSES) == 13
    assert errors.QmeasureError in CLASSES and errors.OrthogonalityViolation in CLASSES


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_exceptions_pickle_with_message_and_residuals(cls):
    exc = instance(cls)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.residuals == exc.residuals and back.records == exc.records
    assert vars(back) == vars(exc)


P0 = np.diag([1.0, 0.0])
ZERO = QuantumState([1.0, 0.0])
COMPUTATIONAL = MeasurementOperatorSet([P0, np.diag([0.0, 1.0])])


@pytest.mark.parametrize("trigger,cls,message,residuals", [
    (lambda: outcome_probabilities(MeasurementOperatorSet([P0]), ZERO), errors.IncompleteSet,
     "operator set fails completeness (residual 1.000e+00); it cannot be measured",
     {"completeness": 1.0}),
    (lambda: DensityMatrix(np.diag([1.5, -0.5])), errors.NotPositive,
     "density matrix has negative eigenvalue -5.000e-01", {"min_eigenvalue": -0.5}),
    (lambda: PhaseVector([1.0, 2.0]), errors.PhaseNotUnimodular,
     "phases deviate from the unit circle by 3.000e+00", {"unimodularity_max": 3.0}),
    (lambda: apply_outcome(COMPUTATIONAL, ZERO, 1), errors.ZeroProbabilityOutcome,
     "outcome 1 has probability 0.000e+00 <= 1e-12; its post-measurement state is undefined",
     {"probability": 0.0}),
    (lambda: superpose_operators(MeasurementOperatorSet([P0, P0]), PhaseVector([1.0, 1.0])),
     errors.OrthogonalityViolation,
     "operators are not orthogonal within 1e-10: aggregate 2.000e+00 exceeds 1.414e-10 "
     "(worst pair (0, 1), residual 1.000e+00)",
     {"orthogonality": 2.0}),
], ids=["incomplete_set", "not_positive", "phase_not_unimodular", "zero_probability_outcome",
        "orthogonality_violation"])
def test_a_failing_check_carries_its_residuals(trigger, cls, message, residuals):
    with pytest.raises(cls) as exc:
        trigger()
    assert type(exc.value) is cls and str(exc.value) == message
    assert exc.value.residuals == residuals
    assert exc.value.records and all(type(r) is linalg.Judgement for r in exc.value.records)
    assert all(type(v) is float for v in exc.value.residuals.values())
