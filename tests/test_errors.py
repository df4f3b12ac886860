"""Every exception of the toolkit survives a pickle round trip with its
message, its ``residuals`` and its own attributes."""

import inspect
import pickle

import pytest

from qmeasure import errors

CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
           if issubclass(cls, Exception) and cls.__module__ == errors.__name__]


def instance(cls):
    if cls is errors.OrthogonalityViolation:
        return cls(0, 1, 0.5)
    return cls("residual 1.000e+00 exceeds tolerance", {"hermiticity": 1.0, "n_eigenspaces": 2})


def test_every_exception_class_is_covered():
    assert len(CLASSES) == 14
    assert errors.QmeasureError in CLASSES and errors.OrthogonalityViolation in CLASSES


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_exceptions_pickle_with_message_and_residuals(cls):
    exc = instance(cls)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.residuals == exc.residuals
    assert vars(back) == vars(exc)


def test_orthogonality_violation_keeps_its_pair_and_residual():
    back = pickle.loads(pickle.dumps(errors.OrthogonalityViolation(3, 7, 2.5e-6)))
    assert (back.i, back.j, back.residual) == (3, 7, 2.5e-6)
    assert str(back) == "operators (3, 7) are not two-sided orthogonal (residual 2.500e-06)"
