import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    expm_oracle,
    orthogonal_family,
    random_phases,
    random_state,
    random_unitary,
    unitarity_residuals,
)
from qmeasure import linalg
from qmeasure.errors import (
    DimensionMismatch,
    IncompleteSet,
    NotUnitary,
    OrthogonalityViolation,
    PhaseNotUnimodular,
)
from qmeasure.gates import HADAMARD, computational_projectors
from qmeasure.measurement import (
    MeasurementOperatorSet,
    ProjectorSet,
    QuantumState,
    apply_outcome,
    outcome_probabilities,
    spectral_decompose,
)
from qmeasure.reversible import (
    PhaseVector,
    UnitaryOperator,
    exp_observable,
    irm_povm,
    phase_superpose_projectors,
    superpose_operators,
    unitary_as_measurement,
)

RT2 = 1.0 / math.sqrt(2.0)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


# ---------------------------------------------------------------------------
# UnitaryOperator / PhaseVector

def test_unitary_accepts_hadamard():
    u = UnitaryOperator(HADAMARD)
    assert u.dim == 2


def test_unitary_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        UnitaryOperator(np.array([[1, 1], [0, 1]], dtype=complex))


def test_unitary_rejects_overflowing_products():
    # U^dag U overflows to inf - inf = NaN, and a NaN residual must fail
    with pytest.raises(NotUnitary) as info:
        UnitaryOperator(np.array([[1e200, 1e200], [1e200, -1e200]], dtype=complex))
    assert list(info.value.residuals) == ["unitarity_left", "unitarity_right"]
    assert all(math.isnan(r) for r in info.value.residuals.values())


def test_unitary_keeps_the_residuals_it_was_judged_on():
    left, right = unitarity_residuals(HADAMARD)
    assert UnitaryOperator(HADAMARD).residuals == {"unitarity_left": left,
                                                   "unitarity_right": right}
    double = 2.0 * np.eye(2, dtype=complex)
    with pytest.raises(NotUnitary) as info:
        UnitaryOperator(double)
    left, right = unitarity_residuals(double)
    assert info.value.residuals == {"unitarity_left": left, "unitarity_right": right}
    assert str(info.value) == "matrix is not unitary within 1e-10 (residuals 4.243e+00, 4.243e+00)"


def test_unitary_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        UnitaryOperator(np.ones((2, 3), dtype=complex))


def test_phase_vector_accepts_unit_circle():
    pv = PhaseVector([1.0, 1j, np.exp(0.3j)])
    assert len(pv) == 3


def test_phase_vector_rejects_non_unimodular():
    with pytest.raises(PhaseNotUnimodular):
        PhaseVector([1.0, 0.5])


@pytest.mark.parametrize("phases", [[1e200], [1.0, 1e200 + 1e200j]])
def test_phase_vector_rejects_a_huge_modulus_without_a_warning(phases):
    with pytest.raises(PhaseNotUnimodular) as exc:  # RuntimeWarning is an error in this suite
        PhaseVector(phases)
    assert str(exc.value) == "phases deviate from the unit circle by inf"
    assert exc.value.residuals == {"unimodularity_max": math.inf}


def test_phase_vector_from_angles():
    pv = PhaseVector.from_angles([0.0, math.pi / 2])
    assert np.allclose(pv.phases, [1.0, 1j], atol=1e-15)


def test_phase_vector_rejects_empty():
    with pytest.raises(ValueError):
        PhaseVector([])


# ---------------------------------------------------------------------------
# unitary as singleton measurement

def test_hadamard_singleton_measurement_on_zero():
    # the lone outcome is sure and the post-state is H|0> = |+>
    opset = unitary_as_measurement(UnitaryOperator(HADAMARD))
    zero = QuantumState(np.array([1, 0], dtype=complex))
    probs = outcome_probabilities(opset, zero)
    assert probs == pytest.approx([1.0])
    record = apply_outcome(opset, zero, 0)
    assert record.probability == pytest.approx(1.0)
    assert np.allclose(record.post_state.amplitudes, [RT2, RT2], atol=1e-12)


def test_singleton_measurement_probability_one_random():
    rng = np.random.default_rng(3)
    for n in (2, 4, 8):
        for _ in range(5):
            u = UnitaryOperator(random_unitary(rng, n))
            opset = unitary_as_measurement(u)
            psi = QuantumState(random_state(rng, n))
            probs = outcome_probabilities(opset, psi)
            assert abs(probs[0] - 1.0) <= 1e-12
            record = apply_outcome(opset, psi, 0)
            expected = u.matrix @ psi.amplitudes
            assert np.linalg.norm(record.post_state.amplitudes - expected) <= 1e-12


# ---------------------------------------------------------------------------
# operator superposition

def test_superpose_diagonal_projectors_hand_oracle():
    opset = MeasurementOperatorSet((np.diag([1.0, 0.0]).astype(complex),
                                    np.diag([0.0, 1.0]).astype(complex)))
    u = superpose_operators(opset, PhaseVector([1j, -1j]))
    assert np.allclose(u.matrix, np.diag([1j, -1j]))


def test_superpose_shift_pair_gives_pauli_x():
    # M_0 = |0><1|, M_1 = |1><0| with unit phases sum to X
    opset = MeasurementOperatorSet((np.array([[0, 1], [0, 0]], dtype=complex),
                                    np.array([[0, 0], [1, 0]], dtype=complex)))
    u = superpose_operators(opset, PhaseVector([1.0, 1.0]))
    assert np.allclose(u.matrix, PAULI_X)


def test_superpose_rejects_non_orthogonal_family():
    # complete as a measurement, but M_0^dag M_1 != 0
    opset = MeasurementOperatorSet((np.array([[0, 1], [0, 0]], dtype=complex),
                                    np.diag([1.0, 0.0]).astype(complex)))
    with pytest.raises(OrthogonalityViolation):
        superpose_operators(opset, PhaseVector([1.0, 1.0]))


def test_superpose_rejects_incomplete_family():
    opset = MeasurementOperatorSet((np.diag([1.0, 0.0]).astype(complex),
                                    np.diag([0.0, 0.5]).astype(complex)))
    with pytest.raises(IncompleteSet):
        superpose_operators(opset, PhaseVector([1.0, 1.0]))


def test_superpose_rejects_count_mismatch():
    opset = MeasurementOperatorSet((np.diag([1.0, 0.0]).astype(complex),
                                    np.diag([0.0, 1.0]).astype(complex)))
    with pytest.raises(DimensionMismatch):
        superpose_operators(opset, PhaseVector([1.0]))


def test_superpose_random_families_are_unitary():
    rng = np.random.default_rng(8)
    for n in (2, 4, 6):
        for _ in range(5):
            k = int(rng.integers(1, n + 1))
            opset = MeasurementOperatorSet(tuple(orthogonal_family(rng, n, k)))
            u = superpose_operators(opset, PhaseVector(random_phases(rng, k)))
            left, right = u.residuals.values()
            assert left <= 1e-9 and right <= 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=2, max_value=6))
def test_superpose_property(seed, n):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, n + 1))
    opset = MeasurementOperatorSet(tuple(orthogonal_family(rng, n, k)))
    u = superpose_operators(opset, PhaseVector(random_phases(rng, k)))
    assert u.dim == n


# ---------------------------------------------------------------------------
# projector phase superposition

def test_phase_superpose_plus_minus_gives_pauli_x():
    plus_proj = 0.5 * np.ones((2, 2), dtype=complex)
    minus_proj = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    pset = ProjectorSet((plus_proj, minus_proj))
    u = phase_superpose_projectors(pset, PhaseVector([1.0, -1.0]))
    assert np.allclose(u.matrix, PAULI_X, atol=1e-12)


def test_phase_superpose_computational_diagonal():
    pset = ProjectorSet(tuple(computational_projectors(2)))
    u = phase_superpose_projectors(pset, PhaseVector.from_angles([0.4, -1.1]))
    assert np.allclose(np.diag(u.matrix), np.exp(1j * np.array([0.4, -1.1])))


def test_phase_superpose_count_mismatch():
    pset = ProjectorSet(tuple(computational_projectors(2)))
    with pytest.raises(DimensionMismatch):
        phase_superpose_projectors(pset, PhaseVector([1.0, 1.0, 1.0]))


# ---------------------------------------------------------------------------
# exponentials of observables

def test_exp_observable_pauli_x_oracle():
    obs = spectral_decompose(PAULI_X)
    u = exp_observable(obs)
    expected = math.cos(1.0) * np.eye(2) + 1j * math.sin(1.0) * PAULI_X
    assert np.allclose(u.matrix, expected, atol=1e-12)


def test_exp_observable_matches_expm_oracle_random():
    rng = np.random.default_rng(21)
    for n in (2, 4, 8):
        for _ in range(4):
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            a = (g + g.conj().T) / 2
            u = exp_observable(spectral_decompose(a))
            ref = expm_oracle(1j * a)
            assert np.linalg.norm(u.matrix - ref) <= 1e-8


def test_exp_observable_degenerate_spectrum():
    a = np.diag([1.0, 1.0, -2.0]).astype(complex)
    u = exp_observable(spectral_decompose(a))
    assert np.allclose(np.diag(u.matrix),
                       np.exp(1j * np.array([1.0, 1.0, -2.0])), atol=1e-12)


# ---------------------------------------------------------------------------
# singleton POVM of a reversible measurement

def test_irm_povm_is_identity():
    rng = np.random.default_rng(12)
    u = UnitaryOperator(random_unitary(rng, 4))
    povm = irm_povm(u)
    assert len(povm) == 1
    assert np.linalg.norm(povm.elements[0] - np.eye(4)) <= 1e-10


def test_irm_povm_from_phase_superposition():
    pset = ProjectorSet(tuple(computational_projectors(4)))
    u = phase_superpose_projectors(pset, PhaseVector.from_angles([0.1, 2.2, -0.7, 3.0]))
    povm = irm_povm(u)
    assert np.linalg.norm(povm.elements[0] - np.eye(4)) <= 1e-10


def test_irm_povm_refuses_a_unitary_whose_left_residual_fails_the_stricter_tol():
    """A UnitaryOperator is not judged again: at a tol its unitarity_left fails, {U} is
    refused as an incomplete set, with that residual as its completeness."""
    u = UnitaryOperator(random_unitary(np.random.default_rng(13), 8), tol=1e-3)
    left = u.residuals["unitarity_left"]
    assert left > 0.0
    with pytest.raises(IncompleteSet) as exc:
        irm_povm(u, tol=left / 10)
    assert str(exc.value) == (f"operator set fails completeness (residual {left:.3e}); "
                              "it cannot be measured")
    assert exc.value.residuals == {"completeness": left}
