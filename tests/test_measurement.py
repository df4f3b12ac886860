import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import orthogonal_family, random_state, random_unitary
from qmeasure import gates, measurement
from qmeasure.errors import (
    DimensionMismatch,
    IncompleteSet,
    InvalidProjectorSet,
    NotHermitian,
    UnknownOutcome,
    ZeroProbabilityOutcome,
)
from qmeasure.measurement import (
    DensityMatrix,
    MeasurementKind,
    MeasurementOperatorSet,
    MeasurementRecord,
    Povm,
    ProjectorResiduals,
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

RT2 = 1.0 / math.sqrt(2.0)
PLUS = QuantumState(np.array([RT2, RT2], dtype=complex))
ZERO = QuantumState(np.array([1, 0], dtype=complex))

# complete but non-projective: M_0 maps |1> amplitude out, M_1 keeps |0>
GENERAL_SET = MeasurementOperatorSet((
    np.array([[0, 1], [0, 0]], dtype=complex),
    np.diag([1.0, 0.0]).astype(complex),
))


def comp_projector_set(dim=2):
    return ProjectorSet(tuple(gates.computational_projectors(dim)))


# ---------------------------------------------------------------------------
# states

def test_state_requires_unit_norm_by_default():
    with pytest.raises(ValueError):
        QuantumState(np.array([1.0, 1.0], dtype=complex))


def test_state_normalize_flag_rescales():
    psi = QuantumState(np.array([3.0, 4.0], dtype=complex), normalize=True)
    assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0)
    assert psi.amplitudes[0] == pytest.approx(0.6)


def test_state_rejects_zero_vector():
    with pytest.raises(ValueError):
        QuantumState(np.zeros(2, dtype=complex), normalize=True)


@pytest.mark.parametrize("base,scale", [
    ([1.0, 1.0], 1e308),              # plain norm overflows
    ([1.7 + 1.7j, 1.7], 1e308),       # |a_0| alone overflows
    ([1.0, 1.0j], 1e-200),            # plain norm underflows to 0
])
def test_state_normalize_survives_extreme_amplitudes(base, scale):
    base = np.array(base, dtype=complex)
    amps = base * scale
    psi = QuantumState(amps, normalize=True)
    assert np.abs(psi.amplitudes - base / np.linalg.norm(base)).max() < 1e-15
    with pytest.raises(ValueError, match="differs from 1"):
        QuantumState(amps)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_state_rejects_non_finite_amplitudes(bad):
    for normalize in (False, True):
        with pytest.raises(ValueError, match="finite"):
            QuantumState(np.array([bad, 1.0], dtype=complex), normalize=normalize)


def test_state_amplitudes_are_read_only():
    with pytest.raises(ValueError):
        PLUS.amplitudes[0] = 1.0


def test_state_inner_and_fidelity():
    assert PLUS.inner(ZERO) == pytest.approx(RT2)
    assert fidelity(PLUS, PLUS) == pytest.approx(1.0)
    phased = QuantumState(np.exp(0.7j) * PLUS.amplitudes)
    assert fidelity(PLUS, phased) == pytest.approx(1.0)


def test_inner_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        ZERO.inner(QuantumState(np.array([1, 0, 0, 0], dtype=complex)))


def test_density_matrix_from_state():
    rho = PLUS.density_matrix()
    assert np.allclose(rho.matrix, 0.5 * np.ones((2, 2)))


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.0, 1.0]).astype(complex))


def test_density_matrix_rejects_negative():
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))


def test_density_matrix_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))


# ---------------------------------------------------------------------------
# completeness

def test_projectors_are_complete():
    report = validate_completeness(comp_projector_set().to_operator_set())
    assert report.passed
    assert report.residual == 0.0


def test_single_projector_fails_with_residual_one():
    # sum M^dag M = diag(1,0); the deficit is ||diag(0,1)||_F = 1
    lone = MeasurementOperatorSet((np.diag([1.0, 0.0]).astype(complex),))
    report = validate_completeness(lone)
    assert not report.passed
    assert report.residual == pytest.approx(1.0)


def test_general_set_is_complete():
    assert validate_completeness(GENERAL_SET).passed


def test_scaled_identity_fails_completeness():
    opset = MeasurementOperatorSet((0.5 * np.eye(2, dtype=complex),))
    assert not validate_completeness(opset).passed


# ---------------------------------------------------------------------------
# probabilities and post-states

def test_projective_born_rule_on_plus():
    probs = outcome_probabilities(comp_projector_set().to_operator_set(), PLUS)
    assert probs == pytest.approx([0.5, 0.5])


def test_general_set_probabilities_on_plus():
    # <+|M^dag M|+> worked out by hand for both operators
    probs = outcome_probabilities(GENERAL_SET, PLUS)
    assert probs == pytest.approx([0.5, 0.5])


def test_probabilities_require_completeness():
    lone = MeasurementOperatorSet((np.diag([1.0, 0.0]).astype(complex),))
    with pytest.raises(IncompleteSet):
        outcome_probabilities(lone, ZERO)


def test_probabilities_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        outcome_probabilities(
            GENERAL_SET, QuantumState(np.array([1, 0, 0], dtype=complex))
        )


def test_apply_outcome_projects_and_normalizes():
    record = apply_outcome(comp_projector_set().to_operator_set(), PLUS, 0)
    assert record.outcome == 0
    assert record.probability == pytest.approx(0.5)
    assert np.allclose(record.post_state.amplitudes, [1.0, 0.0])


def test_apply_outcome_general_set_post_state():
    # M_0|+> = (1/sqrt2)|0>, renormalized to |0>
    record = apply_outcome(GENERAL_SET, PLUS, 0)
    assert np.allclose(record.post_state.amplitudes, [1.0, 0.0])


def test_apply_outcome_unknown_label():
    with pytest.raises(UnknownOutcome):
        apply_outcome(GENERAL_SET, PLUS, 2)
    with pytest.raises(UnknownOutcome):
        apply_outcome(GENERAL_SET, PLUS, -1)


def test_apply_outcome_zero_probability():
    opset = comp_projector_set().to_operator_set()
    with pytest.raises(ZeroProbabilityOutcome):
        apply_outcome(opset, ZERO, 1)


def test_measurement_record_clamps_rounding():
    rec = MeasurementRecord(outcome=0, probability=1.0 + 5e-13, post_state=ZERO)
    assert rec.probability == 1.0
    with pytest.raises(ValueError):
        MeasurementRecord(outcome=0, probability=1.1, post_state=ZERO)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=2, max_value=6),
       st.integers(min_value=1, max_value=6))
def test_probability_law_property(seed, n, k):
    k = min(k, n)
    rng = np.random.default_rng(seed)
    opset = MeasurementOperatorSet(tuple(orthogonal_family(rng, n, k)))
    psi = QuantumState(random_state(rng, n))
    probs = outcome_probabilities(opset, psi)
    assert (probs >= -1e-12).all()
    assert abs(probs.sum() - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# sampling

def test_sample_measurement_is_seed_deterministic():
    opset = comp_projector_set().to_operator_set()
    first = sample_measurement(opset, PLUS, seed=123)
    second = sample_measurement(opset, PLUS, seed=123)
    assert first.outcome == second.outcome
    assert np.array_equal(first.post_state.amplitudes, second.post_state.amplitudes)


def test_sample_measurement_deterministic_state_has_sure_outcome():
    opset = comp_projector_set().to_operator_set()
    for seed in range(20):
        assert sample_measurement(opset, ZERO, seed=seed).outcome == 0


def test_sample_histogram_counts_sum_to_shots():
    opset = comp_projector_set().to_operator_set()
    counts = sample_histogram(opset, PLUS, shots=1000, seed=9)
    assert counts.sum() == 1000
    assert len(counts) == 2


def test_sample_histogram_frequencies_near_exact():
    opset = comp_projector_set().to_operator_set()
    shots = 100_000
    counts = sample_histogram(opset, PLUS, shots=shots, seed=7)
    freqs = counts / shots
    assert np.abs(freqs - 0.5).max() < 5.0 / math.sqrt(shots)


def test_sample_histogram_rejects_bad_shots():
    with pytest.raises(ValueError):
        sample_histogram(comp_projector_set().to_operator_set(), PLUS, shots=0, seed=1)


# ---------------------------------------------------------------------------
# projector sets

def test_projector_set_rejects_non_hermitian():
    with pytest.raises(InvalidProjectorSet):
        ProjectorSet((np.array([[0, 1], [0, 0]], dtype=complex),
                      np.array([[1, -1], [0, 0]], dtype=complex)))


def test_projector_set_rejects_non_idempotent():
    with pytest.raises(InvalidProjectorSet):
        ProjectorSet((0.5 * np.eye(2, dtype=complex),
                      0.5 * np.eye(2, dtype=complex)))


def test_projector_set_rejects_non_orthogonal():
    plus_proj = 0.5 * np.ones((2, 2), dtype=complex)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(InvalidProjectorSet):
        ProjectorSet((p0, plus_proj))


def test_projector_set_rejects_incomplete():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(InvalidProjectorSet):
        ProjectorSet((p0,))


def test_projector_set_accepts_plus_minus_basis():
    plus_proj = 0.5 * np.ones((2, 2), dtype=complex)
    minus_proj = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    pset = ProjectorSet((plus_proj, minus_proj))
    assert pset.dim == 2 and len(pset) == 2


def test_projector_set_names_first_violation():
    with pytest.raises(InvalidProjectorSet, match=r"\(0, 0\) violate idempotence"):
        ProjectorSet((0.5 * np.eye(2, dtype=complex), 0.5 * np.eye(2, dtype=complex)))
    p0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(InvalidProjectorSet, match=r"\(0, 1\) violate orthogonality"):
        ProjectorSet((p0, 0.5 * np.ones((2, 2), dtype=complex)))
    with pytest.raises(InvalidProjectorSet, match="do not sum to the identity"):
        ProjectorSet((p0,))
    res = ProjectorResiduals((np.array([[0, 1], [0, 0]], dtype=complex),))
    assert "projector 0 is not Hermitian" in res.failure(1e-10)
    assert "pairs" not in vars(res)  # no pair products once hermiticity fails


def test_projector_residuals_match_pairwise_definition():
    rng = np.random.default_rng(8)
    u = random_unitary(rng, 5)
    projs = [np.outer(u[:, k], u[:, k].conj()) for k in range(5)]
    res = ProjectorResiduals(tuple(projs))
    for i, pi in enumerate(projs):
        assert res.hermiticity[i] == np.linalg.norm(pi - pi.conj().T)
        for j, pj in enumerate(projs):
            delta = pi @ pj - (pi if i == j else 0.0)
            assert res.pairs[i, j] == np.linalg.norm(delta)
    assert res.completeness == np.linalg.norm(sum(projs) - np.eye(5))
    assert np.max(res.pairs / res.pair_scales) == max(
        np.linalg.norm(pi @ pj - (pi if i == j else 0.0))
        / max(1.0, np.linalg.norm(pi) * np.linalg.norm(pj))
        for i, pi in enumerate(projs) for j, pj in enumerate(projs))
    assert res.failure(1e-10) is None
    assert np.max(res.pairs) < 1e-14


def test_identity_alone_is_a_valid_projector_set():
    pset = ProjectorSet((np.eye(3, dtype=complex),))
    assert len(pset) == 1


# ---------------------------------------------------------------------------
# spectral decomposition

def test_spectral_decompose_pauli_x():
    obs = spectral_decompose(np.array([[0, 1], [1, 0]], dtype=complex))
    assert obs.eigenvalues == pytest.approx([-1.0, 1.0])
    minus_proj = np.array([[0.5, -0.5], [-0.5, 0.5]])
    plus_proj = 0.5 * np.ones((2, 2))
    assert np.allclose(obs.spectrum[0][1], minus_proj, atol=1e-12)
    assert np.allclose(obs.spectrum[1][1], plus_proj, atol=1e-12)


def test_spectral_decompose_merges_degenerate_eigenvalues():
    obs = spectral_decompose(np.diag([2.0, 2.0, 5.0]).astype(complex))
    assert len(obs.spectrum) == 2
    assert obs.eigenvalues == pytest.approx([2.0, 5.0])
    assert np.allclose(obs.spectrum[0][1], np.diag([1.0, 1.0, 0.0]))


def test_spectral_decompose_identity_is_single_eigenspace():
    obs = spectral_decompose(np.eye(4, dtype=complex))
    assert len(obs.spectrum) == 1
    assert np.allclose(obs.spectrum[0][1], np.eye(4))


def test_spectral_decompose_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        spectral_decompose(np.array([[0, 1], [0, 0]], dtype=complex))


def test_observable_reconstruction_random():
    rng = np.random.default_rng(17)
    for n in (2, 3, 6):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = (g + g.conj().T) / 2
        obs = spectral_decompose(a)
        recon = sum(lam * p for lam, p in obs.spectrum)
        assert np.linalg.norm(recon - a) < 1e-10 * max(1.0, np.linalg.norm(a))
        obs.projector_set()  # eigenprojectors form a valid complete set


def test_observable_keeps_its_validated_projector_set():
    obs = spectral_decompose(np.diag([1.0, 1.0, 3.0]).astype(complex))
    pset = obs.projector_set()
    assert pset is obs.projector_set()
    assert len(pset) == 2
    for (_, p), q in zip(obs.spectrum, pset.projectors):
        assert np.array_equal(p, q)


# ---------------------------------------------------------------------------
# POVMs

def test_povm_from_general_set_hand_oracle():
    # E_m = M_m^dag M_m: {diag(0,1), diag(1,0)}
    povm = povm_from_operators(GENERAL_SET)
    assert np.allclose(povm.elements[0], np.diag([0.0, 1.0]))
    assert np.allclose(povm.elements[1], np.diag([1.0, 0.0]))


def test_povm_probabilities_match_vector_form():
    povm = povm_from_operators(GENERAL_SET)
    rho = DensityMatrix.from_state(PLUS)
    assert povm_probabilities(povm, rho) == pytest.approx([0.5, 0.5])


def test_povm_rejects_non_positive_element():
    with pytest.raises(ValueError):
        Povm((np.diag([1.5, 0.0]).astype(complex),
              np.diag([-0.5, 1.0]).astype(complex)))


def test_povm_rejects_incomplete():
    with pytest.raises(IncompleteSet):
        Povm((np.diag([0.5, 0.5]).astype(complex),))


def test_povm_rejects_non_hermitian():
    e = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
    with pytest.raises(NotHermitian):
        Povm((e, np.eye(2, dtype=complex) - e))


def test_povm_dim_mismatch_against_state():
    povm = povm_from_operators(GENERAL_SET)
    rho = DensityMatrix(np.eye(3, dtype=complex) / 3.0)
    with pytest.raises(DimensionMismatch):
        povm_probabilities(povm, rho)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=2, max_value=5))
def test_povm_agrees_with_vector_probabilities(seed, n):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, n + 1))
    opset = MeasurementOperatorSet(tuple(orthogonal_family(rng, n, k)))
    psi = QuantumState(random_state(rng, n))
    direct = outcome_probabilities(opset, psi)
    via_povm = povm_probabilities(
        povm_from_operators(opset), DensityMatrix.from_state(psi)
    )
    assert np.abs(direct - via_povm).max() < 1e-12


# ---------------------------------------------------------------------------
# classification

def test_classify_projective():
    opset = comp_projector_set().to_operator_set()
    assert classify_measurement(opset) is MeasurementKind.PROJECTIVE


def test_classify_unitary_singleton():
    rng = np.random.default_rng(2)
    opset = MeasurementOperatorSet((random_unitary(rng, 3),))
    assert classify_measurement(opset) is MeasurementKind.UNITARY_SINGLETON


def test_classify_general():
    assert classify_measurement(GENERAL_SET) is MeasurementKind.GENERAL


def test_classify_identity_prefers_projective():
    opset = MeasurementOperatorSet((np.eye(2, dtype=complex),))
    assert classify_measurement(opset) is MeasurementKind.PROJECTIVE


def test_classify_requires_completeness():
    lone = MeasurementOperatorSet((np.diag([1.0, 0.0]).astype(complex),))
    with pytest.raises(IncompleteSet):
        classify_measurement(lone)


def test_operator_set_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        MeasurementOperatorSet((np.eye(2, dtype=complex), np.eye(3, dtype=complex)))


def test_operator_set_needs_at_least_one():
    with pytest.raises(ValueError):
        MeasurementOperatorSet(())
