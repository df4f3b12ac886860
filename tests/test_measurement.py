import copy
import dataclasses
import math
import pickle
import re
from contextlib import suppress
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    admitted,
    eigenspace_groups,
    orthogonal_family,
    random_hermitian,
    random_state,
    random_unitary,
)
from qmeasure import gates, linalg, measurement
from qmeasure.errors import (
    DimensionMismatch,
    IncompleteSet,
    InvalidProjectorSet,
    NotHermitian,
    NotPositive,
    NotUnitary,
    QmeasureError,
    UnknownOutcome,
    ZeroProbabilityOutcome,
)
from qmeasure.measurement import (
    DensityMatrix,
    MeasurementKind,
    MeasurementOperatorSet,
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
from qmeasure.mirror import is_mirror, truth_protocol, verify_probability_preservation
from qmeasure.reversible import PhaseVector, UnitaryOperator

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


def test_a_state_keeps_the_norm_its_input_had():
    """``input_norm`` is scale * norm of ``linalg.vector_norm``, formed once: the value the
    strict check judges and names, and the one the CLI's renormalization note prints."""
    for amps in ([3.0, 4.0j], [1e-200, 1e-200], [1e200, -1e200j]):
        v = np.array(amps, dtype=complex)
        psi = QuantumState(v, normalize=True)
        assert psi.input_norm == math.prod(linalg.vector_norm(v))
        assert pickle.loads(pickle.dumps(psi)).input_norm == psi.input_norm
        with pytest.raises(ValueError, match=rf"^state vector norm {re.escape(repr(psi.input_norm))} "):
            QuantumState(v)


def test_state_rejects_zero_vector():
    with pytest.raises(ValueError):
        QuantumState(np.zeros(2, dtype=complex), normalize=True)


@pytest.mark.parametrize("amps,shape", [(np.eye(2), "(2, 2)"), ([], "(0,)")])
def test_state_rejects_anything_but_a_nonempty_vector(amps, shape):
    with pytest.raises(ValueError, match=rf"^expected a 1-D vector, got shape {re.escape(shape)}$"):
        QuantumState(amps)


@pytest.mark.parametrize("base,scale", [
    ([1.0, 1.0], 1e308),              # plain norm overflows
    ([1.7 + 1.7j, 1.7], 1e308),       # |a_0| alone overflows
    ([1.0, 1.0j], 1e-200),            # plain norm underflows to 0
    ([1.0, 1.0j], 1e-320),            # largest part subnormal: 1 / peak overflows
    ([1.0, 0.0], 5e-324),             # the smallest subnormal
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


def _diag(*entries):
    return np.diag(entries).astype(complex)


def _spectral_arrays(a):
    obs = spectral_decompose(a)
    return [obs.matrix, *(p for _, p in obs.spectrum), *obs.projector_set().projectors]


# (fresh inputs, the arrays a domain object built from them stores)
STORED_ARRAY_CASES = [
    (lambda: [np.array([0.6, 0.8j])], lambda v: [QuantumState(v).amplitudes]),
    (lambda: [np.array([3.0, 4.0j])],
     lambda v: [QuantumState(v, normalize=True).amplitudes]),
    (lambda: [_diag(0.5, 0.5)], lambda rho: [DensityMatrix(rho).matrix]),
    (lambda: [np.array(m) for m in GENERAL_SET.operators],
     lambda *ms: list(MeasurementOperatorSet(ms).operators)),
    (lambda: [_diag(1.0, 0.0), _diag(0.0, 1.0)],
     lambda *ps: list(ProjectorSet(ps).projectors)),
    (lambda: [_diag(0.5, 0.5), _diag(0.5, 0.5)], lambda *es: list(Povm(es).elements)),
    (lambda: [_diag(1.0, 1.0, 3.0)], _spectral_arrays),
    (lambda: [np.array(gates.HADAMARD)], lambda u: [UnitaryOperator(u).matrix]),
    (lambda: [np.array([1.0, -1j])], lambda a: [PhaseVector(a).phases]),
]


def judged_objects():
    """One object of every kind that stores arrays, each with its caches formed;
    the spectral sets once unformed and once formed."""
    rng = np.random.default_rng(61)
    opset = MeasurementOperatorSet(orthogonal_family(rng, 4, 3))
    pset = ProjectorSet([np.outer(v, v.conj()) for v in random_unitary(rng, 4).T])
    unformed = spectral_decompose(random_hermitian(rng, 8, degenerate=True))
    formed = spectral_decompose(random_hermitian(rng, 8))
    objects = [opset, pset, povm_from_operators(opset), unformed, formed, formed.projector_set(),
               UnitaryOperator(random_unitary(rng, 4)), QuantumState(random_state(rng, 4)),
               DensityMatrix(_diag(0.5, 0.5)), PhaseVector([1.0, -1j])]
    for obj in (opset, pset, objects[2], formed):
        obj.residuals if hasattr(obj, "residuals") else obj.completeness_residual
    formed.spectrum
    return objects


def check_family_round_trip(back, orig):
    """The stack (formed only where the original's was) and any factor frozen,
    the tuple read-only views of the stack, all with the original's bytes."""
    factor = vars(orig).get("_factor")
    assert ("_stack" in vars(back)) is ("_stack" in vars(orig) or factor is None)
    if factor is not None:
        assert [a.tobytes() for a in back._factor] == [a.tobytes() for a in factor]
        assert not any(a.flags.writeable for a in back._factor)
    assert back._stack.tobytes() == orig._stack.tobytes() and not back._stack.flags.writeable
    name = dataclasses.fields(back)[0].name
    assert all(p.base is back._stack and not p.flags.writeable for p in getattr(back, name))
    if hasattr(orig, "residuals"):
        assert back.residuals == orig.residuals


@pytest.mark.parametrize("round_trip", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_judged_objects_stay_frozen_through_pickle_and_deepcopy(round_trip):
    for orig in judged_objects():
        back = round_trip(orig)
        assert type(back) is type(orig)
        if isinstance(orig, measurement._Family):
            check_family_round_trip(back, orig)
            continue
        if isinstance(orig, Observable):
            check_family_round_trip(back.projector_set(), orig.projector_set())
            assert back.residuals == orig.residuals and back.eigenvalues == orig.eigenvalues
            assert [p.base for _, p in back.spectrum] == [back.projector_set()._stack] * len(
                back.eigenvalues)
        for f in dataclasses.fields(orig):
            old, new = getattr(orig, f.name), getattr(back, f.name)
            if isinstance(old, np.ndarray):
                assert new.tobytes() == old.tobytes() and not new.flags.writeable
            elif not isinstance(old, measurement._Family):
                assert new == old


def test_stored_arrays_are_read_only():
    """Every stored array is read-only, and writing to the caller's input
    after construction leaves it unchanged."""
    for inputs, build in STORED_ARRAY_CASES:
        args = inputs()
        stored = build(*args)
        kept = [s.copy() for s in stored]
        for s in stored:
            assert not s.flags.writeable
            with pytest.raises(ValueError):
                s[(0,) * s.ndim] = 7.0
        for a in args:
            a[...] = 7.0
        for s, k in zip(stored, kept):
            np.testing.assert_array_equal(s, k, strict=True)


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
    with pytest.raises(QmeasureError, match=r"^density matrix trace \(2\+0j\) is not 1$") as exc:
        DensityMatrix(np.diag([1.0, 1.0]).astype(complex))
    assert exc.value.residuals == {"trace": 1.0}


def test_density_matrix_rejects_negative():
    with pytest.raises(NotPositive, match=r"^density matrix has negative eigenvalue -5.000e-01$"):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))


def test_density_matrix_trace_and_positivity_are_judged_at_tol():
    """|tr rho - 1| passes within tol, -lambda_min within tol ||rho||_F."""
    off_trace, negative = _diag(0.5, 0.5 + 1e-12), _diag(1.0 + 5e-11, -5e-11)
    for rho in (off_trace, negative):
        DensityMatrix(rho)  # within the default tol 1e-10
    with pytest.raises(QmeasureError, match="trace") as exc:
        DensityMatrix(off_trace, tol=1e-14)
    assert 1e-14 < exc.value.residuals["trace"] < 2e-12
    with pytest.raises(NotPositive):
        DensityMatrix(negative, tol=1e-14)


def test_povm_probabilities_drop_an_imaginary_part_the_hermiticity_bounds():
    """E_0 off Hermitian by h_E = 1e-4 sqrt(2), admitted at tol 1e-3: tr(E_0 rho) keeps an
    imaginary part under (h_E ||rho||_F + ||E_0||_F h_rho) / 2, and p is its real part."""
    e0 = np.array([[0.5, 1e-4j], [0.0, 0.5]])
    povm = Povm((e0, np.eye(2) - e0), tol=1e-3)
    rho = DensityMatrix(PLUS.density_matrix().matrix)
    traces = np.array([np.trace(e @ rho.matrix) for e in povm.elements])
    assert np.array_equal(povm_probabilities(povm, rho), traces.real)
    bound = np.linalg.norm(e0 - e0.conj().T) * np.linalg.norm(rho.matrix) / 2
    assert 0 < abs(traces[0].imag) <= bound


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


def test_apply_outcome_probability_is_the_squared_numpy_norm_bit_for_bit():
    """p = ||M_m psi||^2 squares ``linalg._norm`` as an np.float64, bit for bit the
    ``np.linalg.norm(M_m psi) ** 2`` it replaced: on vectors of n <= 8 at scales 1e-160 to
    1e150, and on the outcomes of complete families."""
    rng = np.random.default_rng(8)
    for _ in range(3000):
        v = rng.normal(size=(2, int(rng.integers(1, 9)))) * 10.0 ** rng.uniform(-160.0, 150.0)
        v = v[0] + 1j * v[1]
        assert np.float64(linalg._norm(v)) ** 2 == np.linalg.norm(v) ** 2
    for n in (1, 2, 3, 8):
        opset = MeasurementOperatorSet(orthogonal_family(rng, n, n))
        psi = QuantumState(random_state(rng, n))
        for m, op in enumerate(opset.operators):
            with suppress(ZeroProbabilityOutcome):
                p = apply_outcome(opset, psi, m).probability
                assert p == min(float(np.linalg.norm(op @ psi.amplitudes) ** 2), 1.0)


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
    # complete within tol, yet p(0) = 1 + 5e-13 on |0>; the record reports 1
    opset = MeasurementOperatorSet((_diag(math.sqrt(1.0 + 5e-13), 0.0), _diag(0.0, 1.0)))
    rec = apply_outcome(opset, ZERO, 0)
    assert rec.probability == 1.0
    np.testing.assert_array_equal(rec.post_state.amplitudes, [1.0, 0.0])


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
    with pytest.raises(NotHermitian):
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
    with pytest.raises(IncompleteSet):
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
    with pytest.raises(IncompleteSet, match="do not sum to the identity"):
        ProjectorSet((p0,))
    pset, failure = admitted(ProjectorSet, (np.array([[0, 1], [0, 0]], dtype=complex),))
    assert isinstance(failure, NotHermitian)
    assert "projector 0 is not Hermitian" in str(failure)
    assert "_pairs" not in vars(pset)  # no pair products once hermiticity fails
    assert failure.residuals == {"hermiticity_max": math.sqrt(2.0), "completeness": math.sqrt(3.0)}


def test_projector_residuals_match_pairwise_definition():
    rng = np.random.default_rng(8)
    u = random_unitary(rng, 5)
    projs = [np.outer(u[:, k], u[:, k].conj()) for k in range(5)]
    res, failure = admitted(ProjectorSet, tuple(projs))
    for i, pi in enumerate(projs):
        assert res._hermiticity[i] == np.linalg.norm(pi - pi.conj().T)
        for j, pj in enumerate(projs):
            delta = pi @ pj - (pi if i == j else 0.0)
            assert res._pairs[i, j] == np.linalg.norm(delta)
    assert res._completeness == np.linalg.norm(sum(projs) - np.eye(5))
    assert np.max(res._pairs / res._pair_scales) == max(
        np.linalg.norm(pi @ pj - (pi if i == j else 0.0))
        / max(1.0, np.linalg.norm(pi) * np.linalg.norm(pj))
        for i, pi in enumerate(projs) for j, pj in enumerate(projs))
    assert failure is None
    assert np.max(res._pairs) < 1e-14


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


def test_an_observable_has_the_dim_of_its_matrix():
    obs = spectral_decompose(np.diag([2.0, 2.0, 5.0]).astype(complex))
    assert obs.dim == obs.projector_set().dim == 3


def test_spectral_decompose_identity_is_single_eigenspace():
    obs = spectral_decompose(np.eye(4, dtype=complex))
    assert len(obs.spectrum) == 1
    assert np.allclose(obs.spectrum[0][1], np.eye(4))


def test_spectral_decompose_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        spectral_decompose(np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("build", [DensityMatrix, spectral_decompose],
                         ids=["DensityMatrix", "spectral_decompose"])
def test_hermiticity_guard_names_tol_and_residual(build):
    # ||A - A^dag||_F = sqrt(2)
    with pytest.raises(NotHermitian) as exc:
        build(np.array([[0, 1], [0, 0]], dtype=complex))
    assert str(exc.value) == "matrix is not Hermitian within 1e-10 (residual 1.414e+00)"
    assert exc.value.residuals == {"hermiticity": math.sqrt(2.0)}


OVERFLOW_NOTE = "residual 0.000e+00; its norm overflowed, so the threshold is inf"


@pytest.mark.parametrize("build", [DensityMatrix, spectral_decompose],
                         ids=["DensityMatrix", "spectral_decompose"])
def test_hermiticity_guard_names_an_overflowed_scale(build):
    # Hermitian with residual 0, but ||A||_F overflows, so the threshold is inf
    with pytest.raises(NotHermitian) as exc:
        build(np.array([[0.5, 1e308], [1e308, 0.5]], dtype=complex))
    assert str(exc.value) == f"matrix is not Hermitian within 1e-10 ({OVERFLOW_NOTE})"


def test_family_hermiticity_names_an_overflowed_scale():
    # each ||P_k||_F overflows, so each threshold is inf
    ops = (np.diag([1e308, 0.0]).astype(complex), np.diag([1e308, 1.0]).astype(complex))
    assert str(admitted(ProjectorSet, ops)[1]) == f"projector 0 is not Hermitian ({OVERFLOW_NOTE})"
    assert str(admitted(Povm, ops)[1]) == f"POVM element 0 is not Hermitian ({OVERFLOW_NOTE})"


def test_observable_rejects_overflowing_hermiticity_residual():
    # ||A - A^dag||_F and its scale ||A||_F both overflow to inf
    a = np.array([[0, 1e200], [0, 0]], dtype=complex)
    with pytest.raises(NotHermitian):
        spectral_decompose(a)


def test_failed_reconstruction_is_a_qmeasure_error():
    """Q diag(0, ..., 31) Q^dag reconstructs to about 1.8e-13, above tol ||A||_F = 1.02e-13 at
    tol = 1e-15: ``eigh``'s own rounding, which no grouping removes, fails the check. That
    residual, ||A - V diag(lambda) V^dag||_F of ``eigh``'s (lambda, V), differs between BLAS
    kernels, so it is formed here from the same ``eigh`` call."""
    q = random_unitary(np.random.default_rng(0), 32)
    a = (q * np.arange(32.0)) @ q.conj().T
    vals, vecs = np.linalg.eigh((a + a.conj().T) / 2.0)
    residual = np.linalg.norm(a - (vecs * vals) @ vecs.conj().T)
    assert 1e-15 * np.linalg.norm(a) < residual < 1e-12
    with pytest.raises(QmeasureError) as exc:
        spectral_decompose(a, tol=1e-15)
    assert type(exc.value) is QmeasureError
    assert str(exc.value) == f"spectrum does not reconstruct the observable (residual {residual:.3e})"
    assert exc.value.residuals["reconstruction"] == residual
    assert exc.value.residuals["n_eigenspaces"] == 32


def test_tiny_distinct_eigenvalues_keep_their_eigenspaces():
    """A gap of 1e-9 is far above eps_n ||A||_F, so diag(1e-9, 2e-9) keeps two eigenspaces."""
    obs = spectral_decompose(_diag(1e-9, 2e-9))
    assert obs.eigenvalues == (1e-9, 2e-9) and obs.residuals["reconstruction"] == 0.0


def test_observable_reconstruction_random():
    rng = np.random.default_rng(17)
    for n in (2, 3, 6):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = (g + g.conj().T) / 2
        obs = spectral_decompose(a)
        vecs, labels = obs.projector_set()._factor  # eigenvectors, eigenspace of each
        recon = (vecs * np.array(obs.eigenvalues)[labels]) @ vecs.conj().T
        assert np.linalg.norm(recon - a) < 1e-10 * max(1.0, np.linalg.norm(a))
        assert obs.residuals["reconstruction"] == np.linalg.norm(a - recon)
        obs.projector_set()  # eigenprojectors form a valid complete set


def planted_eigenpairs(rng, n, degenerate, plant, gram_target):
    """Eigenvalues (ascending, half of them equal when ``degenerate``) and a
    Haar V, perturbed so that ||V^dag V - I||_F is about ``gram_target``:
    "tilt" adds x v_0 to v_1 (G_01 = x), "stretch" scales v_0 (G_00 =
    (1 + d)^2, the worst case for idempotence) and "random" multiplies V by
    I + d S for a unit Hermitian S."""
    half = n // 2 if degenerate else 0
    vals = np.sort(np.concatenate([np.full(half, rng.normal()), rng.normal(size=n - half)]))
    vecs = random_unitary(rng, n)
    if plant == "tilt" and n > 1:
        vecs[:, 1] += gram_target / math.sqrt(2.0) * vecs[:, 0]
    elif plant in ("tilt", "stretch"):
        vecs[:, 0] *= math.sqrt(1.0 + gram_target)
    elif plant == "random":
        s = random_hermitian(rng, n)
        vecs = vecs @ (np.eye(n) + gram_target / 2.0 * s / np.linalg.norm(s))
    return vals, vecs


def planted_above_the_allowance(rng, n, degenerate, plant, ratio):
    """:func:`planted_eigenpairs` with g ``ratio`` of the way from eps_n to the
    certificate threshold tau at the default tol: certified, but above eps_n."""
    eps_n = measurement._rounding_allowance(n)
    target = eps_n + ratio * (measurement._gram_threshold(n, 1e-10) - eps_n)
    return planted_eigenpairs(rng, n, degenerate, plant, target)


def eigenspace_projectors(vals, vecs, scale):
    """V_g V_g^dag over the eigenspaces of ``vals`` for ||A||_F = ``scale``, as
    spectral_decompose forms them."""
    return [vecs[:, g] @ vecs[:, g].conj().T for g in eigenspace_groups(vals, scale)]


def planted_projectors(vals, vecs):
    """:func:`eigenspace_projectors` of the planted pairs, at the scale decompose_planted judges."""
    return eigenspace_projectors(vals, vecs, np.linalg.norm((vecs * vals) @ vecs.conj().T))


def decompose_planted(vals, vecs, tol):
    """spectral_decompose of V diag(vals) V^dag with its eigensolver
    returning the planted (vals, V)."""
    a = (vecs * vals) @ vecs.conj().T
    scale = np.linalg.norm(a)
    planted = (vals, vecs, linalg.judge("hermiticity", 0.0, tol, scale, n=len(vals)), scale)
    with mock.patch.object(linalg, "guarded_eigh", return_value=planted):
        return spectral_decompose(a, tol=tol)


@settings(max_examples=150, deadline=None)
@given(n=st.sampled_from(list(range(1, 10)) + [32, 64]),
       degenerate=st.booleans(),
       plant=st.sampled_from([None, "tilt", "stretch", "random"]),
       ratio=st.floats(min_value=0.5, max_value=2.0),
       log_tol=st.floats(min_value=-12.0, max_value=-6.0),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_gram_certificate_implies_the_generic_projector_check(n, degenerate, plant, ratio,
                                                              log_tol, seed):
    """A Gram residual within its threshold implies that the generic pair
    check (the old path, the oracle here) passes the same projectors at the
    same tol, and the factored path's verdict is always the oracle's."""
    tol = 10.0 ** log_tol
    tau = measurement._gram_threshold(n, tol)
    vals, vecs = planted_eigenpairs(np.random.default_rng(seed), n, degenerate, plant,
                                    ratio * tau)
    gram = np.linalg.norm(vecs.conj().T @ vecs - np.eye(n))
    oracle = admitted(ProjectorSet, planted_projectors(vals, vecs), tol)[1]
    if gram <= tau:
        assert oracle is None
    try:
        obs = decompose_planted(vals, vecs, tol)
    except InvalidProjectorSet as exc:
        assert gram > tau and oracle is not None
        assert str(exc) == (f"eigenvector Gram residual {gram:.3e} exceeds its threshold "
                            f"{tau:.3e} at tol {tol:g}, and {oracle}")
        return
    assert oracle is None
    ProjectorSet(obs.projector_set().projectors, tol=tol)


@pytest.mark.parametrize("plant", ["tilt", "stretch", "random"])
def test_gram_certificate_skips_the_pair_check_only_within_its_threshold(plant):
    rng = np.random.default_rng(29)
    tol = 1e-9
    tau = measurement._gram_threshold(8, tol)
    for ratio, pair_checks in ((0.9, 0), (1.1, 1)):
        vals, vecs = planted_eigenpairs(rng, 8, False, plant, ratio * tau)
        oracle = admitted(ProjectorSet, planted_projectors(vals, vecs), tol)[1]
        with mock.patch.object(linalg, "orthogonality_residuals",
                               wraps=linalg.orthogonality_residuals) as spy:
            if oracle is None:
                decompose_planted(vals, vecs, tol)
            else:
                with pytest.raises(InvalidProjectorSet, match="Gram residual"):
                    decompose_planted(vals, vecs, tol)
        assert spy.call_count == pair_checks


def test_gram_certificate_rejects_a_tilt_that_tol_sqrt_n_would_accept():
    """G_01 = 3 tol at n = 32: g = 4.2 tol is below tol sqrt(n) = 5.7 tol,
    yet the pair (0, 1) fails the generic check at 3 tol."""
    tol, n = 1e-10, 32
    vals, vecs = planted_eigenpairs(np.random.default_rng(31), n, False, "tilt",
                                    math.sqrt(2.0) * 3 * tol)
    gram = np.linalg.norm(vecs.conj().T @ vecs - np.eye(n))
    assert 4.2e-10 < gram < tol * math.sqrt(n)
    with pytest.raises(InvalidProjectorSet) as exc:
        decompose_planted(vals, vecs, tol)
    tau = measurement._gram_threshold(n, tol)
    assert str(exc.value).startswith(
        f"eigenvector Gram residual {gram:.3e} exceeds its threshold {tau:.3e} at tol 1e-10, "
        "and projectors (0, 1) violate orthogonality (residual 3.0")


def test_spectral_decompose_falls_back_to_the_pair_check_below_the_rounding_allowance():
    """At tol <= 4 n^(3/2) eps the threshold is negative, so no Gram residual
    certifies; the projectors get the generic check, which exact ones pass."""
    assert measurement._gram_threshold(2, 1e-15) < 0
    obs = spectral_decompose(np.diag([1.0, 2.0]).astype(complex), tol=1e-15)
    assert obs.eigenvalues == (1.0, 2.0)


def test_spectral_decompose_judges_hermiticity_once_and_forms_no_pairs(monkeypatch):
    calls = []
    judge = linalg._require_hermitian

    def counted(a, tol):
        calls.append(a)
        return judge(a, tol)

    def forbidden(*args, **kwargs):
        raise AssertionError("the factored path runs no generic family check")

    monkeypatch.setattr(linalg, "_require_hermitian", counted)
    monkeypatch.setattr(linalg, "orthogonality_residuals", forbidden)
    monkeypatch.setattr(measurement._Family, "_admit", forbidden)
    monkeypatch.setattr(measurement, "_coerce_square_family", forbidden)
    spectral_decompose(random_hermitian(np.random.default_rng(37), 8, degenerate=True))
    assert len(calls) == 1


@pytest.mark.parametrize("degenerate", [False, True])
def test_spectral_projectors_are_the_eigenvector_products(degenerate):
    a = random_hermitian(np.random.default_rng(41), 32, degenerate=degenerate)
    obs = spectral_decompose(a)
    vals, vecs = np.linalg.eigh((a + a.conj().T) / 2.0)
    groups = eigenspace_groups(vals, np.linalg.norm(a))
    assert len(obs.spectrum) == len(groups) == (17 if degenerate else 32)
    for (lam, p), q, g, r in zip(obs.spectrum, obs.projector_set().projectors, groups,
                                 eigenspace_projectors(vals, vecs, np.linalg.norm(a))):
        assert p is q and not p.flags.writeable
        assert np.array_equal(p, r)
        assert lam == np.mean(vals[g])


@pytest.mark.parametrize("mults,rotated", [
    ([2, 1, 3, 1, 2], True),  # eigenspace sizes in mixed order
    ([1, 4, 1, 1, 4, 2, 1], True),
    ([1], True),  # n = 1
    ([32], False),  # the identity
    ([32], True),  # rotated: all 32 eigenvalues equal up to rounding
])
def test_spectral_groups_of_mixed_sizes_keep_their_slots(mults, rotated):
    """Eigenspaces batched by size come back in ascending order, each P_g
    and lambda_g bit for bit the per-group V_g V_g^dag and mean."""
    rng = np.random.default_rng(len(mults))
    n = sum(mults)
    levels = np.cumsum(rng.uniform(0.5, 2.0, size=len(mults)))  # gaps far above eps_n ||A||_F
    u = random_unitary(rng, n) if rotated else np.eye(n)
    a = (u * np.repeat(levels, mults)) @ u.conj().T
    obs = spectral_decompose(a)
    vals, vecs = np.linalg.eigh((a + a.conj().T) / 2.0)
    groups = np.split(np.arange(n), np.cumsum(mults)[:-1])
    assert len(obs.spectrum) == len(mults)
    assert all(x < y for x, y in zip(obs.eigenvalues, obs.eigenvalues[1:]))
    for (lam, p), g in zip(obs.spectrum, groups):
        assert np.array_equal(p, vecs[:, g] @ vecs[:, g].conj().T)
        assert type(lam) is float and lam == np.mean(vals[g])
        assert not p.flags.writeable


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
    rho = PLUS.density_matrix()
    assert povm_probabilities(povm, rho) == pytest.approx([0.5, 0.5])


def test_povm_rejects_non_positive_element():
    with pytest.raises(NotPositive):
        Povm((np.diag([1.5, 0.0]).astype(complex),
              np.diag([-0.5, 1.0]).astype(complex)))


def test_povm_rejects_incomplete():
    with pytest.raises(IncompleteSet):
        Povm((np.diag([0.5, 0.5]).astype(complex),))


def test_povm_positivity_is_judged_at_tol():
    """An eigenvalue of -5e-11 is 5000 times tol = 1e-14 and fails; one of -1e-8 passes at
    tol = 1e-3. Positivity is judged as -lambda_min within tol against ||E_m||_F."""
    with pytest.raises(NotPositive):
        Povm((np.diag([-5e-11, 1.0]), np.diag([1.0 + 5e-11, 0.0])), tol=1e-14)
    povm = Povm((np.diag([-1e-8, 1.0]), np.diag([1.0 + 1e-8, 0.0])), tol=1e-3)
    assert povm.residuals["min_eigenvalue"] == -1e-8


def test_povm_of_scaled_products_is_not_rejected_for_rounding():
    """M_k = 1e3 e_k q_k^dag at n = 32, q Haar: each element 1e6 q_k q_k^dag is positive by
    construction, and completeness passes at tol = 1.01e6, while eigvalsh rounds an eigenvalue
    to about -1e-10 at that scale, far within tol ||E_m||_F."""
    q = random_unitary(np.random.default_rng(32), 32)
    ops = [1e3 * np.outer(np.eye(32)[k], q[:, k].conj()) for k in range(32)]
    povm_from_operators(MeasurementOperatorSet(ops), tol=1.01e6)


def test_povm_rejects_non_hermitian():
    e = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
    with pytest.raises(NotHermitian):
        Povm((e, np.eye(2, dtype=complex) - e))


def test_povm_first_violation_messages_and_lazy_eigenvalues():
    e = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
    povm, failure = admitted(Povm, (e, np.eye(2, dtype=complex) - e))
    assert isinstance(failure, NotHermitian)
    assert str(failure) == "POVM element 0 is not Hermitian (residual 7.071e-01)"
    assert "_lowest" not in vars(povm)  # no eigenvalues once hermiticity fails
    assert list(failure.residuals) == ["hermiticity_max", "completeness"]
    with pytest.raises(NotPositive,
                       match=r"^POVM element 1 has negative eigenvalue -5.000e-01$") as exc:
        Povm((np.diag([1.5, 0.0]).astype(complex), np.diag([-0.5, 1.0]).astype(complex)))
    assert exc.value.residuals == {"hermiticity_max": 0.0, "completeness": 0.0,
                                   "min_eigenvalue": -0.5}
    with pytest.raises(IncompleteSet,
                       match=r"^POVM elements do not sum to the identity \(residual 7.071e-01\)$"):
        Povm((np.diag([0.5, 0.5]).astype(complex),))
    assert admitted(Povm, (np.eye(2, dtype=complex),))[1] is None


def test_every_dimension_rule_words_one_message():
    """The library sites word the dimension-agreement rule as the CLI does."""
    rng = np.random.default_rng(2)
    psi2, psi4 = QuantumState(random_state(rng, 2)), QuantumState(random_state(rng, 4))
    unit2 = UnitaryOperator(random_unitary(rng, 2))
    pset2 = ProjectorSet([_diag(1.0, 0.0), _diag(0.0, 1.0)])
    opset2 = pset2.to_operator_set()
    cases = [
        (lambda: psi2.inner(psi4), "bra 2, ket 4"),
        (lambda: outcome_probabilities(opset2, psi4), "set 2, state 4"),
        (lambda: apply_outcome(opset2, psi4, 0), "set 2, state 4"),
        (lambda: povm_probabilities(povm_from_operators(opset2), psi4.density_matrix()),
         "povm 2, state 4"),
        (lambda: is_mirror(UnitaryOperator(np.eye(4)), pset2), "unitary 4, projectors 2"),
        (lambda: verify_probability_preservation(unit2, pset2, psi4),
         "unitary 2, projectors 2, state 4"),
        (lambda: truth_protocol(unit2, psi4), "unitary 2, state 4"),
    ]
    for call, dims in cases:
        with pytest.raises(DimensionMismatch) as exc:
            call()
        assert str(exc.value) == f"dims differ: {dims}"


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
        povm_from_operators(opset), psi.density_matrix()
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


def test_a_singleton_is_complete_exactly_when_it_is_unitary():
    # (1 + s) R for a rotation R: the completeness residual and both unitarity
    # residuals are sqrt(2) (2 s + s^2), against the one threshold tol * sqrt(2)
    rot = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
    inside, outside = (1.0 + 4e-11) * rot, (1.0 + 6e-11) * rot
    kind = classify_measurement(MeasurementOperatorSet((inside,)))
    assert kind is MeasurementKind.UNITARY_SINGLETON
    UnitaryOperator(inside)
    with pytest.raises(IncompleteSet):
        classify_measurement(MeasurementOperatorSet((outside,)))
    with pytest.raises(NotUnitary):
        UnitaryOperator(outside)


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


def per_matrix_coerce(mats, what):
    """The family coercion as it was before a family became one stack: one
    ``as_matrix`` per operator, then the count and shape checks."""
    arrays = tuple(linalg.as_matrix(m) for m in mats)
    if not arrays:
        raise ValueError(f"{what} needs at least one operator")
    dim = arrays[0].shape[0]
    for k, m in enumerate(arrays):
        if m.shape != (dim, dim):
            raise DimensionMismatch(
                f"{what} operator {k} has shape {m.shape}, expected ({dim}, {dim})"
            )
    return tuple(linalg.freeze(m) for m in arrays)


FINITE_ENTRIES = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.complex_numbers(max_magnitude=1e300, allow_nan=False, allow_infinity=False),
    st.integers(min_value=-3, max_value=3),
)
ODD_ENTRIES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, complex(0.0, math.nan), 10**400, None]),
    st.booleans(),
)


@st.composite
def family_inputs(draw):
    """A factory of one family input: lists, tuples, generators or a stack
    of matrices given as arrays (C- or F-ordered, read-only or not) or as
    nested lists, with now and then an odd shape (1-D, 3-D, scalar,
    non-square, empty, another dimension) or an odd entry (NaN, inf, a
    boolean, an int too large for a float, None)."""
    n = draw(st.integers(min_value=1, max_value=3))
    odd = [(n,), (n, n + 1), (1, n, n), (), (n + 1, n + 1), (0, 0)]
    common = draw(st.sampled_from([(n, n)] * 6 + odd))  # the shape most matrices share
    mats = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        shape = draw(st.sampled_from(odd)) if draw(st.integers(0, 9)) == 0 else common
        size = math.prod(shape)
        entries = draw(st.lists(FINITE_ENTRIES, min_size=size, max_size=size))
        if size and draw(st.integers(min_value=0, max_value=9)) == 0:
            entries[draw(st.integers(min_value=0, max_value=size - 1))] = draw(ODD_ENTRIES)
        nested = np.array(entries + [None], dtype=object)[:-1].reshape(shape).tolist()
        form = draw(st.sampled_from(["list", "array", "fortran", "readonly"]))
        if form != "list":
            with suppress(ValueError, TypeError, OverflowError):
                nested = np.array(nested)
                if form == "fortran":
                    nested = np.asfortranarray(nested)
                elif form == "readonly":
                    nested.setflags(write=False)
        mats.append(nested)
    outer = draw(st.sampled_from(["list", "tuple", "generator", "stack", "fortran stack"]))
    if outer.endswith("stack"):
        with suppress(ValueError, TypeError, OverflowError):
            stack = np.array(mats, dtype=np.complex128)
            stack = np.asfortranarray(stack) if outer == "fortran stack" else stack
            stack.setflags(write=draw(st.booleans()))
            return lambda: stack
    if outer == "generator":
        return lambda: (m for m in mats)
    return lambda: (tuple if outer == "tuple" else list)(mats)


def value_or_error(call):
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(family_inputs(), st.sampled_from(["measurement set", "projector set", "POVM"]))
def test_one_conversion_words_every_error_as_the_per_matrix_walk(make, what):
    """One array conversion per family gives the per-matrix coercion's
    matrices as one read-only C-ordered stack, bit for bit, and raises the
    same exception with the same message wherever that walk raised."""
    expected = value_or_error(lambda: per_matrix_coerce(make(), what))
    got = value_or_error(lambda: measurement._coerce_square_family(make(), what))
    if not isinstance(expected, tuple) or not isinstance(expected[0], np.ndarray):
        assert got == expected
        return
    assert isinstance(got, np.ndarray) and got.dtype == np.complex128
    assert got.flags.c_contiguous and not got.flags.writeable
    assert got.shape == (len(expected), *expected[0].shape)
    assert got.tobytes() == np.array(expected).tobytes()


def test_a_family_is_held_once_as_read_only_views_of_its_stack():
    ops = (np.eye(2, dtype=complex) * 0.5, np.diag([0.5, -0.5]).astype(complex))
    for family, name in ((MeasurementOperatorSet(ops), "operators"),
                         (ProjectorSet((np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))), "projectors"),
                         (Povm((np.diag([0.25, 0.5]), np.diag([0.75, 0.5]))), "elements"),
                         (MeasurementOperatorSet(m for m in ops), "operators")):
        views = getattr(family, name)
        assert type(views) is tuple and len(views) == len(family) == len(family._stack)
        assert not family._stack.flags.writeable and family._stack.flags.c_contiguous
        for k, view in enumerate(views):
            assert view.base is family._stack and not view.flags.writeable
            np.testing.assert_array_equal(view, family._stack[k], strict=True)
        assert family.dim == family._stack.shape[1]
    pset = ProjectorSet((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    assert pset.to_operator_set()._stack is pset._stack
