import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import frobenius_norm, random_state, random_unitary
from qmeasure import linalg, measurement, mirror
from qmeasure.errors import (
    DimensionMismatch,
    IncompleteSet,
    NotMirror,
    NotUnitary,
    PhaseNotUnimodular,
    QmeasureError,
)
from qmeasure.gates import BELL_CIRCUIT, HADAMARD, PAULI_Z
from qmeasure.measurement import (
    DensityMatrix,
    MeasurementOperatorSet,
    Povm,
    ProjectorSet,
    QuantumState,
    classify_measurement,
    povm_from_operators,
    povm_probabilities,
    spectral_decompose,
)
from qmeasure.mirror import (
    BELL_LABELS,
    BELL_GROUPING_NOTE,
    BELL_STATES,
    BellComparisonReport,
    MirrorUnitary,
    bell_comparison,
    build_qubit_mirror,
    computational_projector_set,
    extend_mirror,
    is_mirror,
    truth_protocol,
    verify_probability_preservation,
)
from qmeasure.reversible import (
    PhaseVector,
    UnitaryOperator,
    exp_observable,
    irm_povm,
    phase_superpose_projectors,
    unitary_as_measurement,
)

RT2 = 1.0 / math.sqrt(2.0)
ZERO = QuantumState(np.array([1, 0], dtype=complex))
STATE_00 = QuantumState(np.array([1, 0, 0, 0], dtype=complex))


# ---------------------------------------------------------------------------
# mirror certification

def test_pauli_z_is_mirror_for_computational():
    result = is_mirror(UnitaryOperator(PAULI_Z), computational_projector_set(2))
    assert isinstance(result, MirrorUnitary)
    assert result.commutation_residuals == (0.0, 0.0)
    assert result.residuals == {"commutator_0": 0.0, "commutator_1": 0.0, "commutation_max": 0.0}


def test_hadamard_is_rejected():
    with pytest.raises(NotMirror, match=r"^commutator 0 exceeds tolerance 1e-10$") as exc:
        is_mirror(UnitaryOperator(HADAMARD), computational_projector_set(2))
    # ||[H, P_0]||_F = 1, from the hand-computed commutator
    assert list(exc.value.residuals) == ["commutator_0", "commutator_1", "commutation_max"]
    assert exc.value.residuals["commutation_max"] == pytest.approx(1.0)


def test_identity_is_mirror_for_any_projectors():
    plus_proj = 0.5 * np.ones((2, 2), dtype=complex)
    minus_proj = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    pset = ProjectorSet((plus_proj, minus_proj))
    result = is_mirror(UnitaryOperator(np.eye(2, dtype=complex)), pset)
    assert isinstance(result, MirrorUnitary)


def test_is_mirror_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        is_mirror(UnitaryOperator(np.eye(2, dtype=complex)),
                  computational_projector_set(4))


# ---------------------------------------------------------------------------
# probability preservation

def test_hadamard_breaks_preservation_on_zero():
    # p = (1, 0) before, (1/2, 1/2) after: deviation 1/2
    report = verify_probability_preservation(
        UnitaryOperator(HADAMARD), computational_projector_set(2), ZERO
    )
    assert report.probabilities_before == pytest.approx([1.0, 0.0])
    assert report.probabilities_after == pytest.approx([0.5, 0.5])
    assert report.max_deviation == pytest.approx(0.5)
    assert not report.passed


def test_mirror_preserves_probabilities_random_states():
    rng = np.random.default_rng(6)
    mirror = build_qubit_mirror(0.8, cmath.exp(1j * 1.9))
    pset = computational_projector_set(2)
    for _ in range(50):
        psi = QuantumState(random_state(rng, 2))
        report = verify_probability_preservation(mirror.unitary, pset, psi)
        assert report.max_deviation <= 1e-12


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 12: is_mirror accepts every ||[U, P_m]||_F up to "
                   "tol sqrt(n), which lets a probability move by more than tol")
def test_an_accepted_mirror_preserves_probabilities_within_tol():
    """A rotation by 3.9 tol between e_0 and e_1 at n = 32 has commutators of sqrt(2) sin(3.9 tol)
    = 5.5 tol, under tol sqrt(32) = 5.66 tol, yet moves the probabilities of (e_0 + e_1)/sqrt(2)
    by 3.9 tol. An accepted mirror must preserve them within tol (or not be accepted)."""
    n, tol, theta = 32, 1e-10, 3.9e-10
    u = np.eye(n, dtype=complex)
    u[:2, :2] = [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    pset = computational_projector_set(n)
    try:
        accepted = is_mirror(u, pset, tol)
    except NotMirror:
        return
    psi = QuantumState(np.eye(n)[0] + np.eye(n)[1], normalize=True)
    assert verify_probability_preservation(accepted.unitary, pset, psi, tol).passed


# ---------------------------------------------------------------------------
# qubit mirror construction

def test_build_qubit_mirror_identity_case():
    mirror = build_qubit_mirror(0.0, 1.0)
    assert np.allclose(mirror.unitary.matrix, np.eye(2))


def test_build_qubit_mirror_alpha_i():
    mirror = build_qubit_mirror(0.0, 1j)
    assert np.allclose(mirror.unitary.matrix, np.diag([1j, -1j]))


def test_build_qubit_mirror_phase_arithmetic():
    # theta = pi/2, alpha = e^{i pi/4} -> diag(e^{i 3pi/4}, e^{i pi/4})
    mirror = build_qubit_mirror(math.pi / 2, cmath.exp(1j * math.pi / 4))
    expected = np.diag([cmath.exp(3j * math.pi / 4), cmath.exp(1j * math.pi / 4)])
    assert np.allclose(mirror.unitary.matrix, expected, atol=1e-12)
    assert mirror.worst_residual <= 1e-12


def test_build_qubit_mirror_rejects_non_unimodular_alpha():
    with pytest.raises(PhaseNotUnimodular):
        build_qubit_mirror(0.0, 0.5)


finite_angles = st.floats(allow_nan=False, allow_infinity=False)
unit_alphas = st.one_of(st.sampled_from([1, -1, 1j, -1j]),
                        finite_angles.map(lambda phi: cmath.exp(1j * phi)))


@settings(max_examples=200, deadline=None)
@given(finite_angles, unit_alphas)
def test_build_qubit_mirror_is_the_diagonal_bit_for_bit(theta, alpha):
    # Bits compared after "+ 0.0", which maps -0.0 to +0.0 and keeps every
    # other value: the sum over projectors cannot carry the sign of a zero
    # product (theta 0, alpha -1 gives np.diag a -0.0 imaginary part).
    front = cmath.exp(1j * theta)
    expected = np.diag([front * alpha, front * complex(alpha).conjugate()])
    got = build_qubit_mirror(theta, alpha).unitary.matrix
    assert np.array_equal((got + 0.0).view(np.uint64), (expected + 0.0).view(np.uint64))


@pytest.mark.parametrize("alpha", [0.5, 2.0, 0.6 + 0.9j])
def test_build_qubit_mirror_judges_alpha_as_phase_vector_does(alpha):
    with pytest.raises(PhaseNotUnimodular) as expected:
        PhaseVector([alpha])
    with pytest.raises(PhaseNotUnimodular) as exc:
        build_qubit_mirror(0.0, alpha)
    assert str(exc.value) == str(expected.value)


def test_build_qubit_mirror_judges_its_phases_once():
    # |alpha|^2 - 1 within a few ulps of UNIMODULAR_TOL: rotating alpha by
    # e^{i theta} moves the deviation across the bound in either direction,
    # so a second check on alpha alone would disagree with this one
    rng = np.random.default_rng(2024)
    verdicts = set()
    for _ in range(200):
        size = math.sqrt(1.0 + 1e-12 * (1.0 + rng.uniform(-3e-4, 3e-4)))
        alpha = size * cmath.exp(1j * rng.uniform(-4.0, 4.0))
        theta = rng.uniform(-4.0, 4.0)
        front = cmath.exp(1j * theta)
        try:
            PhaseVector([front * alpha, front * alpha.conjugate()])
            expected = None
        except PhaseNotUnimodular as exc:
            expected = str(exc)
        try:
            build_qubit_mirror(theta, alpha)
            got = None
        except PhaseNotUnimodular as exc:
            got = str(exc)
        assert got == expected
        verdicts.add(got is None)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# extended mirrors

def test_extend_mirror_diagonal_four_dim():
    mirror = extend_mirror(PhaseVector([1.0, -1.0, -1.0, 1.0]),
                           computational_projector_set(4))
    assert np.allclose(mirror.unitary.matrix, np.diag([1.0, -1.0, -1.0, 1.0]))
    assert mirror.worst_residual == 0.0


def test_extend_mirror_plus_minus_basis():
    # i(|+><+| - |-><-|) = iX: a mirror for the +/- projectors yet not
    # for the computational ones
    plus_proj = 0.5 * np.ones((2, 2), dtype=complex)
    minus_proj = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    pset = ProjectorSet((plus_proj, minus_proj))
    mirror = extend_mirror(PhaseVector([1j, -1j]), pset)
    expected = 1j * np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.allclose(mirror.unitary.matrix, expected, atol=1e-12)
    with pytest.raises(NotMirror):
        is_mirror(mirror.unitary, computational_projector_set(2))


def test_extend_mirror_certifies_against_generating_set():
    rng = np.random.default_rng(14)
    for _ in range(10):
        u = random_unitary(rng, 4)
        projs = tuple(
            np.outer(u[:, k], u[:, k].conj()) for k in range(4)
        )
        pset = ProjectorSet(projs)
        phases = PhaseVector(np.exp(1j * rng.uniform(0, 2 * np.pi, size=4)))
        mirror = extend_mirror(phases, pset)
        assert mirror.worst_residual <= 1e-10


# ---------------------------------------------------------------------------
# Bell comparison

def test_bell_states_are_the_standard_four():
    amps = np.array([s.amplitudes for s in BELL_STATES])
    expected = np.array([
        [RT2, 0, 0, RT2],
        [RT2, 0, 0, -RT2],
        [0, RT2, RT2, 0],
        [0, RT2, -RT2, 0],
    ])
    assert np.allclose(amps, expected, atol=1e-15)
    assert BELL_LABELS == ("phi_plus", "phi_minus", "psi_plus", "psi_minus")


@pytest.mark.parametrize("index,expected", [
    (0, (1.0, 0.0)),
    (1, (1.0, 0.0)),
    (2, (0.0, 1.0)),
    (3, (0.0, 1.0)),
])
def test_bell_comparison_external_pairs(index, expected):
    mirror = extend_mirror(PhaseVector([1.0, 1j, 1j, 1.0]),
                           computational_projector_set(4))
    report = bell_comparison(index, mirror)
    assert report.external_probabilities == pytest.approx(expected, abs=1e-12)
    assert report.external_sum_residual <= 1e-12
    assert report.internal_probability == pytest.approx(1.0, abs=1e-12)
    assert report.internal_identity_residual <= 1e-12
    assert report.preservation.max_deviation <= 1e-12


def test_bell_comparison_phi_plus_preservation_amplitudes():
    # diag(1, i, i, 1) acts by phases only: (1/2, 0, 0, 1/2) stays put
    mirror = extend_mirror(PhaseVector([1.0, 1j, 1j, 1.0]),
                           computational_projector_set(4))
    report = bell_comparison(0, mirror)
    assert report.preservation.probabilities_before == pytest.approx(
        [0.5, 0.0, 0.0, 0.5], abs=1e-12
    )
    assert report.preservation.probabilities_after == pytest.approx(
        [0.5, 0.0, 0.0, 0.5], abs=1e-12
    )
    assert report.bell_label == "phi_plus"


def test_bell_comparison_rejects_bad_index():
    mirror = extend_mirror(PhaseVector([1.0, 1.0, 1.0, 1.0]),
                           computational_projector_set(4))
    with pytest.raises(ValueError):
        bell_comparison(5, mirror)
    with pytest.raises(ValueError):
        bell_comparison(-1, mirror)
    # the index is judged before the operator: 2 I is not even unitary
    with pytest.raises(ValueError, match=r"^bell_index must be 0\.\.3, got 7$"):
        bell_comparison(7, 2.0 * np.eye(4))


def test_bell_comparison_rejects_wrong_dimension():
    with pytest.raises(DimensionMismatch):
        bell_comparison(0, UnitaryOperator(PAULI_Z))


def test_bell_comparison_rejects_non_mirror():
    with pytest.raises(NotMirror) as exc:  # is_mirror's own error
        bell_comparison(0, UnitaryOperator(BELL_CIRCUIT))
    assert str(exc.value) == "commutator 2 exceeds tolerance 1e-10"
    assert len(exc.value.residuals) == 5  # commutator_0..3, then commutation_max


# The report as built before the basis-fixed references were cached: the
# computational set, the parity POVM, its sum residual and the Bell density
# matrix are formed on every call, with the expressions used then.
def per_call_bell_report(bell_index, mirror_, tol):
    if isinstance(mirror_, MirrorUnitary):
        unit = mirror_.unitary
    else:
        unit = UnitaryOperator(mirror_, tol=tol)
    comp = computational_projector_set(4)
    is_mirror(unit, comp, tol)
    bell = BELL_STATES[bell_index]
    p = comp.projectors
    e0 = p[0] + p[3]
    e1 = p[1] + p[2]
    sum_residual = frobenius_norm(e0 + e1 - np.eye(4, dtype=complex))
    rho = bell.density_matrix()
    ext = povm_probabilities(Povm((e0, e1), tol=tol), rho)
    left = unit.residuals["unitarity_left"]  # {U}'s completeness: a U judged at a looser tol
    if not (complete := linalg.judge("completeness", left, tol, 2.0, n=4)).passed:  # is refused
        raise IncompleteSet(f"operator set fails completeness (residual {left:.3e}); "
                            "it cannot be measured", (complete,))
    internal = float(povm_probabilities(
        Povm((unit.matrix.conj().T.copy() @ unit.matrix,), tol=tol), rho)[0])
    preservation = verify_probability_preservation(unit, comp, bell, tol)
    return BellComparisonReport(
        bell_index=bell_index,
        bell_label=BELL_LABELS[bell_index],
        grouping=BELL_GROUPING_NOTE,
        external_probabilities=(float(ext[0]), float(ext[1])),
        external_sum_residual=sum_residual,
        internal_probability=internal,
        internal_identity_residual=unit.residuals["unitarity_left"],
        preservation=preservation,
        records=(linalg.judge("internal_deviation", abs(internal - 1.0), tol, n=4),
                 *preservation.records),
    )


def same_bits(got, expected):
    """Equal types and equal float bits, field by field (-0.0 differs from 0.0)."""
    if isinstance(expected, (tuple, list)):
        return (type(got) is type(expected) and len(got) == len(expected)
                and all(same_bits(g, e) for g, e in zip(got, expected)))
    if isinstance(expected, float):
        return type(got) is float and np.float64(got).tobytes() == np.float64(expected).tobytes()
    if hasattr(expected, "__dataclass_fields__"):
        return type(got) is type(expected) and all(
            same_bits(getattr(got, f), getattr(expected, f)) for f in expected.__dataclass_fields__)
    return got == expected


def bell_mirrors():
    """Exact-phase and random-phase diagonal mirrors, as arrays and certified."""
    rng = np.random.default_rng(2026)
    arrays = [np.diag([1.0, 1j, -1.0, -1j]),
              np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, size=4)))]
    certified = [extend_mirror(PhaseVector(np.diag(a)), computational_projector_set(4), 1e-10)
                 for a in arrays]
    return arrays + certified


@pytest.mark.parametrize("tol", [1e-10, 1e-3, 0.0])
def test_bell_comparison_equals_the_per_call_report_bit_for_bit(tol):
    for index in range(4):
        for mirror_ in bell_mirrors():
            try:
                expected = per_call_bell_report(index, mirror_, tol)
            except QmeasureError as exc:  # only random phases, and only at tol 0
                assert tol == 0.0
                with pytest.raises(type(exc)) as got:
                    bell_comparison(index, mirror_, tol)
                assert (str(got.value), got.value.residuals) == (str(exc), exc.residuals)
                continue
            assert same_bits(bell_comparison(index, mirror_, tol), expected)
            assert same_bits(bell_comparison(index, mirror_, tol), expected)  # from the cache


def test_bell_comparison_rejections_are_unchanged_once_the_references_exist():
    certified = bell_mirrors()[2]
    bell_comparison(0, certified)  # the references are built
    with pytest.raises(NotMirror) as judged:
        is_mirror(UnitaryOperator(BELL_CIRCUIT), computational_projector_set(4))
    with pytest.raises(NotMirror) as exc:
        bell_comparison(1, BELL_CIRCUIT)
    assert exc.value.residuals == judged.value.residuals
    wrong_dim = r"^dims differ: mirror 2, bell_state 4$"
    with pytest.raises(DimensionMismatch, match=wrong_dim):
        bell_comparison(2, PAULI_Z)
    for bad in (math.nan, -1e-10, math.inf):
        with pytest.raises(NotMirror):
            bell_comparison(3, certified, tol=bad)
        with pytest.raises(NotUnitary):
            bell_comparison(3, certified.unitary.matrix, tol=bad)


def test_dimensions_are_checked_before_a_raw_matrix_is_judged_unitary():
    raw = [[1, 1], [0, 1]]  # neither unitary nor of the operands' dim 4
    comp = computational_projector_set(4)
    cases = [
        (lambda: bell_comparison(0, raw), "mirror 2, bell_state 4"),
        (lambda: truth_protocol(raw, STATE_00), "unitary 2, state 4"),
        (lambda: verify_probability_preservation(raw, comp, STATE_00),
         "unitary 2, projectors 4, state 4"),
        (lambda: is_mirror(raw, comp), "unitary 2, projectors 4"),
    ]
    for call, dims in cases:
        with pytest.raises(DimensionMismatch) as exc:
            call()
        assert str(exc.value) == f"dims differ: {dims}"
    with pytest.raises(NotUnitary):  # at matching dims the matrix is still judged
        truth_protocol(raw, ZERO)


def test_bell_references_are_read_only_and_built_once(monkeypatch):
    mirror_ = bell_mirrors()[0]
    bell_comparison(0, mirror_)
    sum_residual, rhos, externals = mirror._bell_references()
    assert sum_residual == 0.0
    assert [rho.dim for rho in rhos] == [4] * 4
    assert all(not rho.matrix.flags.writeable for rho in rhos)
    for dim in (2, 4):
        shared = mirror._computational_set(dim)
        assert shared is mirror._computational_set(dim)
        assert all(not p.flags.writeable for p in shared.projectors)
    assert computational_projector_set(4) is not computational_projector_set(4)  # public, uncached
    built = {cls: 0 for cls in (ProjectorSet, Povm, DensityMatrix)}
    # a Povm is held by _hold, from __post_init__ or, built from products M^dag M, from
    # povm_from_operators, proved or not
    hooks = [(ProjectorSet, "__post_init__"), (Povm, "_hold"), (DensityMatrix, "__post_init__")]
    for cls, hook in hooks:
        def counted(self, *args, _cls=cls, _init=getattr(cls, hook), **kwargs):
            built[_cls] += 1
            return _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, hook, counted)
    for index in range(4):
        bell_comparison(index, mirror_)
    assert built == {ProjectorSet: 0, Povm: 4, DensityMatrix: 0}  # the Povm is irm_povm's
    built[Povm] = 0
    assert build_qubit_mirror(0.3, 1j).reference_projectors is mirror._computational_set(2)
    assert built == {ProjectorSet: 0, Povm: 0, DensityMatrix: 0}


def test_library_owned_arrays_are_coerced_once(monkeypatch):
    """Inputs are coerced once; a frozen array the library made is never
    coerced again, so this as_matrix, and the one conversion of a family,
    raise on read-only input. A family is converted once, whatever its
    size, and never matrix by matrix; the POVMs the library forms from its
    own products, its phase sums and the phases of from_angles are not
    converted at all."""
    rng = np.random.default_rng(5)
    unit = UnitaryOperator(random_unitary(rng, 4))
    psi = QuantumState(random_state(rng, 4))
    ops = [random_unitary(rng, 4) * 0.5 for _ in range(4)]  # complete: 4 * I / 4
    sets = [MeasurementOperatorSet(ops) for _ in range(2)]
    singleton = MeasurementOperatorSet((random_unitary(rng, 3),))
    certified = bell_mirrors()[3]
    obs = spectral_decompose(np.diag([1.0, 2.0, 2.0, 3.0]).astype(complex))
    file_set = ProjectorSet(obs.projector_set().projectors)  # dense, no factor
    coerce, calls = linalg.as_matrix, []
    coerce_family, family_calls = measurement._coerce_square_family, []

    def read_only(a):
        return isinstance(a, np.ndarray) and not a.flags.writeable

    def guarded(a):
        assert not read_only(a), "a library-owned array was coerced again"
        calls.append(a)
        return coerce(a)

    def guarded_family(mats, what):
        mats = list(mats)
        assert not read_only(mats) and not any(map(read_only, mats)), \
            "a library-owned family was converted again"
        family_calls.append(what)
        return coerce_family(mats, what)

    for name, module in list(sys.modules.items()):
        if name.startswith("qmeasure") and getattr(module, "as_matrix", None) is coerce:
            monkeypatch.setattr(module, "as_matrix", guarded)
    monkeypatch.setattr(measurement, "_coerce_square_family", guarded_family)
    truth_protocol(unit, psi)
    assert sets[0].completeness_residual <= 1e-10
    classify_measurement(singleton)
    bell_comparison(2, certified)
    calls.clear()
    family_calls.clear()
    irm_povm(unit)
    povm_from_operators(sets[1])
    unitary_as_measurement(unit)
    copied_phases, judged_phases = [], []  # __post_init__ copies its input; _judge does not
    post_init, judge = PhaseVector.__post_init__, PhaseVector._judge

    def copying(self):
        copied_phases.append(self)
        post_init(self)

    def judging(self, arr):
        judged_phases.append(arr)
        return judge(self, arr)

    monkeypatch.setattr(PhaseVector, "__post_init__", copying)
    monkeypatch.setattr(PhaseVector, "_judge", judging)
    phases = PhaseVector.from_angles([0.5, -1.0, 2.0])
    assert copied_phases == [] and len(judged_phases) == 1
    assert phases.phases is judged_phases[0]  # e^{i lambda} as formed and judged
    exp_observable(obs)
    for pset in (obs.projector_set(), file_set):
        phase_superpose_projectors(pset, phases)
        extend_mirror(phases, pset)
    assert (calls, family_calls, copied_phases) == ([], [], [])  # library products: not copied
    for count in (1, 4, 40):
        family = [random_unitary(rng, 4) / math.sqrt(count) for _ in range(count)]
        MeasurementOperatorSet(family)
        MeasurementOperatorSet(m for m in family)
    assert (calls, family_calls) == ([], ["measurement set"] * 6)  # one conversion per family
    UnitaryOperator(random_unitary(rng, 4))
    DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
    spectral_decompose(np.diag([1.0, 2.0, 2.0]).astype(complex))
    assert len(calls) == 3  # one per input


# ---------------------------------------------------------------------------
# truth protocol

def test_truth_protocol_hadamard_on_zero():
    transcript = truth_protocol(UnitaryOperator(HADAMARD), ZERO)
    assert np.allclose(transcript.computed.amplitudes, [RT2, RT2], atol=1e-12)
    assert np.allclose(transcript.restored.amplitudes, [1.0, 0.0], atol=1e-12)
    assert transcript.fidelity == pytest.approx(1.0)
    assert transcript.identity_residual <= 1e-12


def test_truth_protocol_bell_circuit_computes_phi_plus():
    transcript = truth_protocol(UnitaryOperator(BELL_CIRCUIT), STATE_00)
    assert np.allclose(transcript.computed.amplitudes,
                       [RT2, 0.0, 0.0, RT2], atol=1e-12)
    assert np.allclose(transcript.restored.amplitudes,
                       [1.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert transcript.fidelity >= 1.0 - 1e-10


def test_truth_protocol_random_unitaries():
    rng = np.random.default_rng(19)
    for n in (2, 4, 8):
        for _ in range(5):
            u = UnitaryOperator(random_unitary(rng, n))
            psi = QuantumState(random_state(rng, n))
            transcript = truth_protocol(u, psi)
            assert transcript.fidelity >= 1.0 - 1e-10
            assert transcript.identity_residual <= 1e-10


def test_truth_protocol_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        truth_protocol(UnitaryOperator(HADAMARD), STATE_00)
