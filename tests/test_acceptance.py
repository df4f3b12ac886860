"""Acceptance suite: nine numbered criteria, each printing one verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. Every
criterion draws its instances from seeded generators, so the suite is
deterministic end to end.
"""

import json
import math

import numpy as np
import pytest

from helpers import (
    expm_oracle,
    orthogonal_family,
    random_hermitian,
    random_phases,
    random_state,
    random_unitary,
)
from qmeasure import linalg
from qmeasure.cli import main
from qmeasure.errors import OrthogonalityViolation
from qmeasure.fileio import load_operator_file, save_operator_file
from qmeasure.gates import BELL_CIRCUIT, HADAMARD
from qmeasure.measurement import (
    MeasurementOperatorSet,
    ProjectorSet,
    QuantumState,
    apply_outcome,
    outcome_probabilities,
    sample_histogram,
    spectral_decompose,
    validate_completeness,
)
from qmeasure.mirror import (
    bell_comparison,
    build_qubit_mirror,
    computational_projector_set,
    extend_mirror,
    truth_protocol,
    verify_probability_preservation,
)
from qmeasure.reversible import (
    PhaseVector,
    UnitaryOperator,
    exp_observable,
    superpose_operators,
    unitary_as_measurement,
)

UNITARY_FILES = ("pauli_x.json", "pauli_y.json", "pauli_z.json",
                 "hadamard.json", "bell_circuit.json", "mirror_diag.json")


def verdict(number, text):
    print(f"[acceptance {number}] PASS: {text}")


def test_acceptance_1_completeness_validators(corpus):
    worst = 0.0
    complete_files = [
        ("projectors_n2.json", "projector_set"),
        ("projectors_n4.json", "projector_set"),
        ("general_set.json", "measurement_set"),
    ] + [(name, "unitary") for name in UNITARY_FILES]
    for name, _ in complete_files:
        opset = MeasurementOperatorSet(load_operator_file(corpus / name).matrices)
        report = validate_completeness(opset, tol=1e-12)
        assert report.passed, name
        assert report.residual <= 1e-12, name
        worst = max(worst, report.residual)
    invalid = MeasurementOperatorSet(
        load_operator_file(corpus / "invalid_set.json").matrices
    )
    bad = validate_completeness(invalid)
    assert not bad.passed
    assert bad.residual >= 0.1
    verdict(1, f"completeness validators: {len(complete_files)} bundled sets "
               f"within 1e-12 (worst {worst:.2e}); invalid set fails "
               f"with residual {bad.residual:.2f}")


def test_acceptance_2_probability_law():
    rng = np.random.default_rng(202)
    pairs = 1000
    worst_negative = 0.0
    worst_sum = 0.0
    for _ in range(pairs):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        opset = MeasurementOperatorSet(tuple(orthogonal_family(rng, n, k)))
        psi = QuantumState(random_state(rng, n))
        probs = outcome_probabilities(opset, psi)
        assert (probs >= -1e-12).all()
        assert abs(probs.sum() - 1.0) <= 1e-10
        worst_negative = min(worst_negative, float(probs.min()))
        worst_sum = max(worst_sum, abs(float(probs.sum()) - 1.0))
    shots = 100_000
    bound = 5.0 / math.sqrt(shots)
    opset = computational_projector_set(2).to_operator_set()
    plus = QuantumState(HADAMARD @ np.array([1, 0], dtype=complex))
    freqs = sample_histogram(opset, plus, shots=shots, seed=7) / shots
    exact = outcome_probabilities(opset, plus)
    freq_dev = float(np.abs(freqs - exact).max())
    assert freq_dev < bound
    verdict(2, f"probability law over {pairs} random (set, state) pairs "
               f"(worst sum deviation {worst_sum:.2e}); {shots} sampled shots "
               f"within {bound:.4f} of exact (max deviation {freq_dev:.4f})")


def test_acceptance_3_singleton_reversible_measurement():
    rng = np.random.default_rng(303)
    count = 0
    for n in (2, 4, 8):
        for _ in range(34):
            u = UnitaryOperator(random_unitary(rng, n))
            opset = unitary_as_measurement(u)
            psi = QuantumState(random_state(rng, n))
            probs = outcome_probabilities(opset, psi)
            assert len(probs) == 1
            assert abs(probs[0] - 1.0) <= 1e-12
            record = apply_outcome(opset, psi, 0)
            expected = u.matrix @ psi.amplitudes
            assert np.linalg.norm(record.post_state.amplitudes - expected) <= 1e-12
            count += 1
    assert count >= 100
    verdict(3, f"{count} random unitary singletons: sure outcome within "
               f"1e-12, post-state U|psi> within 1e-12")


def test_acceptance_4_operator_superposition():
    rng = np.random.default_rng(404)
    families = 200
    worst = 0.0
    for _ in range(families):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n + 1))
        opset = MeasurementOperatorSet(tuple(orthogonal_family(rng, n, k)))
        u = superpose_operators(opset, PhaseVector(random_phases(rng, k)))
        left, right = u.residuals.values()
        assert left <= 1e-9 and right <= 1e-9
        worst = max(worst, left, right)
    rejected = 0
    counterexamples = 50
    for _ in range(counterexamples):
        n = int(rng.integers(2, 7))
        family = orthogonal_family(rng, n, 2)
        # overlap the supports: the pair is complete-ish but not orthogonal
        broken = (family[0] + 0.5 * family[1], family[1])
        opset = MeasurementOperatorSet(broken)
        try:
            superpose_operators(opset, PhaseVector(random_phases(rng, 2)))
        except OrthogonalityViolation:
            rejected += 1
    assert rejected == counterexamples
    verdict(4, f"{families} orthogonal families superpose to unitaries "
               f"(worst residual {worst:.2e}); {rejected}/{counterexamples} "
               f"non-orthogonal counterexamples rejected")


def test_acceptance_5_projector_phase_exponential():
    rng = np.random.default_rng(505)
    total, degenerate = 0, 0
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        make_degenerate = total % 4 == 0  # every fourth instance, 25 >= 20
        a = random_hermitian(rng, n, degenerate=make_degenerate)
        u = exp_observable(spectral_decompose(a))
        ref = expm_oracle(1j * a)
        resid = float(np.linalg.norm(u.matrix - ref))
        assert resid <= 1e-8
        worst = max(worst, resid)
        total += 1
        degenerate += int(make_degenerate)
    assert total == 100 and degenerate >= 20
    verdict(5, f"{total} Hermitian exponentials ({degenerate} with degenerate "
               f"spectra) match the series oracle within 1e-8 "
               f"(worst {worst:.2e})")


def test_acceptance_6_mirror_probability_preservation():
    rng = np.random.default_rng(606)
    mirrors = []
    for _ in range(50):
        mirrors.append(build_qubit_mirror(rng.uniform(0, 2 * np.pi),
                                          np.exp(1j * rng.uniform(0, 2 * np.pi))))
    for _ in range(50):
        n = int(rng.integers(2, 5))
        basis = random_unitary(rng, n)
        pset_mats = tuple(
            np.outer(basis[:, k], basis[:, k].conj()) for k in range(n)
        )
        pset = ProjectorSet(pset_mats)
        mirrors.append(extend_mirror(PhaseVector(random_phases(rng, n)), pset))
    worst = 0.0
    for mirror in mirrors:
        pset = mirror.reference_projectors
        for _ in range(200):
            psi = QuantumState(random_state(rng, mirror.dim))
            report = verify_probability_preservation(mirror.unitary, pset, psi)
            assert report.max_deviation <= 1e-10
            worst = max(worst, report.max_deviation)
    hadamard_report = verify_probability_preservation(
        UnitaryOperator(HADAMARD), computational_projector_set(2),
        QuantumState(np.array([1, 0], dtype=complex)),
    )
    assert hadamard_report.max_deviation >= 0.49
    verdict(6, f"{len(mirrors)} mirrors x 200 random states preserve "
               f"projective probabilities within 1e-10 (worst {worst:.2e}); "
               f"Hadamard counterexample deviates by "
               f"{hadamard_report.max_deviation:.2f}")


def test_acceptance_7_truth_protocol(corpus):
    rng = np.random.default_rng(707)
    checked = 0
    worst_fid = 1.0
    worst_resid = 0.0
    for name in UNITARY_FILES:
        u = UnitaryOperator(load_operator_file(corpus / name).matrices[0])
        psi = QuantumState(random_state(rng, u.dim))
        transcript = truth_protocol(u, psi)
        assert transcript.fidelity >= 1.0 - 1e-10
        assert transcript.identity_residual <= 1e-10
        checked += 1
    for n in (2, 4, 8):
        for _ in range(34):
            u = UnitaryOperator(random_unitary(rng, n))
            psi = QuantumState(random_state(rng, n))
            transcript = truth_protocol(u, psi)
            assert transcript.fidelity >= 1.0 - 1e-10
            assert transcript.identity_residual <= 1e-10
            worst_fid = min(worst_fid, transcript.fidelity)
            worst_resid = max(worst_resid, transcript.identity_residual)
            checked += 1
    bell = truth_protocol(
        UnitaryOperator(BELL_CIRCUIT),
        QuantumState(np.array([1, 0, 0, 0], dtype=complex)),
    )
    rt2 = 1.0 / math.sqrt(2.0)
    assert np.linalg.norm(
        bell.computed.amplitudes - np.array([rt2, 0, 0, rt2])
    ) <= 1e-12
    assert np.linalg.norm(
        bell.restored.amplitudes - np.array([1, 0, 0, 0])
    ) <= 1e-12
    verdict(7, f"truth protocol restores {checked} bundled+random unitaries "
               f"(worst fidelity {worst_fid:.15f}); Bell circuit computes "
               f"the entangled pair and restores |00>")


def test_acceptance_8_bell_external_vs_internal():
    mirror = extend_mirror(PhaseVector([1.0, 1j, 1j, 1.0]),
                           computational_projector_set(4))
    expected = {0: (1.0, 0.0), 1: (1.0, 0.0), 2: (0.0, 1.0), 3: (0.0, 1.0)}
    for index in range(4):
        report = bell_comparison(index, mirror)
        assert report.external_sum_residual <= 1e-12
        assert abs(report.external_probabilities[0] - expected[index][0]) <= 1e-12
        assert abs(report.external_probabilities[1] - expected[index][1]) <= 1e-12
        assert abs(report.internal_probability - 1.0) <= 1e-12
    verdict(8, "all four entangled basis states: two-element grouping sums "
               "to identity within 1e-12, external pairs match (1,0)/(0,1), "
               "internal sure outcome within 1e-12")


def test_acceptance_9_cli_contract(corpus, golden_dir, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(corpus.parent)
    goldens = {p.stem for p in golden_dir.glob("*.txt")}
    for command in ("validate", "classify", "measure", "mirror_build",
                    "mirror_check", "truth", "bell"):
        assert any(name.startswith(command.split("_")[0]) for name in goldens)
    # exit codes: 0 pass, 1 semantic failure, 2 unusable input
    assert main(["validate", "corpus/projectors_n2.json"]) == 0
    assert main(["validate", "corpus/invalid_set.json"]) == 1
    assert main(["validate", "corpus/does_not_exist.json"]) == 2
    assert main(["bell", "--index", "9",
                 "--mirror", "corpus/mirror_diag.json"]) == 2
    capsys.readouterr()
    # serialization round trip through mirror build is bit-exact
    built = tmp_path / "built.json"
    assert main(["mirror", "build", "--theta", "0.25", "--alpha", "0.6+0.8i",
                 "--out", str(built)]) == 0
    capsys.readouterr()
    doc = load_operator_file(built)
    rewritten = tmp_path / "rewritten.json"
    save_operator_file(rewritten, "unitary", [doc.matrices[0]])
    assert rewritten.read_text() == built.read_text()
    # machine format stays valid JSON with the same verdicts
    assert main(["truth", "corpus/hadamard.json", "corpus/state_zero.json",
                 "--format", "machine"]) == 0
    machine = capsys.readouterr().out
    assert json.loads(machine)["verdict"] == "pass"
    verdict(9, "CLI: golden files cover all commands, exit codes 0/1/2 "
               "verified over the corpus, writer round-trip is bit-exact")
