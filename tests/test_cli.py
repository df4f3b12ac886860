"""CLI behavior: golden outputs, exit codes, and format agreement.

Golden files freeze the exact rendered output of deterministic commands.
Regenerate after an intentional change with:

    QMEASURE_REGEN_GOLDEN=1 python -m pytest tests/test_cli.py
"""

import json
import math
import os
import pathlib
import warnings

import numpy as np
import pytest

from helpers import random_unitary, write_operator_json
from qmeasure import cli, linalg, measurement
from qmeasure.cli import build_parser, main, parse_complex, parse_complex_list, render_human
from qmeasure.errors import NotMirror, ParseError, QmeasureError
from qmeasure.fileio import (
    OPERATOR_KINDS,
    format_float,
    load_operator_file,
    load_state_file,
    save_operator_file,
    save_state_file,
)
from qmeasure.gates import computational_projectors
from qmeasure.measurement import (
    MeasurementOperatorSet,
    Povm,
    ProjectorSet,
    QuantumState,
    classify_measurement,
    spectral_decompose,
    validate_completeness,
)
from qmeasure.mirror import bell_comparison, is_mirror, truth_protocol, verify_probability_preservation
from qmeasure.reversible import UnitaryOperator

GOLDEN_CASES = [
    ("validate_projectors_n2", ["validate", "corpus/projectors_n2.json"], 0),
    ("validate_projectors_n4", ["validate", "corpus/projectors_n4.json"], 0),
    ("validate_invalid_set", ["validate", "corpus/invalid_set.json"], 1),
    ("validate_general_set", ["validate", "corpus/general_set.json"], 0),
    ("validate_povm_parity", ["validate", "corpus/povm_parity_n4.json"], 0),
    ("validate_observable_z", ["validate", "corpus/observable_z.json"], 0),
    ("validate_hadamard", ["validate", "corpus/hadamard.json"], 0),
    ("classify_general", ["classify", "corpus/general_set.json"], 0),
    ("classify_projectors", ["classify", "corpus/projectors_n2.json"], 0),
    ("classify_hadamard", ["classify", "corpus/hadamard.json"], 0),
    ("measure_outcome", ["measure", "corpus/projectors_n2.json",
                         "corpus/state_plus.json", "--outcome", "0"], 0),
    ("measure_shots", ["measure", "corpus/projectors_n2.json",
                       "corpus/state_plus.json", "--shots", "1000",
                       "--seed", "42"], 0),
    ("measure_general", ["measure", "corpus/general_set.json",
                         "corpus/state_plus.json"], 0),
    ("mirror_build_qubit", ["mirror", "build", "--theta", "0",
                            "--alpha", "i"], 0),
    ("mirror_check_pass", ["mirror", "check", "corpus/pauli_z.json",
                           "corpus/projectors_n2.json",
                           "--state", "corpus/state_plus.json"], 0),
    ("mirror_check_fail", ["mirror", "check", "corpus/hadamard.json",
                           "corpus/projectors_n2.json"], 1),
    ("truth_bell_circuit", ["truth", "corpus/bell_circuit.json",
                            "corpus/state_00.json"], 0),
    ("truth_hadamard", ["truth", "corpus/hadamard.json",
                        "corpus/state_zero.json"], 0),
    ("bell_index0", ["bell", "--index", "0",
                     "--mirror", "corpus/mirror_diag.json"], 0),
    ("bell_index2_machine", ["bell", "--index", "2",
                             "--mirror", "corpus/mirror_diag.json",
                             "--format", "machine"], 0),
]


@pytest.fixture(autouse=True)
def run_from_repo_root(monkeypatch, corpus):
    monkeypatch.chdir(corpus.parent)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name,argv,expected_code",
                         GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_output(name, argv, expected_code, capsys, golden_dir):
    code, out, _ = run_cli(argv, capsys)
    assert code == expected_code
    golden = golden_dir / f"{name}.txt"
    if os.environ.get("QMEASURE_REGEN_GOLDEN"):
        golden.parent.mkdir(exist_ok=True)
        golden.write_text(out)
    assert out == golden.read_text()


def test_exit_code_contract_over_corpus(capsys, corpus):
    # every bundled operator file validates cleanly except the broken one
    for path in sorted(corpus.glob("*.json")):
        if path.name.startswith(("state_", "bell_phi", "bell_psi")):
            continue
        code, out, _ = run_cli(["validate", str(path)], capsys)
        if path.name == "invalid_set.json":
            assert code == 1, path.name
        else:
            assert code == 0, (path.name, out)


def test_exit_2_on_missing_file(capsys):
    code, out, err = run_cli(["validate", "corpus/no_such_file.json"], capsys)
    assert code == 2
    assert "error:" in err
    assert out == ""


def test_exit_2_on_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    code, _, err = run_cli(["validate", str(bad)], capsys)
    assert code == 2
    assert "not valid JSON" in err


HUGE_INTEGER = "1" + "0" * 400  # 10^400, a JSON integer literal beyond the float range


def test_exit_2_on_state_amplitude_too_large_for_a_float(tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text('{"schema_version": "1", "dim": 2, '
                     f'"amplitudes": [[{HUGE_INTEGER}, 0], [0, 0]]}}')
    code, out, err = run_cli(["measure", "corpus/projectors_n2.json", str(state)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {state}: amplitudes[0] must be finite\n"


def test_exit_2_on_matrix_entry_too_large_for_a_float(tmp_path, capsys):
    path = tmp_path / "set.json"
    matrix = f"[[[1, 0], [0, 0]], [[0, 0], [0, -{HUGE_INTEGER}]]]"
    path.write_text('{"schema_version": "1", "kind": "projector_set", "dim": 2, '
                    f'"operators": [{{"label": 0, "matrix": {matrix}}}]}}')
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: operators[0].matrix[1][1] must be finite\n"


OVERSIZED_INTEGER = "1" * 5001  # past Python's 4300-digit limit for int(str)


@pytest.mark.parametrize("command,text,reason", [
    (["measure", "corpus/projectors_n2.json"],
     f'{{"schema_version": "1", "dim": 2, "amplitudes": [[{OVERSIZED_INTEGER}, 0], [0, 0]]}}',
     "Exceeds the limit (4300 digits)"),
    (["validate"],
     '{"schema_version": "1", "kind": "unitary", "dim": 1, '
     f'"operators": [{{"label": {OVERSIZED_INTEGER}, "matrix": [[[1, 0]]]}}]}}',
     "Exceeds the limit (4300 digits)"),
    (["validate"], '{"schema_version": "1", "kind": "\xff"}', "'utf-8' codec can't decode"),
], ids=["state_amplitude_past_digit_limit", "operator_label_past_digit_limit", "not_utf8"])
def test_exit_2_naming_the_file_on_undecodable_json(command, text, reason, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_bytes(text.encode("latin-1"))
    code, out, err = run_cli(command + [str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path} is not valid JSON: {reason}")


def test_exit_2_on_dimension_mismatch(capsys):
    code, _, err = run_cli(
        ["measure", "corpus/projectors_n2.json", "corpus/state_00.json"], capsys
    )
    assert code == 2
    assert "dim" in err


def test_exit_2_on_unknown_outcome(capsys):
    code, _, err = run_cli(
        ["measure", "corpus/projectors_n2.json", "corpus/state_plus.json",
         "--outcome", "7"], capsys
    )
    assert code == 2


def test_exit_1_on_zero_probability_outcome(capsys):
    code, _, err = run_cli(
        ["measure", "corpus/projectors_n2.json", "corpus/state_zero.json",
         "--outcome", "1"], capsys
    )
    assert code == 1
    assert "probability" in err


def test_exit_1_on_non_unimodular_alpha(capsys):
    code, _, err = run_cli(
        ["mirror", "build", "--theta", "0", "--alpha", "0.5"], capsys
    )
    assert code == 1


def test_exit_2_on_bad_bell_index(capsys):
    code, _, err = run_cli(
        ["bell", "--index", "5", "--mirror", "corpus/mirror_diag.json"], capsys
    )
    assert code == 2


def test_exit_1_on_non_mirror_bell(capsys):
    code, _, err = run_cli(
        ["bell", "--index", "0", "--mirror", "corpus/bell_circuit.json"], capsys
    )
    assert code == 1
    assert err == "error: commutator 2 exceeds tolerance 1e-10\n"


def test_exit_2_on_povm_where_measurement_expected(capsys):
    code, _, err = run_cli(
        ["measure", "corpus/povm_parity_n4.json", "corpus/state_00.json"], capsys
    )
    assert code == 2
    assert "kind" in err


@pytest.mark.parametrize("kind", ["unitary", "observable"])
def test_exit_2_on_more_than_one_operator_in_a_single_operator_file(kind, tmp_path, capsys):
    path = tmp_path / "two.json"
    write_operator_json(path, kind, [np.eye(2), np.eye(2)])  # the package's writer refuses it
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: expected exactly one operator, found 2\n"


TWO_OPERATORS = "{tmp}/two_operators.json"  # I/sqrt(2) twice, in a file of the given kind


@pytest.mark.parametrize("kind,argv", [
    ("unitary", ["validate", TWO_OPERATORS]),
    ("unitary", ["classify", TWO_OPERATORS]),
    ("unitary", ["measure", TWO_OPERATORS, "corpus/state_plus.json"]),
    ("unitary", ["truth", TWO_OPERATORS, "corpus/state_plus.json"]),
    ("unitary", ["bell", "--index", "0", "--mirror", TWO_OPERATORS]),
    ("unitary", ["mirror", "check", TWO_OPERATORS, "corpus/projectors_n2.json"]),
    ("observable", ["truth", TWO_OPERATORS, "corpus/state_plus.json"]),
], ids=["validate", "classify", "measure", "truth", "bell", "mirror_check",
        "truth_wrong_kind_too"])
def test_every_subcommand_refuses_a_single_operator_file_of_two(kind, argv, tmp_path, capsys):
    """The loader holds the one-operator rule, so no subcommand reads such a file as a
    two-outcome set (classify and measure once did), none judges it, and the count is
    reported before a subcommand asks for its kind."""
    path = TWO_OPERATORS.format(tmp=tmp_path)
    write_operator_json(path, kind, [np.eye(2) / math.sqrt(2)] * 2)
    code, out, err = run_cli([a.format(tmp=tmp_path) for a in argv], capsys)
    assert (code, out, err) == (2, "", f"error: {path}: expected exactly one operator, found 2\n")


def test_mirror_build_writes_reparsable_unitary(tmp_path, capsys):
    out_path = tmp_path / "built.json"
    code, _, _ = run_cli(
        ["mirror", "build", "--theta", "0.5", "--alpha", "0.6+0.8i",
         "--out", str(out_path)], capsys
    )
    assert code == 0
    doc = load_operator_file(out_path)
    assert doc.kind == "unitary"
    # bit-exact round trip: writing the parsed matrix again changes nothing
    from qmeasure.fileio import save_operator_file
    again = tmp_path / "again.json"
    save_operator_file(again, "unitary", [doc.matrices[0]])
    assert again.read_text() == out_path.read_text()


def test_mirror_build_out_file_holds_the_printed_matrix(tmp_path, capsys):
    out_path = tmp_path / "built.json"
    code, out, _ = run_cli(
        ["mirror", "build", "--angles", "0.3,1.1,2.2,0.3", "--projectors",
         "corpus/projectors_n4.json", "--out", str(out_path), "--format", "machine"], capsys
    )
    assert code == 0
    written = json.loads(out_path.read_text())["operators"][0]["matrix"]
    assert written == json.loads(out)["matrix"]  # 17-digit floats parse back bit-exactly


def test_render_human_prints_arrays_as_lists():
    arr = np.array([[[0.1, -0.0], [5e-324, 1.7976931348623157e308]]])
    odd = np.array([math.nan, math.inf, 1.0])  # not templated: written as its list
    for value in (arr, odd, np.arange(3), np.zeros((2, 0))):
        report = {"command": "x", "value": value, "residuals": {"nested": value}}
        listed = {"command": "x", "value": value.tolist(), "residuals": {"nested": value.tolist()}}
        assert render_human(report) == render_human(listed)


def test_built_mirror_passes_check(tmp_path, capsys):
    out_path = tmp_path / "mir.json"
    run_cli(["mirror", "build", "--angles", "0.3,1.1,2.2,0.3",
             "--projectors", "corpus/projectors_n4.json",
             "--out", str(out_path)], capsys)
    code, out, _ = run_cli(
        ["mirror", "check", str(out_path), "corpus/projectors_n4.json"], capsys
    )
    assert code == 0
    assert "verdict: pass" in out


def test_mirror_check_fails_an_accepted_mirror_that_moves_a_probability(tmp_path, capsys):
    """A rotation by 3.9 tol between e_0 and e_1 at n = 32 passes ``is_mirror`` (commutators
    sqrt(2) sin(3.9 tol) = 5.5 tol, under tol sqrt(32)) but moves the probabilities of
    (e_0 + e_1)/sqrt(2) by 3.9 tol, so ``--state`` fails it. ROADMAP item 12 may make
    ``is_mirror`` refuse it, which would flip this case to a commutator failure."""
    n, theta = 32, 3.9e-10
    u = np.eye(n, dtype=complex)
    u[:2, :2] = [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    psi = np.zeros(n, dtype=complex)
    psi[:2] = 1.0 / math.sqrt(2.0)
    save_operator_file(tmp_path / "u.json", "unitary", [u])
    save_operator_file(tmp_path / "p.json", "projector_set", list(computational_projectors(n)))
    save_state_file(tmp_path / "psi.json", psi)
    code, out, err = run_cli(["mirror", "check", str(tmp_path / "u.json"), str(tmp_path / "p.json"),
                              "--state", str(tmp_path / "psi.json"), "--format", "machine"], capsys)
    report = json.loads(out)
    assert (code, err, report["verdict"]) == (1, "", "fail")
    assert report["residuals"]["commutation_max"] == 5.5154328932550702e-10 < 1e-10 * math.sqrt(n)
    assert report["residuals"]["preservation_max"] == 3.900000322687447e-10
    assert report["details"] == "projective probabilities not preserved"


def test_machine_and_human_report_identical_numbers(capsys):
    argv = ["bell", "--index", "0", "--mirror", "corpus/mirror_diag.json"]
    _, human, _ = run_cli(argv, capsys)
    _, machine, _ = run_cli(argv + ["--format", "machine"], capsys)
    doc = json.loads(machine)
    for key, value in doc["residuals"].items():
        rendered = format_float(value) if isinstance(value, float) else str(value)
        assert f"{key}: {rendered}" in human
    for p in doc["probabilities"]:
        assert format_float(p) in human or str(p) in human


def test_machine_output_is_json_for_every_command(capsys):
    commands = [
        ["validate", "corpus/projectors_n2.json"],
        ["classify", "corpus/general_set.json"],
        ["measure", "corpus/general_set.json", "corpus/state_plus.json"],
        ["mirror", "check", "corpus/pauli_z.json", "corpus/projectors_n2.json"],
        ["truth", "corpus/hadamard.json", "corpus/state_zero.json"],
        ["bell", "--index", "1", "--mirror", "corpus/mirror_diag.json"],
    ]
    for argv in commands:
        code, out, _ = run_cli(argv + ["--format", "machine"], capsys)
        assert code == 0, argv
        doc = json.loads(out)
        assert doc["command"]
        assert doc["verdict"] == "pass"


def test_measure_normalizes_with_warning(tmp_path, capsys):
    from qmeasure.fileio import save_state_file
    path = tmp_path / "unnorm.json"
    save_state_file(path, np.array([3.0, 4.0], dtype=complex))
    code, out, _ = run_cli(
        ["measure", "corpus/projectors_n2.json", str(path)], capsys
    )
    assert code == 0
    assert "renormalized" in out
    assert "0.3600000000000001" in out  # (3/5)^2 in double precision


def test_parse_complex_forms():
    assert parse_complex("1") == 1.0
    assert parse_complex("i") == 1j
    assert parse_complex("-i") == -1j
    assert parse_complex("0.5+0.5i") == 0.5 + 0.5j
    assert parse_complex("2j") == 2j
    assert parse_complex_list("1,-1,i") == [1.0, -1.0, 1j]
    assert parse_complex("inf") == complex(np.inf, 0.0)
    assert parse_complex("-inf") == complex(-np.inf, 0.0)
    assert parse_complex("2I") == 2j
    assert parse_complex("1e3i") == 1000j
    with pytest.raises(ParseError):
        parse_complex("banana")
    with pytest.raises(ParseError):
        parse_complex("")


@pytest.mark.parametrize("argv", [
    ["mirror", "build", "--theta", "0", "--alpha", "inf"],
    ["mirror", "build", "--theta", "0", "--alpha", "nan"],
    ["mirror", "build", "--theta", "inf", "--alpha", "1"],
    ["mirror", "build", "--phases", "1,inf", "--projectors", "corpus/projectors_n2.json"],
], ids=["alpha_inf", "alpha_nan", "theta_inf", "phases_inf"])
def test_non_finite_phase_exits_2(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (2, "", "error: phases must be finite\n")


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["measure"])  # missing positional arguments
    assert info.value.code == 2


MEASURE_PLUS = ["measure", "corpus/projectors_n2.json", "corpus/state_plus.json"]


def test_measure_shots_forms_the_probabilities_once(monkeypatch, capsys):
    """``measure --shots`` samples from the probabilities it judged and printed:
    one outcome_probabilities call, where sampling once formed them again."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    real = measurement.outcome_probabilities
    monkeypatch.setattr(measurement, "outcome_probabilities", counted)
    monkeypatch.setattr(cli, "outcome_probabilities", counted)
    assert run_cli(MEASURE_PLUS + ["--shots", "1000", "--seed", "42"], capsys)[0] == 0
    assert len(calls) == 1  # the counts themselves are pinned by the measure_shots golden


@pytest.mark.parametrize("message,printed", [
    ("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type float64",
     "Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type float64"),
    ("", "out of memory"),
], ids=["numpy_message", "bare"])
def test_shots_too_large_for_memory_exit_2(monkeypatch, capsys, message, printed):
    """A draw that cannot be allocated is unusable input, not a traceback. The
    draw is made to raise: whether a real one does depends on the machine."""
    class Exhausted:
        def random(self, size):
            raise MemoryError(message)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Exhausted())
    code, out, err = run_cli(MEASURE_PLUS + ["--shots", "1000000000000", "--seed", "1"], capsys)
    assert (code, out, err) == (2, "", f"error: {printed}\n")
MEASURE_INCOMPLETE = ["measure", "corpus/invalid_set.json", "corpus/state_plus.json"]
TWO_IDENTITY = "{tmp}/two_identity.json"  # a dim-4 "unitary" file holding 2 I


@pytest.mark.parametrize("argv,message", [
    (["mirror", "build", "--theta", "0", "--alpha", "1", "--angles", "0,1",
      "--projectors", "corpus/projectors_n2.json"],
     "give either --theta/--alpha or --phases/--angles, not both"),
    (["mirror", "build", "--theta", "0"], "qubit mirror needs both --theta and --alpha"),
    (["mirror", "build", "--angles", "0,1"], "--phases/--angles need --projectors FILE"),
    (["mirror", "build", "--phases", "1,1", "--angles", "0,1",
      "--projectors", "corpus/projectors_n2.json"],
     "--phases and --angles are mutually exclusive"),
    (["mirror", "build"], "mirror build needs --theta/--alpha or --phases/--angles"),
    (MEASURE_PLUS + ["--outcome", "0", "--shots", "10", "--seed", "1"],
     "--outcome and --shots are mutually exclusive"),
    (MEASURE_PLUS + ["--shots", "10"], "--shots requires --seed"),
    # flag rules are judged before the files, whatever those hold
    (MEASURE_INCOMPLETE + ["--shots", "10"], "--shots requires --seed"),
    (MEASURE_INCOMPLETE + ["--shots", "0", "--seed", "1"], "shots must be positive"),
    (["bell", "--index", "7", "--mirror", TWO_IDENTITY], "bell_index must be 0..3, got 7"),
], ids=["both_mirror_forms", "theta_without_alpha", "angles_without_projectors",
        "phases_with_angles", "no_mirror_form", "outcome_with_shots", "shots_without_seed",
        "shots_without_seed_on_an_incomplete_set", "no_shots_on_an_incomplete_set",
        "bell_index_on_a_non_unitary"])
def test_argument_rules_exit_2(argv, message, capsys, tmp_path):
    save_operator_file(TWO_IDENTITY.format(tmp=tmp_path), "unitary", [2.0 * np.eye(4)])
    code, out, err = run_cli([a.format(tmp=tmp_path) for a in argv], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


NON_UNITARY = "{tmp}/non_unitary.json"  # [[1, 1], [0, 1]]
BAD_PROJECTORS = "{tmp}/bad_projectors.json"  # a projector set that fails hermiticity
MISSING = "{tmp}/missing.json"
MISSING_MESSAGE = "cannot read {tmp}/missing.json: [Errno 2] No such file or directory"
HEADER = '"schema_version": "1", "kind": "unitary", "dim": '
UNUSABLE_FILES = {  # operator files the loader refuses, each named for what is wrong
    "top_level_list": "[]",
    "dim_0": "{" + HEADER + '0, "operators": []}',
    "no_operators": "{" + HEADER + '1, "operators": []}',
    "operator_list": "{" + HEADER + '1, "operators": [[]]}',
    "label_string": "{" + HEADER + '1, "operators": [{"label": "0", "matrix": [[[1, 0]]]}]}',
}


@pytest.mark.parametrize("argv,message", [
    (["truth", NON_UNITARY, MISSING], MISSING_MESSAGE),
    (["mirror", "check", "corpus/hadamard.json", "corpus/projectors_n2.json",
      "--state", MISSING], MISSING_MESSAGE),
    (["mirror", "check", "corpus/hadamard.json", "corpus/projectors_n2.json",
      "--state", "corpus/state_00.json"], "dims differ: unitary 2, projectors 2, state 4\n"),
    (["mirror", "check", "corpus/pauli_z.json", BAD_PROJECTORS, "--state", MISSING],
     MISSING_MESSAGE),
    (["mirror", "check", NON_UNITARY, "corpus/projectors_n4.json"],
     "dims differ: unitary 2, projectors 4\n"),
    (["mirror", "build", "--projectors", BAD_PROJECTORS, "--phases", "x,y"],
     "cannot parse complex number 'x'\n"),
    (["mirror", "build", "--projectors", BAD_PROJECTORS, "--phases", "1,1,1"],
     "dims differ: phases 3, projectors 2\n"),
    (["mirror", "build", "--projectors", BAD_PROJECTORS, "--phases", "1,inf"],
     "phases must be finite\n"),
    (["measure", "corpus/invalid_set.json", "corpus/state_plus.json", "--outcome", "7"],
     "outcome 7 not in 0..0\n"),
    (["bell", "--index", "0", "--mirror", NON_UNITARY], "dims differ: mirror 2, bell_state 4\n"),
    (["truth", NON_UNITARY, "corpus/state_00.json"], "dims differ: unitary 2, state 4\n"),
    (["mirror", "build", "--projectors", BAD_PROJECTORS, "--angles", "0,x"],
     "cannot parse number 'x'\n"),
    (["validate", "{tmp}/top_level_list.json"],
     "{tmp}/top_level_list.json: top level must be an object\n"),
    (["validate", "{tmp}/dim_0.json"], "{tmp}/dim_0.json: dim must be a positive integer\n"),
    (["validate", "{tmp}/no_operators.json"],
     "{tmp}/no_operators.json: operators must be a nonempty array\n"),
    (["validate", "{tmp}/operator_list.json"],
     "{tmp}/operator_list.json: operators[0] must be an object\n"),
    (["validate", "{tmp}/label_string.json"],
     "{tmp}/label_string.json: operators[0].label must be an integer\n"),
], ids=["truth_non_unitary_missing_state", "mirror_check_non_mirror_missing_state",
        "mirror_check_non_mirror_state_dim", "mirror_check_bad_projectors_missing_state",
        "mirror_check_non_unitary_projector_dim", "mirror_build_bad_projectors_bad_phase",
        "mirror_build_bad_projectors_phase_count", "mirror_build_bad_projectors_inf_phase",
        "measure_incomplete_set_unknown_outcome", "bell_non_unitary_dim_2",
        "truth_non_unitary_state_dim", "mirror_build_bad_projectors_bad_angle",
        *(f"validate_{name}" for name in UNUSABLE_FILES)])
def test_unusable_input_exits_2_before_anything_is_judged(argv, message, capsys, tmp_path):
    save_operator_file(NON_UNITARY.format(tmp=tmp_path), "unitary", [[[1, 1], [0, 1]]])
    save_operator_file(BAD_PROJECTORS.format(tmp=tmp_path), "projector_set",
                       [[[1, 1], [0, 0]], [[0, -1], [0, 1]]])
    for name, text in UNUSABLE_FILES.items():
        (tmp_path / f"{name}.json").write_text(text, encoding="utf-8")
    code, out, err = run_cli([a.format(tmp=tmp_path) for a in argv], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message.format(tmp=tmp_path)}")


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1", "banana"])
def test_bad_tol_exits_2_at_parse_time(tol, capsys):
    with pytest.raises(SystemExit) as info:
        main(["validate", "corpus/projectors_n2.json", "--tol", tol])
    assert info.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["validate", "corpus/projectors_n4.json"],
    ["mirror", "check", "corpus/mirror_diag.json", "corpus/projectors_n4.json"],
])
def test_a_tol_whose_threshold_overflows_passes_finite_residuals(argv, capsys):
    code, out, err = run_cli(argv + ["--tol", "1e308"], capsys)
    assert (code, err) == (0, "")
    assert "verdict: pass" in out


def test_measure_normalizes_huge_amplitudes(tmp_path, capsys):
    # the plain norm of [1e308, 1e308] overflows to inf
    from qmeasure.fileio import save_state_file
    path = tmp_path / "huge.json"
    save_state_file(path, np.array([1e308, 1e308], dtype=complex))
    code, out, _ = run_cli(
        ["measure", "corpus/projectors_n2.json", str(path), "--format", "machine"],
        capsys,
    )
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "pass"
    assert doc["probabilities"] == pytest.approx([0.5, 0.5], abs=1e-15)
    assert doc["residuals"]["probability_sum"] <= 1e-15
    assert "renormalized (norm was 1.41421356237309" in doc["details"]
    assert doc["details"].endswith("e+308)")


def test_measure_verdict_follows_probability_sum(tmp_path, capsys):
    # completeness residual 1.2e-10 passes at tol * sqrt(2), but the
    # probabilities of |0> sum to 1 + 1.2e-10, off by more than tol
    from qmeasure.fileio import save_operator_file, save_state_file
    ops = tmp_path / "ops.json"
    save_operator_file(ops, "measurement_set",
                       [np.diag([np.sqrt(1.0 + 1.2e-10), 0.0]), np.diag([0.0, 1.0])])
    state = tmp_path / "zero.json"
    save_state_file(state, np.array([1.0, 0.0], dtype=complex))
    code, out, _ = run_cli(["measure", str(ops), str(state), "--tol", "1e-10",
                            "--format", "machine"], capsys)
    doc = json.loads(out)
    assert code == 1 and doc["verdict"] == "fail"
    assert doc["residuals"]["probability_sum"] > 1e-10
    assert "probability_sum" in doc["details"]


def test_measure_outcome_on_a_complete_set_reports_the_clamped_probability(tmp_path, capsys):
    # the set of test_measure_verdict_follows_probability_sum passes completeness,
    # so --outcome 0 runs: p(0) = 1 + 1.2e-10 is reported as 1 and the
    # verdict still fails on probability_sum (exit 1, not 2)
    from qmeasure.fileio import save_operator_file, save_state_file
    ops = tmp_path / "ops.json"
    save_operator_file(ops, "measurement_set",
                       [np.diag([np.sqrt(1.0 + 1.2e-10), 0.0]), np.diag([0.0, 1.0])])
    state = tmp_path / "zero.json"
    save_state_file(state, np.array([1.0, 0.0], dtype=complex))
    code, out, err = run_cli(["measure", str(ops), str(state), "--outcome", "0",
                              "--format", "machine"], capsys)
    doc = json.loads(out)
    assert (code, err) == (1, "")
    assert doc["verdict"] == "fail"
    assert doc["probability"] == 1
    assert "probability_sum" in doc["details"]


# ---------------------------------------------------------------------------
# the CLI verdict is the library's verdict

# ||A - A^dag||_F and ||A||_F both overflow to inf
OVERFLOW_OBSERVABLE = [[0, 1e200], [0, 0]]
# U^dag U overflows to inf - inf = NaN
OVERFLOW_UNITARY = [[1e200, 1e200], [1e200, -1e200]]
# sum_m M_m^dag M_m overflows to inf
OVERFLOW_MEASUREMENT_SET = [[1e200, 0], [0, 1]]
_Q32 = random_unitary(np.random.default_rng(0), 32)
UNRECONSTRUCTED_OBSERVABLE = (_Q32 * np.arange(32.0)) @ _Q32.conj().T
# sum_k P_k overflows in the addition; each ||P_k||_F overflows too
OVERFLOW_DIAGONALS = [np.diag([1e308, 0.0]), np.diag([1e308, 1.0])]

# One failing input per kind, plus those whose residuals overflow. The
# incomplete POVM misses the identity by 1e-6, so it passes at --tol 1e-3.
# The unreconstructed observable, Q diag(0, ..., 31) Q^dag, reconstructs to
# about 1.8e-13, so it fails only at a tol as small as 1e-15.
FAILING_INPUTS = {
    "non_hermitian_projector": ("projector_set", [[[1, 1], [0, 0]], [[0, -1], [0, 1]]]),
    "povm_not_psd": ("povm", [np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])]),
    "povm_incomplete": ("povm", [np.diag([0.5, 0.5]), np.diag([0.5, 0.5 - 1e-6])]),
    "non_unitary": ("unitary", [[[1, 1], [0, 1]]]),
    "non_hermitian_observable": ("observable", [[[0, 1], [0, 0]]]),
    "overflow_observable": ("observable", [OVERFLOW_OBSERVABLE]),
    "unreconstructed_observable": ("observable", [UNRECONSTRUCTED_OBSERVABLE]),
    "overflow_unitary": ("unitary", [OVERFLOW_UNITARY]),
    "overflow_measurement_set": ("measurement_set", [OVERFLOW_MEASUREMENT_SET]),
    "overflow_projector_set": ("projector_set", OVERFLOW_DIAGONALS),
    "overflow_povm": ("povm", OVERFLOW_DIAGONALS),
}

# The library call that accepts (returns) or rejects (raises) each kind.
LIBRARY_JUDGES = {
    "measurement_set": lambda mats, tol: classify_measurement(MeasurementOperatorSet(mats), tol),
    "projector_set": lambda mats, tol: ProjectorSet(mats, tol=tol),
    "povm": lambda mats, tol: Povm(mats, tol=tol),
    "unitary": lambda mats, tol: UnitaryOperator(mats[0], tol=tol),
    "observable": lambda mats, tol: spectral_decompose(mats[0], tol=tol),
}

CORPUS_OPERATOR_FILES = sorted(
    path.name for path in (pathlib.Path(__file__).resolve().parent.parent / "corpus").glob("*.json")
    if '"operators"' in path.read_text()
)


def write_input(tmp_path, name) -> pathlib.Path:
    kind, mats = FAILING_INPUTS[name]
    path = tmp_path / f"{name}.json"
    save_operator_file(path, kind, [np.array(m, dtype=complex) for m in mats])
    return path


@pytest.mark.parametrize("tol", ["1e-10", "1e-3"])
@pytest.mark.parametrize("source", CORPUS_OPERATOR_FILES + sorted(FAILING_INPUTS))
def test_validate_verdict_agrees_with_library(source, tol, tmp_path, capsys):
    if source in FAILING_INPUTS:
        path = write_input(tmp_path, source)
    else:
        path = pathlib.Path("corpus", source)
    doc = load_operator_file(path)
    try:
        LIBRARY_JUDGES[doc.kind](doc.matrices, float(tol))
        accepted = True
    except (QmeasureError, ValueError):
        accepted = False
    code, out, _ = run_cli(["validate", str(path), "--tol", tol], capsys)
    assert code == (0 if accepted else 1)
    assert f"verdict: {'pass' if accepted else 'fail'}" in out


# The library call whose returned object or raised QmeasureError carries the
# residuals ``validate`` prints for each kind.
RESIDUAL_JUDGES = dict(
    LIBRARY_JUDGES,
    measurement_set=lambda mats, tol: validate_completeness(MeasurementOperatorSet(mats), tol),
)


def as_machine_value(value):
    """A residual as the machine format writes it: a non-finite float as a string."""
    return value if isinstance(value, int) or math.isfinite(value) else format_float(value)


@pytest.mark.parametrize("tol", ["1e-10", "1e-3"])
@pytest.mark.parametrize("source", CORPUS_OPERATOR_FILES + sorted(FAILING_INPUTS))
def test_validate_prints_what_the_library_judged(source, tol, tmp_path, capsys):
    if source in FAILING_INPUTS:
        path = write_input(tmp_path, source)
    else:
        path = pathlib.Path("corpus", source)
    doc = load_operator_file(path)
    mats = doc.matrices
    try:
        judged, details = RESIDUAL_JUDGES[doc.kind](mats, float(tol)), None
    except QmeasureError as exc:
        judged, details = exc, str(exc)
    _, out, _ = run_cli(["validate", str(path), "--tol", tol, "--format", "machine"], capsys)
    report = json.loads(out)
    assert report["residuals"] == {k: as_machine_value(v) for k, v in judged.residuals.items()}
    assert report.get("details") == details


def test_validate_fails_observable_with_overflowing_residual(tmp_path, capsys):
    code, out, _ = run_cli(["validate", str(write_input(tmp_path, "overflow_observable"))],
                           capsys)
    assert code == 1
    assert "verdict: fail" in out
    assert "not Hermitian" in out


def test_validate_fails_an_observable_its_spectrum_does_not_reconstruct(tmp_path, capsys):
    """The residual is eigh's backward error, which differs between BLAS kernels: the details
    name the record the library forms for the file's own matrix."""
    path = write_input(tmp_path, "unreconstructed_observable")
    with pytest.raises(QmeasureError) as failure:
        spectral_decompose(load_operator_file(path).matrices[0], tol=1e-15)
    (recon,) = [r for r in failure.value.records if r.quantity == "reconstruction"]
    code, out, err = run_cli(["validate", str(path), "--tol", "1e-15"], capsys)
    assert (code, err) == (1, "")
    assert out.endswith(
        f"details: spectrum does not reconstruct the observable (residual {recon.residual:.3e})\n")


def test_validate_keeps_tiny_distinct_eigenvalues_apart(tmp_path, capsys):
    """diag(1e-9, 2e-9): a gap of 1e-9 is far above eps_n ||A||_F, so two eigenspaces."""
    path = tmp_path / "tiny.json"
    save_operator_file(path, "observable", [np.diag([1e-9, 2e-9]).astype(complex)])
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert (code, err) == (0, "")
    assert "verdict: pass" in out and "n_eigenspaces: 2\n" in out


@pytest.mark.parametrize("name,subject", [("overflow_projector_set", "projector"),
                                          ("overflow_povm", "POVM element")])
def test_validate_names_an_overflowed_scale(name, subject, tmp_path, capsys):
    code, out, err = run_cli(["validate", str(write_input(tmp_path, name))], capsys)
    assert code == 1
    assert (f"details: {subject} 0 is not Hermitian (residual 0.000e+00; "
            "its norm overflowed, so the threshold is inf)\n") in out
    assert err == ""


@pytest.mark.parametrize("name", ["non_hermitian_projector", "overflow_projector_set"])
def test_validate_forms_no_pairs_for_a_non_hermitian_projector_file(name, tmp_path, capsys,
                                                                    monkeypatch):
    def formed(*args):
        raise AssertionError("pair products formed for a set that failed hermiticity")

    monkeypatch.setattr(linalg, "orthogonality_residuals", formed)
    code, out, err = run_cli(["validate", str(write_input(tmp_path, name))], capsys)
    assert code == 1
    assert "verdict: fail" in out and "is not Hermitian" in out
    assert "orthogonality_max" not in out and "nan" not in out
    assert err == ""


def test_validate_and_truth_fail_unitary_with_nan_residuals(tmp_path, capsys):
    path = str(write_input(tmp_path, "overflow_unitary"))
    code, out, err = run_cli(["validate", path], capsys)
    assert code == 1
    assert "verdict: fail" in out
    assert "Traceback" not in err
    code, out, err = run_cli(["truth", path, "corpus/state_zero.json"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: matrix is not unitary")
    assert "Traceback" not in err


def test_machine_format_writes_non_finite_residuals_as_strings(tmp_path, capsys):
    path = str(write_input(tmp_path, "overflow_unitary"))
    code, out, _ = run_cli(["validate", path, "--format", "machine"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["residuals"] == {"unitarity_left": "nan", "unitarity_right": "nan"}
    code, out, _ = run_cli(["validate", path], capsys)
    assert "unitarity_left: nan" in out


@pytest.mark.parametrize("command", ["validate", "classify", "measure"])
def test_overflowing_measurement_set_fails_completeness(command, tmp_path, capsys):
    argv = [command, str(write_input(tmp_path, "overflow_measurement_set"))]
    if command == "measure":
        argv.append("corpus/state_plus.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv + ["--format", "machine"], capsys)
    assert code == 1
    assert "finite" not in err and "Traceback" not in err
    if command == "validate":
        doc = json.loads(out)
        assert doc["verdict"] == "fail"
        assert doc["residuals"] == {"completeness": "inf"}
    else:
        assert out == ""
        assert err.startswith("error: operator set fails completeness (residual inf)")


# ---------------------------------------------------------------------------
# each verdict of truth, bell and mirror check --state is the library's

def corpus_inputs(corpus, kind):
    """(path, dim) of every corpus file of ``kind`` ("state" for state files)."""
    out = []
    for path in sorted(corpus.glob("*.json")):
        doc = json.loads(path.read_text())
        if doc.get("kind", "state") == kind:
            out.append((f"corpus/{path.name}", doc["dim"]))
    return out


def corpus_unitary(path):
    return load_operator_file(path).matrices[0]


def corpus_state(path):
    return QuantumState(load_state_file(path), normalize=True)  # as the CLI loads it


def verdict_cases(command, corpus):
    """(argv, library) for each corpus input of ``command`` whose dims agree:
    ``library(tol)`` is the library's verdict on the same files."""
    unitaries, states = corpus_inputs(corpus, "unitary"), corpus_inputs(corpus, "state")
    if command == "bell":
        return [(["bell", "--index", str(k), "--mirror", u],
                 lambda tol, u=u, k=k: bell_comparison(k, corpus_unitary(u), tol).passed)
                for u, n in unitaries if n == 4 for k in range(4)]
    if command == "truth":
        return [(["truth", u, psi], lambda tol, u=u, psi=psi: truth_protocol(
                    corpus_unitary(u), corpus_state(psi), tol).passed)
                for u, n in unitaries for psi, m in states if m == n]
    return [(["mirror", "check", u, p, "--state", psi],
             lambda tol, u=u, p=p, psi=psi: mirror_check_verdict(u, p, psi, tol))
            for u, n in unitaries for p, k in corpus_inputs(corpus, "projector_set") if k == n
            for psi, m in states if m == n]


def mirror_check_verdict(u, p, psi, tol):
    """False when ``is_mirror`` rejects, else the preservation report's ``passed``."""
    unit = UnitaryOperator(corpus_unitary(u), tol=tol)
    pset = ProjectorSet(load_operator_file(p).matrices, tol=tol)
    try:
        is_mirror(unit, pset, tol)
    except NotMirror:
        return False
    return verify_probability_preservation(unit, pset, corpus_state(psi), tol).passed


def outcome(call):
    """``call()``, or the type and message of the ``QmeasureError`` it raised."""
    try:
        return call()
    except QmeasureError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("tol", [0.0, 1e-10, 1e-3])
@pytest.mark.parametrize("command", ["truth", "bell", "mirror check"])
def test_cli_verdict_is_the_library_verdict(command, tol, corpus):
    cases = verdict_cases(command, corpus)
    for name, argv, _ in GOLDEN_CASES:  # each golden case of the command is one of them
        argv = [a for a in argv if a not in ("--format", "machine")]
        if " ".join(argv).startswith(command) and (command != "mirror check" or "--state" in argv):
            assert argv in [case for case, _ in cases], name
    seen = set()
    for argv, library in cases:
        args = build_parser().parse_args(argv)
        args.tol = tol  # the flag takes only positive values; the handler takes 0 as well
        expected = outcome(lambda: "pass" if library(tol) else "fail")
        assert outcome(lambda: args.handler(args)["verdict"]) == expected, argv
        seen.add(expected if isinstance(expected, str) else expected[0].__name__)
    # every corpus round trip passes at a positive tol, so only bell and mirror check fail there
    assert len(seen) > 1 or (command == "truth" and tol > 0), seen


EXTREME_ENTRIES = {"huge": [[1e308, -1e308], [-1e308, 1e308]], "tiny": [[1e-320, 0], [0, 1e-320]]}
EXTREME_STATES = {"huge": [1e308, 1e308], "subnormal": [5e-324, 0]}
OPERATOR_COMMANDS = [  # {f}: an operator file of any kind; {f4}: the same at dim 4
    ["validate", "{f}"], ["classify", "{f}"],
    ["measure", "{f}", "corpus/state_plus.json"],
    ["measure", "{f}", "corpus/state_plus.json", "--outcome", "0"],
    ["measure", "{f}", "corpus/state_plus.json", "--shots", "10", "--seed", "1"],
    ["mirror", "check", "{f}", "corpus/projectors_n2.json", "--state", "corpus/state_plus.json"],
    ["mirror", "check", "corpus/pauli_z.json", "{f}", "--state", "corpus/state_plus.json"],
    ["mirror", "build", "--phases", "1,1", "--projectors", "{f}"],
    ["truth", "{f}", "corpus/state_plus.json"],
    ["bell", "--index", "0", "--mirror", "{f4}"],
]
STATE_COMMANDS = [  # {s}: a state file
    ["measure", "corpus/projectors_n2.json", "{s}"],
    ["measure", "corpus/projectors_n2.json", "{s}", "--outcome", "0"],
    ["measure", "corpus/projectors_n2.json", "{s}", "--shots", "10", "--seed", "1"],
    ["measure", "corpus/general_set.json", "{s}"],
    ["mirror", "check", "corpus/pauli_z.json", "corpus/projectors_n2.json", "--state", "{s}"],
    ["truth", "corpus/hadamard.json", "{s}"],
]
PHASE_COMMANDS = [
    ["mirror", "build", "--theta", "0", "--alpha", "1e200+1e200i"],
    ["mirror", "build", "--phases", "1,1e200", "--projectors", "corpus/projectors_n2.json"],
]


def extreme_commands(tmp_path):
    """Every subcommand over operator files of each kind with entries +-1e308 or 1e-320, over
    the states [1e308, 1e308] and [5e-324, 0], and over phases of modulus 1e200."""
    for kind in OPERATOR_KINDS:
        for name, entries in EXTREME_ENTRIES.items():
            files = {}
            for key, dim in (("f", 2), ("f4", 4)):
                files[key] = tmp_path / f"{kind}_{name}_{dim}.json"
                save_operator_file(files[key], kind, [np.kron(np.eye(dim // 2), entries)])
            yield from ([a.format(**files) for a in argv] for argv in OPERATOR_COMMANDS)
    for name, amplitudes in EXTREME_STATES.items():
        save_state_file(state := tmp_path / f"state_{name}.json", np.array(amplitudes, complex))
        yield from ([a.format(s=state) for a in argv] for argv in STATE_COMMANDS)
    yield from PHASE_COMMANDS


def test_extreme_inputs_give_a_verdict_or_a_usage_error_and_never_a_warning(tmp_path, capsys):
    """Every command, run with every warning an error, returns 0, 1 or 2 from ``main``, and a
    report that passes prints no NaN."""
    runs = 0
    for argv in extreme_commands(tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(argv, capsys)
        assert code in (0, 1, 2), argv
        assert code != 0 or "nan" not in out.lower(), argv
        runs += 1
    assert runs == len(OPERATOR_KINDS) * 2 * len(OPERATOR_COMMANDS) + 2 * len(STATE_COMMANDS) + 2


def test_measure_normalizes_a_subnormal_state(tmp_path, capsys):
    save_state_file(path := tmp_path / "tiny.json", np.array([5e-324, 0], dtype=complex))
    code, out, _ = run_cli(["measure", "corpus/projectors_n2.json", str(path),
                            "--format", "machine"], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["probabilities"] == [1.0, 0.0]
    assert doc["residuals"]["probability_sum"] == 0.0
    assert doc["details"] == "input state renormalized (norm was 4.9406564584124654e-324)"


def test_phases_of_huge_modulus_fail_without_a_warning(capsys):
    for argv in PHASE_COMMANDS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(argv, capsys)
        assert (code, err) == (1, "error: phases deviate from the unit circle by inf\n")
