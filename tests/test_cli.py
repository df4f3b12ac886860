"""CLI behavior: golden outputs, exit codes, and format agreement.

Golden files freeze the exact rendered output of deterministic commands.
Regenerate after an intentional change with:

    QMEASURE_REGEN_GOLDEN=1 python -m pytest tests/test_cli.py
"""

import json
import os

import numpy as np
import pytest

from qmeasure.cli import main, parse_complex, parse_complex_list
from qmeasure.errors import ParseError
from qmeasure.fileio import format_float, load_operator_file

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
    assert "commute" in err


def test_exit_2_on_povm_where_measurement_expected(capsys):
    code, _, err = run_cli(
        ["measure", "corpus/povm_parity_n4.json", "corpus/state_00.json"], capsys
    )
    assert code == 2
    assert "kind" in err


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
    save_operator_file(again, "unitary", [doc.operators[0][1]])
    assert again.read_text() == out_path.read_text()


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
    with pytest.raises(ParseError):
        parse_complex("banana")
    with pytest.raises(ParseError):
        parse_complex("")


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["measure"])  # missing positional arguments
    assert info.value.code == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1", "banana"])
def test_bad_tol_exits_2_at_parse_time(tol, capsys):
    with pytest.raises(SystemExit) as info:
        main(["validate", "corpus/projectors_n2.json", "--tol", tol])
    assert info.value.code == 2
    assert "--tol" in capsys.readouterr().err


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
