import json
import math
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeasure.errors import ParseError
from qmeasure.fileio import (
    dumps_document,
    format_float,
    load_operator_file,
    load_state_file,
    operator_document,
    save_operator_file,
    save_state_file,
    state_document,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


def test_format_float_round_trips_hard_cases():
    for x in (1 / 3, math.sqrt(2) / 2, 0.1, -1e-17, 2.0, 6.02e23):
        assert float(format_float(x)) == x


@settings(max_examples=200, deadline=None)
@given(finite_floats)
def test_format_float_round_trip_property(x):
    assert float(format_float(x)) == x


def test_operator_file_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(40)
    mats = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            for _ in range(2)]
    path = tmp_path / "ops.json"
    save_operator_file(path, "measurement_set", mats)
    loaded = load_operator_file(path)
    assert loaded.kind == "measurement_set"
    assert loaded.dim == 3
    for original, (_, parsed) in zip(mats, loaded.operators):
        assert np.array_equal(parsed, original.astype(complex))


def test_state_file_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(41)
    amps = rng.normal(size=5) + 1j * rng.normal(size=5)
    path = tmp_path / "state.json"
    save_state_file(path, amps)
    loaded = load_state_file(path)
    assert loaded.dim == 5
    assert np.array_equal(loaded.amplitudes, amps)


def test_serialization_is_write_stable(tmp_path):
    rng = np.random.default_rng(42)
    mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_operator_file(first, "unitary", [mat])
    reparsed = load_operator_file(first).matrices()[0]
    save_operator_file(second, "unitary", [reparsed])
    assert first.read_text() == second.read_text()


def test_dumps_document_is_valid_json():
    doc = operator_document("povm", [np.eye(2)])
    parsed = json.loads(dumps_document(doc))
    assert parsed["kind"] == "povm"
    assert parsed["operators"][0]["matrix"][0][0] == [1, 0]


def test_dumps_document_writes_non_finite_floats_as_strings():
    doc = {"a": math.inf, "b": [-math.inf, 1.5, math.nan], "c": {"d": math.nan}}
    text = dumps_document(doc)
    assert json.loads(text) == {"a": "inf", "b": ["-inf", 1.5, "nan"], "c": {"d": "nan"}}
    assert json.loads(text, parse_constant=pytest.fail)


def test_labels_are_ordered_on_load(tmp_path):
    doc = operator_document("measurement_set",
                            [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    doc["operators"].reverse()  # labels now appear as 1, 0
    path = tmp_path / "shuffled.json"
    path.write_text(dumps_document(doc))
    loaded = load_operator_file(path)
    assert [label for label, _ in loaded.operators] == [0, 1]
    assert np.array_equal(loaded.operators[0][1], np.diag([1.0, 0.0]))


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(ParseError):
        load_operator_file(tmp_path / "missing.json")


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_operator_file(path)


def test_load_rejects_wrong_schema_version(tmp_path):
    doc = operator_document("unitary", [np.eye(2)])
    doc["schema_version"] = "999"
    path = tmp_path / "vers.json"
    path.write_text(dumps_document(doc))
    with pytest.raises(ParseError):
        load_operator_file(path)


def test_load_rejects_unknown_kind(tmp_path):
    doc = operator_document("unitary", [np.eye(2)])
    doc["kind"] = "mystery"
    path = tmp_path / "kind.json"
    path.write_text(dumps_document(doc))
    with pytest.raises(ParseError):
        load_operator_file(path)


def test_load_rejects_duplicate_labels(tmp_path):
    doc = operator_document("measurement_set", [np.eye(2), np.eye(2)])
    doc["operators"][1]["label"] = 0
    path = tmp_path / "dup.json"
    path.write_text(dumps_document(doc))
    with pytest.raises(ParseError):
        load_operator_file(path)


def test_load_rejects_gapped_labels(tmp_path):
    doc = operator_document("measurement_set", [np.eye(2), np.eye(2)])
    doc["operators"][1]["label"] = 5
    path = tmp_path / "gap.json"
    path.write_text(dumps_document(doc))
    with pytest.raises(ParseError):
        load_operator_file(path)


def test_load_rejects_wrong_matrix_shape(tmp_path):
    doc = operator_document("unitary", [np.eye(2)])
    doc["operators"][0]["matrix"][0].append([0.0, 0.0])
    path = tmp_path / "shape.json"
    path.write_text(dumps_document(doc))
    with pytest.raises(ParseError):
        load_operator_file(path)


def test_load_rejects_bad_entry(tmp_path):
    doc = operator_document("unitary", [np.eye(2)])
    doc["operators"][0]["matrix"][0][0] = [1.0]  # not an [re, im] pair
    path = tmp_path / "entry.json"
    path.write_text(dumps_document(doc))
    with pytest.raises(ParseError):
        load_operator_file(path)


def test_load_rejects_nonfinite_entry(tmp_path):
    path = tmp_path / "inf.json"
    text = dumps_document(operator_document("unitary", [np.eye(2)]))
    path.write_text(text.replace("[1, 0]", "[1e999, 0]", 1))
    with pytest.raises(ParseError):
        load_operator_file(path)


def test_load_state_rejects_zero_vector(tmp_path):
    doc = state_document(np.array([1.0, 0.0]))
    doc["amplitudes"] = [[0.0, 0.0], [0.0, 0.0]]
    path = tmp_path / "zero.json"
    path.write_text(dumps_document(doc))
    with pytest.raises(ParseError):
        load_state_file(path)


def test_load_state_rejects_length_mismatch(tmp_path):
    doc = state_document(np.array([1.0, 0.0]))
    doc["dim"] = 3
    path = tmp_path / "len.json"
    path.write_text(dumps_document(doc))
    with pytest.raises(ParseError):
        load_state_file(path)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(finite_floats, finite_floats), min_size=1, max_size=6))
def test_state_document_round_trip_property(pairs):
    amps = np.array([complex(re, im) for re, im in pairs])
    if not amps.any():
        amps[0] = 1.0
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "s.json"
        save_state_file(path, amps)
        assert np.array_equal(load_state_file(path).amplitudes, amps)


def test_corpus_files_all_parse(corpus):
    kinds = set()
    for path in sorted(corpus.glob("*.json")):
        if path.name.startswith(("state_", "bell_phi", "bell_psi")):
            load_state_file(path)
        else:
            kinds.add(load_operator_file(path).kind)
    assert {"measurement_set", "projector_set", "povm",
            "unitary", "observable"} <= kinds
