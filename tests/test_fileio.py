import copy
import hashlib
import json
import math
import pathlib
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import write_operator_json
from qmeasure import fileio
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
    for original, parsed in zip(mats, loaded.matrices, strict=True):
        assert np.array_equal(parsed, original.astype(complex))


def test_state_file_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(41)
    amps = rng.normal(size=5) + 1j * rng.normal(size=5)
    path = tmp_path / "state.json"
    save_state_file(path, amps)
    loaded = load_state_file(path)
    assert loaded.shape == (5,)
    np.testing.assert_array_equal(loaded, amps, strict=True)


def test_serialization_is_write_stable(tmp_path):
    rng = np.random.default_rng(42)
    mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_operator_file(first, "unitary", [mat])
    reparsed = load_operator_file(first).matrices[0]
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


def test_dumps_document_refuses_an_object_it_cannot_write():
    with pytest.raises(TypeError, match="^cannot serialize object$"):
        dumps_document({"x": object()})


def test_labels_are_ordered_on_load(tmp_path):
    doc = operator_document("measurement_set",
                            [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    doc["operators"].reverse()  # labels now appear as 1, 0
    path = tmp_path / "shuffled.json"
    path.write_text(dumps_document(doc))
    loaded = load_operator_file(path)
    assert np.array_equal(loaded.matrices[0], np.diag([1.0, 0.0]))
    assert np.array_equal(loaded.matrices[1], np.diag([0.0, 1.0]))


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
    doc["operators"][0]["matrix"] = doc["operators"][0]["matrix"].tolist()
    doc["operators"][0]["matrix"][0].append([0.0, 0.0])
    path = tmp_path / "shape.json"
    path.write_text(dumps_document(doc))
    with pytest.raises(ParseError):
        load_operator_file(path)


def test_load_rejects_bad_entry(tmp_path):
    doc = operator_document("unitary", [np.eye(2)])
    doc["operators"][0]["matrix"] = doc["operators"][0]["matrix"].tolist()
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
        assert np.array_equal(load_state_file(path), amps)


def test_corpus_files_all_parse(corpus):
    kinds = set()
    for path in sorted(corpus.glob("*.json")):
        if path.name.startswith(("state_", "bell_phi", "bell_psi")):
            load_state_file(path)
        else:
            kinds.add(load_operator_file(path).kind)
    assert {"measurement_set", "projector_set", "povm",
            "unitary", "observable"} <= kinds


# ---------------------------------------------------------------------------
# the one-conversion parser against the per-entry walk

def walk_entry(node, what):
    """The per-entry reference parse of one ``[re, im]`` entry."""
    if (not isinstance(node, list) or len(node) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in node)):
        raise ParseError(f"{what} must be a two-element [re, im] array")
    try:
        value = complex(float(node[0]), float(node[1]))
    except OverflowError:
        value = complex(math.inf)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ParseError(f"{what} must be finite")
    return value


def walk_matrix(node, dim, what):
    if not isinstance(node, list) or len(node) != dim:
        raise ParseError(f"{what} must have {dim} rows")
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"{what} row {i} must have {dim} entries")
        for j, entry in enumerate(row):
            mat[i, j] = walk_entry(entry, f"{what}[{i}][{j}]")
    return mat


def walk_load(path, doc):
    """The reference loader: every matrix or amplitude walked entry by entry."""
    dim = doc["dim"]
    if "amplitudes" in doc:
        raw = doc["amplitudes"]
        if not isinstance(raw, list) or len(raw) != dim:
            raise ParseError(f"{path}: amplitudes must be an array of length {dim}")
        return [np.array([walk_entry(e, f"{path}: amplitudes[{k}]")
                          for k, e in enumerate(raw)], dtype=np.complex128)]
    return [walk_matrix(op["matrix"], dim, f"{path}: operators[{k}].matrix")
            for k, op in enumerate(doc["operators"])]


def load_all(path):
    if "amplitudes" in json.loads(pathlib.Path(path).read_text()):
        return [load_state_file(path)]
    return list(load_operator_file(path).matrices)


# Valid JSON numbers at the edges of the float range and of exact integers.
EDGE_NUMBERS = [0, 1, -1, 0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                -1.7976931348623157e308, 2**53 + 1, -(2**53 + 1), 2**63 + 1, -(2**63 + 1),
                2**64 + 1, 10**300, -(10**300), 0.1, 1 / 3]
# Values no entry may hold; json.dumps writes the floats as NaN, Infinity
# and -Infinity, and 10**400 digit for digit.
BAD_VALUES = [True, False, "1", None, math.nan, math.inf, -math.inf, 10**400,
              [1], [1, 2, 3], [[1, 0], 0], {}]


def intact(node, length):
    """Whether ``node`` is still a list of its original ``length``, so that a
    plant into one of its items lands (an earlier plant may have put a
    scalar or a short list such as ``[1]`` there)."""
    return isinstance(node, list) and len(node) == length


def plant(doc, rows, k, where, i, j, c, bad):
    """Put ``bad`` in ``doc`` as a whole matrix or amplitude list, a row, an
    entry or a component; ``rows`` is the ``k``-th matrix (or the amplitude
    list) as first built. A plant into a row or entry that an earlier plant
    replaced is skipped."""
    state = "amplitudes" in doc
    if where == "whole" and state:
        doc["amplitudes"] = bad
    elif where == "whole":
        doc["operators"][k]["matrix"] = bad
    elif where == "row" or (state and where == "entry"):
        rows[i] = bad
    elif not intact(rows[i], 2 if state else doc["dim"]):
        return  # this row went to an earlier plant
    elif state:
        rows[i][c] = bad
    elif where == "entry":
        rows[i][j] = bad
    elif intact(rows[i][j], 2):  # else this entry went to an earlier plant
        rows[i][j][c] = bad


@st.composite
def loader_cases(draw):
    """A seeded operator or state file, with up to two bad values planted in
    a component, an entry, a row or a whole matrix, and maybe a boolean in
    the text outside every matrix."""
    dim = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 32]))
    state = draw(st.booleans())
    count = 1 if state else draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = 2 * dim * dim * count
    pool = iter((rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)).tolist())

    def number():
        pick = rng.integers(4)
        if pick == 0:
            return EDGE_NUMBERS[rng.integers(len(EDGE_NUMBERS))]
        if pick == 1:
            return int(rng.integers(-2**62, 2**62))
        return next(pool)

    def pair():
        return [number(), number()]

    if state:
        doc = {"schema_version": "1", "dim": dim, "amplitudes": [pair() for _ in range(dim)]}
        doc["amplitudes"][0] = [1, 0]  # never the zero vector
        lists = [doc["amplitudes"]]
    else:
        mats = [[[pair() for _ in range(dim)] for _ in range(dim)] for _ in range(count)]
        doc = {"schema_version": "1", "kind": "measurement_set", "dim": dim,
               "operators": [{"label": k, "matrix": m} for k, m in enumerate(mats)]}
        lists = mats
    for _ in range(draw(st.integers(0, 2))):
        bad = copy.deepcopy(draw(st.sampled_from(BAD_VALUES)))
        k = draw(st.integers(0, len(lists) - 1))
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        c = draw(st.integers(0, 1))
        where = draw(st.sampled_from(["whole", "row", "entry", "component"]))
        plant(doc, lists[k], k, where, i, j, c, bad)
    if draw(st.booleans()):
        doc["comment"] = draw(st.sampled_from([True, False, "true", "false"]))
    return doc


@settings(max_examples=300, deadline=None)
@given(loader_cases())
@example({"schema_version": "1", "kind": "povm", "dim": 1, "comment": True,
          "operators": [{"label": 0, "matrix": [[[1, 0]]]}]})  # walked, and accepted
def test_loaders_agree_bit_for_bit_with_the_per_entry_walk(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "case.json"
        path.write_text(json.dumps(doc))
        reparsed = json.loads(path.read_text())
        try:
            expected = walk_load(path, reparsed)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                load_all(path)
            assert str(got.value) == str(exc)
            return
        got = load_all(path)
    assert len(got) == len(expected)
    for mine, theirs in zip(got, expected):
        assert mine.dtype == np.complex128 and mine.shape == theirs.shape
        assert np.array_equal(mine.view(np.uint64), theirs.view(np.uint64))


@pytest.mark.parametrize("state,first,second,kept", [
    (True, ("row", 1, 0, 0), ("component", 1, 0, 1), [1]),
    (False, ("row", 1, 0, 0), ("entry", 1, 1, 0), [1]),
    (False, ("entry", 1, 1, 0), ("component", 1, 1, 1), [[0, 0], [1]]),
])
def test_a_plant_into_a_place_an_earlier_plant_cut_short_is_skipped(state, first, second, kept):
    """The draw that made ``loader_cases`` raise IndexError: a first plant
    puts ``[1]`` at a row or entry of a 2-dimensional file, and a second
    one plants into that row or entry."""
    if state:
        rows = [[0, 0], [0, 0]]
        doc = {"schema_version": "1", "dim": 2, "amplitudes": rows}
    else:
        rows = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
        doc = {"schema_version": "1", "kind": "measurement_set", "dim": 2,
               "operators": [{"label": 0, "matrix": rows}]}
    plant(doc, rows, 0, *first, [1])
    plant(doc, rows, 0, *second, None)
    assert rows[1] == kept


def test_valid_files_take_one_conversion_per_matrix(corpus, tmp_path, monkeypatch):
    """Every corpus file and a saved n = 32 projector set and state parse
    with one conversion per matrix or state; none enters the per-entry walk."""
    calls = []
    parse = fileio._parse_pairs

    def counted(node, shape, what, booleans):
        calls.append(what)
        return parse(node, shape, what, booleans)

    def walked(node, what):
        raise AssertionError(f"{what} went to the per-entry walk")

    monkeypatch.setattr(fileio, "_parse_pairs", counted)
    monkeypatch.setattr(fileio, "_pairs_to_complex", walked)
    rng = np.random.default_rng(44)
    q, _ = np.linalg.qr(rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32)))
    save_operator_file(tmp_path / "projectors.json", "projector_set",
                       [np.outer(v, v.conj()) for v in q.T])
    save_state_file(tmp_path / "state.json", q[:, 0])
    paths = sorted(corpus.glob("*.json")) + [tmp_path / "projectors.json", tmp_path / "state.json"]
    loaded = sum(len(load_all(path)) for path in paths)  # matrices and states
    assert len(calls) == loaded


# ---------------------------------------------------------------------------
# the one-template array writer against the list walk, and the writers' checks

def walked(value, indent):
    """The list walk's text for ``value``: what the writer gives a nested list."""
    out = []
    fileio._dump(value, indent, out)
    return "".join(out)


EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
            1.7976931348623157e308, -1.7976931348623157e308, 1 / 3, 0.1, 1.0, -2.0]


@st.composite
def float_arrays(draw):
    """A finite float64 array shaped as the documents and reports hold them:
    ``(k,)``, ``(k, 2)``, ``(n, n, 2)`` or ``(N, n, n, 2)``, with every
    float from the full range, -0.0, subnormals and +-max among them."""
    k, n, count = draw(st.integers(0, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    shape = draw(st.sampled_from([(k,), (k, 2), (n, n, 2), (count, n, n, 2)]))
    size = math.prod(shape)
    values = draw(st.lists(finite_floats | st.sampled_from(EXTREMES), min_size=size, max_size=size))
    return np.array(values, dtype=np.float64).reshape(shape)


@settings(max_examples=300, deadline=None)
@given(float_arrays(), st.integers(0, 5))
@example(np.array(EXTREMES).reshape(3, 2, 2), 0)
@example(np.zeros((2, 0)), 1)
def test_an_array_is_written_as_the_list_walk_writes_its_list(arr, indent):
    from qmeasure.cli import _fmt_value

    assert fileio.format_floats(arr, indent) == walked(arr.tolist(), indent)
    assert walked(arr, indent) == walked(arr.tolist(), indent)
    assert _fmt_value(arr) == _fmt_value(arr.tolist())  # the human report, on one line


def test_a_non_finite_array_is_written_with_quoted_strings():
    arr = np.array([[1.5, math.nan], [math.inf, -math.inf]])
    assert fileio.format_floats(arr) is None
    text = dumps_document({"a": arr})
    assert text == dumps_document({"a": arr.tolist()})
    assert json.loads(text) == {"a": [[1.5, "nan"], ["inf", "-inf"]]}


def seed1_matrices(n=32):
    """n matrices of n x n entries whose real and imaginary parts are seed-1 integers below
    2^53 in size times powers of two from 2^-60 to 2^4: exact floats, most of which need all
    17 digits, formed by elementwise operations alone, so that no BLAS kernel moves a bit."""
    rng = np.random.default_rng(1)
    mantissas = rng.integers(-2**53, 2**53, size=(2, n, n, n)).astype(float)  # exact below 2^53
    mats = np.empty((n, n, n), dtype=complex)
    mats.real, mats.imag = np.ldexp(mantissas, rng.integers(-60, 5, size=(2, n, n, n)))
    return mats


def test_the_seed1_n32_projector_file_keeps_its_bytes(tmp_path):
    """The SHA-256 of the 65,536-float file as the per-float list walk wrote it."""
    path = tmp_path / "projectors.json"
    save_operator_file(path, "projector_set", list(seed1_matrices()))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "b7ec8275c568a5246d8854c620da146a939538b42d8c6de14419f52f6556ceac"


@pytest.mark.parametrize("matrices", [
    [np.ones((2, 3))],  # not square
    [np.eye(2), np.eye(3)],  # mixed dimensions
    [np.array([1.0, 0.0])],  # a 1-D "matrix"
    [np.array([[1.0, math.nan], [0.0, 1.0]])],
    [np.array([[math.inf, 0.0], [0.0, 1.0]])],
    [],  # an empty family
    np.zeros((1, 0, 0)),
    np.eye(2),  # a matrix passed as the family
    [[[10**400, 0], [0, 1]]],  # an integer beyond the float range, which numpy overflows on
], ids=["non_square", "mixed_dims", "one_d", "nan", "inf", "empty", "zero_dim", "bare_matrix",
        "huge_int"])
def test_save_operator_file_rejects_what_the_loader_rejects(tmp_path, matrices):
    path = tmp_path / "ops.json"
    with pytest.raises(ValueError):
        save_operator_file(path, "measurement_set", matrices)
    assert not path.exists()


@pytest.mark.parametrize("amplitudes", [
    np.zeros(3),  # the zero vector
    np.eye(2),  # a matrix passed as a state
    np.array([1.0, math.nan]),
    np.array([math.inf, 0.0]),
    np.array([]),
    1.0,
    [10**400, 1],
], ids=["zero", "matrix", "nan", "inf", "empty", "scalar", "huge_int"])
def test_save_state_file_rejects_what_the_loader_rejects(tmp_path, amplitudes):
    path = tmp_path / "state.json"
    with pytest.raises(ValueError):
        save_state_file(path, amplitudes)
    assert not path.exists()


def test_save_operator_file_rejects_an_unknown_kind(tmp_path):
    with pytest.raises(ValueError):
        save_operator_file(tmp_path / "ops.json", "mystery", [np.eye(2)])
    assert not (tmp_path / "ops.json").exists()


@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("kind", ["unitary", "observable"])
def test_a_single_operator_kind_holds_exactly_one_operator(kind, count, tmp_path):
    """A unitary or observable file holds one operator: the loader refuses more, and the
    writer refuses to write them."""
    raw, written = tmp_path / "raw.json", tmp_path / "written.json"
    write_operator_json(raw, kind, [np.eye(2)] * count)
    with pytest.raises(ParseError, match=f"^{re.escape(str(raw))}: expected exactly one "
                                         f"operator, found {count}$"):
        load_operator_file(raw)
    with pytest.raises(ValueError, match=f"^expected exactly one operator, found {count}$"):
        save_operator_file(written, kind, [np.eye(2)] * count)
    assert not written.exists()
