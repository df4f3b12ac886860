"""Operator and state file formats.

Both formats are JSON with complex numbers as two-element ``[re, im]``
arrays and matrices as row-major nested arrays. Floats are written with 17
significant digits, so a written file re-parses to bit-identical values
and golden files diff cleanly. Documents hold matrices and amplitudes as
float arrays of pairs, each written in one pass by a template of its shape.

Operator file::

    {"schema_version": "1", "kind": "projector_set", "dim": 2,
     "operators": [{"label": 0, "matrix": [[[1, 0], [0, 0]], ...]}, ...]}

State file::

    {"schema_version": "1", "dim": 2, "amplitudes": [[re, im], ...]}
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError

SCHEMA_VERSION = "1"
OPERATOR_KINDS = ("measurement_set", "projector_set", "povm", "unitary", "observable")
SINGLE_OPERATOR_KINDS = ("unitary", "observable")  # a file of either kind holds one operator


@dataclass(frozen=True)
class OperatorFile:
    kind: str
    dim: int
    matrices: tuple[np.ndarray, ...]  # the matrix labeled k at index k


def format_float(x: float) -> str:
    """Decimal form with 17 significant digits; parses back bit-exactly."""
    return format(float(x), ".17g")


def _json_float(x: float) -> str:
    """A float as JSON: its 17-digit form, or the string "nan", "inf" or
    "-inf", which JSON has no number for."""
    text = format_float(x)
    return text if math.isfinite(x) else json.dumps(text)


def format_floats(value, indent: int | None = None) -> str | None:
    """A finite float64 array written by filling one %-template made from its
    shape: byte for byte what the list writers write for its ``.tolist()``, an
    item per line at ``indent`` or one line if None. None for any other value."""
    if not (isinstance(value, np.ndarray) and value.dtype == float and np.isfinite(value).all()):
        return None
    template = "%.17g"
    for axis, count in reversed(list(enumerate(value.shape))):  # innermost first; empty is []
        if indent is None or axis == value.ndim - 1 or not count:
            template = "[" + ", ".join([template] * count) + "]"
        else:
            pad = "\n" + "  " * (indent + axis)
            template = f"[{pad}  " + f",{pad}  ".join([template] * count) + f"{pad}]"
    return template % tuple(value.ravel().tolist())


def _dump(value, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    text = format_floats(value, indent)
    if text is not None:
        out.append(text)
    elif isinstance(value, np.ndarray):
        _dump(value.tolist(), indent, out)
    elif isinstance(value, (list, tuple)) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        body = ", ".join(str(v) if isinstance(v, int) else _json_float(v) for v in value)
        out.append(f"[{body}]")
    elif isinstance(value, (dict, list, tuple)):
        keyed = isinstance(value, dict)
        out.append("{\n" if keyed else "[\n")
        for k, (key, item) in enumerate(value.items() if keyed else enumerate(value)):
            out.append(f"{pad}  {json.dumps(key)}: " if keyed else pad + "  ")
            _dump(item, indent + 1, out)
            out.append(",\n" if k < len(value) - 1 else "\n")
        out.append(pad + ("}" if keyed else "]"))
    elif isinstance(value, float):
        out.append(_json_float(value))
    elif value is None or isinstance(value, (bool, int, str)):
        out.append(json.dumps(value))
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps_document(doc: dict) -> str:
    """Serialize a report or file document with stable float formatting."""
    out: list[str] = []
    _dump(doc, 0, out)
    return "".join(out) + "\n"


def complex_pairs(array) -> np.ndarray:
    """A complex array as a float64 array of ``[re, im]`` pairs, one axis longer."""
    arr = np.asarray(array, dtype=np.complex128)
    return np.stack([arr.real, arr.imag], axis=-1)


def _pairs_to_complex(node, what: str) -> complex:
    if (not isinstance(node, list) or len(node) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in node)):
        raise ParseError(f"{what} must be a two-element [re, im] array")
    try:
        value = complex(float(node[0]), float(node[1]))
    except OverflowError:  # an integer literal beyond the float range is infinite
        value = complex(math.inf)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ParseError(f"{what} must be finite")
    return value


def _load_json(path: str) -> tuple[dict, int, bool]:
    """The document, its ``dim``, and whether its text may hold a JSON boolean."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        doc = json.loads(text)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, text not UTF-8, an integer past the digit limit
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ParseError(
            f"{path}: schema_version must be {SCHEMA_VERSION!r}, "
            f"got {doc.get('schema_version')!r}"
        )
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError(f"{path}: dim must be a positive integer")
    return doc, dim, "true" in text or "false" in text


def _parse_pairs(node: list, shape: tuple[int, ...], what: str, booleans: bool) -> np.ndarray:
    """A list of ``shape[0]`` rows or ``[re, im]`` entries as a complex array
    of ``shape``. One numpy conversion reads a node of finite numbers: strings
    and null infer dtype kind U or O, and ragged nesting raises. Any other
    node, and every node of a text that may hold a boolean (numpy reads it as
    1 or 0), is walked row by row and entry by entry; the first bad one raises."""
    try:
        arr = None if booleans else np.array(node)
    except ValueError:  # ragged or too deep nesting
        arr = None
    if (arr is not None and arr.dtype.kind in "iuf" and arr.shape == (*shape, 2)
            and np.isfinite(arr).all()):
        return arr.astype(np.float64, copy=False).view(np.complex128).reshape(shape)
    out = np.zeros(shape, dtype=np.complex128)
    for i, item in enumerate(node):
        if len(shape) == 1:
            out[i] = _pairs_to_complex(item, f"{what}[{i}]")
        elif not isinstance(item, list) or len(item) != shape[1]:
            raise ParseError(f"{what} row {i} must have {shape[1]} entries")
        else:
            out[i] = _parse_pairs(item, shape[1:], f"{what}[{i}]", booleans)
    return out


def load_operator_file(path: str) -> OperatorFile:
    doc, dim, booleans = _load_json(path)
    kind = doc.get("kind")
    if kind not in OPERATOR_KINDS:
        raise ParseError(f"{path}: kind must be one of {OPERATOR_KINDS}, got {kind!r}")
    raw_ops = doc.get("operators")
    if not isinstance(raw_ops, list) or not raw_ops:
        raise ParseError(f"{path}: operators must be a nonempty array")
    seen: dict[int, np.ndarray] = {}
    for k, raw in enumerate(raw_ops):
        if not isinstance(raw, dict):
            raise ParseError(f"{path}: operators[{k}] must be an object")
        label = raw.get("label")
        if not isinstance(label, int) or isinstance(label, bool):
            raise ParseError(f"{path}: operators[{k}].label must be an integer")
        if label in seen:
            raise ParseError(f"{path}: duplicate label {label}")
        matrix, what = raw.get("matrix"), f"{path}: operators[{k}].matrix"
        if not isinstance(matrix, list) or len(matrix) != dim:
            raise ParseError(f"{what} must have {dim} rows")
        seen[label] = _parse_pairs(matrix, (dim, dim), what, booleans)
    if sorted(seen) != list(range(len(seen))):
        raise ParseError(f"{path}: labels must be the consecutive integers 0..N-1")
    if kind in SINGLE_OPERATOR_KINDS and len(seen) != 1:
        raise ParseError(f"{path}: expected exactly one operator, found {len(seen)}")
    return OperatorFile(kind=kind, dim=dim, matrices=tuple(seen[k] for k in range(len(seen))))


def load_state_file(path: str) -> np.ndarray:
    """The amplitudes of a state file, a nonzero complex vector of length ``dim``."""
    doc, dim, booleans = _load_json(path)
    raw = doc.get("amplitudes")
    if not isinstance(raw, list) or len(raw) != dim:
        raise ParseError(f"{path}: amplitudes must be an array of length {dim}")
    amps = _parse_pairs(raw, (dim,), f"{path}: amplitudes", booleans)
    if not amps.any():  # exact, where a norm can overflow or underflow
        raise ParseError(f"{path}: amplitudes form the zero vector")
    return amps


def _complex_array(values) -> np.ndarray:
    """``values`` as a complex array; ValueError if ragged, not numbers or beyond the float range."""
    try:
        return np.asarray(values, dtype=np.complex128)
    except OverflowError as exc:
        raise ValueError(f"entries must be finite: {exc}") from None


def operator_document(kind: str, matrices) -> dict:
    """An operator file's document, labeled 0..N-1, each matrix a float array of
    ``[re, im]`` pairs; ValueError for what ``load_operator_file`` rejects."""
    if kind not in OPERATOR_KINDS:
        raise ValueError(f"kind must be one of {OPERATOR_KINDS}, got {kind!r}")
    stack = _complex_array(matrices)
    if (stack.ndim != 3 or not stack.size or stack.shape[1] != stack.shape[2]
            or not np.isfinite(stack).all()):
        raise ValueError(f"operators must be a nonempty finite (N, n, n) stack, got {stack.shape}")
    if kind in SINGLE_OPERATOR_KINDS and len(stack) != 1:
        raise ValueError(f"expected exactly one operator, found {len(stack)}")
    pairs = complex_pairs(stack)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "dim": pairs.shape[1],
        "operators": [{"label": label, "matrix": matrix} for label, matrix in enumerate(pairs)],
    }


def state_document(amplitudes) -> dict:
    """A state file's document; ValueError for what ``load_state_file`` rejects."""
    amps = _complex_array(amplitudes)
    if amps.ndim != 1 or not (np.isfinite(amps).all() and amps.any()):
        raise ValueError(f"amplitudes must be a finite nonzero vector, got shape {amps.shape}")
    return {"schema_version": SCHEMA_VERSION, "dim": len(amps), "amplitudes": complex_pairs(amps)}


def save_operator_file(path: str, kind: str, matrices) -> None:
    Path(path).write_text(dumps_document(operator_document(kind, matrices)), encoding="utf-8")


def save_state_file(path: str, amplitudes) -> None:
    Path(path).write_text(dumps_document(state_document(amplitudes)), encoding="utf-8")
