"""Operator and state file formats.

Both formats are JSON with complex numbers as two-element ``[re, im]``
arrays and matrices as row-major nested arrays. Floats are written with 17
significant digits, so a written file re-parses to bit-identical values
and golden files diff cleanly.

Operator file::

    {"schema_version": "1", "kind": "projector_set", "dim": 2,
     "operators": [{"label": 0, "matrix": [[[1, 0], [0, 0]], ...]}, ...]}

State file::

    {"schema_version": "1", "dim": 2, "amplitudes": [[re, im], ...]}
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ParseError

SCHEMA_VERSION = "1"
OPERATOR_KINDS = ("measurement_set", "projector_set", "povm", "unitary", "observable")


@dataclass(frozen=True)
class OperatorFile:
    kind: str
    dim: int
    operators: tuple[tuple[int, np.ndarray], ...]  # (label, matrix), label order

    def matrices(self) -> tuple[np.ndarray, ...]:
        return tuple(mat for _, mat in self.operators)


@dataclass(frozen=True)
class StateFile:
    dim: int
    amplitudes: np.ndarray


def format_float(x: float) -> str:
    """Decimal form with 17 significant digits; parses back bit-exactly."""
    return format(float(x), ".17g")


def _dump(value, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        out.append("{\n")
        for k, (key, item) in enumerate(value.items()):
            out.append(f"{pad}  {json.dumps(key)}: ")
            _dump(item, indent + 1, out)
            out.append(",\n" if k < len(value) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        flat = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
        if flat:
            body = ", ".join(
                str(v) if isinstance(v, int) else format_float(v) for v in value
            )
            out.append(f"[{body}]")
        else:
            out.append("[\n")
            for k, item in enumerate(value):
                out.append(pad + "  ")
                _dump(item, indent + 1, out)
                out.append(",\n" if k < len(value) - 1 else "\n")
            out.append(pad + "]")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(format_float(value))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif value is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps_document(doc: dict) -> str:
    """Serialize a report or file document with stable float formatting."""
    out: list[str] = []
    _dump(doc, 0, out)
    out.append("\n")
    return "".join(out)


def _matrix_to_pairs(mat: np.ndarray) -> list[list[list[float]]]:
    return [
        [[float(entry.real), float(entry.imag)] for entry in row] for row in mat
    ]


def _pairs_to_complex(node, what: str) -> complex:
    if (not isinstance(node, list) or len(node) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in node)):
        raise ParseError(f"{what} must be a two-element [re, im] array")
    value = complex(float(node[0]), float(node[1]))
    if not (np.isfinite(value.real) and np.isfinite(value.imag)):
        raise ParseError(f"{what} must be finite")
    return value


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ParseError(
            f"{path}: schema_version must be {SCHEMA_VERSION!r}, "
            f"got {doc.get('schema_version')!r}"
        )
    return doc


def _parse_matrix(node, dim: int, what: str) -> np.ndarray:
    if not isinstance(node, list) or len(node) != dim:
        raise ParseError(f"{what} must have {dim} rows")
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"{what} row {i} must have {dim} entries")
        for j, entry in enumerate(row):
            mat[i, j] = _pairs_to_complex(entry, f"{what}[{i}][{j}]")
    return mat


def load_operator_file(path: str) -> OperatorFile:
    doc = _load_json(path)
    kind = doc.get("kind")
    if kind not in OPERATOR_KINDS:
        raise ParseError(f"{path}: kind must be one of {OPERATOR_KINDS}, got {kind!r}")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError(f"{path}: dim must be a positive integer")
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
        seen[label] = _parse_matrix(
            raw.get("matrix"), dim, f"{path}: operators[{k}].matrix"
        )
    if sorted(seen) != list(range(len(seen))):
        raise ParseError(f"{path}: labels must be the consecutive integers 0..N-1")
    operators = tuple((label, seen[label]) for label in range(len(seen)))
    return OperatorFile(kind=kind, dim=dim, operators=operators)


def load_state_file(path: str) -> StateFile:
    doc = _load_json(path)
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError(f"{path}: dim must be a positive integer")
    raw = doc.get("amplitudes")
    if not isinstance(raw, list) or len(raw) != dim:
        raise ParseError(f"{path}: amplitudes must be an array of length {dim}")
    amps = np.zeros(dim, dtype=np.complex128)
    for k, entry in enumerate(raw):
        amps[k] = _pairs_to_complex(entry, f"{path}: amplitudes[{k}]")
    if not amps.any():  # exact, where a norm can overflow or underflow
        raise ParseError(f"{path}: amplitudes form the zero vector")
    return StateFile(dim=dim, amplitudes=amps)


def operator_document(kind: str, matrices, labels=None) -> dict:
    """Build the serializable document for an operator file."""
    if kind not in OPERATOR_KINDS:
        raise ValueError(f"kind must be one of {OPERATOR_KINDS}, got {kind!r}")
    mats = [np.asarray(m, dtype=np.complex128) for m in matrices]
    dim = mats[0].shape[0]
    if labels is None:
        labels = range(len(mats))
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "dim": dim,
        "operators": [
            {"label": int(label), "matrix": _matrix_to_pairs(mat)}
            for label, mat in zip(labels, mats)
        ],
    }


def state_document(amplitudes) -> dict:
    amps = np.asarray(amplitudes, dtype=np.complex128)
    return {
        "schema_version": SCHEMA_VERSION,
        "dim": int(amps.shape[0]),
        "amplitudes": [[float(a.real), float(a.imag)] for a in amps],
    }


def save_operator_file(path: str, kind: str, matrices, labels=None) -> None:
    text = dumps_document(operator_document(kind, matrices, labels))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def save_state_file(path: str, amplitudes) -> None:
    text = dumps_document(state_document(amplitudes))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
