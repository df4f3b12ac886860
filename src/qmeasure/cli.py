"""Command line front end.

Subcommands operate on the JSON operator/state files described in
``fileio``.  Every command accepts ``--tol`` (residual tolerance,
default 1e-10) and ``--format human|machine``.  Numeric values are
printed with the same 17-significant-digit formatting in both formats,
so the two outputs never disagree on a number.

Exit codes: 0 command ran and its verdict passed, 1 command ran but the
verdict failed (or a semantic domain error such as a non-unitary
operator), 2 unusable input (file not found, malformed JSON, dimension
mismatch, unknown outcome label, bad argument syntax).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .errors import (
    DimensionMismatch,
    IncompleteSet,
    NotHermitian,
    ParseError,
    QmeasureError,
    UnknownOutcome,
)
from .fileio import (
    OperatorFile,
    dumps_document,
    format_float,
    load_operator_file,
    load_state_file,
    save_operator_file,
)
from .linalg import (
    DEFAULT_TOL,
    hermiticity_residual,
    lowest_eigenvalue,
    scale_of,
    unitarity_residuals,
    vector_norm,
    within_tol,
)
from .measurement import (
    MeasurementOperatorSet,
    Povm,
    ProjectorResiduals,
    ProjectorSet,
    QuantumState,
    apply_outcome,
    classify_measurement,
    outcome_probabilities,
    sample_histogram,
    spectral_decompose,
    validate_completeness,
)
from .mirror import (
    bell_comparison,
    build_qubit_mirror,
    extend_mirror,
    is_mirror,
    truth_protocol,
    verify_probability_preservation,
)
from .reversible import PhaseVector, UnitaryOperator

NORM_WARN = 1e-12


# ---------------------------------------------------------------------------
# argument helpers

def parse_complex(text: str) -> complex:
    """Parse a complex literal such as ``1``, ``-i``, ``0.5+0.5i``."""
    cleaned = text.strip().replace("i", "j").replace("I", "j").replace("J", "j")
    if not cleaned:
        raise ParseError("empty complex literal")
    try:
        return complex(cleaned)
    except ValueError:
        raise ParseError(f"cannot parse complex number {text!r}") from None


def parse_complex_list(text: str) -> list[complex]:
    return [parse_complex(part) for part in text.split(",")]


def parse_float_list(text: str) -> list[float]:
    out = []
    for part in text.split(","):
        try:
            out.append(float(part))
        except ValueError:
            raise ParseError(f"cannot parse number {part!r}") from None
    return out


def _load_kind(path: str, kinds: tuple[str, ...]) -> OperatorFile:
    doc = load_operator_file(path)
    if doc.kind not in kinds:
        raise ParseError(
            f"{path}: kind {doc.kind!r} not usable here (expected one of {', '.join(kinds)})"
        )
    return doc


def _single_matrix(doc: OperatorFile, path: str) -> np.ndarray:
    if len(doc.operators) != 1:
        raise ParseError(f"{path}: expected exactly one operator, found {len(doc.operators)}")
    return doc.operators[0][1]


def _load_unitary(path: str, tol: float) -> UnitaryOperator:
    doc = _load_kind(path, ("unitary",))
    return UnitaryOperator(_single_matrix(doc, path), tol=tol)


def _load_state(path: str, warnings: list[str]) -> QuantumState:
    vec = load_state_file(path).amplitudes
    scale, norm = vector_norm(vec)
    norm *= scale
    if abs(norm - 1.0) > NORM_WARN:
        warnings.append(f"input state renormalized (norm was {format_float(norm)})")
    return QuantumState(vec, normalize=True)


def _pairs(array: np.ndarray) -> list:
    """Matrix or vector as nested [re, im] pairs for report payloads."""
    arr = np.asarray(array, dtype=np.complex128)
    if arr.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in arr]
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


# ---------------------------------------------------------------------------
# report rendering

def _fmt_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, int):
        return str(value)
    if value is None:
        return "null"
    return str(value)


def _fmt_value(value) -> str:
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt_value(v) for v in value) + "]"
    return _fmt_scalar(value)


def render_human(report: dict) -> str:
    lines: list[str] = []

    def emit(key: str, value, indent: int) -> None:
        pad = "  " * indent
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            for k, v in value.items():
                emit(k, v, indent + 1)
        else:
            lines.append(f"{pad}{key}: {_fmt_value(value)}")

    for key, value in report.items():
        emit(key, value, 0)
    return "\n".join(lines) + "\n"


def render_report(report: dict, fmt: str) -> str:
    if fmt == "machine":
        return dumps_document(report) + "\n"
    return render_human(report)


def _finish(report: dict, details: list[str]) -> dict:
    if details:
        report["details"] = "; ".join(details)
    return report


# ---------------------------------------------------------------------------
# validate

def _validate_measurement_set(mats, tol):
    opset = MeasurementOperatorSet(mats)
    rep = validate_completeness(opset, tol=tol)
    residuals = {"completeness": rep.residual}
    return rep.passed, residuals, []


def _validate_projector_set(mats, tol):
    res = ProjectorResiduals(mats)
    residuals = {
        "hermiticity_max": float(np.max(res.hermiticity)),
        "orthogonality_max": float(np.max(res.pairs / res.pair_scales)),
        "completeness": res.completeness,
    }
    failure = res.failure(tol)
    return failure is None, residuals, [] if failure is None else [failure]


def _validate_povm(mats, tol):
    herm = max(hermiticity_residual(e) for e in mats)
    n = mats[0].shape[0]
    total = sum(mats)
    completeness = float(np.linalg.norm(total - np.eye(n)))
    residuals = {"hermiticity_max": herm, "completeness": completeness}
    try:
        povm = Povm(mats, tol=tol)
    except (NotHermitian, IncompleteSet, ValueError) as exc:
        return False, residuals, [str(exc)]
    residuals["min_eigenvalue"] = min(lowest_eigenvalue(e) for e in povm.elements)
    return True, residuals, []


def _validate_unitary(mats, tol):
    u = mats[0]
    left, right = unitarity_residuals(u)
    residuals = {"unitarity_left": left, "unitarity_right": right}
    scale = scale_of(np.eye(u.shape[0]))
    passed = left <= tol * scale and right <= tol * scale
    notes = [] if passed else ["operator is not unitary at this tolerance"]
    return passed, residuals, notes


def _validate_observable(mats, tol):
    a = mats[0]
    herm = hermiticity_residual(a)
    residuals = {"hermiticity": herm}
    try:
        obs = spectral_decompose(a, tol=tol)
    except (NotHermitian, QmeasureError, ValueError) as exc:
        return False, residuals, [str(exc)]
    recon = sum(val * proj for val, proj in obs.spectrum)
    residuals["reconstruction"] = float(np.linalg.norm(recon - a))
    residuals["n_eigenspaces"] = len(obs.spectrum)
    return True, residuals, []


_VALIDATORS = {
    "measurement_set": _validate_measurement_set,
    "projector_set": _validate_projector_set,
    "povm": _validate_povm,
    "unitary": _validate_unitary,
    "observable": _validate_observable,
}


def cmd_validate(args) -> dict:
    doc = load_operator_file(args.file)
    mats = doc.matrices()
    if doc.kind in ("unitary", "observable") and len(mats) != 1:
        raise ParseError(f"{args.file}: {doc.kind} file must hold exactly one operator")
    passed, residuals, notes = _VALIDATORS[doc.kind](mats, args.tol)
    report = {
        "command": "validate",
        "verdict": "pass" if passed else "fail",
        "kind": doc.kind,
        "dim": doc.dim,
        "n_operators": len(mats),
        "residuals": residuals,
    }
    return _finish(report, notes)


# ---------------------------------------------------------------------------
# classify

def cmd_classify(args) -> dict:
    doc = _load_kind(args.file, ("measurement_set", "projector_set", "unitary"))
    opset = MeasurementOperatorSet(doc.matrices())
    kind = classify_measurement(opset, tol=args.tol)
    report = {
        "command": "classify",
        "verdict": "pass",
        "kind": doc.kind,
        "dim": doc.dim,
        "n_operators": len(opset),
        "residuals": {"completeness": opset.completeness_residual},
        "classification": kind.value,
    }
    return report


# ---------------------------------------------------------------------------
# measure

def cmd_measure(args) -> dict:
    if args.shots is not None and args.outcome is not None:
        raise ParseError("--outcome and --shots are mutually exclusive")
    doc = _load_kind(args.set, ("measurement_set", "projector_set", "unitary"))
    opset = MeasurementOperatorSet(doc.matrices())
    warnings: list[str] = []
    psi = _load_state(args.state, warnings)
    probs = outcome_probabilities(opset, psi, tol=args.tol)
    prob_sum = float(abs(probs.sum() - 1.0))
    passed = within_tol(prob_sum, args.tol)
    if not passed:
        warnings.append(f"probability_sum exceeds tolerance {format_float(args.tol)}")
    report = {
        "command": "measure",
        "verdict": "pass" if passed else "fail",
        "dim": opset.dim,
        "n_operators": len(opset),
        "residuals": {"completeness": opset.completeness_residual,
                      "probability_sum": prob_sum},
        "probabilities": [float(p) for p in probs],
    }
    if args.outcome is not None:
        record = apply_outcome(opset, psi, args.outcome, tol=args.tol)
        report["outcome"] = record.outcome
        report["probability"] = record.probability
        report["post_state"] = _pairs(record.post_state.amplitudes)
    elif args.shots is not None:
        if args.seed is None:
            raise ParseError("--shots requires --seed")
        counts = sample_histogram(opset, psi, shots=args.shots, seed=args.seed, tol=args.tol)
        report["shots"] = args.shots
        report["seed"] = args.seed
        report["counts"] = [int(c) for c in counts]
        report["frequencies"] = [float(c) / float(args.shots) for c in counts]
    return _finish(report, warnings)


# ---------------------------------------------------------------------------
# mirror build / check

def cmd_mirror_build(args) -> dict:
    qubit_form = args.theta is not None or args.alpha is not None
    extended_form = args.phases is not None or args.angles is not None
    if qubit_form and extended_form:
        raise ParseError("give either --theta/--alpha or --phases/--angles, not both")
    if qubit_form:
        if args.theta is None or args.alpha is None:
            raise ParseError("qubit mirror needs both --theta and --alpha")
        mirror = build_qubit_mirror(args.theta, parse_complex(args.alpha), tol=args.tol)
        form = "qubit"
    elif extended_form:
        if args.projectors is None:
            raise ParseError("--phases/--angles need --projectors FILE")
        if args.phases is not None and args.angles is not None:
            raise ParseError("--phases and --angles are mutually exclusive")
        pdoc = _load_kind(args.projectors, ("projector_set",))
        pset = ProjectorSet(pdoc.matrices(), tol=args.tol)
        if args.phases is not None:
            phases = PhaseVector(parse_complex_list(args.phases))
        else:
            phases = PhaseVector.from_angles(parse_float_list(args.angles))
        mirror = extend_mirror(phases, pset, tol=args.tol)
        form = "projector_superposition"
    else:
        raise ParseError("mirror build needs --theta/--alpha or --phases/--angles")
    u = mirror.unitary.matrix
    left, right = unitarity_residuals(u)
    if args.out is not None:
        save_operator_file(args.out, "unitary", [u])
    report = {
        "command": "mirror build",
        "verdict": "pass",
        "form": form,
        "dim": u.shape[0],
        "residuals": {
            "commutation_max": mirror.worst_residual,
            "unitarity_left": left,
            "unitarity_right": right,
        },
        "matrix": _pairs(u),
    }
    details = [] if args.out is None else [f"unitary written to {args.out}"]
    return _finish(report, details)


def cmd_mirror_check(args) -> dict:
    unit = _load_unitary(args.unitary, args.tol)
    pdoc = _load_kind(args.projectors, ("projector_set",))
    pset = ProjectorSet(pdoc.matrices(), tol=args.tol)
    result = is_mirror(unit, pset, tol=args.tol)
    residuals = {
        f"commutator_{m}": r for m, r in enumerate(result.commutation_residuals)
    }
    residuals["commutation_max"] = result.worst_residual
    report = {
        "command": "mirror check",
        "verdict": "pass" if result.accepted else "fail",
        "dim": unit.dim,
        "n_projectors": len(pset),
        "residuals": residuals,
    }
    details: list[str] = []
    if not result.accepted:
        details.append(
            f"commutator {result.worst_label} exceeds tolerance {format_float(result.tol)}"
        )
    if args.state is not None and result.accepted:
        psi = _load_state(args.state, details)
        pres = verify_probability_preservation(unit, pset, psi, tol=args.tol)
        residuals["preservation_max"] = pres.max_deviation
        report["probabilities_before"] = list(pres.probabilities_before)
        report["probabilities_after"] = list(pres.probabilities_after)
        if not pres.within(args.tol):
            report["verdict"] = "fail"
            details.append("projective probabilities not preserved")
    return _finish(report, details)


# ---------------------------------------------------------------------------
# truth / bell

def cmd_truth(args) -> dict:
    unit = _load_unitary(args.unitary, args.tol)
    details: list[str] = []
    psi = _load_state(args.state, details)
    transcript = truth_protocol(unit, psi, tol=args.tol)
    passed = (
        transcript.fidelity >= 1.0 - args.tol
        and within_tol(transcript.identity_residual, args.tol, np.eye(unit.dim))
    )
    report = {
        "command": "truth",
        "verdict": "pass" if passed else "fail",
        "dim": unit.dim,
        "residuals": {
            "fidelity": transcript.fidelity,
            "fidelity_deficit": max(0.0, 1.0 - transcript.fidelity),
            "identity_residual": transcript.identity_residual,
        },
        "computed_state": _pairs(transcript.computed.amplitudes),
        "restored_state": _pairs(transcript.restored.amplitudes),
    }
    return _finish(report, details)


def cmd_bell(args) -> dict:
    unit = _load_unitary(args.mirror, args.tol)
    comparison = bell_comparison(args.index, unit, tol=args.tol)
    passed = (
        within_tol(comparison.external_sum_residual, args.tol, np.eye(4))
        and abs(comparison.internal_probability - 1.0) <= args.tol
        and comparison.preservation.within(args.tol)
    )
    report = {
        "command": "bell",
        "verdict": "pass" if passed else "fail",
        "bell_index": comparison.bell_index,
        "bell_label": comparison.bell_label,
        "probabilities": list(comparison.external_probabilities),
        "residuals": {
            "external_sum_residual": comparison.external_sum_residual,
            "internal_probability": comparison.internal_probability,
            "internal_identity_residual": comparison.internal_identity_residual,
            "preservation_max": comparison.preservation.max_deviation,
        },
        "details": comparison.grouping,
    }
    return report


# ---------------------------------------------------------------------------
# parser / entry point

def parse_tolerance(text: str) -> float:
    """``--tol`` value: a finite positive number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return value


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tol", type=parse_tolerance, default=DEFAULT_TOL,
                     help="residual tolerance (default 1e-10)")
    sub.add_argument("--format", choices=("human", "machine"), default="human",
                     help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmeasure",
        description="quantum measurement toolkit: validate, measure, mirror, truth protocol",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check an operator file against its kind's invariants")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(handler=cmd_validate)

    p = subs.add_parser("classify", help="classify a complete measurement set")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(handler=cmd_classify)

    p = subs.add_parser("measure", help="outcome probabilities, post-states, sampling")
    p.add_argument("set", help="measurement set file")
    p.add_argument("state", help="state file")
    p.add_argument("--outcome", type=int, default=None,
                   help="apply this outcome and report the post-state")
    p.add_argument("--shots", type=int, default=None, help="sample a histogram")
    p.add_argument("--seed", type=int, default=None, help="PRNG seed (required with --shots)")
    _add_common(p)
    p.set_defaults(handler=cmd_measure)

    p = subs.add_parser("mirror", help="build or check probability-preserving unitaries")
    mirror_subs = p.add_subparsers(dest="mirror_command", required=True)

    pb = mirror_subs.add_parser("build", help="construct a mirror unitary")
    pb.add_argument("--theta", type=float, default=None, help="global phase angle (qubit form)")
    pb.add_argument("--alpha", default=None, help="unimodular complex, e.g. '0.6+0.8i' (qubit form)")
    pb.add_argument("--phases", default=None, help="comma-separated unimodular phases")
    pb.add_argument("--angles", default=None, help="comma-separated phase angles (radians)")
    pb.add_argument("--projectors", default=None, help="projector set file for --phases/--angles")
    pb.add_argument("--out", default=None, help="write the unitary to this file")
    _add_common(pb)
    pb.set_defaults(handler=cmd_mirror_build)

    pc = mirror_subs.add_parser("check", help="certify commutation with a projector set")
    pc.add_argument("unitary", help="unitary file")
    pc.add_argument("projectors", help="projector set file")
    pc.add_argument("--state", default=None, help="also verify probability preservation")
    _add_common(pc)
    pc.set_defaults(handler=cmd_mirror_check)

    p = subs.add_parser("truth", help="compute/uncompute restoration protocol")
    p.add_argument("unitary", help="unitary file")
    p.add_argument("state", help="state file")
    _add_common(p)
    p.set_defaults(handler=cmd_truth)

    p = subs.add_parser("bell", help="external vs internal measurement on a Bell state")
    p.add_argument("--index", type=int, required=True, help="Bell state index 0..3")
    p.add_argument("--mirror", required=True, help="mirror unitary file (dim 4)")
    _add_common(p)
    p.set_defaults(handler=cmd_bell)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
    except (ParseError, DimensionMismatch, UnknownOutcome, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QmeasureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(render_report(report, args.format))
    return 0 if report["verdict"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
