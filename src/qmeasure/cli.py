"""Command line front end.

Subcommands operate on the JSON operator/state files described in
``fileio``.  Every command accepts ``--tol`` (residual tolerance,
default 1e-10) and ``--format human|machine``.  Numeric values are
printed with the same 17-significant-digit formatting in both formats,
so the two outputs never disagree on a number.

Exit codes: 0 command ran and its verdict passed, 1 command ran but the
verdict failed (or a semantic domain error such as a non-unitary
operator), 2 unusable input (file not found, malformed JSON, dimension mismatch,
unknown outcome label, bad argument syntax, ``--shots`` too large for memory),
whatever the other inputs hold: files, flags and dimensions are checked before any judging.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .errors import (
    DimensionMismatch,
    NotMirror,
    ParseError,
    QmeasureError,
    UnknownOutcome,
)
from .fileio import (
    OperatorFile,
    complex_pairs,
    dumps_document,
    format_float,
    format_floats,
    load_operator_file,
    load_state_file,
    save_operator_file,
)
from .linalg import DEFAULT_TOL, _require_same_dims, judge
from .measurement import (
    NORM_TOL,
    MeasurementOperatorSet,
    Povm,
    ProjectorSet,
    QuantumState,
    apply_outcome,
    classify_measurement,
    _histogram,
    outcome_probabilities,
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


# ---------------------------------------------------------------------------
# argument helpers

def parse_complex(text: str) -> complex:
    """Parse a complex literal such as ``1``, ``-i``, ``0.5+0.5i``, ``inf``;
    only a trailing ``i`` or ``I`` is the imaginary unit."""
    cleaned = text.strip()
    if not cleaned:
        raise ParseError("empty complex literal")
    if cleaned[-1] in "iI":
        cleaned = cleaned[:-1] + "j"
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


def _load_state(path: str, warnings: list[str]) -> QuantumState:
    psi = QuantumState(load_state_file(path), normalize=True)
    if abs(psi.input_norm - 1.0) > NORM_TOL:
        warnings.append(f"input state renormalized (norm was {format_float(psi.input_norm)})")
    return psi


# ---------------------------------------------------------------------------
# report rendering

def _fmt_value(value) -> str:
    if isinstance(value, np.ndarray):
        return format_floats(value) or _fmt_value(value.tolist())
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt_value(v) for v in value) + "]"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def render_human(report: dict, indent: int = 0) -> str:
    pad, text = "  " * indent, ""
    for key, value in report.items():
        if isinstance(value, dict):
            text += f"{pad}{key}:\n" + render_human(value, indent + 1)
        else:
            text += f"{pad}{key}: {_fmt_value(value)}\n"
    return text


def render_report(report: dict, fmt: str) -> str:
    return dumps_document(report) + "\n" if fmt == "machine" else render_human(report)


def _finish(report: dict, details: list[str]) -> dict:
    if details:
        report["details"] = "; ".join(details)
    return report


# ---------------------------------------------------------------------------
# validate

# The library's judge of each kind returns the judged object (a measurement
# set's completeness record holds its verdict in ``passed``) or raises the
# QmeasureError that rejects it; both carry the ``residuals`` printed.
_JUDGES = {
    "measurement_set": lambda mats, tol: validate_completeness(MeasurementOperatorSet(mats), tol),
    "projector_set": lambda mats, tol: ProjectorSet(mats, tol=tol),
    "povm": lambda mats, tol: Povm(mats, tol=tol),
    "unitary": lambda mats, tol: UnitaryOperator(mats[0], tol=tol),
    "observable": lambda mats, tol: spectral_decompose(mats[0], tol=tol),
}


def cmd_validate(args) -> dict:
    doc = load_operator_file(args.file)
    try:
        judged, details = _JUDGES[doc.kind](doc.matrices, args.tol), []
    except QmeasureError as exc:
        judged, details = exc, [str(exc)]
    report = {
        "command": "validate",
        "verdict": "pass" if getattr(judged, "passed", not details) else "fail",
        "kind": doc.kind,
        "dim": doc.dim,
        "n_operators": len(doc.matrices),
        "residuals": judged.residuals,
    }
    return _finish(report, details)


# ---------------------------------------------------------------------------
# classify

def cmd_classify(args) -> dict:
    doc = _load_kind(args.file, ("measurement_set", "projector_set", "unitary"))
    opset = MeasurementOperatorSet(doc.matrices)
    kind = classify_measurement(opset, tol=args.tol)
    return {
        "command": "classify",
        "verdict": "pass",
        "kind": doc.kind,
        "dim": doc.dim,
        "n_operators": len(opset),
        "residuals": {"completeness": opset.completeness_residual},
        "classification": kind.value,
    }


# ---------------------------------------------------------------------------
# measure

def cmd_measure(args) -> dict:
    if args.shots is not None:
        if args.outcome is not None:
            raise ParseError("--outcome and --shots are mutually exclusive")
        if args.seed is None:
            raise ParseError("--shots requires --seed")
        if args.shots < 1:
            raise ParseError("shots must be positive")
    doc = _load_kind(args.set, ("measurement_set", "projector_set", "unitary"))
    opset = MeasurementOperatorSet(doc.matrices)
    warnings: list[str] = []
    psi = _load_state(args.state, warnings)
    # apply_outcome checks the dims and the label before it judges the set
    record = None if args.outcome is None else apply_outcome(opset, psi, args.outcome, tol=args.tol)
    probs = outcome_probabilities(opset, psi, tol=args.tol)
    summed = judge("probability_sum", float(abs(probs.sum() - 1.0)), args.tol, n=opset.dim)
    if not summed.passed:
        warnings.append(f"probability_sum exceeds tolerance {format_float(args.tol)}")
    report = {
        "command": "measure",
        "verdict": "pass" if summed.passed else "fail",
        "dim": opset.dim,
        "n_operators": len(opset),
        "residuals": {"completeness": opset.completeness_residual, **summed.residuals},
        "probabilities": [float(p) for p in probs],
    }
    if record is not None:
        report["outcome"] = record.outcome
        report["probability"] = record.probability
        report["post_state"] = complex_pairs(record.post_state.amplitudes)
    elif args.shots is not None:
        counts = _histogram(probs, args.shots, args.seed)  # the probabilities judged above
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
        values = (parse_complex_list(args.phases) if args.phases is not None
                  else parse_float_list(args.angles))
        pdoc = _load_kind(args.projectors, ("projector_set",))
        _require_same_dims(phases=len(values), projectors=len(pdoc.matrices))
        phases = PhaseVector(values) if args.phases is not None else PhaseVector.from_angles(values)
        pset = ProjectorSet(pdoc.matrices, tol=args.tol)
        mirror = extend_mirror(phases, pset, tol=args.tol)
        form = "projector_superposition"
    else:
        raise ParseError("mirror build needs --theta/--alpha or --phases/--angles")
    u = mirror.unitary.matrix
    if args.out is not None:
        save_operator_file(args.out, "unitary", [u])
    report = {
        "command": "mirror build",
        "verdict": "pass",
        "form": form,
        "dim": u.shape[0],
        "residuals": {"commutation_max": mirror.worst_residual, **mirror.unitary.residuals},
        "matrix": complex_pairs(u),
    }
    details = [] if args.out is None else [f"unitary written to {args.out}"]
    return _finish(report, details)


def cmd_mirror_check(args) -> dict:
    matrix = _load_kind(args.unitary, ("unitary",)).matrices[0]
    pdoc = _load_kind(args.projectors, ("projector_set",))
    details: list[str] = []
    dims = {"unitary": len(matrix), "projectors": pdoc.dim}
    if args.state is not None:
        psi = _load_state(args.state, details)
        dims["state"] = psi.dim
    _require_same_dims(**dims)
    unit = UnitaryOperator(matrix, tol=args.tol)
    pset = ProjectorSet(pdoc.matrices, tol=args.tol)
    report = {"command": "mirror check", "verdict": "pass", "dim": unit.dim,
              "n_projectors": len(pset)}
    try:
        report["residuals"] = residuals = is_mirror(unit, pset, tol=args.tol).residuals
    except NotMirror as exc:  # the state is not used
        report.update(verdict="fail", residuals=exc.residuals)
        return _finish(report, [str(exc)])
    if args.state is not None:
        pres = verify_probability_preservation(unit, pset, psi, tol=args.tol)
        residuals["preservation_max"] = pres.max_deviation
        report["probabilities_before"] = list(pres.probabilities_before)
        report["probabilities_after"] = list(pres.probabilities_after)
        if not pres.passed:
            report["verdict"] = "fail"
            details.append("projective probabilities not preserved")
    return _finish(report, details)


# ---------------------------------------------------------------------------
# truth / bell

def cmd_truth(args) -> dict:
    matrix = _load_kind(args.unitary, ("unitary",)).matrices[0]
    details: list[str] = []
    psi = _load_state(args.state, details)
    transcript = truth_protocol(matrix, psi, tol=args.tol)
    report = {
        "command": "truth",
        "verdict": "pass" if transcript.passed else "fail",
        "dim": psi.dim,
        "residuals": transcript.residuals,
        "computed_state": complex_pairs(transcript.computed.amplitudes),
        "restored_state": complex_pairs(transcript.restored.amplitudes),
    }
    return _finish(report, details)


def cmd_bell(args) -> dict:
    mirror = _load_kind(args.mirror, ("unitary",)).matrices[0]
    comparison = bell_comparison(args.index, mirror, tol=args.tol)
    return {
        "command": "bell",
        "verdict": "pass" if comparison.passed else "fail",
        "bell_index": comparison.bell_index,
        "bell_label": comparison.bell_label,
        "probabilities": list(comparison.external_probabilities),
        "residuals": comparison.residuals,
        "details": comparison.grouping,
    }


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


def _add_common(sub: argparse.ArgumentParser, handler) -> None:
    """The flags every subcommand takes, after its own, and its handler."""
    sub.add_argument("--tol", type=parse_tolerance, default=DEFAULT_TOL,
                     help="residual tolerance (default 1e-10)")
    sub.add_argument("--format", choices=("human", "machine"), default="human",
                     help="output format")
    sub.set_defaults(handler=handler)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmeasure",
        description="quantum measurement toolkit: validate, measure, mirror, truth protocol",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check an operator file against its kind's invariants")
    p.add_argument("file")
    _add_common(p, cmd_validate)

    p = subs.add_parser("classify", help="classify a complete measurement set")
    p.add_argument("file")
    _add_common(p, cmd_classify)

    p = subs.add_parser("measure", help="outcome probabilities, post-states, sampling")
    p.add_argument("set", help="measurement set file")
    p.add_argument("state", help="state file")
    p.add_argument("--outcome", type=int, default=None,
                   help="apply this outcome and report the post-state")
    p.add_argument("--shots", type=int, default=None, help="sample a histogram")
    p.add_argument("--seed", type=int, default=None, help="PRNG seed (required with --shots)")
    _add_common(p, cmd_measure)

    p = subs.add_parser("mirror", help="build or check probability-preserving unitaries")
    mirror_subs = p.add_subparsers(dest="mirror_command", required=True)

    pb = mirror_subs.add_parser("build", help="construct a mirror unitary")
    pb.add_argument("--theta", type=float, default=None, help="global phase angle (qubit form)")
    pb.add_argument("--alpha", default=None, help="unimodular complex, e.g. '0.6+0.8i' (qubit form)")
    pb.add_argument("--phases", default=None, help="comma-separated unimodular phases")
    pb.add_argument("--angles", default=None, help="comma-separated phase angles (radians)")
    pb.add_argument("--projectors", default=None, help="projector set file for --phases/--angles")
    pb.add_argument("--out", default=None, help="write the unitary to this file")
    _add_common(pb, cmd_mirror_build)

    pc = mirror_subs.add_parser("check", help="certify commutation with a projector set")
    pc.add_argument("unitary", help="unitary file")
    pc.add_argument("projectors", help="projector set file")
    pc.add_argument("--state", default=None, help="also verify probability preservation")
    _add_common(pc, cmd_mirror_check)

    p = subs.add_parser("truth", help="compute/uncompute restoration protocol")
    p.add_argument("unitary", help="unitary file")
    p.add_argument("state", help="state file")
    _add_common(p, cmd_truth)

    p = subs.add_parser("bell", help="external vs internal measurement on a Bell state")
    p.add_argument("--index", type=int, required=True, help="Bell state index 0..3")
    p.add_argument("--mirror", required=True, help="mirror unitary file (dim 4)")
    _add_common(p, cmd_bell)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
    except (ParseError, DimensionMismatch, UnknownOutcome, OSError, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except QmeasureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(render_report(report, args.format))
    return 0 if report["verdict"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
