"""Span recording around the public callables of each qmeasure module.

A :class:`Tracer` swaps every module binding of a traced function for a
wrapper that records one span per call, including bindings pulled in with
``from ... import`` (``cli.hermitian_eig``, ``mirror.is_mirror``) and the
re-exports on the ``qmeasure`` package. Dataclass constructors are timed at
``__post_init__``, which holds all of their validation work. Nothing is
patched until :meth:`Tracer.install` runs, and :meth:`Tracer.uninstall`
puts every original back.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field

# Module -> public callables whose calls are timed. ``gates`` and ``errors``
# do no timed work.
TRACED = {
    "cli": ("main", "render_report"),
    "fileio": ("load_operator_file", "load_state_file", "save_operator_file",
               "dumps_document"),
    "linalg": ("hermitian_eig", "unitarity_residuals", "hermiticity_residual"),
    "measurement": ("ProjectorSet", "spectral_decompose", "Observable",
                    "MeasurementOperatorSet", "outcome_probabilities",
                    "apply_outcome", "sample_histogram", "Povm",
                    "DensityMatrix", "QuantumState"),
    "reversible": ("UnitaryOperator", "exp_observable",
                   "phase_superpose_projectors"),
    "mirror": ("is_mirror", "verify_probability_preservation",
               "truth_protocol", "bell_comparison"),
}

# Calls whose first argument is a file path; its size after the call is
# recorded with the span so throughput can be computed from file sizes.
SIZED = {"fileio.load_operator_file", "fileio.load_state_file",
         "fileio.save_operator_file"}


def qmeasure_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "qmeasure" or name.startswith("qmeasure."))]


def rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Point every qmeasure module attribute bound to ``original`` at
    ``replacement``; returns what :func:`restore` needs to undo it."""
    undo = []
    for mod in qmeasure_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def restore(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


class Tracer:
    """Records spans ``[name, start, end, parent, op, nbytes]`` in memory.

    ``parent`` is the index of the enclosing span or -1, and ``op`` is the
    benchmark op the span belongs to; set :attr:`op` before each op.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        sized = name in SIZED

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if sized:
                    try:
                        span[5] = os.path.getsize(args[0])
                    except OSError:
                        pass

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import qmeasure.cli  # noqa: F401  (the package does not import it)

        for module, names in TRACED.items():
            mod = sys.modules[f"qmeasure.{module}"]
            for attr in names:
                # A callable that no longer exists is skipped and reads 0.
                obj = getattr(mod, attr, None)
                name = f"{module}.{attr}"
                if isinstance(obj, type):
                    hook = obj.__dict__.get("__post_init__")
                    if hook is not None:
                        setattr(obj, "__post_init__", self._wrap(name, hook))
                        self._undo.append((obj, "__post_init__", hook))
                elif obj is not None:
                    self._undo.extend(rebind(obj, self._wrap(name, obj)))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []


@dataclass
class SpanTotals:
    """Per-name sums reduced from spans: calls, self time, time inside the
    call and bytes."""

    calls: dict[str, int] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    total_s: dict[str, float] = field(default_factory=dict)
    nbytes: dict[str, int] = field(default_factory=dict)

    def add(self, spans) -> None:
        """Fold a list of spans in. Self time is a span's duration minus the
        durations of its direct children, which nest inside it."""
        covered = [0.0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for k, (name, start, end, _, _, nbytes) in enumerate(spans):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + (end - start - covered[k])
            self.total_s[name] = self.total_s.get(name, 0.0) + (end - start)
            self.nbytes[name] = self.nbytes.get(name, 0) + nbytes
