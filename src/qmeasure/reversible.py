"""Reversible measurements on a closed system.

A unitary U is a generalized measurement whose collection holds the single
operator U: the lone outcome has probability one and the post-state is
U|psi>, so the operation is invertible. The converse construction also
works: a complete family with M_i^dag M_j = 0 for i != j, judged as one
aggregate that bounds both unitarity residuals of M = sum_m alpha_m M_m for
any unimodular phases, combines into that unitary. Specializing to
projectors gives P_hat = sum_m alpha_m P_m, and with alpha_m = e^{i lambda_m}
this equals e^{iA} for the observable A with those eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .errors import NotUnitary, OrthogonalityViolation, PhaseNotUnimodular
from .linalg import DEFAULT_TOL, _adjoint, _rounding_allowance, as_matrix, freeze, judge
from .measurement import (
    MeasurementOperatorSet,
    Observable,
    Povm,
    ProjectorSet,
    _require_complete,
    povm_from_operators,
    validate_completeness,
)

UNIMODULAR_TOL = 1e-12  # ||alpha|^2 - 1| admitted for phase coefficients


@dataclass(frozen=True, eq=False)
class UnitaryOperator(linalg._Frozen):
    """Square matrix with U^dag U = U U^dag = I within tolerance: its ``records`` judge its
    ``residuals`` ||U^dag U - I||_F and ||U U^dag - I||_F, or hold the Gram bound that proved
    it unitary, and then its ``residuals`` are formed on first read, as the judge forms them."""

    matrix: np.ndarray
    tol: InitVar[float] = DEFAULT_TOL
    records: tuple = field(init=False, repr=False)

    def __post_init__(self, tol: float):
        self._judge(freeze(as_matrix(self.matrix)), tol)

    def _judge(self, mat: np.ndarray, tol: float) -> "UnitaryOperator":  # a frozen as_matrix array
        vars(self).update(matrix=mat, records=linalg._require_unitary(mat, tol))
        return self

    @cached_property
    def residuals(self) -> dict[str, float]:
        if self.records[0].proved:
            return linalg._unitarity_residuals(self.matrix)
        return {r.quantity: r.residual for r in self.records}

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _as_unitary(u, tol: float = DEFAULT_TOL, role: str = "unitary", **dims: int) -> UnitaryOperator:
    """``u`` as a :class:`UnitaryOperator`: its dim, named ``role``, must agree with the
    ``dims`` of the other operands before a raw matrix, coerced once, is judged at ``tol``."""
    mat = u.matrix if isinstance(u, UnitaryOperator) else freeze(as_matrix(u))
    linalg._require_same_dims(**{role: len(mat)}, **dims)
    return u if isinstance(u, UnitaryOperator) else object.__new__(UnitaryOperator)._judge(mat, tol)


@dataclass(frozen=True, eq=False)
class PhaseVector(linalg._Frozen):
    """Unimodular coefficients alpha_m, each with |alpha_m|^2 = 1 to ``unimodularity_max``."""

    phases: np.ndarray
    unimodularity_max: float = field(init=False, repr=False)  # max ||alpha_m|^2 - 1|

    def __post_init__(self):
        self._judge(np.array(self.phases, dtype=np.complex128).reshape(-1))

    @np.errstate(over="ignore")  # |alpha|^2 of a huge phase is inf, and fails as such
    def _judge(self, arr: np.ndarray) -> "PhaseVector":  # a 1-D complex128 array nothing else holds
        if arr.size == 0:
            raise ValueError("phase vector must be nonempty")
        if not np.isfinite(arr).all():
            raise ValueError("phases must be finite")
        worst = float(np.abs(np.abs(arr) ** 2 - 1.0).max())
        if not (unimodular := judge("unimodularity_max", worst, UNIMODULAR_TOL, n=1)).passed:
            raise PhaseNotUnimodular(f"phases deviate from the unit circle by {worst:.3e}",
                                     (unimodular,))
        vars(self).update(phases=freeze(arr), unimodularity_max=worst)
        return self

    @classmethod
    def from_angles(cls, angles) -> "PhaseVector":
        """Map real angles lambda_m to e^{i lambda_m}, judged as formed."""
        return object.__new__(cls)._judge(np.exp(1j * np.array(angles, dtype=float).reshape(-1)))

    def __len__(self) -> int:
        return len(self.phases)


def unitary_as_measurement(u, tol: float = DEFAULT_TOL) -> MeasurementOperatorSet:
    """Read a unitary as the singleton measurement collection {U}: complete by unitarity (its
    completeness residual, formed when read, is ``unitarity_left``), every state yields the unique
    outcome with probability one, and the post-state is U|psi>."""
    return object.__new__(MeasurementOperatorSet)._hold("operators", _as_unitary(u, tol).matrix[None])


@np.errstate(over="ignore", invalid="ignore")
def _require_superposable(opset: MeasurementOperatorSet, tol: float) -> tuple:
    """The records of a and of its band: raise ``OrthogonalityViolation`` (naming a and the worst
    pair) unless a = sum_{i != j} ||M_i^dag M_j||_F (+ c, the completeness residual, if it passes)
    passes ``tol`` against sqrt(n), then unless c passes. The band a + eps_n (n + sqrt(n) a)
    bounds the sum's unitarity residuals with their rounding."""
    pairs = linalg.orthogonality_residuals(_adjoint(opset._stack), opset._stack)
    np.fill_diagonal(pairs, 0.0)  # ||M_i^dag M_i - M_i^dag||_F is no pair
    scale, complete = math.sqrt(n := opset.dim), validate_completeness(opset, tol)
    aggregate = float(pairs.sum()) + (complete.residual if complete.passed else 0.0)
    worst = tuple(int(k) for k in np.unravel_index(np.argmax(pairs), pairs.shape))  # a NaN pair first
    if not (orth := judge("orthogonality", aggregate, tol, scale, n=n, where=worst)).passed:
        raise OrthogonalityViolation(f"operators are not orthogonal within {tol:g}: aggregate "
                                     f"{aggregate:.3e} exceeds {orth.threshold:.3e} (worst pair {worst}, "
                                     f"residual {pairs[worst]:.3e})", (orth,))
    _require_complete(opset, tol, complete)
    bound = aggregate + _rounding_allowance(n) * (n + scale * aggregate)
    return orth, judge("orthogonality_band", bound, tol, scale, n=n, proved=True)


def superpose_operators(opset: MeasurementOperatorSet, phases: PhaseVector,
                        tol: float = DEFAULT_TOL) -> UnitaryOperator:
    """The unitary M = sum_m alpha_m M_m of a complete family with M_i^dag M_j = 0 (i != j).

    Preconditions are enforced hard: one phase per operator, then the aggregate a of
    :func:`_require_superposable`, which bounds both unitarity residuals of M for every phase
    vector (README, Operator superposition), then completeness. The sum's unitarity judge still
    runs; when a passed within its band, that judge's failure is raised as the violation.
    """
    linalg._require_same_dims(phases=len(phases), operators=len(opset))
    orth, band = _require_superposable(opset, tol)
    try:
        return object.__new__(UnitaryOperator)._judge(freeze(opset._phase_sum(phases.phases)), tol)
    except NotUnitary as exc:
        if band.passed:  # a failure a does not explain: the phases are off the unit circle
            raise
        raise OrthogonalityViolation(
            f"operators are not orthogonal within {tol:g}: aggregate {orth.residual:.3e} passes by "
            f"less than the rounding of their sum, which failed: {exc}", (orth, *exc.records)) from exc


def phase_superpose_projectors(pset: ProjectorSet, phases: PhaseVector,
                               tol: float = DEFAULT_TOL) -> UnitaryOperator:
    """Unitary P_hat = sum_m alpha_m P_m over a complete orthogonal projector set, judged unless
    the set's Gram bound proves it unitary (its record), when its ``residuals`` are formed on read."""
    linalg._require_same_dims(phases=len(phases), projectors=len(pset))
    unit, mat = object.__new__(UnitaryOperator), freeze(pset._phase_sum(phases.phases))
    if not (proof := pset._proves_mirror(phases, tol)).passed:  # then P_hat is judged
        return unit._judge(mat, tol)
    vars(unit).update(matrix=mat, records=(proof,))
    return unit


def exp_observable(obs: Observable, tol: float = DEFAULT_TOL) -> UnitaryOperator:
    """e^{iA} assembled from the spectrum: :func:`phase_superpose_projectors` of e^{i lambda_m}."""
    return phase_superpose_projectors(
        obs.projector_set(), PhaseVector.from_angles(obs.eigenvalues), tol
    )


def irm_povm(u, tol: float = DEFAULT_TOL) -> Povm:
    """Singleton POVM {U^dag U} of a reversible measurement: the POVM of {U}, which
    :func:`povm_from_operators` forms and admits. Its lone element is the identity within
    tolerance, so every state produces the unique outcome with probability one."""
    return povm_from_operators(unitary_as_measurement(u, tol), tol)
