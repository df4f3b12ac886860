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
from .linalg import DEFAULT_TOL, _adjoint, as_matrix, freeze, within_tol
from .measurement import (
    MeasurementOperatorSet,
    Observable,
    Povm,
    ProjectorSet,
    _require_complete,
    _rounding_allowance,
    povm_from_operators,
)

UNIMODULAR_TOL = 1e-12  # ||alpha|^2 - 1| admitted for phase coefficients


@dataclass(frozen=True, eq=False)
class UnitaryOperator(linalg._Frozen):
    """Square matrix with U^dag U = U U^dag = I within tolerance, judged with ``residuals``
    ``unitarity_left`` ||U^dag U - I||_F and ``unitarity_right`` ||U U^dag - I||_F, formed as
    it is judged or, once a Gram bound proved it unitary, on first read."""

    matrix: np.ndarray
    tol: InitVar[float] = DEFAULT_TOL

    def __post_init__(self, tol: float):
        self._judge(freeze(as_matrix(self.matrix)), tol)

    def _judge(self, mat: np.ndarray, tol: float, proved: bool = False) -> "UnitaryOperator":
        vars(self)["matrix"] = mat  # a frozen as_matrix array; judged unless ``proved`` unitary
        if not proved:
            vars(self)["residuals"] = linalg._require_unitary(mat, tol)
        return self

    @cached_property
    def residuals(self) -> dict[str, float]:  # of a proved unitary, by the judge's expressions
        return linalg._unitarity_residuals(self.matrix)

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
        if worst > UNIMODULAR_TOL:
            raise PhaseNotUnimodular(f"phases deviate from the unit circle by {worst:.3e}",
                                     {"unimodularity_max": worst})
        vars(self).update(phases=freeze(arr), unimodularity_max=worst)
        return self

    @classmethod
    def from_angles(cls, angles) -> "PhaseVector":
        """Map real angles lambda_m to e^{i lambda_m}, judged as formed."""
        return object.__new__(cls)._judge(np.exp(1j * np.array(angles, dtype=float).reshape(-1)))

    def __len__(self) -> int:
        return len(self.phases)


def unitary_as_measurement(u, tol: float = DEFAULT_TOL) -> MeasurementOperatorSet:
    """Read a unitary as the singleton measurement collection {U}.

    The set is complete by unitarity (its completeness residual is ``unitarity_left``, bit for
    bit), every state yields the unique outcome with probability one, and the post-state is U|psi>.
    """
    unit = _as_unitary(u, tol)
    opset = object.__new__(MeasurementOperatorSet)._hold("operators", unit.matrix[None])
    vars(opset)["completeness_residual"] = unit.residuals["unitarity_left"]
    return opset


@np.errstate(over="ignore", invalid="ignore")
def _require_superposable(opset: MeasurementOperatorSet, tol: float) -> tuple[float, bool]:
    """(a, banded): raise ``OrthogonalityViolation`` (naming a and the worst pair) unless
    a = sum_{i != j} ||M_i^dag M_j||_F (+ c, the completeness residual, if it passes) passes
    ``tol`` against sqrt(n), then unless c passes; ``banded`` if a + eps_n (n + sqrt(n) a) fails."""
    pairs = linalg.orthogonality_residuals(_adjoint(opset._stack), opset._stack)
    np.fill_diagonal(pairs, 0.0)  # ||M_i^dag M_i - M_i^dag||_F is no pair
    scale, c = math.sqrt(n := opset.dim), opset.completeness_residual
    aggregate = float(pairs.sum()) + (c if within_tol(c, tol, scale) else 0.0)
    if not within_tol(aggregate, tol, scale):
        i, j = np.unravel_index(np.argmax(pairs), pairs.shape)  # a NaN pair first
        raise OrthogonalityViolation(f"operators are not orthogonal within {tol:g}: aggregate "
                                     f"{aggregate:.3e} exceeds {tol * scale:.3e} (worst pair ({i}, {j}), "
                                     f"residual {pairs[i, j]:.3e})", {"orthogonality": aggregate})
    _require_complete(opset, tol)
    bound = aggregate + _rounding_allowance(n) * (n + scale * aggregate)
    return aggregate, not within_tol(bound, tol, scale)


def superpose_operators(opset: MeasurementOperatorSet, phases: PhaseVector,
                        tol: float = DEFAULT_TOL) -> UnitaryOperator:
    """The unitary M = sum_m alpha_m M_m of a complete family with M_i^dag M_j = 0 (i != j).

    Preconditions are enforced hard: one phase per operator, then the aggregate a of
    :func:`_require_superposable`, then completeness. M^dag M - I = (sum_m M_m^dag M_m - I) +
    sum_{i != j} conj(alpha_i) alpha_j M_i^dag M_j, so ||M^dag M - I||_F <= a for every phase
    vector; M M^dag - I has the same singular values (M is square), and the mean over the phases
    of conj(alpha_i) alpha_j (M M^dag - I) is M_i M_j^dag, so ||M_i M_j^dag||_F <= a: the right
    pairs are implied. eps_n (n + sqrt(n) a) bounds the rounding of the sum's unitarity judge,
    which still runs: when a passed by less than that, its failure is raised as the violation.
    """
    linalg._require_same_dims(phases=len(phases), operators=len(opset))
    aggregate, banded = _require_superposable(opset, tol)
    try:
        return object.__new__(UnitaryOperator)._judge(freeze(opset._phase_sum(phases.phases)), tol)
    except NotUnitary as exc:
        if not banded:  # a failure a does not explain: the phases are off the unit circle
            raise
        raise OrthogonalityViolation(
            f"operators are not orthogonal within {tol:g}: aggregate {aggregate:.3e} passes by less "
            f"than the rounding of their sum, which failed: {exc}",
            {"orthogonality": aggregate, **exc.residuals}) from exc


def phase_superpose_projectors(pset: ProjectorSet, phases: PhaseVector,
                               tol: float = DEFAULT_TOL) -> UnitaryOperator:
    """Unitary P_hat = sum_m alpha_m P_m over a complete orthogonal
    projector set; diagonal in the eigenbasis of the generating observable.
    When the set's Gram bound proves P_hat unitary, its ``residuals`` are formed on first read."""
    linalg._require_same_dims(phases=len(phases), projectors=len(pset))
    proved = pset._proves_mirror(phases, tol)  # else P_hat is judged
    return object.__new__(UnitaryOperator)._judge(freeze(pset._phase_sum(phases.phases)), tol, proved)


def exp_observable(obs: Observable, tol: float = DEFAULT_TOL) -> UnitaryOperator:
    """e^{iA} assembled from the spectrum: sum_m e^{i lambda_m} P_m, its ``residuals`` formed
    on first read when the Gram bound of :func:`phase_superpose_projectors` proves it unitary."""
    return phase_superpose_projectors(
        obs.projector_set(), PhaseVector.from_angles(obs.eigenvalues), tol
    )


def irm_povm(u, tol: float = DEFAULT_TOL) -> Povm:
    """Singleton POVM {U^dag U} of a reversible measurement: the POVM of {U}, which
    :func:`povm_from_operators` forms and admits.

    The lone element equals the identity (within tolerance), so every state produces the unique
    outcome with probability one. Its completeness residual is ``unitarity_left``, bit for bit.
    """
    return povm_from_operators(unitary_as_measurement(u, tol), tol)
