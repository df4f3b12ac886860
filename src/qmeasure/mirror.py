"""Mirror measurements and the compute/uncompute truth protocol.

A mirror measurement is a unitary that commutes with a complete orthogonal
projector set and therefore preserves that set's outcome probabilities:
when [U, P_m] = 0, p'(m) = <psi|U^dag P_m U|psi> = <psi|P_m|psi> = p(m).
The truth protocol certifies reversibility directly: apply U, undo with
U^dag, and confirm the initial state returns while the singleton POVM
element U^dag U stays the identity.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import gates, linalg
from .errors import NotMirror
from .linalg import DEFAULT_TOL, _adjoint
from .measurement import Povm, ProjectorSet, QuantumState, fidelity, povm_probabilities
from .reversible import PhaseVector, UnitaryOperator, _as_unitary, irm_povm, phase_superpose_projectors

BELL_LABELS = gates.BELL_LABELS
BELL_STATES = tuple(QuantumState(vec) for vec in gates.BELL_VECTORS)

# Two-element grouping used for the external view of a Bell state: the
# parity pairing separates phi-type from psi-type states. Any complete
# two-element grouping would make the same two-versus-one point; this one
# is fixed so reports and tests are deterministic.
BELL_GROUPING_NOTE = "parity grouping: E_0 = P_00 + P_11, E_1 = P_01 + P_10"


def computational_projector_set(dim: int) -> ProjectorSet:
    """Projectors |k><k| onto the computational basis of C^dim."""
    return ProjectorSet(tuple(gates.computational_projectors(dim)))


_computational_set = functools.cache(computational_projector_set)  # immutable, so shared


@dataclass(frozen=True, eq=False)
class MirrorUnitary:
    """Unitary certified to commute with its reference projector set; its ``commutation_residuals``
    ||[U, P_m]||_F are formed on first read over its projectors, as :func:`is_mirror` forms them."""

    unitary: UnitaryOperator
    reference_projectors: ProjectorSet

    @functools.cached_property
    def commutation_residuals(self) -> tuple[float, ...]:
        return self.reference_projectors._commutator_norms(self.unitary.matrix)

    @property
    def dim(self) -> int:
        return self.unitary.dim

    @property
    def worst_residual(self) -> float:
        return max(self.commutation_residuals)

    @property
    def residuals(self) -> dict[str, float]:
        """``commutator_m`` ||[U, P_m]||_F for each m, then ``commutation_max``."""
        out = {f"commutator_{m}": r for m, r in enumerate(self.commutation_residuals)}
        out["commutation_max"] = self.worst_residual
        return out


def is_mirror(u, pset: ProjectorSet, tol: float = DEFAULT_TOL) -> MirrorUnitary:
    """Certify a unitary as a mirror for ``pset``.

    Accepts iff every commutator residual ||[U, P_m]||_F, formed as a new
    :class:`MirrorUnitary` reads its ``commutation_residuals``, is within
    tolerance against sqrt(n), returning that mirror; otherwise raises
    ``NotMirror`` naming the worst projector, with the same ``residuals``.
    """
    unit = _as_unitary(u, tol, projectors=pset.dim)
    mirror = MirrorUnitary(unit, pset)  # returned only if judged
    worst = int(np.argmax(mirror.commutation_residuals))
    if not linalg.within_tol(mirror.commutation_residuals[worst], tol, math.sqrt(unit.dim)):
        raise NotMirror(f"commutator {worst} exceeds tolerance {tol:.17g}", mirror.residuals)
    return mirror


@dataclass(frozen=True, eq=False)
class PreservationReport:
    """Projective probabilities before and after a unitary; ``passed`` iff
    ``max_deviation`` is within the tol of the call that made the report."""

    probabilities_before: tuple[float, ...]
    probabilities_after: tuple[float, ...]
    max_deviation: float
    passed: bool


def verify_probability_preservation(u, pset: ProjectorSet, psi: QuantumState,
                                    tol: float = DEFAULT_TOL) -> PreservationReport:
    """State-level check that U preserves the probabilities of ``pset``.

    Computes p(m) = <psi|P_m|psi> and p'(m) = <U psi|P_m|U psi> (from the factor of a spectral
    set) and reports the largest |p'(m) - p(m)|, which ``passed`` judges at ``tol`` (scale 1);
    it never raises on large deviations. Each, <psi|U^dag [P_m, U]|psi>, is at most ||[U, P_m]||_F:
    tol * sqrt(n), not ``tol``, for a mirror :func:`is_mirror` certifies at ``tol``, so its report
    can still fail; 2 (1 + g) sqrt(1 + delta) g plus rounding for a spectral mirror
    :func:`extend_mirror` proves (about 4.5e-12 at n = 32 for the g of ``eigh``, against 1e-10).
    """
    unit = _as_unitary(u, tol, projectors=pset.dim, state=psi.dim)
    states = np.empty((psi.dim, 2), complex)  # column 0 psi, column 1 U psi
    states[:, 0], states[:, 1] = psi.amplitudes, unit.matrix @ psi.amplitudes
    before, after = pset._expectations(states)  # p(m) and p'(m)
    deviation = float(np.abs(after - before).max())
    return PreservationReport(
        probabilities_before=tuple(before.tolist()),
        probabilities_after=tuple(after.tolist()),
        max_deviation=deviation,
        passed=linalg.within_tol(deviation, tol),
    )


def build_qubit_mirror(theta: float, alpha: complex,
                       tol: float = DEFAULT_TOL) -> MirrorUnitary:
    """Diagonal qubit mirror e^{i theta} (alpha P_0 + conj(alpha) P_1).

    Its phases e^{i theta} alpha and e^{i theta} conj(alpha) must pass
    :class:`PhaseVector`; theta is a global phase with no effect on
    probabilities. Built and certified by :func:`extend_mirror` over the
    computational projectors.
    """
    alpha = complex(alpha)
    front = cmath.exp(1j * float(theta))
    return extend_mirror(PhaseVector([front * alpha, front * alpha.conjugate()]),
                         _computational_set(2), tol)


def extend_mirror(phases: PhaseVector, pset: ProjectorSet,
                  tol: float = DEFAULT_TOL) -> MirrorUnitary:
    """Mirror from unimodular phases over any complete projector set.

    Builds U = sum_m alpha_m P_m, which commutes with each P_m by construction. When a spectral
    set's Gram residual proves U a mirror at ``tol`` (``_Family._proves_mirror``), U is returned
    unjudged, its ``residuals`` unformed; otherwise :func:`is_mirror` certifies it, which can only
    fail (``NotMirror``) on numerically broken input.
    """
    unit = phase_superpose_projectors(pset, phases, tol)
    return MirrorUnitary(unit, pset) if "residuals" not in vars(unit) else is_mirror(unit, pset, tol)


@dataclass(frozen=True, eq=False)
class BellComparisonReport:
    """External two-element view of a Bell state beside the internal
    single-observable view of a mirror acting on it; ``passed`` iff the
    internal probability is within tol of 1 and ``preservation`` passed."""

    bell_index: int
    bell_label: str
    grouping: str
    external_probabilities: tuple[float, float]
    external_sum_residual: float
    internal_probability: float
    internal_identity_residual: float
    preservation: PreservationReport
    passed: bool

    @property
    def residuals(self) -> dict[str, float]:
        """The external sum, internal probability, internal identity and ``preservation_max``."""
        return {"external_sum_residual": self.external_sum_residual,
                "internal_probability": self.internal_probability,
                "internal_identity_residual": self.internal_identity_residual,
                "preservation_max": self.preservation.max_deviation}


@functools.cache
def _bell_references() -> tuple:
    """Built once per process for every :func:`bell_comparison`: ||E_0 + E_1 - I||_F
    of the parity POVM, and each Bell state's density matrix and (p(E_0), p(E_1)),
    all immutable. That POVM is judged once, at ``DEFAULT_TOL``; its residuals are exactly 0, so
    it passes at any finite tol >= 0, which ``is_mirror`` requires of every call that gets here."""
    p = _computational_set(4).projectors
    parity = Povm((p[0] + p[3], p[1] + p[2]))
    rhos = tuple(bell.density_matrix() for bell in BELL_STATES)
    externals = tuple(tuple(povm_probabilities(parity, rho).tolist()) for rho in rhos)
    return parity.residuals["completeness"], rhos, externals


def bell_comparison(bell_index: int, mirror,
                    tol: float = DEFAULT_TOL) -> BellComparisonReport:
    """Compare the external and internal measurement views of a Bell state.

    External: the two-element POVM {E_0, E_1} from the parity grouping of
    the computational projectors, with its probability pair. Internal: the
    singleton POVM {U^dag U} of the mirror, probability one. The report
    also carries the before/after preservation check over the four
    computational outcomes.

    ``mirror`` may be a certified :class:`MirrorUnitary` or any unitary;
    either way :func:`is_mirror` (re)checks it against the computational projectors and
    raises its ``NotMirror``, with its residuals, when it fails to commute.
    """
    if not 0 <= bell_index <= 3:
        raise ValueError(f"bell_index must be 0..3, got {bell_index}")
    unit = _as_unitary(mirror.unitary if isinstance(mirror, MirrorUnitary) else mirror, tol,
                       "mirror", bell_state=4)
    comp = _computational_set(4)
    is_mirror(unit, comp, tol)
    sum_residual, rhos, externals = _bell_references()
    internal = float(povm_probabilities(irm_povm(unit, tol), rhos[bell_index])[0])
    preservation = verify_probability_preservation(unit, comp, BELL_STATES[bell_index], tol)
    return BellComparisonReport(
        bell_index=bell_index,
        bell_label=BELL_LABELS[bell_index],
        grouping=BELL_GROUPING_NOTE,
        external_probabilities=externals[bell_index],
        external_sum_residual=sum_residual,
        internal_probability=internal,
        internal_identity_residual=unit.residuals["unitarity_left"],
        preservation=preservation,
        passed=linalg.within_tol(abs(internal - 1.0), tol) and preservation.passed,
    )


@dataclass(frozen=True, eq=False)
class TruthProtocolTranscript:
    """Record of one compute/uncompute round trip; ``passed`` iff the
    fidelity deficit 1 - fidelity is within the tol of the call."""

    computed: QuantumState
    restored: QuantumState
    fidelity: float
    identity_residual: float
    passed: bool

    @property
    def residuals(self) -> dict[str, float]:
        """``fidelity``, ``fidelity_deficit`` max(0, 1 - fidelity) and ``identity_residual``."""
        return {"fidelity": self.fidelity, "fidelity_deficit": max(0.0, 1.0 - self.fidelity),
                "identity_residual": self.identity_residual}


def truth_protocol(u, psi: QuantumState,
                   tol: float = DEFAULT_TOL) -> TruthProtocolTranscript:
    """Run |psi> -> U|psi> -> U^{-1}U|psi> and certify the round trip.

    The inverse is taken as the adjoint (exact for unitaries). The
    transcript reports the return fidelity |<psi_initial|psi_restored>|,
    whose deficit it judges at ``tol`` (scale 1), and the residual of the
    lone POVM element U^dag U against the identity, judged when U was.
    """
    unit = _as_unitary(u, tol, state=psi.dim)
    computed = QuantumState(unit.matrix @ psi.amplitudes, normalize=True)
    restored = QuantumState(_adjoint(unit.matrix) @ computed.amplitudes, normalize=True)
    fid = fidelity(psi, restored)
    return TruthProtocolTranscript(
        computed=computed,
        restored=restored,
        fidelity=fid,
        identity_residual=unit.residuals["unitarity_left"],
        passed=linalg.within_tol(1.0 - fid, tol),
    )
