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
from dataclasses import dataclass, field

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


class _Verdict:  # a report its ``records`` decide: it passed iff each of them did
    passed = property(lambda self: all(r.passed for r in self.records))


@dataclass(frozen=True, eq=False)
class MirrorUnitary:
    """Unitary certified to commute with its reference projector set by its ``records`` (the
    ``commutation_max`` :func:`is_mirror` judged, or the Gram bound that proved it); its
    ``commutation_residuals`` ||[U, P_m]||_F are formed on first read, as :func:`is_mirror` forms them."""

    unitary: UnitaryOperator
    reference_projectors: ProjectorSet
    records: tuple = field(default=(), repr=False)

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
    """Certify a unitary as a mirror for ``pset``: the worst ``commutation_residuals``
    ||[U, P_m]||_F of a new :class:`MirrorUnitary` is judged against sqrt(n), which returns that
    mirror or raises ``NotMirror`` naming the worst projector, with the same ``residuals``."""
    unit = _as_unitary(u, tol, projectors=pset.dim)
    mirror = MirrorUnitary(unit, pset)  # returned only if judged
    worst = int(np.argmax(mirror.commutation_residuals))
    vars(mirror)["records"] = (linalg.judge("commutation_max", mirror.commutation_residuals[worst],
                                            tol, math.sqrt(unit.dim), n=unit.dim, where=(worst,)),)
    if not mirror.records[0].passed:
        raise NotMirror(f"commutator {worst} exceeds tolerance {tol:.17g}", mirror.records, mirror.residuals)
    return mirror


@dataclass(frozen=True, eq=False)
class PreservationReport(_Verdict):
    """Projective probabilities before and after a unitary; its one record judges their largest
    deviation, ``max_deviation`` (``preservation_max``), at the tol of the call that made it."""

    probabilities_before: tuple[float, ...]
    probabilities_after: tuple[float, ...]
    records: tuple[linalg.Judgement]

    @property
    def max_deviation(self) -> float:
        return self.records[0].residual


def verify_probability_preservation(u, pset: ProjectorSet, psi: QuantumState,
                                    tol: float = DEFAULT_TOL) -> PreservationReport:
    """State-level check that U preserves the probabilities of ``pset``.

    Computes p(m) = <psi|P_m|psi> and p'(m) = <U psi|P_m|U psi> (from the factor of a spectral
    set) and judges the largest |p'(m) - p(m)| at ``tol`` (scale 1); it never raises on large
    deviations. Each is at most ||[U, P_m]||_F, so a mirror :func:`is_mirror` certifies at ``tol``
    (against sqrt(n)) can still fail here (README, Tolerances).
    """
    unit = _as_unitary(u, tol, projectors=pset.dim, state=psi.dim)
    states = np.empty((psi.dim, 2), complex)  # column 0 psi, column 1 U psi
    states[:, 0], states[:, 1] = psi.amplitudes, unit.matrix @ psi.amplitudes
    before, after = pset._expectations(states)  # p(m) and p'(m)
    deviation = float(np.abs(after - before).max())
    return PreservationReport(tuple(before.tolist()), tuple(after.tolist()),
                              (linalg.judge("preservation_max", deviation, tol, n=psi.dim),))


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
    """Mirror from unimodular phases over any complete projector set: U = sum_m alpha_m P_m,
    which commutes with each P_m by construction. The proof of a spectral set's Gram residual
    (``_Family._proves_mirror``) is its record; otherwise :func:`is_mirror` certifies it."""
    unit = phase_superpose_projectors(pset, phases, tol)
    return MirrorUnitary(unit, pset, unit.records) if unit.records[0].proved else is_mirror(unit, pset, tol)


@dataclass(frozen=True, eq=False)
class BellComparisonReport(_Verdict):
    """External two-element view of a Bell state beside the internal
    single-observable view of a mirror acting on it; its records judge the
    internal probability's ``internal_deviation`` from 1 and then ``preservation``'s."""

    bell_index: int
    bell_label: str
    grouping: str
    external_probabilities: tuple[float, float]
    external_sum_residual: float
    internal_probability: float
    internal_identity_residual: float
    preservation: PreservationReport
    records: tuple[linalg.Judgement, linalg.Judgement]

    @property
    def residuals(self) -> dict[str, float]:
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

    External: the two-element POVM {E_0, E_1} from the parity grouping of the computational
    projectors, with its probability pair. Internal: the singleton POVM {U^dag U} of the mirror,
    probability one. The report also carries the preservation check over the four computational
    outcomes. ``mirror`` may be a certified :class:`MirrorUnitary` or any unitary; either way
    :func:`is_mirror` (re)checks it against the computational projectors, raising its ``NotMirror``.
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
        records=(linalg.judge("internal_deviation", abs(internal - 1.0), tol, n=4),
                 *preservation.records),
    )


@dataclass(frozen=True, eq=False)
class TruthProtocolTranscript(_Verdict):
    """Record of one compute/uncompute round trip; its one record judges the
    fidelity deficit max(0, 1 - fidelity) at the tol of the call."""

    computed: QuantumState
    restored: QuantumState
    fidelity: float
    identity_residual: float
    records: tuple[linalg.Judgement]

    @property
    def residuals(self) -> dict[str, float]:
        return {"fidelity": self.fidelity, **self.records[0].residuals,
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
        records=(linalg.judge("fidelity_deficit", max(0.0, 1.0 - fid), tol, n=psi.dim),),
    )
