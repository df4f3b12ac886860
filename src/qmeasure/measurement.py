"""Measurement postulates: operator collections, Born-rule probabilities,
post-measurement states, POVMs, and seeded outcome sampling.

A generalized measurement is a collection {M_m} of operators resolving the
identity through sum_m M_m^dag M_m = I. Outcome m occurs with probability
p(m) = <psi| M_m^dag M_m |psi> and leaves the system in M_m|psi>/sqrt(p(m)).
Projective measurements (Hermitian, orthogonal, idempotent operators) and
POVMs (E_m = M_m^dag M_m) are the two classical special views.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    IncompleteSet,
    InvalidProjectorSet,
    NotHermitian,
    UnknownOutcome,
    ZeroProbabilityOutcome,
)
from .linalg import DEFAULT_TOL, adjoint, as_matrix, as_vector, freeze, identity

NORM_TOL = 1e-12  # |<psi|psi> - 1| admitted by the strict state constructor
PROB_FLOOR = 1e-12  # outcomes below this probability are unrealizable
PSD_FLOOR = -1e-10  # smallest eigenvalue tolerated as "positive"
TRACE_TOL = 1e-10  # |tr(rho) - 1| admitted by DensityMatrix
IMAG_TOL = 1e-10  # largest imaginary residue tolerated in a probability
CLUSTER_TOL = 1e-8  # eigenvalues closer than this share one eigenspace


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Normalized state vector |psi> in C^dim.

    Strict by default: amplitudes must already have unit norm within 1e-12.
    Pass ``normalize=True`` to rescale arbitrary nonzero input instead.
    """

    amplitudes: np.ndarray
    normalize: InitVar[bool] = False

    def __post_init__(self, normalize: bool):
        amps = as_vector(self.amplitudes)
        scale, norm = linalg.vector_norm(amps)
        if scale == 0.0:
            raise ValueError("state vector must be nonzero")
        if normalize:
            if scale != 1.0:
                amps = amps / scale
            amps = amps / norm
        elif abs(scale * norm - 1.0) > NORM_TOL:
            raise ValueError(
                f"state vector norm {scale * norm!r} differs from 1 by more than "
                f"{NORM_TOL:g}; pass normalize=True to rescale"
            )
        object.__setattr__(self, "amplitudes", freeze(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def inner(self, other: "QuantumState") -> complex:
        """<self|other>."""
        if self.dim != other.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def density_matrix(self) -> "DensityMatrix":
        """|psi><psi|."""
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


def fidelity(a: QuantumState, b: QuantumState) -> float:
    """|<a|b>|; 1 iff the states coincide up to global phase."""
    return abs(a.inner(b))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix rho."""

    matrix: np.ndarray
    tol: InitVar[float] = DEFAULT_TOL

    def __post_init__(self, tol: float):
        mat = as_matrix(self.matrix)
        if mat.shape[0] != mat.shape[1]:
            raise DimensionMismatch(f"density matrix must be square, got {mat.shape}")
        if not linalg.within_tol(linalg.hermiticity_residual(mat), tol, mat):
            raise NotHermitian("density matrix is not Hermitian within tolerance")
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {trace!r} is not 1")
        lowest = linalg.lowest_eigenvalue(mat)
        if lowest < PSD_FLOOR:
            raise ValueError(
                f"density matrix has negative eigenvalue {lowest:.3e}"
            )
        object.__setattr__(self, "matrix", freeze(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_state(cls, psi: QuantumState) -> "DensityMatrix":
        return psi.density_matrix()


def _coerce_square_family(mats, what: str) -> tuple[tuple[np.ndarray, ...], int]:
    arrays = tuple(as_matrix(m) for m in mats)
    if not arrays:
        raise ValueError(f"{what} needs at least one operator")
    dim = arrays[0].shape[0]
    for k, m in enumerate(arrays):
        if m.shape != (dim, dim):
            raise DimensionMismatch(
                f"{what} operator {k} has shape {m.shape}, expected ({dim}, {dim})"
            )
    return tuple(freeze(m) for m in arrays), dim


@dataclass(frozen=True, eq=False)
class MeasurementOperatorSet:
    """Collection {M_m} of same-dimension square operators.

    Labels are the dense indices 0..N-1 of ``operators``. Construction
    checks shapes and finiteness only; completeness is the separate gate
    :func:`validate_completeness`, and every measurement routine refuses a
    set whose completeness residual exceeds tolerance.
    """

    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops, _ = _coerce_square_family(self.operators, "measurement set")
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def __len__(self) -> int:
        return len(self.operators)

    @cached_property
    def completeness_residual(self) -> float:
        """||sum_m M_m^dag M_m - I||_F."""
        total = sum(adjoint(m) @ m for m in self.operators)
        return linalg.frobenius_distance(total, identity(self.dim))


@dataclass(frozen=True)
class CompletenessReport:
    passed: bool
    residual: float
    tol: float
    dim: int
    n_operators: int


def validate_completeness(opset: MeasurementOperatorSet,
                          tol: float = DEFAULT_TOL) -> CompletenessReport:
    """Check the identity resolution sum_m M_m^dag M_m = I."""
    residual = opset.completeness_residual
    passed = linalg.within_tol(residual, tol, identity(opset.dim))
    return CompletenessReport(
        passed=passed,
        residual=residual,
        tol=tol,
        dim=opset.dim,
        n_operators=len(opset),
    )


def _require_complete(opset: MeasurementOperatorSet, tol: float) -> None:
    if not validate_completeness(opset, tol).passed:
        raise IncompleteSet(
            f"operator set fails completeness (residual "
            f"{opset.completeness_residual:.3e}); it cannot be measured"
        )


def outcome_probabilities(opset: MeasurementOperatorSet, psi: QuantumState,
                          tol: float = DEFAULT_TOL) -> np.ndarray:
    """Born-rule probabilities p(m) = <psi| M_m^dag M_m |psi> = ||M_m psi||^2.

    Completeness of the set guarantees the returned values sum to 1.
    """
    if opset.dim != psi.dim:
        raise DimensionMismatch(f"set dim {opset.dim} vs state dim {psi.dim}")
    _require_complete(opset, tol)
    return np.array(
        [float(np.linalg.norm(m @ psi.amplitudes) ** 2) for m in opset.operators]
    )


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """One realized outcome: its label, probability, and post-state."""

    outcome: int
    probability: float
    post_state: QuantumState

    def __post_init__(self):
        p = self.probability
        if p < -1e-12 or p > 1.0 + 1e-12:
            raise ValueError(f"probability {p!r} is outside [0, 1]")
        object.__setattr__(self, "probability", min(1.0, max(0.0, p)))


def apply_outcome(opset: MeasurementOperatorSet, psi: QuantumState, m: int,
                  tol: float = DEFAULT_TOL) -> MeasurementRecord:
    """Realize outcome m: post-state M_m|psi>/sqrt(p(m)), renormalized."""
    if opset.dim != psi.dim:
        raise DimensionMismatch(f"set dim {opset.dim} vs state dim {psi.dim}")
    if not 0 <= m < len(opset):
        raise UnknownOutcome(f"outcome {m} not in 0..{len(opset) - 1}")
    _require_complete(opset, tol)
    mapped = opset.operators[m] @ psi.amplitudes
    p = float(np.linalg.norm(mapped) ** 2)
    if p <= PROB_FLOOR:
        raise ZeroProbabilityOutcome(
            f"outcome {m} has probability {p:.3e} <= {PROB_FLOOR:g}; "
            "its post-measurement state is undefined"
        )
    post = QuantumState(mapped / np.sqrt(p), normalize=True)
    return MeasurementRecord(outcome=m, probability=p, post_state=post)


def _inverse_cdf(probs: np.ndarray, draws: np.ndarray) -> np.ndarray:
    # Inverse CDF over outcomes in label order: smallest m with u < cum[m].
    cum = np.cumsum(np.clip(probs, 0.0, None))
    picks = np.searchsorted(cum, draws, side="right")
    return np.minimum(picks, len(probs) - 1)


def sample_measurement(opset: MeasurementOperatorSet, psi: QuantumState,
                       seed: int, tol: float = DEFAULT_TOL) -> MeasurementRecord:
    """Draw one outcome with an explicitly seeded PCG64 generator
    (numpy ``default_rng``); the same seed always yields the same outcome."""
    probs = outcome_probabilities(opset, psi, tol)
    rng = np.random.default_rng(seed)
    m = int(_inverse_cdf(probs, rng.random(1))[0])
    return apply_outcome(opset, psi, m, tol)


def sample_histogram(opset: MeasurementOperatorSet, psi: QuantumState,
                     shots: int, seed: int,
                     tol: float = DEFAULT_TOL) -> np.ndarray:
    """Outcome counts over ``shots`` draws from a single seeded PCG64 stream.

    Vectorized convenience over repeated :func:`sample_measurement`; used by
    the CLI histogram mode and frequency tests.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    probs = outcome_probabilities(opset, psi, tol)
    rng = np.random.default_rng(seed)
    picks = _inverse_cdf(probs, rng.random(shots))
    return np.bincount(picks, minlength=len(probs))


@dataclass(frozen=True, eq=False)
class ProjectorResiduals:
    """Every residual a projector set is judged on, each computed once, when
    first read. Each passes when at most ``tol`` times its scale:
    ``pair_scales`` for ``pairs``, max(1, ||P_k||_F) for hermiticity and
    max(1, ||I||_F) for completeness."""

    projectors: tuple[np.ndarray, ...]  # square, one dimension

    @cached_property
    def norms(self) -> np.ndarray:  # ||P_k||_F
        return np.array([np.linalg.norm(p) for p in self.projectors])

    @cached_property
    def hermiticity(self) -> np.ndarray:  # ||P_k - P_k^dag||_F
        return np.array([np.linalg.norm(p - p.conj().T) for p in self.projectors])

    @cached_property
    def pairs(self) -> np.ndarray:  # ||P_i P_j - delta_ij P_i||_F
        out = np.empty((len(self.projectors), len(self.projectors)))
        for i, pi in enumerate(self.projectors):
            for j, pj in enumerate(self.projectors):
                prod = pi @ pj
                if i == j:
                    prod -= pi
                out[i, j] = np.linalg.norm(prod)
        return out

    @cached_property
    def pair_scales(self) -> np.ndarray:  # max(1, ||P_i||_F ||P_j||_F)
        return np.maximum(1.0, np.outer(self.norms, self.norms))

    @cached_property
    def completeness(self) -> float:  # ||sum_k P_k - I||_F
        dim = self.projectors[0].shape[0]
        return float(np.linalg.norm(sum(self.projectors) - identity(dim)))

    def failure(self, tol: float) -> str | None:
        """The first violated requirement, in hermiticity, pair, completeness
        order, or None when the set passes at ``tol``; stops computing at
        the first failing group."""
        for k, resid in enumerate(self.hermiticity):
            if not resid <= tol * max(1.0, self.norms[k]):
                return f"projector {k} is not Hermitian (residual {resid:.3e})"
        bad = np.argwhere(~(self.pairs <= tol * self.pair_scales))
        if len(bad):
            i, j = (int(x) for x in bad[0])
            kind = "idempotence" if i == j else "orthogonality"
            return (f"projectors ({i}, {j}) violate {kind} "
                    f"(residual {self.pairs[i, j]:.3e})")
        dim = self.projectors[0].shape[0]
        if not self.completeness <= tol * max(1.0, math.sqrt(dim)):
            return (f"projectors do not sum to the identity "
                    f"(residual {self.completeness:.3e})")
        return None


@dataclass(frozen=True, eq=False)
class ProjectorSet:
    """Complete set of orthogonal projectors: each P_m Hermitian and
    idempotent, P_m P_m' = delta_mm' P_m, and sum_m P_m = I."""

    projectors: tuple[np.ndarray, ...]
    tol: InitVar[float] = DEFAULT_TOL

    def __post_init__(self, tol: float):
        projs, _ = _coerce_square_family(self.projectors, "projector set")
        failure = ProjectorResiduals(projs).failure(tol)
        if failure is not None:
            raise InvalidProjectorSet(failure)
        object.__setattr__(self, "projectors", projs)

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    def __len__(self) -> int:
        return len(self.projectors)

    def to_operator_set(self) -> MeasurementOperatorSet:
        return MeasurementOperatorSet(self.projectors)


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian operator with spectral data A = sum_m lambda_m P_m.

    ``spectrum`` pairs each distinct eigenvalue (ascending) with the
    projector onto its eigenspace; the projectors form a valid
    :class:`ProjectorSet`.
    """

    matrix: np.ndarray
    spectrum: tuple[tuple[float, np.ndarray], ...]
    tol: InitVar[float] = DEFAULT_TOL
    _projector_set: ProjectorSet = field(init=False, repr=False)

    def __post_init__(self, tol: float):
        mat = as_matrix(self.matrix)
        if not linalg.within_tol(linalg.hermiticity_residual(mat), tol, mat):
            raise NotHermitian("observable matrix is not Hermitian within tolerance")
        spectrum = tuple(
            (float(lam), freeze(as_matrix(p))) for lam, p in self.spectrum
        )
        if not spectrum:
            raise ValueError("observable needs a nonempty spectrum")
        recon = sum(lam * p for lam, p in spectrum)
        resid = linalg.frobenius_distance(mat, recon)
        if not linalg.within_tol(resid, tol, mat):
            raise ValueError(
                f"spectrum does not reconstruct the observable "
                f"(residual {resid:.3e})"
            )
        pset = ProjectorSet(tuple(p for _, p in spectrum), tol=tol)
        object.__setattr__(self, "matrix", freeze(mat))
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "_projector_set", pset)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(lam for lam, _ in self.spectrum)

    def projector_set(self) -> ProjectorSet:
        """The eigenspace projectors, as validated at construction."""
        return self._projector_set


def spectral_decompose(a, tol: float = DEFAULT_TOL,
                       cluster_tol: float = CLUSTER_TOL) -> Observable:
    """Spectral decomposition of a Hermitian matrix into eigenspaces.

    The eigenpairs come from :func:`linalg.hermitian_eig` (LAPACK ``eigh``).
    Eigenvalues whose consecutive gap is at most ``cluster_tol`` are merged
    into one eigenspace, valued at their mean, whose projector is V V^dag
    over the clustered eigenvectors V, so a fully degenerate spectrum yields
    a single projector (the identity when all eigenvalues agree).
    """
    a = as_matrix(a)
    pairs = linalg.hermitian_eig(a, tol)
    vals = np.array([lam for lam, _ in pairs])
    vecs = np.column_stack([vec for _, vec in pairs])
    groups = np.split(np.arange(len(vals)), np.flatnonzero(np.diff(vals) > cluster_tol) + 1)
    spectrum = tuple(
        (float(np.mean(vals[g])), vecs[:, g] @ vecs[:, g].conj().T) for g in groups
    )
    return Observable(matrix=a, spectrum=spectrum, tol=tol)


@dataclass(frozen=True, eq=False)
class Povm:
    """Positive operators {E_m} partitioning the identity: sum_m E_m = I."""

    elements: tuple[np.ndarray, ...]
    tol: InitVar[float] = DEFAULT_TOL

    def __post_init__(self, tol: float):
        elems, dim = _coerce_square_family(self.elements, "POVM")
        for k, e in enumerate(elems):
            resid = linalg.hermiticity_residual(e)
            if not linalg.within_tol(resid, tol, e):
                raise NotHermitian(
                    f"POVM element {k} is not Hermitian (residual {resid:.3e})"
                )
            lowest = linalg.lowest_eigenvalue(e)
            if lowest < PSD_FLOOR:
                raise ValueError(
                    f"POVM element {k} has negative eigenvalue {lowest:.3e}"
                )
        total = sum(elems)
        resid = linalg.frobenius_distance(total, identity(dim))
        if not linalg.within_tol(resid, tol, identity(dim)):
            raise IncompleteSet(
                f"POVM elements do not sum to the identity (residual {resid:.3e})"
            )
        object.__setattr__(self, "elements", elems)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def __len__(self) -> int:
        return len(self.elements)


def povm_from_operators(opset: MeasurementOperatorSet,
                        tol: float = DEFAULT_TOL) -> Povm:
    """POVM elements E_m = M_m^dag M_m of a complete measurement set."""
    _require_complete(opset, tol)
    return Povm(tuple(adjoint(m) @ m for m in opset.operators), tol=tol)


def povm_probabilities(povm: Povm, rho: DensityMatrix,
                       tol: float = DEFAULT_TOL) -> np.ndarray:
    """Outcome statistics p(m) = tr(E_m rho)."""
    if povm.dim != rho.dim:
        raise DimensionMismatch(f"POVM dim {povm.dim} vs state dim {rho.dim}")
    probs = []
    for k, e in enumerate(povm.elements):
        val = complex(np.trace(e @ rho.matrix))
        if abs(val.imag) > IMAG_TOL:
            raise ValueError(
                f"tr(E_{k} rho) has imaginary residue {val.imag:.3e}"
            )
        probs.append(val.real)
    return np.array(probs)


class MeasurementKind(Enum):
    PROJECTIVE = "PROJECTIVE"
    UNITARY_SINGLETON = "UNITARY_SINGLETON"
    GENERAL = "GENERAL"


def classify_measurement(opset: MeasurementOperatorSet,
                         tol: float = DEFAULT_TOL) -> MeasurementKind:
    """PROJECTIVE when the operators form a projector set; UNITARY_SINGLETON
    for a lone unitary; GENERAL otherwise. A singleton {I} satisfies both
    special cases and is reported as PROJECTIVE, the stricter one."""
    _require_complete(opset, tol)
    try:
        ProjectorSet(opset.operators, tol=tol)
        return MeasurementKind.PROJECTIVE
    except InvalidProjectorSet:
        pass
    if len(opset) == 1:
        left, right = linalg.unitarity_residuals(opset.operators[0])
        eye_scale = linalg.scale_of(identity(opset.dim))
        if left <= tol * eye_scale and right <= tol * eye_scale:
            return MeasurementKind.UNITARY_SINGLETON
    return MeasurementKind.GENERAL
