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
from contextlib import suppress
from dataclasses import InitVar, dataclass, field, fields
from enum import Enum
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    IncompleteSet,
    InvalidProjectorSet,
    NotHermitian,
    NotPositive,
    NotUnitary,
    QmeasureError,
    UnknownOutcome,
    ZeroProbabilityOutcome,
)
from .linalg import DEFAULT_TOL, _adjoint, _rounding_allowance, as_matrix, as_vector, freeze

NORM_TOL = 1e-12  # |<psi|psi> - 1| admitted by the strict state constructor
PROB_FLOOR = 1e-12  # outcomes below this probability are unrealizable


@dataclass(frozen=True, eq=False)
class QuantumState(linalg._Frozen):
    """Normalized state vector |psi> in C^dim.

    Strict by default: amplitudes must already have unit norm (``input_norm``, their norm
    as given) within 1e-12. Pass ``normalize=True`` to rescale arbitrary nonzero input instead.
    """

    amplitudes: np.ndarray
    normalize: InitVar[bool] = False
    input_norm: float = field(init=False, repr=False)

    def __post_init__(self, normalize: bool):
        amps = as_vector(self.amplitudes)
        scale, norm = linalg.vector_norm(amps)
        if scale == 0.0:
            raise ValueError("state vector must be nonzero")
        object.__setattr__(self, "input_norm", scale * norm)
        if normalize:  # amps is a copy of the input: divided in place
            if scale != 1.0:
                amps /= scale
            amps /= norm
        elif abs(self.input_norm - 1.0) > NORM_TOL:
            raise ValueError(
                f"state vector norm {self.input_norm!r} differs from 1 by more than "
                f"{NORM_TOL:g}; pass normalize=True to rescale"
            )
        object.__setattr__(self, "amplitudes", freeze(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def inner(self, other: "QuantumState") -> complex:
        """<self|other>."""
        linalg._require_same_dims(bra=self.dim, ket=other.dim)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def density_matrix(self) -> "DensityMatrix":
        """|psi><psi|."""
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


def fidelity(a: QuantumState, b: QuantumState) -> float:
    """|<a|b>|; 1 iff the states coincide up to global phase."""
    return abs(a.inner(b))


@dataclass(frozen=True, eq=False)
class DensityMatrix(linalg._Frozen):
    """Hermitian, unit-trace, positive-semidefinite matrix rho, judged at ``tol``: |tr rho - 1|
    against 1, hermiticity and the negated smallest eigenvalue against ||rho||_F."""

    matrix: np.ndarray
    tol: InitVar[float] = DEFAULT_TOL

    def __post_init__(self, tol: float):
        mat = as_matrix(self.matrix)
        _, scale = linalg._require_hermitian(mat, tol)
        trace = complex(np.trace(mat))
        if not (off := linalg.judge("trace", abs(trace - 1.0), tol, n=len(mat))).passed:
            raise QmeasureError(f"density matrix trace {trace!r} is not 1", (off,))
        lowest = float(linalg.lowest_eigenvalue(mat))
        if not (negativity := linalg.judge("negativity", -lowest, tol, scale, n=len(mat))).passed:
            raise NotPositive(f"density matrix has negative eigenvalue {lowest:.3e}",
                              (negativity,), {"min_eigenvalue": lowest})
        object.__setattr__(self, "matrix", freeze(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _coerce_square_family(mats, what: str) -> np.ndarray:
    """The family as one frozen C-ordered complex ``(N, n, n)`` stack, from
    one conversion (a generator is read once). The per-matrix ``as_matrix``
    walk runs only when that fails, to word the error as it always has."""
    mats = list(mats)
    with suppress(ValueError, TypeError, OverflowError):
        stack = np.array(mats, dtype=np.complex128)  # C-ordered: mats is a list
        if stack.ndim == 3 and 0 < stack.shape[1] == stack.shape[2] and np.isfinite(stack).all():
            return freeze(stack)
    arrays = tuple(as_matrix(m) for m in mats)
    if not arrays:
        raise ValueError(f"{what} needs at least one operator")
    dim = arrays[0].shape[0]
    for k, m in enumerate(arrays):
        if m.shape != (dim, dim):
            raise DimensionMismatch(
                f"{what} operator {k} has shape {m.shape}, expected ({dim}, {dim})"
            )
    return freeze(np.array(arrays))


class _Family:
    """A family held once, as the frozen ``(N, n, n)`` stack ``_stack``; its tuple holds views. A
    projector set or POVM judges itself (:meth:`_admit`) on residuals of that stack, each formed once,
    when first read; norms, from 128 KiB stacks, equal a per-matrix ``np.linalg.norm`` bit for bit."""

    _gram = math.inf  # a factored set's eigenvector Gram residual g; a dense family has none
    _element = "projector"  # how a failure names one operator

    def _hold(self, name: str, stack: np.ndarray):
        object.__setattr__(self, name, tuple(stack))
        object.__setattr__(self, "_stack", stack)
        return self

    @np.errstate(over="ignore", invalid="ignore")
    def _admit(self, tol: float):
        """Raise the first requirement the held stack fails, each condition its one class, or keep the
        ``records`` it passed: ``hermiticity`` against ||P_k||_F; for Hermitian operators only, the
        class's own :meth:`_leg`; then ``completeness`` against sqrt(n). Its stack is held uncopied."""
        n, what = self.dim, self._element
        records = (herm := linalg.judge("hermiticity", self._hermiticity, tol, self._norms, n=n),)
        if not herm.passed:
            raise NotHermitian(f"{what} {herm.where[0]} is not Hermitian ({herm.note})", records,
                               self._residuals())
        records = self._leg(tol, records)
        records += (complete := linalg.judge("completeness", self._completeness, tol, math.sqrt(n), n=n),)
        if not complete.passed:
            raise IncompleteSet(f"{what}s do not sum to the identity ({complete.note})", records,
                                self.residuals)
        vars(self)["records"] = records
        return self

    @cached_property
    def _norms_and_hermiticity(self) -> np.ndarray:  # the two rows, one frobenius_norms per tile
        return np.concatenate([linalg.frobenius_norms(np.concatenate((s, s - s.conj().swapaxes(1, 2))))
                               .reshape(2, -1) for _, s in linalg.stacks(self._stack)], axis=1)

    _norms = property(lambda self: self._norms_and_hermiticity[0])  # ||P_k||_F
    _hermiticity = property(lambda self: self._norms_and_hermiticity[1])  # ||P_k - P_k^dag||_F

    @cached_property
    def _pairs(self) -> np.ndarray:  # ||P_i P_j - delta_ij P_i||_F
        return linalg.orthogonality_residuals(self._stack, self._stack)

    @cached_property
    def _pair_scales(self) -> np.ndarray:  # max(1, ||P_i||_F ||P_j||_F)
        return np.maximum(1.0, np.outer(self._norms, self._norms))

    @cached_property
    def _completeness(self) -> float:  # ||sum_k P_k - I||_F
        return linalg._norm(sum(self._stack) - linalg._identity(self.dim))

    @cached_property
    def _lowest(self) -> np.ndarray:  # smallest eigenvalue of each P_k
        return np.concatenate([linalg.lowest_eigenvalue(s) for _, s in linalg.stacks(self._stack)])

    def _residuals(self, **leg: float) -> dict[str, float]:
        """What a report prints, in its order: ``hermiticity_max``, the ``leg`` of Hermitian
        operators (a projector set's ``orthogonality_max``), ``completeness``."""
        return {"hermiticity_max": float(np.max(self._hermiticity)), **leg,
                "completeness": self._completeness}

    def __getstate__(self) -> dict:  # pickle and deepcopy: the stack or a factor and its g, no cache
        return {k: v for k, v in vars(self).items() if k in ("_stack", "_factor", "_gram", "records")}

    def __setstate__(self, state: dict) -> None:  # arrays come back writable, views as copies
        vars(self).update({k: state[k] for k in ("_gram", "records") if k in state})
        if "_factor" in state:  # its stack stays unformed unless it came formed
            vars(self)["_factor"] = tuple(freeze(p) for p in state["_factor"])
        if "_stack" in state:
            self._hold(fields(self)[0].name, freeze(state["_stack"]))

    @property
    def dim(self) -> int:
        return self._stack.shape[1]

    def __len__(self) -> int:
        return len(self._stack)

    def _proves_mirror(self, phases, tol: float) -> linalg.Judgement:
        """The record of whether g proves each phase sum U = V D V^dag a unitary mirror of the set
        at ``tol``: (1 + g)(sqrt(n) delta + (2 + delta) g) + 5 eps_n sqrt(n), delta the phases'
        ``unimodularity_max``, bounds both unitarity residuals and every commutator (README)."""
        n, g, delta = self.dim, self._gram, phases.unimodularity_max
        bound = (1 + g) * (math.sqrt(n) * delta + (2 + delta) * g) + 5 * _rounding_allowance(n) * math.sqrt(n)
        return linalg.judge("mirror_bound", bound, tol, math.sqrt(n), n=n, proved=True)

    def _phase_sum(self, alphas: np.ndarray) -> np.ndarray:
        """sum_m alpha_m M_m, one ``np.tensordot`` per 128 KiB stack."""
        return sum(np.tensordot(alphas[lo:lo + len(s)], s, axes=1)
                   for lo, s in linalg.stacks(self._stack))

    def _commutator_norms(self, u: np.ndarray) -> tuple[float, ...]:
        """||[U, M_m]||_F for every operator, each ``np.linalg.norm`` bit for bit."""
        return tuple(np.concatenate([
            linalg.frobenius_norms(u @ s - s @ u) for _, s in linalg.stacks(self._stack)
        ]).tolist())

    def _expectations(self, states: np.ndarray) -> np.ndarray:
        """Re <s|M_m|s>, a row for each column s of ``states``, over every M_m: one product."""
        return (states.conj() * (self._stack @ states)).sum(axis=1).real.T


@dataclass(frozen=True, eq=False)
class MeasurementOperatorSet(_Family):
    """Collection {M_m} of same-dimension square operators.

    Labels are the dense indices 0..N-1 of ``operators``. Construction
    checks shapes and finiteness only; completeness is the separate gate
    :func:`validate_completeness`, and every measurement routine refuses a
    set whose completeness residual exceeds tolerance.
    """

    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        self._hold("operators", _coerce_square_family(self.operators, "measurement set"))

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def completeness_residual(self) -> float:
        """||sum_m M_m^dag M_m - I||_F, the products added in label order; inf if it overflows."""
        products = (p for _, tile in linalg.stacks(self._stack) for p in _adjoint(tile) @ tile)
        residual = linalg._norm(sum(products) - linalg._identity(self.dim))
        return math.inf if math.isnan(residual) else residual


def validate_completeness(opset: MeasurementOperatorSet,
                          tol: float = DEFAULT_TOL) -> linalg.Judgement:
    """The ``completeness`` record of the identity resolution sum_m M_m^dag M_m = I."""
    n = opset.dim
    return linalg.judge("completeness", opset.completeness_residual, tol, math.sqrt(n), n=n)


def _require_complete(opset: MeasurementOperatorSet, tol: float, complete=None) -> None:
    """Raise ``IncompleteSet`` unless the ``completeness`` record, judged here unless given, passed."""
    if not (complete := complete or validate_completeness(opset, tol)).passed:
        raise IncompleteSet(f"operator set fails completeness (residual {complete.residual:.3e}); "
                            "it cannot be measured", (complete,))


def outcome_probabilities(opset: MeasurementOperatorSet, psi: QuantumState,
                          tol: float = DEFAULT_TOL) -> np.ndarray:
    """Born-rule probabilities p(m) = <psi| M_m^dag M_m |psi> = ||M_m psi||^2.

    Completeness of the set guarantees the returned values sum to 1.
    """
    linalg._require_same_dims(set=opset.dim, state=psi.dim)
    _require_complete(opset, tol)
    mapped = (opset._stack @ psi.amplitudes)[:, None]  # one vector per operator: 1/n of the stack
    return np.array([norm ** 2 for norm in linalg.frobenius_norms(mapped).tolist()])  # libm pow


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """One realized outcome: its label, probability, and post-state."""

    outcome: int
    probability: float
    post_state: QuantumState


def apply_outcome(opset: MeasurementOperatorSet, psi: QuantumState, m: int,
                  tol: float = DEFAULT_TOL) -> MeasurementRecord:
    """Realize outcome m: post-state M_m|psi>/sqrt(p(m)), renormalized."""
    linalg._require_same_dims(set=opset.dim, state=psi.dim)
    if not 0 <= m < len(opset):
        raise UnknownOutcome(f"outcome {m} not in 0..{len(opset) - 1}")
    _require_complete(opset, tol)
    mapped = opset.operators[m] @ psi.amplitudes
    p = float(np.float64(linalg._norm(mapped)) ** 2)  # inf, not OverflowError, past the range
    if (zero := linalg.judge("probability", p, PROB_FLOOR, n=len(mapped))).passed:  # zero within it
        raise ZeroProbabilityOutcome(f"outcome {m} has probability {p:.3e} <= {PROB_FLOOR:g}; "
                                     "its post-measurement state is undefined", (zero,))
    post = QuantumState(mapped / math.sqrt(p), normalize=True)
    # completeness at tol admits p slightly above 1
    return MeasurementRecord(outcome=m, probability=min(p, 1.0), post_state=post)


def _histogram(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Counts of ``shots`` draws u of ``default_rng(seed)``: each is the smallest m with u < cum[m],
    cum the running sum of max(p, 0) in label order with its last entry inf (u past the total)."""
    cum = np.maximum(probs, 0.0).cumsum()
    cum[-1] = math.inf
    draws = np.random.default_rng(seed).random(shots)
    return np.bincount(cum.searchsorted(draws, side="right"), minlength=len(probs))


def sample_measurement(opset: MeasurementOperatorSet, psi: QuantumState,
                       seed: int, tol: float = DEFAULT_TOL) -> MeasurementRecord:
    """Draw one outcome with an explicitly seeded PCG64 generator
    (numpy ``default_rng``); the same seed always yields the same outcome."""
    counts = _histogram(outcome_probabilities(opset, psi, tol), 1, seed)
    return apply_outcome(opset, psi, int(np.argmax(counts)), tol)


def sample_histogram(opset: MeasurementOperatorSet, psi: QuantumState,
                     shots: int, seed: int,
                     tol: float = DEFAULT_TOL) -> np.ndarray:
    """Outcome counts over ``shots`` draws from a single seeded PCG64 stream, by the
    helper ``qmeasure measure --shots`` calls on the probabilities it has already judged."""
    if shots < 1:
        raise ValueError("shots must be positive")
    return _histogram(outcome_probabilities(opset, psi, tol), shots, seed)


@dataclass(frozen=True, eq=False)
class ProjectorSet(_Family):
    """Complete set of orthogonal projectors: each P_m Hermitian and
    idempotent, P_m P_m' = delta_mm' P_m, and sum_m P_m = I."""

    projectors: tuple[np.ndarray, ...]
    tol: InitVar[float] = DEFAULT_TOL

    def __post_init__(self, tol: float):
        self._hold("projectors", _coerce_square_family(self.projectors, "projector set"))._admit(tol)

    def _leg(self, tol: float, records: tuple) -> tuple:
        """``records`` and the ``pairs`` ||P_i P_j - delta_ij P_i||_F judged against
        max(1, ||P_i||_F ||P_j||_F), or the ``InvalidProjectorSet`` of the first that fails."""
        records += (leg := linalg.judge("pairs", self._pairs, tol, self._pair_scales, n=self.dim),)
        if not leg.passed:
            i, j = leg.where
            kind = "idempotence" if i == j else "orthogonality"
            raise InvalidProjectorSet(f"projectors ({i}, {j}) violate {kind} (residual {leg.residual:.3e})",
                                      records, self.residuals)
        return records

    @property
    def residuals(self) -> dict[str, float]:
        return self._residuals(orthogonality_max=float(np.max(self._pairs / self._pair_scales)))

    def to_operator_set(self) -> MeasurementOperatorSet:  # shares the frozen stack
        return object.__new__(MeasurementOperatorSet)._hold("operators", self._stack)


class _FactoredSet(ProjectorSet):
    """A spectral set held as its factor ``_factor`` = (V, labels) and its g, ``labels[k]`` the
    eigenspace of column k: its stack of P_m = V_m V_m^dag (which the commutators read) and the
    views ``projectors`` are formed on first read and kept (see :func:`spectral_decompose`)."""

    @property
    def dim(self) -> int:
        return len(self._factor[0])

    def __len__(self) -> int:
        return int(self._factor[1][-1]) + 1

    def __repr__(self) -> str:  # forms no stack
        return f"ProjectorSet({len(self)} eigenspace projectors of dim {self.dim})"

    @cached_property
    def _stack(self) -> np.ndarray:
        return _eigenspace_stack(*self._factor)

    @cached_property
    def projectors(self) -> tuple[np.ndarray, ...]:
        return tuple(self._stack)

    def _phase_sum(self, alphas: np.ndarray) -> np.ndarray:  # V diag(alpha[labels]) V^dag
        vecs, labels = self._factor
        return (vecs * alphas[labels]) @ vecs.conj().T

    def _expectations(self, states: np.ndarray) -> list[np.ndarray]:
        """Per column s, sum_{k in m} Re(s^dag V_k c_k) with c = V^dag s: c's rounding enters once."""
        vecs, labels = self._factor
        c = vecs.conj().T @ states
        return [np.bincount(labels, (s @ (vecs * cs)).real) for s, cs in zip(states.conj().T, c.T)]


@dataclass(frozen=True, eq=False)
class Observable(linalg._Frozen):
    """Hermitian operator with spectral data A = sum_m lambda_m P_m, as built
    by :func:`spectral_decompose`, its only producer.

    ``eigenvalues`` are the distinct eigenvalues, ascending, and ``spectrum``
    pairs each with the projector onto its eigenspace, formed when first read.
    Its ``records`` judge ``hermiticity`` ||A - A^dag||_F and ``reconstruction``
    ||A - sum_m lambda_m P_m||_F.
    """

    matrix: np.ndarray
    eigenvalues: tuple[float, ...]
    records: tuple[linalg.Judgement, linalg.Judgement] = field(repr=False)
    _projector_set: ProjectorSet = field(repr=False)

    @property
    def residuals(self) -> dict[str, float]:
        return {**{r.quantity: r.residual for r in self.records}, "n_eigenspaces": len(self.eigenvalues)}

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def spectrum(self) -> tuple[tuple[float, np.ndarray], ...]:
        return tuple(zip(self.eigenvalues, self._projector_set.projectors))

    def projector_set(self) -> ProjectorSet:
        """The eigenspace projectors, as certified by :func:`spectral_decompose`."""
        return self._projector_set


def _gram_threshold(n: int, tol: float) -> float:
    """tau = b / (1 + b) for b = tol - eps_n, so tau (1 + tau) <= b: a Gram residual g <= tau
    certifies n-dimensional projectors at ``tol`` (README). Negative for tol <= eps_n, NaN for an
    infinite or NaN tol, so that no g passes."""
    budget = tol - _rounding_allowance(n)
    return budget / (1.0 + budget)


def _eigenspace_columns(labels: np.ndarray):
    """For each eigenspace size, ``(slots, cols)``: the eigenspaces of that size, and row by
    row the columns of each (``labels[k]`` is the eigenspace of column k, ascending)."""
    sizes = np.bincount(labels)
    for size in set(sizes.tolist()):
        member = sizes == size  # as labels ascend, the columns of a member come in slot order
        yield member.nonzero()[0], member[labels].nonzero()[0].reshape(-1, size)


def _eigenspace_stack(vecs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The frozen stack of eigenspace projectors P_m = V_m V_m^dag, with the
    eigenspaces of one size gathered as one batch."""
    groups, n = list(_eigenspace_columns(labels)), len(vecs)
    stack = None if len(groups) == 1 else np.empty((labels[-1] + 1, n, n), complex)
    for slots, cols in groups:
        v = vecs[:, cols].transpose(1, 0, 2)
        if stack is None:  # one size: the batched product is the stack
            stack = v @ v.conj().transpose(0, 2, 1)
        else:  # each product in place: a scatter copy into the stack is slower
            for k, slot in enumerate(slots.tolist()):
                np.matmul(v[k], v[k].conj().T, out=stack[slot])
    return freeze(stack)


def spectral_decompose(a, tol: float = DEFAULT_TOL) -> Observable:
    """Spectral decomposition of a Hermitian matrix into eigenspaces (README, Tolerances).

    :func:`linalg.guarded_eigh` judges ||A - A^dag||_F and runs LAPACK ``eigh``. Neighbours at
    most eps_n ||A||_F apart share an eigenspace, valued at their mean, with projector
    P_g = V_g V_g^dag. ``reconstruction`` ||A - V diag(lambda[labels]) V^dag||_F, the set's own
    phase sum, is judged at ``tol`` against ||A||_F. The set is held as ``_factor`` = (V, labels)
    with its ``gram`` g = ||V^dag V - I||_F, which proves it at ``tol`` when within
    :func:`_gram_threshold`; a larger g leaves the projectors to the ``ProjectorSet`` check, and
    ``InvalidProjectorSet`` names g, the threshold and the failure. Both failures after the
    eigensolver carry the ``Observable``'s records and residuals.
    """
    a = as_matrix(a)
    vals, vecs, hermiticity, scale = linalg.guarded_eigh(a, tol)
    labels = np.zeros(n := len(vals), dtype=np.intp)  # the eigenspace of each column
    (vals[1:] - vals[:-1] > _rounding_allowance(n) * scale).cumsum(out=labels[1:])
    lams = np.empty(labels[-1] + 1)
    for slots, cols in _eigenspace_columns(labels):  # np.mean's sum and division, bit for bit
        lams[slots] = vals[cols].sum(axis=1) / cols.shape[1]
    gram = linalg._norm(vecs.conj().T @ vecs - linalg._identity(n))
    certificate = linalg.judge("gram", gram, _gram_threshold(n, tol), n=n, proved=True)
    pset = object.__new__(_FactoredSet)  # certified below
    vars(pset).update(_factor=(freeze(vecs), freeze(labels)), _gram=gram)
    recon = linalg.judge("reconstruction", linalg._norm(a - pset._phase_sum(lams)), tol, scale, n=n)
    obs = Observable(freeze(a), tuple(lams.tolist()), (hermiticity, recon), pset)  # returned if judged
    if not recon.passed:
        raise QmeasureError(f"spectrum does not reconstruct the observable ({recon.note})",
                            obs.records, obs.residuals)
    records = (certificate,)
    if not certificate.passed:
        try:
            records += pset._admit(tol).records
        except QmeasureError as failure:
            raise InvalidProjectorSet(f"eigenvector Gram residual {gram:.3e} exceeds its threshold "
                                      f"{certificate.threshold:.3e} at tol {tol:g}, and {failure}",
                                      (certificate, *failure.records), obs.residuals) from failure
    vars(pset)["records"] = records
    return obs


@dataclass(frozen=True, eq=False)
class Povm(_Family):
    """Positive operators {E_m} partitioning the identity: sum_m E_m = I."""

    elements: tuple[np.ndarray, ...]
    tol: InitVar[float] = DEFAULT_TOL
    _element = "POVM element"

    def __post_init__(self, tol: float):
        self._hold("elements", _coerce_square_family(self.elements, "POVM"))._admit(tol)

    def _leg(self, tol: float, records: tuple) -> tuple:
        """``records`` and the ``negativity`` -lambda_min(E_m) judged against ||E_m||_F, or the
        ``NotPositive`` of the first that fails."""
        records += (leg := linalg.judge("negativity", -self._lowest, tol, self._norms, n=self.dim),)
        if not leg.passed:
            raise NotPositive(f"POVM element {leg.where[0]} has negative eigenvalue {-leg.residual:.3e}",
                              records, self.residuals)
        return records

    @property
    def residuals(self) -> dict[str, float]:
        return {**self._residuals(), "min_eigenvalue": float(np.min(self._lowest))}


def povm_from_operators(opset: MeasurementOperatorSet,
                        tol: float = DEFAULT_TOL) -> Povm:
    """POVM elements E_m = M_m^dag M_m of a complete measurement set, the one site that admits
    products, formed tile by tile (128 KiB each) into one array.
    Each is Hermitian to 2k and >= -k, k = eps_n (n + sqrt(n) c), c the set's completeness
    residual (README): if 2k passes, that proof is its record, and none is judged again."""
    _require_complete(opset, tol)
    stack, n = opset._stack, opset.dim
    elems = np.empty_like(stack)
    for lo, tile in linalg.stacks(stack):
        np.matmul(_adjoint(tile), tile, out=elems[lo:lo + len(tile)])
    povm = object.__new__(Povm)._hold("elements", freeze(elems))
    bound = 2 * _rounding_allowance(n) * (n + math.sqrt(n) * opset.completeness_residual)
    if not (proof := linalg.judge("products", bound, tol, n=n, proved=True)).passed:
        return povm._admit(tol)
    vars(povm)["records"] = (proof,)
    return povm


def povm_probabilities(povm: Povm, rho: DensityMatrix) -> np.ndarray:
    """Outcome statistics p(m) = Re tr(E_m rho): tr(H K) is real for Hermitian H, K, so with h_E,
    h_rho the admitted hermiticity, |Im tr(E_m rho)| <= (h_E ||rho||_F + ||E_m||_F h_rho) / 2."""
    linalg._require_same_dims(povm=povm.dim, state=rho.dim)
    vals = np.concatenate([np.trace(s @ rho.matrix, axis1=1, axis2=2)  # tr(E_m rho), one per tile
                           for _, s in linalg.stacks(povm._stack)])
    return vals.real.copy()


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
    with suppress(QmeasureError):  # its stack, held uncopied, judged as a projector set
        object.__new__(ProjectorSet)._hold("projectors", opset._stack)._admit(tol)
        return MeasurementKind.PROJECTIVE
    if len(opset) == 1:
        with suppress(NotUnitary):
            linalg._require_unitary(opset.operators[0], tol)
            return MeasurementKind.UNITARY_SINGLETON
    return MeasurementKind.GENERAL
