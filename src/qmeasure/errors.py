"""Exception types raised across the toolkit.

Every domain error derives from :class:`QmeasureError` so callers (and the
CLI) can distinguish semantic failures from genuine bugs.
"""


class QmeasureError(Exception):
    """Base class for all toolkit errors. A failed check's error carries ``records``: the
    ``linalg.Judgement`` of each check it judged, in report order, and ``residuals``: each
    residual by the name a report prints, the records' own unless the judged object it rejects
    prints more (all empty for a dimension mismatch, unknown outcome or parse error)."""

    def __init__(self, message: str = "", records: tuple = (), residuals: dict | None = None):
        super().__init__(message)
        self.records = records
        self.residuals = {r.quantity: r.residual for r in records} if residuals is None else residuals


class DimensionMismatch(QmeasureError):
    """Operands have incompatible shapes or dimensions."""


class NotHermitian(QmeasureError):
    """A matrix required to be Hermitian is not, within tolerance."""


class NotPositive(QmeasureError):
    """A matrix required to be positive semidefinite has an eigenvalue
    below the floor."""


class IncompleteSet(QmeasureError):
    """A measurement operator set does not resolve the identity."""


class ZeroProbabilityOutcome(QmeasureError):
    """Requested outcome has (numerically) zero probability; the
    post-measurement state is undefined."""


class UnknownOutcome(QmeasureError):
    """Outcome label is not part of the measurement set."""


class NotUnitary(QmeasureError):
    """A matrix required to be unitary is not, within tolerance."""


class OrthogonalityViolation(QmeasureError):
    """A family of measurement operators fails the orthogonality
    aggregate needed for superposition."""


class PhaseNotUnimodular(QmeasureError):
    """A phase coefficient does not lie on the unit circle."""


class InvalidProjectorSet(QmeasureError):
    """Projectors fail a pair requirement (idempotence or orthogonality), or an
    eigenbasis fails its Gram certificate and then the projector-set check."""


class NotMirror(QmeasureError):
    """A unitary does not commute with a projector set within tolerance."""


class ParseError(QmeasureError):
    """An input file is malformed or violates its schema."""
