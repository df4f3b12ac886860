"""Exception types raised across the toolkit.

Every domain error derives from :class:`QmeasureError` so callers (and the
CLI) can distinguish semantic failures from genuine bugs.
"""


class QmeasureError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(QmeasureError):
    """Operands have incompatible shapes or dimensions."""


class NotHermitian(QmeasureError):
    """A matrix required to be Hermitian is not, within tolerance."""


class IncompleteSet(QmeasureError):
    """A measurement operator set does not resolve the identity."""


class ZeroProbabilityOutcome(QmeasureError):
    """Requested outcome has (numerically) zero probability; the
    post-measurement state is undefined."""


class UnknownOutcome(QmeasureError):
    """Outcome label is not part of the measurement set."""


class NotUnitary(QmeasureError):
    """A matrix required to be unitary is not, within tolerance; carries the
    residuals (||U^dag U - I||_F, ||U U^dag - I||_F) it was judged on."""

    def __init__(self, tol: float, left: float, right: float):
        self.left = left
        self.right = right
        super().__init__(
            f"matrix is not unitary within {tol:g} "
            f"(residuals {left:.3e}, {right:.3e})"
        )


class OrthogonalityViolation(QmeasureError):
    """A pair of measurement operators violates the two-sided
    orthogonality condition needed for superposition."""

    def __init__(self, i: int, j: int, residual: float):
        self.i = i
        self.j = j
        self.residual = residual
        super().__init__(
            f"operators ({i}, {j}) are not two-sided orthogonal "
            f"(residual {residual:.3e})"
        )


class PhaseNotUnimodular(QmeasureError):
    """A phase coefficient does not lie on the unit circle."""


class InvalidProjectorSet(QmeasureError):
    """Matrices fail the projector-set requirements (hermiticity,
    orthogonality/idempotence, completeness)."""


class NotBellCompatible(QmeasureError):
    """Operator is not a mirror with respect to the two-qubit
    computational projectors."""


class ParseError(QmeasureError):
    """An input file is malformed or violates its schema."""
