"""Dense complex linear algebra primitives used by every other module.

All matrices and vectors are numpy ``complex128`` arrays. Matrices entering
the package go through :func:`as_matrix` and state vectors through
:func:`vector_norm`; both reject NaN/Inf so non-finite entries never reach
downstream algebra. Intended scale is dense desk-size problems (n <= 64).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NotHermitian

# Uniform tolerance policy: a residual passes when it is at most
# tol * max(1, Frobenius norm of the reference).
DEFAULT_TOL = 1e-10

_EXPM_TERM_EPS = 1e-16  # stop the Taylor series once a term drops below this
_EXPM_HALF_NORM = 0.5  # halve the input until its Frobenius norm is <= this


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array with finite entries."""
    arr = np.array(a, dtype=np.complex128, order="C")
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr


def as_vector(a) -> np.ndarray:
    """Coerce to a 1-D complex128 array; :func:`vector_norm` checks finiteness."""
    arr = np.array(a, dtype=np.complex128)
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    return arr


def freeze(arr: np.ndarray) -> np.ndarray:
    """Return a read-only copy; domain types store only frozen arrays."""
    out = arr.copy()
    out.setflags(write=False)
    return out


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def zeros(rows: int, cols: int | None = None) -> np.ndarray:
    return np.zeros((rows, rows if cols is None else cols), dtype=np.complex128)


def frobenius_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def scale_of(a) -> float:
    """Normalization factor for residual checks: max(1, ||a||_F)."""
    return max(1.0, frobenius_norm(a))


def within_tol(residual: float, tol: float, reference=None) -> bool:
    """Apply the uniform tolerance policy to a raw Frobenius residual."""
    scale = 1.0 if reference is None else scale_of(reference)
    return residual <= tol * scale


def _require_square(a: np.ndarray, what: str) -> None:
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{what} must be square, got {a.shape}")


def mat_mul(a, b) -> np.ndarray:
    """Complex matrix product a @ b."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatch(
            f"cannot multiply {a.shape[0]}x{a.shape[1]} by {b.shape[0]}x{b.shape[1]}"
        )
    return a @ b


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T.copy()


def frobenius_distance(a, b) -> float:
    """sqrt(sum |a_ij - b_ij|^2); zero iff the matrices are equal."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def commutator(a, b) -> np.ndarray:
    """a @ b - b @ a for square matrices of equal dimension."""
    a = as_matrix(a)
    b = as_matrix(b)
    _require_square(a, "commutator operand")
    _require_square(b, "commutator operand")
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    return a @ b - b @ a


def unitarity_residuals(u) -> tuple[float, float]:
    """Frobenius residuals (||U^dag U - I||, ||U U^dag - I||)."""
    u = as_matrix(u)
    _require_square(u, "unitarity check operand")
    eye = identity(u.shape[0])
    ud = u.conj().T
    return (
        float(np.linalg.norm(ud @ u - eye)),
        float(np.linalg.norm(u @ ud - eye)),
    )


def hermiticity_residual(a) -> float:
    """||a - a^dag||_F."""
    a = as_matrix(a)
    _require_square(a, "hermiticity check operand")
    return float(np.linalg.norm(a - a.conj().T))


def hermitian_eig(a, tol: float = DEFAULT_TOL) -> list[tuple[float, np.ndarray]]:
    """Eigendecomposition of a Hermitian matrix by LAPACK (``numpy.linalg.eigh``).

    The admissible asymmetry is averaged away before the solver sees the
    matrix. Returns ``[(eigenvalue, eigenvector), ...]`` with real
    eigenvalues in ascending order and an orthonormal set of eigenvectors.

    Raises ``NotHermitian`` when ``||a - a^dag|| > tol * max(1, ||a||)``.
    """
    a = as_matrix(a)
    _require_square(a, "hermitian_eig input")
    resid = hermiticity_residual(a)
    if resid > tol * scale_of(a):
        raise NotHermitian(
            f"matrix is not Hermitian within {tol:g} (residual {resid:.3e})"
        )
    vals, vecs = np.linalg.eigh((a + a.conj().T) / 2.0)
    return [(float(vals[k]), vecs[:, k].copy()) for k in range(len(vals))]


def lowest_eigenvalue(a: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of a square matrix."""
    return float(np.linalg.eigvalsh((a + a.conj().T) / 2.0)[0])


def vector_norm(v: np.ndarray) -> tuple[float, float]:
    """2-norm of a complex vector as ``(scale, norm)``, ``||v|| = scale * norm``.

    A finite positive plain norm (which proves every entry finite) comes back
    with scale 1. Only when it overflows to inf or underflows to 0 is ``v``
    divided by its largest real or imaginary part first. Scale 0 means ``v``
    is zero; non-finite entries raise ``ValueError``.
    """
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if 0.0 < norm < math.inf:
        return 1.0, norm
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    peak = max(float(np.abs(v.real).max()), float(np.abs(v.imag).max()))
    if peak == 0.0:
        return 0.0, 0.0
    return peak, float(np.linalg.norm(v / peak))


def expm_oracle(a) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a truncated Taylor series.

    The input is halved until its Frobenius norm is at most 0.5, the series
    is summed until a term's norm falls below 1e-16, then the result is
    squared back up. For skew-Hermitian input the result is unitary to
    roundoff. Serves as the independent reference for spectral-form
    exponentials built elsewhere.
    """
    a = as_matrix(a)
    _require_square(a, "expm_oracle input")
    n = a.shape[0]
    nrm = frobenius_norm(a)
    squarings = 0
    if nrm > _EXPM_HALF_NORM:
        squarings = int(math.ceil(math.log2(nrm / _EXPM_HALF_NORM)))
    b = a / (2.0 ** squarings)
    total = identity(n)
    term = identity(n)
    k = 1
    while True:
        term = term @ b / k
        total = total + term
        if frobenius_norm(term) < _EXPM_TERM_EPS:
            break
        k += 1
        if k > 200:  # unreachable once ||b|| <= 0.5; guards misuse
            raise ConvergenceFailure("Taylor series for expm did not truncate")
    for _ in range(squarings):
        total = total @ total
    return total
