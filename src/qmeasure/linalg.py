"""Dense complex linear algebra primitives used by every other module.

All matrices and vectors are numpy ``complex128`` arrays. A single matrix
entering the package goes through :func:`as_matrix`, an operator family
through one conversion into a frozen ``(N, n, n)`` stack (the per-matrix
``as_matrix`` walk only words its error), and state vectors through
:func:`vector_norm`; each rejects NaN/Inf so non-finite entries never reach
downstream algebra. Intended scale is dense desk-size problems (n <= 64).
"""

from __future__ import annotations

import functools
import math
from dataclasses import fields
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotUnitary

DEFAULT_TOL = 1e-10

_STACK_ENTRIES = 8192  # complex128 entries (128 KiB) in one stacked temporary
_identity = functools.cache(lambda n: freeze(np.eye(n, dtype=np.complex128)))  # read-only: shared


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
    """Mark ``arr`` read-only and return it; domain types store only frozen
    arrays. It does not copy, so pass only an array nothing else holds:
    every caller freezes one it has just made (``as_matrix``, ``as_vector``
    and ``np.array`` always copy their input), so no writable alias of a
    stored array is left."""
    arr.setflags(write=False)
    return arr


class _Frozen:
    """Base of the frozen domain dataclasses: pickle and deepcopy carry the fields (no cache)."""

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state: dict) -> None:  # the arrays come back writable: freeze them
        vars(self).update({k: freeze(v) if isinstance(v, np.ndarray) else v
                           for k, v in state.items()})


def _norm(a: np.ndarray) -> float:
    """``np.linalg.norm`` of a complex array, bit for bit, without its dispatch or an errstate."""
    flat = a.ravel(order="K")
    re, im = flat.real, flat.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def stack_size(n: int) -> int:
    """How many n x n complex matrices one stacked temporary holds: as many
    as fit in 128 KiB, and at least one."""
    return max(1, _STACK_ENTRIES // (n * n))


def stacks(mats):
    """Consecutive blocks ``(lo, stack)`` of a sequence of n x n matrices:
    ``stack`` is ``mats[lo:lo + len(stack)]`` as one array of at most
    ``stack_size(n)`` matrices, a view when ``mats`` is a stack."""
    size = stack_size(len(mats[0]))
    for lo in range(0, len(mats), size):
        yield lo, np.asarray(mats[lo:lo + size])


def frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each matrix in a complex ``(k, n, n)`` stack,
    bit for bit: sqrt(re.re + im.im) over the row-major real and imaginary
    parts, each dot product taken by the BLAS call ``np.linalg.norm`` makes.
    (``einsum`` sums in another order.) The stack is read in row-major
    order, which is the order ``np.linalg.norm`` reads a C-ordered matrix."""
    flat = stack.reshape(len(stack), 1, -1)
    re, im = flat.real, flat.imag
    squares = np.matmul(re, re.transpose(0, 2, 1)) + np.matmul(im, im.transpose(0, 2, 1))
    return np.sqrt(squares.reshape(-1))


@np.errstate(over="ignore", invalid="ignore")
def orthogonality_residuals(lefts, rights) -> np.ndarray:
    """The ``(len(lefts), len(rights))`` array of ||L_i R_j - delta_ij L_i||_F
    over two sequences of n x n matrices, each entry equal to
    ``np.linalg.norm(L_i @ R_j - delta_ij L_i)`` bit for bit; inf or NaN
    where a product overflows. Products are formed on tiles of at most
    128 KiB: the column stacks of ``rights`` are the outer loop, so each is
    built once, and the rows of ``lefts`` are cut to fit beside them."""
    n = len(rights[0])
    rows = max(1, stack_size(n) // len(rights))  # keeps each tile of products in budget
    out = np.empty((len(lefts), len(rights)))
    for lo, right in stacks(rights):
        for top in range(0, len(lefts), rows):
            left = np.asarray(lefts[top:top + rows])
            prods = left[:, None] @ right
            for i in range(max(top, lo), min(top + len(left), lo + len(right))):
                prods[i - top, i - lo] -= left[i - top]  # the pair (i, i)
            out[top:top + len(left), lo:lo + len(right)] = frobenius_norms(
                prods.reshape(-1, n, n)).reshape(prods.shape[:2])
    return out


def within_tol(residual, tol: float, scale=1.0):
    """The tolerance rule of every check: pass iff
    ``residual <= tol * max(1, scale)`` with ``residual``, ``scale`` and
    ``tol`` all finite, so NaN or infinite residuals, overflowed scales and
    an infinite tol fail, while a product ``tol * scale`` that alone
    overflows passes every finite residual. ``scale`` is the Frobenius norm
    of the reference (sqrt(n) for the identity); elementwise when it is an array.
    Only :func:`judge` asks it."""
    if isinstance(scale, np.ndarray):
        with np.errstate(over="ignore"):
            passed = residual <= tol * np.maximum(scale, 1.0)
        return passed & np.isfinite(residual) & np.isfinite(scale) & math.isfinite(tol)
    finite = math.isfinite(residual) and math.isfinite(scale) and math.isfinite(tol)
    return finite and residual <= tol * max(scale, 1.0)


def _rounding_allowance(n: int) -> float:
    """eps_n = 4 n^(3/2) eps: the rounding of an n x n product, relative to its scale."""
    return 4.0 * n ** 1.5 * 2.0 ** -52  # eps = np.finfo(float).eps, folded when compiled


class Judgement(NamedTuple):
    """One verdict of :func:`judge`: the ``quantity`` and its ``residual`` (when ``proved``, a
    bound on it), judged at ``tol`` against ``scale`` for n x n operands, ``where`` the deciding
    entry sits, whether it ``passed``, and the ``threshold``, ``floor`` and ``overflowed`` of that."""

    quantity: str
    residual: float
    tol: float
    scale: float
    n: int
    where: tuple | None
    passed: bool
    proved: bool

    threshold = property(lambda self: self.tol * max(self.scale, 1.0))
    floor = property(lambda self: _rounding_allowance(self.n) * self.scale)  # eps_n * scale
    overflowed = property(lambda self: not math.isfinite(self.scale))  # so the threshold is inf

    @property
    def residuals(self) -> dict[str, float]:
        return {self.quantity: self.residual}

    @property
    def note(self) -> str:  # as a failure message names the residual
        overflow = "; its norm overflowed, so the threshold is inf" if self.overflowed else ""
        return f"residual {self.residual:.3e}{overflow}"


def judge(quantity: str, value, tol: float, scale=1.0, *, n: int, where=None,
          proved: bool = False) -> Judgement:
    """The one judge of every verdict: :func:`within_tol` of ``value`` (a residual, or a bound on
    one, ``proved``) at ``tol`` against ``scale``, for n x n operands. An array is judged entry by
    entry against ``scale`` (an array or a float): its first failing entry decides, else its largest."""
    if isinstance(value, np.ndarray):
        fails = ~within_tol(value, tol, scale)
        where = np.unravel_index(int(fails.argmax() if fails.any() else value.argmax()), value.shape)
        where, value = tuple(int(k) for k in where), float(value[where])
        scale = float(scale[where]) if isinstance(scale, np.ndarray) else scale
    passed = within_tol(value, tol, scale)
    return tuple.__new__(Judgement, (quantity, value, tol, scale, n, where, passed, proved))


def _require_square(a: np.ndarray) -> None:
    """The squareness rule of every single matrix."""
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return _adjoint(as_matrix(a))


def _adjoint(a) -> np.ndarray:
    """:func:`adjoint` of an ``as_matrix`` array, or of each matrix of a stack,
    not coerced again; a C-ordered copy, as products with a view differ in bits."""
    return np.conjugate(np.swapaxes(np.asarray(a), -1, -2), order="C")


def _require_same_dims(**dims: int) -> None:
    """The dimension-agreement rule of every operand list, checked before judging."""
    if len(set(dims.values())) > 1:
        raise DimensionMismatch("dims differ: " + ", ".join(f"{k} {v}" for k, v in dims.items()))


@np.errstate(over="ignore")
def _require_hermitian(a, tol: float) -> tuple[Judgement, float]:
    """The hermiticity rule of every single matrix: raise ``NotHermitian`` unless ||a - a^dag||_F
    of an ``as_matrix`` array passes against ||a||_F; return its record and that scale."""
    _require_square(a)
    scale = _norm(a)
    if not (herm := judge("hermiticity", _norm(a - a.conj().T), tol, scale, n=len(a))).passed:
        raise NotHermitian(f"matrix is not Hermitian within {tol:g} ({herm.note})", (herm,))
    return herm, scale


def _unitarity_residuals(u: np.ndarray) -> dict[str, float]:
    """``unitarity_left`` ||U^dag U - I||_F and ``unitarity_right`` ||U U^dag - I||_F, as judged."""
    eye, ud = _identity(u.shape[0]), u.conj().T
    return {"unitarity_left": _norm(ud @ u - eye), "unitarity_right": _norm(u @ ud - eye)}


@np.errstate(over="ignore", invalid="ignore")
def _require_unitary(u: np.ndarray, tol: float) -> tuple[Judgement, Judgement]:
    """The unitarity rule of every single matrix: raise ``NotUnitary`` unless both
    :func:`_unitarity_residuals` of an ``as_matrix`` array pass against sqrt(n); return their records."""
    _require_square(u)
    scale, (left, right) = math.sqrt(n := len(u)), _unitarity_residuals(u).items()
    records = left, right = judge(*left, tol, scale, n=n), judge(*right, tol, scale, n=n)
    if not (left.passed and right.passed):
        raise NotUnitary(f"matrix is not unitary within {tol:g} "
                         f"(residuals {left.residual:.3e}, {right.residual:.3e})", records)
    return records


def guarded_eigh(a: np.ndarray,
                 tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray, Judgement, float]:
    """Ascending eigenvalues and orthonormal eigenvectors (columns) of the
    Hermitian part (a + a^dag)/2 of an ``as_matrix`` array, by LAPACK
    (``numpy.linalg.eigh``), after :func:`_require_hermitian`, and the
    hermiticity it judged and the scale ||a||_F it judged against."""
    hermiticity, scale = _require_hermitian(a, tol)
    vals, vecs = np.linalg.eigh((a + a.conj().T) / 2.0)
    return vals, vecs, hermiticity, scale


def lowest_eigenvalue(a: np.ndarray) -> np.ndarray | float:
    """Smallest eigenvalue of the Hermitian part of a square matrix, or of each of a stack."""
    return np.linalg.eigvalsh((a + np.swapaxes(a, -1, -2).conj()) / 2.0)[..., 0]


@np.errstate(over="ignore")
def vector_norm(v: np.ndarray) -> tuple[float, float]:
    """2-norm of a complex vector as ``(scale, norm)``, ``||v|| = scale * norm``.

    A finite positive plain norm (which proves every entry finite) comes back
    with scale 1. Only when it overflows to inf or underflows to 0 is ``v``
    divided by its largest real or imaginary part first. Scale 0 means ``v``
    is zero; non-finite entries raise ``ValueError``.
    """
    norm = _norm(v)
    if 0.0 < norm < math.inf:
        return 1.0, norm
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    peak = max(float(np.abs(v.real).max()), float(np.abs(v.imag).max()))
    if peak == 0.0:
        return 0.0, 0.0
    peak = max(peak, 2.0 ** -1022)  # complex division takes 1 / peak, inf below the normals
    return peak, _norm(v / peak)
