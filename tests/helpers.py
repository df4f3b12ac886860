"""Shared random-instance generators and oracles for the test suite.

numpy's QR builds the random unitaries. The package diagonalizes with
LAPACK (numpy's ``eigh``), so its eigensolver is checked against
:func:`jacobi_eig`, a cyclic complex Jacobi solver that shares no code
with LAPACK, instead of against itself. Its spectral exponentials are
checked against :func:`expm_oracle`, a Taylor series that uses no
eigensolver, and its commutator norms against :func:`commutator`.
:func:`frobenius_norm` and :func:`commutation_residuals` are the norms the
tests read directly; no code in the package calls either.
"""

import dataclasses
import math

import numpy as np

from qmeasure import measurement
from qmeasure.errors import QmeasureError
from qmeasure.reversible import _as_unitary

JACOBI_MAX_SWEEPS = 60
JACOBI_OFF_EPS = 1e-14  # off-diagonal Frobenius target, relative to ||a||_F
EXPM_TERM_EPS = 1e-16  # stop the Taylor series once a term drops below this
EXPM_HALF_NORM = 0.5  # halve the input until its Frobenius norm is <= this


def _jacobi_rotate(w, v, p, q, c, sp):
    # One two-sided rotation W <- V^dag W V with
    # V[p,p]=V[q,q]=c, V[q,p]=sp, V[p,q]=-conj(sp); V accumulated into v.
    col_p = w[:, p].copy()
    col_q = w[:, q].copy()
    w[:, p] = c * col_p + sp * col_q
    w[:, q] = -np.conj(sp) * col_p + c * col_q
    row_p = w[p, :].copy()
    row_q = w[q, :].copy()
    w[p, :] = c * row_p + np.conj(sp) * row_q
    w[q, :] = -sp * row_p + c * row_q
    w[p, q] = 0.0
    w[q, p] = 0.0
    w[p, p] = w[p, p].real
    w[q, q] = w[q, q].real
    vcol_p = v[:, p].copy()
    vcol_q = v[:, q].copy()
    v[:, p] = c * vcol_p + sp * vcol_q
    v[:, q] = -np.conj(sp) * vcol_p + c * vcol_q


def _offdiag_norm(w):
    return float(np.linalg.norm(w - np.diag(np.diag(w))))


def jacobi_eig(a):
    """Eigenvalues (ascending) and eigenvector columns of a Hermitian matrix
    by cyclic Jacobi rotations, each sweep annihilating every off-diagonal
    entry in turn with a complex plane rotation."""
    w = np.array(a, dtype=np.complex128)
    w = (w + w.conj().T) / 2.0
    n = w.shape[0]
    v = np.eye(n, dtype=np.complex128)
    target = JACOBI_OFF_EPS * max(1.0, float(np.linalg.norm(w)))
    skip = target / (2.0 * n)
    for _ in range(JACOBI_MAX_SWEEPS):
        if _offdiag_norm(w) <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                r = abs(w[p, q])
                if r <= skip:
                    continue
                phase = w[p, q] / r
                tau = (w[p, p].real - w[q, q].real) / (2.0 * r)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                _jacobi_rotate(w, v, p, q, c, t * c * np.conj(phase))
    assert _offdiag_norm(w) <= target, "Jacobi oracle did not converge"
    vals = np.diag(w).real.copy()
    order = np.argsort(vals, kind="stable")
    return vals[order], v[:, order]


def expm_oracle(a):
    """Matrix exponential by scaling-and-squaring with a truncated Taylor series.

    The input is halved until its Frobenius norm is at most 0.5, the series
    is summed until a term's norm falls below 1e-16, then the result is
    squared back up. For skew-Hermitian input the result is unitary to
    roundoff. A matrix whose Frobenius norm overflows (entries of about
    1e154 and above) raises ``ValueError``.
    """
    a = np.array(a, dtype=np.complex128)
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(a))
    if nrm == math.inf:  # finite entries whose sum of squares overflows
        raise ValueError("matrix norm overflowed to inf, so it cannot be halved to 0.5")
    squarings = 0
    if nrm > EXPM_HALF_NORM:
        squarings = int(math.ceil(math.log2(nrm / EXPM_HALF_NORM)))
    b = a / (2.0 ** squarings)
    total = np.eye(len(a), dtype=np.complex128)
    term = total.copy()
    k = 0
    while np.linalg.norm(term) >= EXPM_TERM_EPS:  # ||b||_F <= 0.5 ends it by k ~ 13
        k += 1
        term = term @ b / k
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total


def commutator(a, b):
    """a @ b - b @ a."""
    a, b = np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    return a @ b - b @ a


def frobenius_norm(a):
    """||a||_F; inf when the sum of squares overflows."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(np.asarray(a)))


def commutation_residuals(u, pset):
    """||[U, P_m]||_F for every projector in the set, by the one kernel
    ``is_mirror`` judges, after ``u``'s dims are checked and a raw matrix is
    judged unitary."""
    unit = _as_unitary(u, projectors=pset.dim)
    return pset._commutator_norms(unit.matrix)


def admitted(cls, ops, tol=1e-10):
    """``(family, failure)``: a ``cls`` (``ProjectorSet`` or ``Povm``) holding the stack of
    ``ops`` as its constructor does, and the error its admission at ``tol`` raised, or None.
    The family comes back either way, so a test can read which residuals it formed."""
    stack = measurement.MeasurementOperatorSet(ops)._stack  # judges nothing
    family = object.__new__(cls)._hold(dataclasses.fields(cls)[0].name, stack)
    try:
        family._admit(tol)
    except QmeasureError as exc:
        return family, exc
    return family, None


def random_state(rng, n):
    vec = rng.normal(size=n) + 1j * rng.normal(size=n)
    return vec / np.linalg.norm(vec)


def unitarity_residuals(u):
    """(||U^dag U - I||_F, ||U U^dag - I||_F), each by ``np.linalg.norm``."""
    u = np.asarray(u, dtype=complex)
    eye, ud = np.eye(len(u), dtype=complex), u.conj().T
    return float(np.linalg.norm(ud @ u - eye)), float(np.linalg.norm(u @ ud - eye))


def random_unitary(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    # fix the column phases so the distribution is Haar, not QR-biased
    return q * (np.diag(r) / np.abs(np.diag(r)))


def eigenspace_groups(vals, scale):
    """The columns of each eigenspace, as ``spectral_decompose`` groups ascending eigenvalues:
    neighbours at most eps_n ``scale`` apart (``scale`` = ||A||_F) share one."""
    gaps = np.diff(vals) > measurement._rounding_allowance(len(vals)) * scale
    return np.split(np.arange(len(vals)), np.flatnonzero(gaps) + 1)


def random_hermitian(rng, n, degenerate=False):
    if degenerate:
        u = random_unitary(rng, n)
        half = max(1, n // 2)
        vals = np.concatenate([
            np.full(half, rng.normal()),
            rng.normal(size=n - half),
        ])
        return (u * vals) @ u.conj().T
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2


def random_partition(rng, n, k):
    """Split indices 0..n-1 into k nonempty groups."""
    assert 1 <= k <= n
    labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    rng.shuffle(labels)
    return [np.flatnonzero(labels == m) for m in range(k)]


def orthogonal_family(rng, n, k):
    """k operators M_m = U D_m V with D_m the indicator of group m.

    Any two members are two-sided orthogonal and the family resolves the
    identity, so it is exactly the kind of collection that superposes into
    a unitary.
    """
    u = random_unitary(rng, n)
    v = random_unitary(rng, n)
    family = []
    for group in random_partition(rng, n, k):
        d = np.zeros(n)
        d[group] = 1.0
        family.append((u * d) @ v)
    return family


def random_phases(rng, k):
    return np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=k))


def superposition_residuals(ops):
    """(pairs, c) of a family by per-pair loops: pairs[i, j] = ||M_i^dag M_j||_F for
    i != j (0 on the diagonal) and c = ||sum_m M_m^dag M_m - I||_F, the products
    added in label order, each by ``np.linalg.norm`` with the adjoint a C-ordered copy."""
    adjoints = [np.conjugate(m.T, order="C") for m in ops]
    pairs = np.array([[0.0 if i == j else np.linalg.norm(mi @ mj) for j, mj in enumerate(ops)]
                      for i, mi in enumerate(adjoints)])
    c = np.linalg.norm(sum(mi @ m for mi, m in zip(adjoints, ops)) - np.eye(len(ops[0])))
    return pairs, float(c)


def superposition_aggregate(ops, tol):
    """(a, pairs, c): the aggregate a that the superposition rule reports, the pair sum
    plus c when c passes at ``tol`` against sqrt(n), from :func:`superposition_residuals`."""
    pairs, c = superposition_residuals(ops)
    return float(pairs.sum()) + (c if c <= tol * math.sqrt(len(ops[0])) else 0.0), pairs, c


def superposition_rounding(aggregate, n):
    """eps_n (n + sqrt(n) a): the rounding of the sum's unitarity judge, which the superposition
    rule adds to the aggregate a before it judges it (||M||_F^2 <= n + sqrt(n) a)."""
    return measurement._rounding_allowance(n) * (n + math.sqrt(n) * aggregate)


def near_threshold_family(rng, kind, n, k, target):
    """k operators on C^n whose pair sum plus completeness residual, as
    :func:`superposition_residuals` forms them, is ``target`` to about 1e-12:

    - ``rank1`` (k = n >= 2): M_m = v_m q_m^dag, q the columns of a Haar unitary and
      v_m unit vectors tilted from e_m by t W, so completeness stays near 0;
    - ``qpr``: M_m = Q (P_m + t E_m) R, with P_m the indicator of group m of a
      partition, E_m of unit norm and Q, R Haar, so both pairs and completeness move;
    - ``stretch``: M_m = Q P_m R with M_0 scaled by sqrt(1 + t): only completeness moves.

    t is found by the fixed point t <- t target / f(t), f(t) ~ t near 0."""
    q, r = random_unitary(rng, n), random_unitary(rng, n)
    tilt = rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))
    if kind == "rank1":
        def family(t):
            v = np.eye(n) + t * tilt[0]
            v /= np.linalg.norm(v, axis=0)
            return [np.outer(v[:, m], r[:, m].conj()) for m in range(n)]
    else:
        blocks = []
        for m, group in enumerate(random_partition(rng, n, k)):
            d = np.zeros((n, n), complex)
            d[group, group] = 1.0
            blocks.append((d, tilt[m] / np.linalg.norm(tilt[m])))

        def family(t):
            if kind == "qpr":
                return [q @ (d + t * e) @ r for d, e in blocks]
            return [math.sqrt(1.0 + t) * q @ d @ r if m == 0 else q @ d @ r
                    for m, (d, _) in enumerate(blocks)]
    t = target
    for _ in range(20):
        pairs, c = superposition_residuals(ops := family(t))
        total = float(pairs.sum()) + c
        if abs(total - target) <= 1e-12 * target:
            break
        t *= target / total
    return ops
