"""Shared random-instance generators and oracles for the test suite.

numpy's QR builds the random unitaries. The package diagonalizes with
LAPACK (numpy's ``eigh``), so its eigensolver is checked against
:func:`jacobi_eig`, a cyclic complex Jacobi solver that shares no code
with LAPACK, instead of against itself.
"""

import math

import numpy as np

JACOBI_MAX_SWEEPS = 60
JACOBI_OFF_EPS = 1e-14  # off-diagonal Frobenius target, relative to ||a||_F


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


def random_state(rng, n):
    vec = rng.normal(size=n) + 1j * rng.normal(size=n)
    return vec / np.linalg.norm(vec)


def random_unitary(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    # fix the column phases so the distribution is Haar, not QR-biased
    return q * (np.diag(r) / np.abs(np.diag(r)))


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
