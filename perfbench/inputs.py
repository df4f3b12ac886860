"""Seeded input generator for the benchmark.

Everything here is plain numpy driven by one ``np.random.Generator``, so a
seed fixes every input. Nothing is filtered or redrawn because of how the
program under test handles it: each function draws a fixed number of values
and builds its result by construction.
"""

from __future__ import annotations

import numpy as np


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian with the phases of
    diag(R) moved into Q (Mezzadri, Notices AMS 54, 2007)."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def haar_state(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit vector drawn uniformly from the sphere in C^n."""
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def rank1_projectors(basis: np.ndarray) -> list[np.ndarray]:
    """|v_k><v_k| for every column of ``basis``; identity-aligned when
    ``basis`` is the identity, Haar-rotated when it is a Haar unitary."""
    return [np.outer(basis[:, k], basis[:, k].conj()) for k in range(basis.shape[1])]


def identity_projectors(n: int) -> list[np.ndarray]:
    return rank1_projectors(np.eye(n, dtype=np.complex128))


def phases(rng: np.random.Generator, k: int) -> np.ndarray:
    """k angles in [0, 2 pi)."""
    return rng.uniform(0.0, 2.0 * np.pi, k)


def hermitian(rng: np.random.Generator, n: int, degenerate: bool):
    """Hermitian V diag(lambda) V^dag with a Haar eigenbasis V.

    Nondegenerate: n distinct eigenvalues. Half-degenerate: n/4 values of
    multiplicity 2 and n/2 simple ones, so half the dimensions lie in
    degenerate eigenspaces. Distinct values sit on an even grid over
    [-1, 1] with a jitter below a quarter of the grid step. Returns the
    matrix and the multiplicity of each distinct eigenvalue in ascending
    order; the benchmark's reference eigenspaces come from
    ``np.linalg.eigh`` grouped by these multiplicities.
    """
    k = n if not degenerate else n // 4 + n // 2
    step = 2.0 / (k - 1)
    values = np.linspace(-1.0, 1.0, k) + rng.uniform(-0.25, 0.25, k) * step
    mult = np.ones(k, dtype=int)
    if degenerate:
        mult[rng.permutation(k)[: n // 4]] = 2
    v = haar_unitary(rng, n)
    a = (v * np.repeat(values, mult)) @ v.conj().T
    return (a + a.conj().T) / 2.0, mult


def two_sided_family(rng: np.random.Generator, n: int) -> list[np.ndarray]:
    """General complete family M_m = Q P_m R from identity-aligned P_m and
    Haar Q, R: M_i^dag M_j = M_i M_j^dag = 0 for i != j and
    sum_m M_m^dag M_m = I, yet no M_m is Hermitian."""
    q = haar_unitary(rng, n)
    r = haar_unitary(rng, n)
    return [q @ p @ r for p in identity_projectors(n)]
