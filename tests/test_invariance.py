"""Shift, scale and basis relations of ``spectral_decompose``.

A + cI, sA (s > 0) and W A W^dag (W unitary) have the eigenspaces of A, so
each keeps A's eigenspace count and, for every state, its eigenspace
probabilities. Rounding moves a computed projector by about
eps_n ||A||_F / gap (Davis-Kahan for a perturbation of ``eigh``'s size),
gap the smallest distance between distinct eigenvalues, and each of the
two probabilities by eps_n more, so they may differ by that plus 2 eps_n,
eps_n = 4 n^(3/2) eps as in ``measurement._rounding_allowance``. Each
spectrum is kept where the rule can still separate it: the gap above twice
the floor eps_n ||A||_F under which ``spectral_decompose`` merges
neighbours. A shifted matrix is formed as V diag(lambda + c) V^dag, so it
carries rounding of its own size: fl(A + cI) with c near -lambda for every
lambda is the rounding of A alone, which the rule rightly resolves.

Draws: Haar bases at n <= 8 and n = 32, integer levels with random
multiplicities (every gap at least 1), shifts c up to 1e12 and scales s from
1e-12 to 1e12.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import random_partition, random_state, random_unitary
from qmeasure import spectral_decompose
from qmeasure.measurement import _rounding_allowance

DIMS = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 32])
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
SHIFTS = st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
                   st.floats(min_value=0.0, max_value=12.0))
SCALES = st.builds(lambda e: 10.0 ** e, st.floats(min_value=-12.0, max_value=12.0))


def draw_spectrum(seed, n):
    """(levels, w, psi): n ascending eigenvalues, k distinct integers at least 1 apart with
    the sizes of a random partition as multiplicities, a Haar unitary and a Haar state."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, n + 1))
    sizes = [len(g) for g in random_partition(rng, n, k)]
    values = np.cumsum(rng.integers(1, 4, size=k)) - int(rng.integers(0, 2 * n + 1))
    return np.repeat(values.astype(float), sizes), random_unitary(rng, n), random_state(rng, n)


def rotated(w, levels):
    return (w * levels) @ w.conj().T


def floor(a):
    """eps_n ||A||_F: neighbours this close share an eigenspace."""
    return _rounding_allowance(len(a)) * np.linalg.norm(a)


def probabilities(a, psi):
    """The eigenspace count of A and <psi|P_m|psi> over its eigenspaces."""
    spectrum = spectral_decompose(a).spectrum
    return len(spectrum), np.array([np.vdot(psi, p @ psi).real for _, p in spectrum])


def smallest_gap(levels):
    distinct = np.unique(levels)
    return np.diff(distinct).min() if len(distinct) > 1 else np.inf


def assert_same_eigenspaces(a, b, psi_a, psi_b, gap):
    """A and B keep one eigenspace count, and their probabilities agree within
    eps_n ||.||_F / gap, plus eps_n for the rounding of each of the two probabilities: over
    3000 draws at n = 1 (a Haar phase w, gap infinite) they differ by up to 5 eps = 1.25 eps_1."""
    assume(2 * max(floor(a), floor(b)) < gap)  # the rule can still separate the spectrum
    count_a, p_a = probabilities(a, psi_a)
    count_b, p_b = probabilities(b, psi_b)
    assert count_a == count_b
    bound = max(floor(a), floor(b)) / gap + 2 * _rounding_allowance(len(a))
    assert np.abs(p_a - p_b).max() <= bound


@settings(max_examples=120, deadline=None)
@given(seed=SEEDS, n=DIMS, c=SHIFTS)
def test_a_shift_keeps_the_eigenspaces(seed, n, c):
    """A + cI: e^{i(A + cI)} is e^{iA} up to the global phase e^{ic}."""
    levels, w, psi = draw_spectrum(seed, n)
    assert_same_eigenspaces(rotated(w, levels), rotated(w, levels + c), psi, psi,
                            smallest_gap(levels))


@settings(max_examples=120, deadline=None)
@given(seed=SEEDS, n=DIMS, s=SCALES)
def test_a_scale_keeps_the_eigenspaces(seed, n, s):
    levels, w, psi = draw_spectrum(seed, n)
    a = rotated(w, levels)
    assert_same_eigenspaces(a, s * a, psi, psi, smallest_gap(levels))
    count, _ = probabilities(s * a, psi)
    assert count == len(np.unique(levels))


@settings(max_examples=120, deadline=None)
@given(seed=SEEDS, n=DIMS, s=SCALES)
def test_a_change_of_basis_keeps_the_eigenspaces(seed, n, s):
    """s D against W (s D) W^dag with the state W psi: a diagonal D's eigenvalues are exact."""
    levels, w, psi = draw_spectrum(seed, n)
    d = np.diag(s * levels).astype(complex)
    assert_same_eigenspaces(d, rotated(w, s * levels), psi, w @ psi, s * smallest_gap(levels))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_rotated_scalar_matrix_never_splits(n):
    """Q (cI) Q^dag, Q Haar, c up to 1e12 in size: ``eigh`` spreads its equal eigenvalues by
    at most 0.61 of the floor eps_n ||A||_F at n = 2 (over 20,000 draws; 0.35 at n = 3 and
    0.26 at n = 4), so the margin of the rule is thinnest at n = 2 and never crossed."""
    rng = np.random.default_rng(n)
    for _ in range(1500):
        c = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, 12.0)
        q = random_unitary(rng, n)
        assert len(spectral_decompose(rotated(q, np.full(n, c))).eigenvalues) == 1


B_LEVELS = np.array([1.0, 1.0, 2.0, 2.0])


@pytest.mark.parametrize("transform", [
    lambda b: 1e7 * b, lambda b: 1e9 * b, lambda b: 1e12 * b,
    lambda b: b + 1e8 * np.eye(4), lambda b: b + 1e9 * np.eye(4),
    lambda b: 1e-9 * b,
], ids=["1e7B", "1e9B", "1e12B", "B+1e8I", "B+1e9I", "1e-9B"])
def test_two_eigenspaces_of_b_survive_scaling_and_shifting_in_every_basis(transform):
    """B = Q diag(1, 1, 2, 2) Q^dag over 200 Haar bases Q: a fixed cluster floor of 1e-8 split
    1e9 B into 4 eigenspaces in most of them, and merged 1e-9 B into one it could not rebuild."""
    rng = np.random.default_rng(200)
    for _ in range(200):
        b = rotated(random_unitary(rng, 4), B_LEVELS)
        assert len(spectral_decompose(transform(b)).eigenvalues) == 2


def to_digits(a, digits):
    """A with the real and imaginary part of every entry rounded to ``digits`` significant
    digits, as a file written at that precision holds it (still exactly Hermitian)."""
    return np.vectorize(lambda z: complex(float(f"{z.real:.{digits}g}"),
                                          float(f"{z.imag:.{digits}g}")))(a)


@pytest.mark.xfail(strict=True, reason="the grouping rule merges only eigh's rounding, "
                   "eps_n ||A||_F, so input rounding above it splits eigenspaces (ROADMAP item 2)")
def test_a_degenerate_observable_rounded_to_12_digits_keeps_its_eigenspaces():
    """B = Q diag(1, 1, 2, 2) Q^dag written at 12 significant digits is B off by about
    1e-12 ||B||_F, far inside the default tol 1e-10, yet eigh splits its equal eigenvalues by
    about that much, over eps_n ||B||_F: each falls apart into eigenspaces that Q does not fix."""
    rng = np.random.default_rng(12)
    for _ in range(20):
        b = to_digits(rotated(random_unitary(rng, 4), B_LEVELS), 12)
        assert len(spectral_decompose(b).eigenvalues) == 2
