"""The eigenvector factor a spectral projector set carries, against the
per-projector paths every other set takes.

``spectral_decompose`` keeps (V, labels) only when the eigenvector Gram
residual g = ||V^dag V - I||_F is at most eps_n = 4 n^(3/2) eps. The phase
sum and the commutation residuals are then formed in the basis V, and must
agree with the per-projector values within eps_n times their scale. Any
other set has no factor and must give the per-projector values bit for bit.
The reconstruction residual is formed in the basis V on every spectral set:
V diag(lambda[labels]) V^dag is the sum of lambda_m P_m for any V.
"""

import math

import numpy as np
import pytest

from helpers import random_hermitian, random_phases, random_unitary
from qmeasure import linalg, measurement
from qmeasure.errors import NotMirror
from qmeasure.fileio import load_operator_file, save_operator_file
from qmeasure.measurement import ProjectorSet, spectral_decompose
from qmeasure.mirror import commutation_residuals, extend_mirror, is_mirror
from qmeasure.reversible import PhaseVector, exp_observable, phase_superpose_projectors
from test_measurement import decompose_planted, planted_eigenpairs

DIMS = list(range(1, 10)) + [32, 64]


def eps_n(n):
    return 4.0 * n ** 1.5 * np.finfo(float).eps


def stacked_phase_sum(projs, phases):
    """The per-projector phase sum, summed as the generic path sums it."""
    return sum(np.tensordot(phases[lo:lo + len(s)], s, axes=1) for lo, s in linalg.stacks(projs))


def mirror_verdict(u, pset):
    try:
        is_mirror(u, pset)
    except NotMirror:
        return False
    return True


def nudged(u, rng, size):
    """U e^{i size H} for a unit Hermitian H: a unitary about ``size`` from U."""
    h = random_hermitian(rng, len(u))
    return u @ linalg.expm_oracle(1j * size * h / np.linalg.norm(h))


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("degenerate", [False, True])
def test_factored_values_agree_with_the_per_projector_ones(n, degenerate):
    rng = np.random.default_rng(100 + n)
    a = random_hermitian(rng, n, degenerate=degenerate)
    obs = spectral_decompose(a)
    factored = obs.projector_set()
    vecs, labels = factored._factor
    assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(n)) <= eps_n(n)
    assert labels.tolist() == [m for m, (_, p) in enumerate(obs.spectrum)
                               for _ in range(round(np.trace(p).real))]
    generic = ProjectorSet(factored.projectors)
    assert not hasattr(generic, "_factor")
    tol = eps_n(n)

    recon = linalg.frobenius_norm(a - sum(lam * p for lam, p in obs.spectrum))
    assert abs(obs.reconstruction_residual - recon) <= tol * max(1.0, np.linalg.norm(a))

    phases = PhaseVector(random_phases(rng, len(factored)))
    mirror = phase_superpose_projectors(factored, phases)
    summed = phase_superpose_projectors(generic, phases).matrix
    assert np.linalg.norm(mirror.matrix - summed) <= tol * max(1.0, np.linalg.norm(summed))
    looped = sum(alpha * p for alpha, p in zip(phases.phases, factored.projectors))
    assert np.linalg.norm(summed - looped) <= tol * max(1.0, np.linalg.norm(looped))

    for u in (mirror, random_unitary(rng, n)):
        fast = commutation_residuals(u, factored)
        slow = commutation_residuals(u, generic)
        assert all(type(r) is float for r in fast)
        assert np.abs(np.subtract(fast, slow)).max() <= tol * math.sqrt(n)

    # verdicts away from the threshold tol sqrt(n) of is_mirror: 1e-10 sqrt(n)
    for u, commutes in ((mirror, True), (nudged(mirror.matrix, rng, 1e-14), True),
                        (nudged(mirror.matrix, rng, 1e-6), n == 1),
                        (random_unitary(rng, n), n == 1)):
        assert mirror_verdict(u, factored) is mirror_verdict(u, generic) is commutes


def test_a_file_loaded_set_has_no_factor_and_the_per_projector_values(tmp_path):
    rng = np.random.default_rng(5)
    n = 8
    obs = spectral_decompose(random_hermitian(rng, n, degenerate=True))
    path = str(tmp_path / "projectors.json")
    save_operator_file(path, "projector_set", obs.projector_set().projectors)
    pset = ProjectorSet(load_operator_file(path).matrices())
    assert not hasattr(pset, "_factor")
    phases = PhaseVector(random_phases(rng, len(pset)))
    mirror = phase_superpose_projectors(pset, phases)
    np.testing.assert_array_equal(mirror.matrix, stacked_phase_sum(pset.projectors, phases.phases))
    u = random_unitary(rng, n)
    assert commutation_residuals(u, pset) == tuple(
        float(np.linalg.norm(linalg.commutator(u, p))) for p in pset.projectors)


@pytest.mark.parametrize("n", [2, 8, 32])
def test_a_gram_residual_above_the_rounding_allowance_keeps_the_per_projector_values(n):
    """g between eps_n and the certificate threshold: the set is certified
    but carries no factor, so its phase sum and commutators are the
    per-projector ones. Its reconstruction residual is still the one product
    in the planted basis V, which needs no V^dag V = I."""
    rng = np.random.default_rng(n)
    vals, vecs = planted_eigenpairs(rng, n, True, "tilt", 1e-12)
    gram = np.linalg.norm(vecs.conj().T @ vecs - np.eye(n))
    assert eps_n(n) < gram <= measurement._gram_threshold(n, 1e-10)
    obs = decompose_planted(vals, vecs, 1e-10)
    pset = obs.projector_set()
    assert not hasattr(pset, "_factor")
    a = (vecs * vals) @ vecs.conj().T
    labels = np.repeat(np.arange(len(pset)), [round(np.trace(p).real) for p in pset.projectors])
    recon = (vecs * np.array(obs.eigenvalues)[labels]) @ vecs.conj().T
    assert obs.reconstruction_residual == np.linalg.norm(a - recon)
    summed = sum(lam * p for lam, p in obs.spectrum)
    assert abs(obs.reconstruction_residual - np.linalg.norm(a - summed)) <= eps_n(n) * max(
        1.0, np.linalg.norm(a))
    phases = PhaseVector(random_phases(rng, len(pset)))
    np.testing.assert_array_equal(phase_superpose_projectors(pset, phases).matrix,
                                  stacked_phase_sum(pset.projectors, phases.phases))
    u = random_unitary(rng, n)
    assert commutation_residuals(u, pset) == tuple(
        float(np.linalg.norm(linalg.commutator(u, p))) for p in pset.projectors)


@pytest.mark.parametrize("degenerate", [False, True])
def test_the_spectral_pipeline_forms_no_per_projector_products(monkeypatch, degenerate):
    """exp_observable, extend_mirror and is_mirror on an n = 32 spectral set
    go through the eigenvector factor; every per-projector path stacks the
    projectors with linalg.stacks, which may not run here."""
    rng = np.random.default_rng(32)
    obs = spectral_decompose(random_hermitian(rng, 32, degenerate=degenerate))
    pset = obs.projector_set()
    phases = PhaseVector(random_phases(rng, len(pset)))

    def forbidden(*args, **kwargs):
        raise AssertionError("a per-projector product was formed")

    monkeypatch.setattr(linalg, "stacks", forbidden)
    exp_observable(obs)
    mirror = extend_mirror(phases, pset)
    is_mirror(mirror.unitary, pset)
    with pytest.raises(NotMirror):
        is_mirror(random_unitary(rng, 32), pset)
