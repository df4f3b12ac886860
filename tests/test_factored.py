"""The eigenvector factor a spectral projector set carries, against the
per-projector paths every other set takes.

``spectral_decompose`` keeps (V, labels) and the eigenvector Gram residual
g = ||V^dag V - I||_F on every set it returns: on ``eigh`` output, where g is
at most eps_n = 4 n^(3/2) eps, and on planted eigenpairs with g above it.
The reconstruction residual, the phase sum and the preservation
probabilities are formed in the basis V, which is the sum over the
projectors P_m = V_m V_m^dag for any V, and must agree with the
per-projector values within eps_n times their scale. The commutation
residuals are formed over the projectors on every set, so they are the
per-projector values bit for bit, however the set is held.

A spectral set forms its projector stack only when first read, with the
bytes an eager decomposition formed, and takes its preservation
probabilities from V_m (V_m^dag psi), checked against exact values.
"""

import numpy as np
import pytest

from helpers import (
    commutation_residuals,
    commutator,
    eigenspace_groups,
    expm_oracle,
    frobenius_norm,
    random_hermitian,
    random_phases,
    random_state,
    random_unitary,
)
from qmeasure import cli, linalg, measurement
from qmeasure.errors import NotMirror
from qmeasure.fileio import load_operator_file, save_operator_file
from qmeasure.measurement import ProjectorSet, QuantumState, spectral_decompose
from qmeasure.mirror import (
    extend_mirror,
    is_mirror,
    verify_probability_preservation,
)
from qmeasure.reversible import PhaseVector, exp_observable, phase_superpose_projectors
from test_measurement import decompose_planted, planted_above_the_allowance, planted_eigenpairs

DIMS = list(range(1, 10)) + [32, 64]


def eps_n(n):
    return 4.0 * n ** 1.5 * np.finfo(float).eps


def stacked_phase_sum(projs, phases):
    """The per-projector phase sum, summed as the generic path sums it."""
    return sum(np.tensordot(phases[lo:lo + len(s)], s, axes=1) for lo, s in linalg.stacks(projs))


def mirror_outcome(u, pset):
    """What ``is_mirror`` says of ``u``: pass or fail, its message and its residuals."""
    try:
        return True, "", is_mirror(u, pset).residuals
    except NotMirror as exc:
        return False, str(exc), exc.residuals


def nudged(u, rng, size):
    """U e^{i size H} for a unit Hermitian H: a unitary about ``size`` from U."""
    h = random_hermitian(rng, len(u))
    return u @ expm_oracle(1j * size * h / np.linalg.norm(h))


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("degenerate", [False, True])
def test_factored_values_agree_with_the_per_projector_ones(n, degenerate):
    """On the ``eigh`` output of a random observable, and on eigenpairs planted with
    g in (eps_n, tau] by each perturbation of :func:`planted_eigenpairs`: a quarter of
    the way to tau, so that at n = 1 the phase sum, off unitary by 2 g, still passes."""
    rng = np.random.default_rng(100 + n)
    for plant in (None, "tilt", "stretch", "random"):
        if plant is None:
            a = random_hermitian(rng, n, degenerate=degenerate)
            obs = spectral_decompose(a)
        else:
            vals, vecs = planted_above_the_allowance(rng, n, degenerate, plant, 0.25)
            a = (vecs * vals) @ vecs.conj().T
            obs = decompose_planted(vals, vecs, 1e-10)
        check_the_factored_values(rng, a, obs, plant is None)


def check_the_factored_values(rng, a, obs, from_eigh):
    n = len(a)
    factored = obs.projector_set()
    vecs, labels = factored._factor
    gram = np.linalg.norm(vecs.conj().T @ vecs - np.eye(n))
    assert factored._gram == gram and (gram <= eps_n(n)) == from_eigh
    assert gram <= measurement._gram_threshold(n, 1e-10)
    assert labels.tolist() == [m for m, (_, p) in enumerate(obs.spectrum)
                               for _ in range(round(np.trace(p).real))]
    generic = ProjectorSet(factored.projectors)
    assert not hasattr(generic, "_factor")
    tol = eps_n(n)

    recon = frobenius_norm(a - sum(lam * p for lam, p in obs.spectrum))
    assert abs(obs.residuals["reconstruction"] - recon) <= tol * max(1.0, np.linalg.norm(a))

    phases = PhaseVector(random_phases(rng, len(factored)))
    mirror = phase_superpose_projectors(factored, phases)
    summed = phase_superpose_projectors(generic, phases).matrix
    assert np.linalg.norm(mirror.matrix - summed) <= tol * max(1.0, np.linalg.norm(summed))
    looped = sum(alpha * p for alpha, p in zip(phases.phases, factored.projectors))
    assert np.linalg.norm(summed - looped) <= tol * max(1.0, np.linalg.norm(looped))

    for u in (mirror, random_unitary(rng, n)):
        spectral = commutation_residuals(u, factored)
        assert all(type(r) is float for r in spectral)
        assert spectral == commutation_residuals(u, generic)  # floats: bit for bit

    # verdicts away from the threshold tol sqrt(n) of is_mirror: 1e-10 sqrt(n)
    for u, commutes in ((mirror, True), (nudged(mirror.matrix, rng, 1e-14), True),
                        (nudged(mirror.matrix, rng, 1e-6), n == 1),
                        (random_unitary(rng, n), n == 1)):
        judged = mirror_outcome(u, factored)
        assert judged == mirror_outcome(u, generic) and judged[0] is commutes

    psi = QuantumState(random_state(rng, n))
    for u in (mirror, random_unitary(rng, n)):
        spectral = verify_probability_preservation(u, factored, psi)
        dense = verify_probability_preservation(u, generic, psi)
        assert np.abs(np.subtract(spectral.probabilities_before, dense.probabilities_before)).max() <= tol
        assert np.abs(np.subtract(spectral.probabilities_after, dense.probabilities_after)).max() <= tol


def test_a_file_loaded_set_has_no_factor_and_the_per_projector_values(tmp_path):
    rng = np.random.default_rng(5)
    n = 8
    obs = spectral_decompose(random_hermitian(rng, n, degenerate=True))
    path = str(tmp_path / "projectors.json")
    save_operator_file(path, "projector_set", obs.projector_set().projectors)
    pset = ProjectorSet(load_operator_file(path).matrices)
    assert not hasattr(pset, "_factor")
    phases = PhaseVector(random_phases(rng, len(pset)))
    mirror = phase_superpose_projectors(pset, phases)
    np.testing.assert_array_equal(mirror.matrix, stacked_phase_sum(pset.projectors, phases.phases))
    u = random_unitary(rng, n)
    assert commutation_residuals(u, pset) == tuple(
        float(np.linalg.norm(commutator(u, p))) for p in pset.projectors)


@pytest.mark.parametrize("n", [2, 8, 32])
def test_a_gram_residual_above_the_rounding_allowance_keeps_the_per_projector_values(n):
    """g between eps_n and the certificate threshold: the set is certified and
    carries its factor and g. Its reconstruction residual, phase sum and
    probabilities are products in the planted basis V, which need no
    V^dag V = I: within eps_n of the per-projector values. Its commutators are
    formed over the projectors: the per-projector values bit for bit."""
    rng = np.random.default_rng(n)
    vals, vecs = planted_eigenpairs(rng, n, True, "tilt", 1e-12)
    gram = np.linalg.norm(vecs.conj().T @ vecs - np.eye(n))
    assert eps_n(n) < gram <= measurement._gram_threshold(n, 1e-10)
    obs = decompose_planted(vals, vecs, 1e-10)
    pset = obs.projector_set()
    assert pset._factor[0].tobytes() == vecs.tobytes() and pset._gram == gram
    a = (vecs * vals) @ vecs.conj().T
    labels = np.repeat(np.arange(len(pset)), [round(np.trace(p).real) for p in pset.projectors])
    recon = (vecs * np.array(obs.eigenvalues)[labels]) @ vecs.conj().T
    assert obs.residuals["reconstruction"] == np.linalg.norm(a - recon)
    summed = sum(lam * p for lam, p in obs.spectrum)
    assert abs(obs.residuals["reconstruction"] - np.linalg.norm(a - summed)) <= eps_n(n) * max(
        1.0, np.linalg.norm(a))
    phases = PhaseVector(random_phases(rng, len(pset)))
    summed = stacked_phase_sum(pset.projectors, phases.phases)
    gap = np.linalg.norm(phase_superpose_projectors(pset, phases).matrix - summed)
    assert gap <= eps_n(n) * max(1.0, np.linalg.norm(summed))
    u = random_unitary(rng, n)
    assert commutation_residuals(u, pset) == tuple(
        float(np.linalg.norm(commutator(u, p))) for p in pset.projectors)
    psi = QuantumState(random_state(rng, n))
    report = verify_probability_preservation(u, pset, psi)
    for got, s in ((report.probabilities_before, psi.amplitudes),
                   (report.probabilities_after, u @ psi.amplitudes)):
        per_projector = [np.vdot(s, p @ s).real for p in pset.projectors]
        assert np.abs(np.subtract(got, per_projector)).max() <= eps_n(n)


def count_stack_builds(monkeypatch):
    """Calls of the builder of a spectral set's projector stack."""
    calls = []
    build = measurement._eigenspace_stack
    monkeypatch.setattr(measurement, "_eigenspace_stack",
                        lambda vecs, labels: calls.append(len(vecs)) or build(vecs, labels))
    return calls


@pytest.mark.parametrize("degenerate", [False, True])
def test_the_spectral_pipeline_forms_no_per_projector_products(monkeypatch, degenerate):
    """exp_observable and extend_mirror on an n = 32 spectral set go through the
    eigenvector factor; every per-projector path stacks the projectors with
    linalg.stacks, which may not run there. is_mirror judges the commutators
    over the projectors: the first call forms the stack, and every later one reads it."""
    rng = np.random.default_rng(32)
    obs = spectral_decompose(random_hermitian(rng, 32, degenerate=degenerate))
    pset = obs.projector_set()
    phases = PhaseVector(random_phases(rng, len(pset)))

    def forbidden(*args, **kwargs):
        raise AssertionError("a per-projector product was formed")

    monkeypatch.setattr(linalg, "stacks", forbidden)
    monkeypatch.setattr(measurement, "_eigenspace_stack", forbidden)
    exp_observable(obs)
    mirror = extend_mirror(phases, pset)
    monkeypatch.undo()
    builds = count_stack_builds(monkeypatch)
    is_mirror(mirror.unitary, pset)
    stack = pset._stack
    with pytest.raises(NotMirror):
        is_mirror(random_unitary(rng, 32), pset)
    assert builds == [32] and pset._stack is stack


def forbid_the_stack(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an (N, n, n) projector stack was formed")

    monkeypatch.setattr(measurement, "_eigenspace_stack", forbidden)


@pytest.mark.parametrize("degenerate", [False, True])
def test_the_spectral_n32_op_sequence_forms_no_projector_stack(monkeypatch, degenerate):
    """The benchmark's op, with every read that needs only the factor: the
    count and dimension, eigenvalues, residuals, reprs, the phase sum and the
    preservation probabilities. The commutators, read after it, form the
    stack once and keep it."""
    rng = np.random.default_rng(320 + degenerate)
    a = random_hermitian(rng, 32, degenerate=degenerate)
    psi = QuantumState(random_state(rng, 32))
    forbid_the_stack(monkeypatch)
    obs = spectral_decompose(a)
    pset = obs.projector_set()
    expo = exp_observable(obs)
    mirror = extend_mirror(PhaseVector(random_phases(rng, len(pset))), pset)
    report = verify_probability_preservation(mirror.unitary, pset, psi)
    assert (len(pset), pset.dim) == (len(obs.eigenvalues), 32)
    assert obs.residuals["n_eigenspaces"] == len(pset) == len(report.probabilities_before)
    assert "eigenvalues" in repr(obs) and repr(pset) == (
        f"ProjectorSet({len(pset)} eigenspace projectors of dim 32)")
    assert not {"_stack", "projectors"} & set(vars(pset)) and "spectrum" not in vars(obs)
    monkeypatch.undo()
    builds = count_stack_builds(monkeypatch)
    commutation_residuals(expo, pset)
    stack = pset._stack
    mirror.commutation_residuals
    assert builds == [32] and pset._stack is stack


def test_validating_an_observable_file_forms_no_projector_stack(monkeypatch, capsys, corpus,
                                                                tmp_path):
    path = str(tmp_path / "observable.json")
    save_operator_file(path, "observable",
                       [random_hermitian(np.random.default_rng(8), 8, degenerate=True)])
    forbid_the_stack(monkeypatch)
    for name in (str(corpus / "observable_z.json"), path):
        assert cli.main(["validate", name]) == 0
        assert "n_eigenspaces" in capsys.readouterr().out


def eager_stack(vals, vecs, scale):
    """The projector stack as spectral_decompose formed it on every call
    before a factored set formed it on first read (eigenspaces grouped at
    ||A||_F = ``scale``): one batched product when every eigenspace has one
    size, one product per eigenspace otherwise."""
    starts = np.array([g[0] for g in eigenspace_groups(vals, scale)])
    sizes = np.diff(np.r_[starts, len(vals)])
    groups = set(sizes.tolist())
    stack = None if len(groups) == 1 else np.empty((len(starts), len(vals), len(vals)), complex)
    for size in groups:
        slots = np.flatnonzero(sizes == size)
        v = vecs[:, starts[slots, None] + np.arange(size)].transpose(1, 0, 2)
        if stack is None:
            stack = v @ v.conj().transpose(0, 2, 1)
        else:
            for k, slot in enumerate(slots.tolist()):
                np.matmul(v[k], v[k].conj().T, out=stack[slot])
    return stack


@pytest.mark.parametrize("n", [8, 32])
@pytest.mark.parametrize("degenerate", [False, True])  # one eigenspace size, or mixed sizes
@pytest.mark.parametrize("first", ["projectors", "_stack", "spectrum"])
def test_a_factored_stack_formed_on_first_read_has_the_eager_bytes(n, degenerate, first):
    a = random_hermitian(np.random.default_rng(n + degenerate), n, degenerate=degenerate)
    vals, vecs, _, scale = linalg.guarded_eigh(linalg.as_matrix(a))
    expected = eager_stack(vals, vecs, scale)
    obs = spectral_decompose(a)
    pset = obs.projector_set()
    assert "_stack" not in vars(pset)
    getattr(obs if first == "spectrum" else pset, first)
    stack = pset._stack
    assert stack.tobytes() == expected.tobytes() and stack.shape == expected.shape
    assert not stack.flags.writeable
    assert pset._stack is stack and pset.projectors is pset.projectors and obs.spectrum is obs.spectrum
    assert all(p.base is stack and not p.flags.writeable for p in pset.projectors)
    assert [p for _, p in obs.spectrum] == list(pset.projectors)
    assert [lam for lam, _ in obs.spectrum] == list(obs.eigenvalues)
    assert pset.residuals == ProjectorSet(expected).residuals


@pytest.mark.parametrize("n", [8, 32])
def test_a_set_with_g_above_eps_n_forms_the_eager_bytes_on_first_read(n):
    """g above eps_n (a planted tilt): the set keeps its factor, and its stack is
    formed when first read, by the same builder."""
    vals, vecs = planted_eigenpairs(np.random.default_rng(40 + n), n, True, "tilt", 1e-12)
    pset = decompose_planted(vals, vecs, 1e-10).projector_set()
    assert pset._gram > eps_n(n) and "_factor" in vars(pset) and "_stack" not in vars(pset)
    scale = np.linalg.norm((vecs * vals) @ vecs.conj().T)  # as decompose_planted judges it
    assert pset._stack.tobytes() == eager_stack(vals, vecs, scale).tobytes()
    assert all(p.base is pset._stack and not p.flags.writeable for p in pset.projectors)


def exact_probabilities(vecs, labels, states):
    """sum over k in m of |(V^dag s)_k|^2 for each state column s, at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        v = mpmath.matrix(vecs.tolist())
        out = np.zeros((labels[-1] + 1, states.shape[1]))
        for col in range(states.shape[1]):
            y = v.H * mpmath.matrix(states[:, col].tolist())
            sums = [mpmath.mpf(0)] * len(out)
            for k, m in enumerate(labels.tolist()):
                sums[m] += abs(y[k]) ** 2
            out[:, col] = [float(x) for x in sums]
    return out


def test_factored_probabilities_are_no_less_exact_than_the_dense_ones():
    """p(m) and p'(m) of a mirror, taken from V_m (V_m^dag psi) on the
    factor and from the formed projectors P_m psi on a file-style set,
    against exact values for the same floats V, psi and U psi."""
    worst = {"factored": 0.0, "dense": 0.0}
    for seed in range(48):
        rng = np.random.default_rng(700 + seed)
        n = (2, 4, 8, 16)[seed % 4]
        pset = spectral_decompose(random_hermitian(rng, n, degenerate=seed % 8 < 4)).projector_set()
        vecs, labels = pset._factor
        unit = extend_mirror(PhaseVector(random_phases(rng, len(pset))), pset).unitary
        psi = QuantumState(random_state(rng, n))
        exact = exact_probabilities(vecs, labels, np.stack(
            [psi.amplitudes, unit.matrix @ psi.amplitudes], axis=1))
        for form, judged in (("factored", pset), ("dense", ProjectorSet(pset.projectors))):
            report = verify_probability_preservation(unit, judged, psi)
            got = np.array([report.probabilities_before, report.probabilities_after]).T
            worst[form] = max(worst[form], float(np.abs(got - exact).max()))
    assert 0.0 < worst["factored"] <= worst["dense"] < 1e-15


def test_factored_probabilities_at_n32_are_no_less_exact_than_the_dense_ones():
    """The same check at the benchmark's n = 32, degenerate and not."""
    worst = {"factored": 0.0, "dense": 0.0}
    for seed in range(16):
        rng = np.random.default_rng(900 + seed)
        pset = spectral_decompose(random_hermitian(rng, 32, degenerate=seed % 2 == 0)).projector_set()
        vecs, labels = pset._factor
        unit = extend_mirror(PhaseVector(random_phases(rng, len(pset))), pset).unitary
        psi = QuantumState(random_state(rng, 32))
        exact = exact_probabilities(vecs, labels, np.stack(
            [psi.amplitudes, unit.matrix @ psi.amplitudes], axis=1))
        for form, judged in (("factored", pset), ("dense", ProjectorSet(pset.projectors))):
            report = verify_probability_preservation(unit, judged, psi)
            got = np.array([report.probabilities_before, report.probabilities_after]).T
            worst[form] = max(worst[form], float(np.abs(got - exact).max()))
    assert 0.0 < worst["factored"] <= worst["dense"] < 1e-15
