"""The Gram certificate of a factored phase sum: unitary, and a mirror of its set.

A spectral set held as its eigenvectors V (Gram residual g = ||V^dag V - I||_F)
proves P_hat = V D V^dag unitary without forming U^dag U or U U^dag: with
delta = max ||alpha_m|^2 - 1|, both residuals are at most
g + (1 + g)(sqrt(n) delta + (1 + delta) g), plus 5 eps_n sqrt(n) of rounding.
The same g bounds every commutator ||[P_hat, P_m]||_F by 2 (1 + g) sqrt(1 + delta) g
plus the same rounding, so ``extend_mirror`` forms no commutator either; one bound,
(1 + g)(sqrt(n) delta + (2 + delta) g), exceeds both.
A bound within ``tol`` leaves the residuals to be formed on first read; any
other input is judged by ``linalg._require_unitary`` and ``is_mirror`` as
before. So a proved phase sum must pass those judges, with its residuals bit
for bit, and every input left unproved must raise or pass exactly as they do.
"""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_phases, random_unitary, unitarity_residuals
from qmeasure import linalg
from qmeasure.errors import NotMirror, NotUnitary, QmeasureError
from qmeasure.fileio import load_operator_file, save_operator_file
from qmeasure.measurement import (
    ProjectorSet,
    _FactoredSet,
    _Family,
    _gram_threshold,
    _rounding_allowance,
    spectral_decompose,
)
from qmeasure.mirror import MirrorUnitary, extend_mirror, is_mirror
from qmeasure.reversible import (
    UNIMODULAR_TOL,
    PhaseVector,
    UnitaryOperator,
    exp_observable,
    phase_superpose_projectors,
)
from test_measurement import decompose_planted, planted_above_the_allowance


def observable(rng, n, degenerate, scale):
    """Q diag(lambda) Q^dag for a Haar Q, eigenvalues ``scale`` apart: n
    eigenspaces, or random multiplicities when ``degenerate``."""
    k = int(rng.integers(1, n + 1)) if degenerate else n
    labels = np.sort(np.concatenate([np.arange(k), rng.integers(0, k, n - k)]))
    q = random_unitary(rng, n)
    return (q * (scale * (labels - rng.uniform(0, k)))) @ q.conj().T


def judged_densely(mat, tol):
    """What ``linalg._require_unitary`` gives the matrix: its records' residuals, or its error."""
    try:
        return {r.quantity: r.residual for r in linalg._require_unitary(mat, tol)}
    except NotUnitary as exc:
        return exc


def check_against_the_dense_judge(pset, phases, tol, build):
    """``build()`` over the factored ``pset`` is proved exactly when the set says
    so; proved, it passes the dense judge with its residuals; else it is that judge."""
    expected = judged_densely(pset._phase_sum(phases.phases), tol)
    proved = pset._proves_mirror(phases, tol).passed
    try:
        unit = build()
    except NotUnitary as exc:
        assert not proved and isinstance(expected, NotUnitary)
        assert (str(exc), exc.residuals) == (str(expected), expected.residuals)
        return proved
    assert unit.records[0].proved is proved  # proved: its residuals are formed on first read
    assert not isinstance(expected, NotUnitary)
    assert unit.residuals == expected  # float equality: bit for bit
    return proved


def outcome(call):
    """What ``call()`` gives: its mirror's matrix bytes and residuals, or its error's
    type, message and residuals (the residuals read as floats: bit for bit)."""
    try:
        mirror = call()
    except QmeasureError as exc:
        return type(exc), str(exc), exc.residuals
    return MirrorUnitary, mirror.unitary.matrix.tobytes(), mirror.residuals


def judged_by_is_mirror(pset, phases, tol):
    """The :func:`outcome` of the phase sum put through ``is_mirror``, as before the certificate."""
    return outcome(lambda: is_mirror(phase_superpose_projectors(pset, phases, tol), pset, tol))


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 32), degenerate=st.booleans(), scale_exp=st.integers(-6, 6),
       seed=st.integers(0, 2 ** 32 - 1), deviation=st.none() | st.floats(0.0, 0.99),
       tol_exp=st.floats(-15.0, -3.0), near=st.none() | st.floats(-0.5, 0.5))
def test_a_proved_phase_sum_passes_the_dense_judge_bit_for_bit(n, degenerate, scale_exp, seed,
                                                              deviation, tol_exp, near):
    """tol is 10^tol_exp, or ``near`` the dense threshold: 10^near times the
    tol at which the larger dense residual just passes."""
    rng = np.random.default_rng(seed)
    obs = spectral_decompose(observable(rng, n, degenerate, 10.0 ** scale_exp))
    pset = obs.projector_set()
    if deviation is None:  # the phases of e^{iA}
        phases = PhaseVector.from_angles(obs.eigenvalues)
    else:  # every |alpha_m|^2 off 1 by the same amount, up to UNIMODULAR_TOL
        signs = rng.choice([-1.0, 1.0], size=len(pset))
        phases = PhaseVector(random_phases(rng, len(pset))
                             * np.sqrt(1.0 + signs * deviation * UNIMODULAR_TOL))
        assert phases.unimodularity_max <= UNIMODULAR_TOL
    worst = max(linalg._unitarity_residuals(pset._phase_sum(phases.phases)).values())
    tol = 10.0 ** tol_exp if near is None else worst / math.sqrt(n) * 10.0 ** near
    if deviation is None:
        check_against_the_dense_judge(pset, phases, tol, lambda: exp_observable(obs, tol))
    else:
        check_against_the_dense_judge(pset, phases, tol,
                                      lambda: phase_superpose_projectors(pset, phases, tol))


@pytest.fixture(scope="module")
def pinned():
    """n = 32 eigenspaces and phases with |alpha_m|^2 = 1 + 0.9e-12."""
    rng = np.random.default_rng(23)
    q = random_unitary(rng, 32)
    pset = spectral_decompose((q * np.arange(32.0)) @ q.conj().T).projector_set()
    assert "_factor" in vars(pset)
    return pset, PhaseVector(random_phases(rng, 32) * math.sqrt(1.0 + 0.9e-12))


def test_the_phase_deviation_keeps_a_failing_sum_unproved(pinned):
    pset, phases = pinned
    u = pset._phase_sum(phases.phases)
    left, right = linalg._unitarity_residuals(u).values()
    assert (left, right) == unitarity_residuals(u)  # np.linalg.norm's, bit for bit
    # 0.9e-12 sqrt(32) = 5.091e-12 exactly; each kernel's rounding moves it by about 2e-15,
    # far inside the window (8.5e-13 sqrt(32), 1e-12 sqrt(32)] the verdicts below need
    for residual in (left, right):
        assert residual == pytest.approx(0.9e-12 * math.sqrt(32), rel=1e-2)
    passing = phase_superpose_projectors(pset, phases, 1e-12)
    assert passing.residuals == {"unitarity_left": left, "unitarity_right": right}
    with pytest.raises(NotUnitary) as exc:
        phase_superpose_projectors(pset, phases, 1e-13)
    assert exc.value.residuals == passing.residuals
    # at 8.5e-13 the dense judge fails it (5.089e-12 > 8.5e-13 sqrt(32) = 4.808e-12), and
    # a bound without the sqrt(n) delta term would have proved it
    assert pset._proves_mirror(PhaseVector(np.ones(len(pset))), 8.5e-13).passed  # delta = 0
    assert not pset._proves_mirror(phases, 8.5e-13).passed
    assert check_against_the_dense_judge(
        pset, phases, 8.5e-13, lambda: phase_superpose_projectors(pset, phases, 8.5e-13)) is False


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0, 0.0])
def test_a_tol_that_is_not_finite_and_positive_proves_nothing(pinned, tol):
    pset, _ = pinned
    phases = PhaseVector(random_phases(np.random.default_rng(7), len(pset)))
    assert not pset._proves_mirror(phases, tol).passed
    assert check_against_the_dense_judge(
        pset, phases, tol, lambda: phase_superpose_projectors(pset, phases, tol)) is False
    mirror = outcome(lambda: extend_mirror(phases, pset, tol))
    assert mirror == judged_by_is_mirror(pset, phases, tol)


def count_judges(monkeypatch):
    calls = []
    judge = linalg._require_unitary
    monkeypatch.setattr(linalg, "_require_unitary",
                        lambda mat, tol: calls.append(tol) or judge(mat, tol))
    return calls


def count_commutators(monkeypatch):
    """Calls of the one commutator kernel, ``_Family``'s, by the type of the set it ran on."""
    calls = []
    kernel = _Family._commutator_norms
    monkeypatch.setattr(_Family, "_commutator_norms",
                        lambda self, u: calls.append(type(self)) or kernel(self, u))
    return calls


@pytest.mark.parametrize("degenerate", [False, True])
def test_the_spectral_path_forms_no_unitarity_products(monkeypatch, degenerate):
    """Nor does ``extend_mirror`` form a commutator until they are read."""
    rng = np.random.default_rng(32 + degenerate)
    obs = spectral_decompose(observable(rng, 32, degenerate, 1.0))
    pset = obs.projector_set()
    calls, commutators = count_judges(monkeypatch), count_commutators(monkeypatch)
    expo = exp_observable(obs)
    mirror = extend_mirror(PhaseVector.from_angles(rng.uniform(0, 7, len(pset))), pset)
    assert calls == [] and commutators == [] and "commutation_residuals" not in vars(mirror)
    for unit in (expo, mirror.unitary):  # the residuals, formed when read, judge nothing
        assert unit.residuals == judged_densely(unit.matrix, 1e-10)
    assert calls == [1e-10, 1e-10]  # the two reference judges above
    first = mirror.commutation_residuals  # formed once, when first read, by is_mirror's kernel
    assert mirror.residuals["commutation_max"] == max(first) and commutators == [_FactoredSet]
    assert first == is_mirror(mirror.unitary, pset).commutation_residuals
    del commutators[:]
    with pytest.raises(NotMirror):  # a foreign unitary is judged, once
        is_mirror(UnitaryOperator(random_unitary(rng, 32)), pset)
    assert commutators == [_FactoredSet]


def test_a_file_set_is_still_judged_once(monkeypatch, tmp_path):
    rng = np.random.default_rng(4)
    obs = spectral_decompose(observable(rng, 8, True, 1.0))
    path = str(tmp_path / "projectors.json")
    save_operator_file(path, "projector_set", obs.projector_set().projectors)
    pset = ProjectorSet(load_operator_file(path).matrices)
    calls, commutators = count_judges(monkeypatch), count_commutators(monkeypatch)
    mirror = extend_mirror(PhaseVector(random_phases(rng, len(pset))), pset)
    assert calls == [1e-10] and not mirror.unitary.records[0].proved
    assert commutators == [ProjectorSet] and "commutation_residuals" in vars(mirror)


@pytest.mark.parametrize("read_first", [False, True])
@pytest.mark.parametrize("round_trip", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_a_proved_unitary_keeps_its_residuals_through_pickle_and_deepcopy(round_trip, read_first):
    obs = spectral_decompose(observable(np.random.default_rng(11), 16, False, 1.0))
    unit = exp_observable(obs)
    assert unit.records[0].proved and "residuals" not in vars(unit)
    if read_first:
        unit.residuals
    back = round_trip(unit)
    assert type(back) is UnitaryOperator and not back.matrix.flags.writeable
    assert back.matrix.tobytes() == unit.matrix.tobytes()
    assert back.residuals == unit.residuals == judged_densely(unit.matrix, 1e-10)
    pset = round_trip(obs.projector_set())  # its Gram residual comes along, so it still proves
    assert pset._gram == obs.projector_set()._gram
    assert phase_superpose_projectors(pset, PhaseVector.from_angles(obs.eigenvalues)).records[0].proved


def gram_bounds(pset, delta):
    """The unitarity bound, the commutator bound 2 (1 + g) sqrt(1 + delta) g and the
    5 eps_n sqrt(n) of rounding both carry, for the set's g and its dimension n."""
    n, g = pset.dim, pset._gram
    return (g + (1 + g) * (math.sqrt(n) * delta + (1 + delta) * g),
            2 * (1 + g) * math.sqrt(1 + delta) * g, 5 * _rounding_allowance(n) * math.sqrt(n))


def planted_observable(rng, n, degenerate, plant, ratio):
    """The observable of planted eigenpairs with g in (eps_n, tau] at the default tol."""
    obs = decompose_planted(*planted_above_the_allowance(rng, n, degenerate, plant, ratio), 1e-10)
    assert _rounding_allowance(n) < obs.projector_set()._gram <= _gram_threshold(n, 1e-10)
    return obs


@settings(max_examples=160, deadline=None)
@given(n=st.sampled_from([1, 2, 4, 8, 16, 32]), degenerate=st.booleans(),
       scale_exp=st.integers(-6, 6), seed=st.integers(0, 2 ** 32 - 1),
       deviation=st.none() | st.floats(0.0, 0.99), tol_exp=st.floats(-15.0, -3.0),
       near=st.none() | st.floats(-0.5, 0.5),
       plant=st.sampled_from([None, "tilt", "stretch", "random"]), ratio=st.floats(0.01, 0.9))
def test_a_proved_mirror_passes_is_mirror_with_its_residuals_bit_for_bit(
        n, degenerate, scale_exp, seed, deviation, tol_exp, near, plant, ratio):
    """The set is the ``eigh`` output of an observable, or (``plant``) one of planted
    eigenpairs with g above eps_n. tol is 10^tol_exp, or ``near`` the threshold of
    ``is_mirror``: 10^near times the tol at which the worst commutator just passes."""
    rng = np.random.default_rng(seed)
    obs = (spectral_decompose(observable(rng, n, degenerate, 10.0 ** scale_exp)) if plant is None
           else planted_observable(rng, n, degenerate, plant, ratio))
    pset = obs.projector_set()
    if deviation is None:  # the phases of e^{iA}
        phases = PhaseVector.from_angles(obs.eigenvalues)
    else:  # every ||alpha_m|^2 - 1| up to UNIMODULAR_TOL
        signs = rng.choice([-1.0, 1.0], size=len(pset))
        phases = PhaseVector(random_phases(rng, len(pset))
                             * np.sqrt(1.0 + signs * deviation * UNIMODULAR_TOL))
    u = pset._phase_sum(phases.phases)  # every commutator, proved or not, is within the bound
    _, commutators, rounding = gram_bounds(pset, phases.unimodularity_max)
    worst = max(pset._commutator_norms(u))
    assert worst <= commutators + rounding
    tol = 10.0 ** tol_exp if near is None else worst / math.sqrt(n) * 10.0 ** near
    expected = judged_by_is_mirror(pset, phases, tol)
    assert outcome(lambda: extend_mirror(phases, pset, tol)) == expected
    if not pset._proves_mirror(phases, tol).passed:
        return
    mirror = extend_mirror(phases, pset, tol)
    assert "commutation_residuals" not in vars(mirror)  # formed on first read
    judged = is_mirror(mirror.unitary, pset, tol)
    assert mirror.commutation_residuals == judged.commutation_residuals  # floats: bit for bit
    assert mirror.residuals == judged.residuals and mirror.worst_residual == judged.worst_residual
    assert mirror.unitary.residuals == judged_densely(u, tol)  # the dense judges pass
    dense = is_mirror(mirror.unitary, ProjectorSet(pset.projectors), tol)
    assert dense.commutation_residuals == judged.commutation_residuals


def test_a_tol_just_below_the_bound_falls_back_to_is_mirror(pinned, monkeypatch):
    pset, _ = pinned
    phases = PhaseVector.from_angles(np.random.default_rng(5).uniform(0, 7, len(pset)))
    delta = phases.unimodularity_max
    lo, hi = 1e-16, 1e-3  # bisect for the smallest tol the certificate passes
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        lo, hi = (lo, mid) if pset._proves_mirror(phases, mid).passed else (mid, hi)
    unitarity, commutators, rounding = gram_bounds(pset, delta)
    n, g = pset.dim, pset._gram
    bound = (1 + g) * (math.sqrt(n) * delta + (2 + delta) * g)  # one bound covers both
    assert bound >= max(unitarity, commutators)
    assert hi == pytest.approx((bound + rounding) / math.sqrt(n), rel=1e-12, abs=0.0)
    tol = hi * (1 - 1e-9)
    assert not pset._proves_mirror(phases, tol).passed
    calls = count_commutators(monkeypatch)
    got = outcome(lambda: extend_mirror(phases, pset, tol))
    assert calls == [_FactoredSet]  # judged by is_mirror
    assert got == judged_by_is_mirror(pset, phases, tol)
    assert got[0] is MirrorUnitary  # the dense judges pass it: only the certificate declined
    assert "commutation_residuals" in vars(extend_mirror(phases, pset, tol))


def test_the_rounding_term_keeps_a_failing_mirror_unproved():
    """At n = 2 a computed commutator can exceed the exact bound. Every draw below whose worst
    commutator does so by over 1/0.9 is judged at a tol where ``is_mirror`` fails and the exact
    bound alone would pass; the search stops at the first (one draw in 50 to 70, on each BLAS
    kernel) that a hundredth of the rounding term would prove. Without its rounding term, or with
    a hundredth of it, the certificate would prove a phase sum that the dense judges reject."""
    rng, n, found = np.random.default_rng(992), 2, False
    for _ in range(2000):
        pset = spectral_decompose(observable(rng, n, False, 1.0)).projector_set()
        phases = PhaseVector.from_angles(rng.uniform(0, 7, len(pset)))
        worst = max(pset._commutator_norms(pset._phase_sum(phases.phases)))
        _, commutators, rounding = gram_bounds(pset, phases.unimodularity_max)
        tol = 0.9 * worst / math.sqrt(n)  # is_mirror fails; the exact bound alone would pass
        if commutators > tol * math.sqrt(n):
            continue
        assert tol * math.sqrt(n) < commutators + rounding
        assert not pset._proves_mirror(phases, tol).passed
        got = outcome(lambda: extend_mirror(phases, pset, tol))
        assert got[0] is not MirrorUnitary and got == judged_by_is_mirror(pset, phases, tol)
        # delta = 0: the commutator bound is the certificate's, and a hundredth of its rounding proves it
        if found := phases.unimodularity_max == 0.0 and tol * math.sqrt(n) > commutators + rounding / 500:
            break
    assert found


@pytest.mark.parametrize("read_first", [False, True])
@pytest.mark.parametrize("round_trip", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_a_proved_mirror_keeps_its_residuals_through_pickle_and_deepcopy(round_trip, read_first):
    rng = np.random.default_rng(12)
    pset = spectral_decompose(observable(rng, 16, True, 1.0)).projector_set()
    mirror = extend_mirror(PhaseVector.from_angles(rng.uniform(0, 7, len(pset))), pset)
    assert "commutation_residuals" not in vars(mirror)
    if read_first:
        mirror.commutation_residuals
    back = round_trip(mirror)
    assert type(back) is MirrorUnitary and type(back.reference_projectors) is _FactoredSet
    assert ("commutation_residuals" in vars(back)) is read_first
    assert back.unitary.matrix.tobytes() == mirror.unitary.matrix.tobytes()
    assert back.commutation_residuals == mirror.commutation_residuals == is_mirror(
        mirror.unitary, pset).commutation_residuals
    assert back.residuals == mirror.residuals
    with pytest.raises(dataclasses.FrozenInstanceError):
        back.commutation_residuals = (0.0,) * len(pset)
    with pytest.raises(dataclasses.FrozenInstanceError):
        mirror.commutation_residuals = (0.0,) * len(pset)


@pytest.mark.xfail(strict=True, raises=NotUnitary,
                   reason="ROADMAP item 12: the phase sum of a certified set is off unitary "
                   "by about 2 g, and its judge allows tol sqrt(n) < 2 tau for n < 4")
@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_certified_spectral_set_gives_a_unitary_phase_sum_at_small_n(n):
    """Planted ``stretch`` eigenpairs with g = 0.9 of the way from eps_n to tau pass
    ``spectral_decompose`` at tol 1e-10, yet ``exp_observable`` raises ``NotUnitary``."""
    rng = np.random.default_rng(n)
    obs = planted_observable(rng, n, False, "stretch", 0.9)
    exp_observable(obs, 1e-10)
