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

Two relations of the measurement verdicts follow. Relabelling the outcomes
permutes the probabilities, post-states and pair residuals bit for bit (each
is formed per operator), moves the completeness residual, a sum in label
order, by its rounding alone, and keeps the first failing pair a failing
pair. A global phase e^{i theta} U changes no residual in exact arithmetic,
so the unitarity, mirror, preservation and truth verdicts hold wherever the
residual lies outside eps_n times its scale of the threshold.

Last, a family or unitary written by ``save_operator_file`` and loaded back
keeps every verdict, record and residual map bit for bit.
"""

import cmath
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import random_hermitian, random_partition, random_phases, random_state, random_unitary
from qmeasure import linalg, spectral_decompose
from qmeasure.errors import InvalidProjectorSet, NotUnitary, QmeasureError
from qmeasure.fileio import load_operator_file, save_operator_file
from qmeasure.measurement import (
    PROB_FLOOR,
    MeasurementOperatorSet,
    Povm,
    ProjectorSet,
    QuantumState,
    _rounding_allowance,
    apply_outcome,
    outcome_probabilities,
    validate_completeness,
)
from qmeasure.mirror import is_mirror, truth_protocol, verify_probability_preservation
from qmeasure.reversible import UnitaryOperator

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


def eigenspace_projectors(rng, n):
    """A complete projector set: the eigenspace projectors of a Haar basis, in random groups."""
    w = random_unitary(rng, n)
    return [w[:, g] @ w[:, g].conj().T for g in random_partition(rng, n, int(rng.integers(1, n + 1)))]


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, n=DIMS)
def test_relabelling_the_outcomes_permutes_every_value(seed, n):
    rng = np.random.default_rng(seed)
    ops = eigenspace_projectors(rng, n)
    perm = rng.permutation(len(ops))
    psi = QuantumState(random_state(rng, n))
    opset, moved = MeasurementOperatorSet(ops), MeasurementOperatorSet([ops[k] for k in perm])
    probs = outcome_probabilities(opset, psi)
    np.testing.assert_array_equal(outcome_probabilities(moved, psi), probs[perm], strict=True)
    for m, k in enumerate(perm.tolist()):
        if probs[k] > PROB_FLOOR:
            np.testing.assert_array_equal(apply_outcome(moved, psi, m).post_state.amplitudes,
                                          apply_outcome(opset, psi, k).post_state.amplitudes,
                                          strict=True)
    np.testing.assert_array_equal(moved._pairs, opset._pairs[np.ix_(perm, perm)], strict=True)
    band = _rounding_allowance(n) * math.sqrt(n)  # each sum's scale is sqrt(n)
    assert abs(moved.completeness_residual - opset.completeness_residual) <= band
    assert abs(moved._completeness - opset._completeness) <= band


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, n=st.sampled_from([2, 3, 4, 5, 6, 7, 8, 32]), bad=st.integers(1, 3),
       log_tilt=st.floats(-8.0, -2.0))
def test_relabelling_keeps_the_first_failing_pair_a_failing_pair(seed, n, bad, log_tilt):
    """Rank-one projectors of a Haar basis with ``bad`` of them tilted towards a neighbour:
    the pair the permuted set names first is, under the permutation, a failing pair of the
    set as it was."""
    rng = np.random.default_rng(seed)
    w = random_unitary(rng, n)
    for k in rng.choice(n, size=min(bad, n), replace=False).tolist():
        w[:, k] += 10.0 ** log_tilt * w[:, (k + 1) % n]
        w[:, k] /= np.linalg.norm(w[:, k])
    ops = [np.outer(w[:, k], w[:, k].conj()) for k in range(n)]
    perm = rng.permutation(n)
    tol = 1e-10
    with pytest.raises(InvalidProjectorSet):
        ProjectorSet(ops, tol=tol)
    with pytest.raises(InvalidProjectorSet) as failure:
        ProjectorSet([ops[k] for k in perm], tol=tol)
    records = failure.value.records
    i, j = records[-1].where
    before = MeasurementOperatorSet(ops)
    a, b = perm[i], perm[j]
    assert before._pairs[a, b] == records[-1].residual
    assert not linalg.within_tol(before._pairs[a, b], tol, before._pair_scales[a, b])


def verdict(call):
    """(passed, records) of a judged object or a report, or of the error that refused it."""
    try:
        judged = call()
    except QmeasureError as exc:
        return False, exc.records
    return getattr(judged, "passed", True), judged.records


def assert_kept(got, expected):
    """Each record within its floor eps_n * scale of the one before, and the same verdict
    unless a residual before lay within its floor of its threshold."""
    (passed, records), (passed_before, before) = got, expected
    assert [r.quantity for r in records] == [r.quantity for r in before]
    assert all(abs(r.residual - b.residual) <= b.floor for r, b in zip(records, before))
    if all(abs(b.residual - b.threshold) > b.floor for b in before):
        assert passed == passed_before


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, n=DIMS, mirror=st.booleans(), theta=st.floats(0.0, 2 * math.pi),
       log_tol=st.floats(-16.0, -8.0))
def test_a_global_phase_keeps_every_verdict_on_the_unitary(seed, n, mirror, theta, log_tol):
    """U, a mirror W D W^dag of the rank-one projectors of W or a Haar unitary, against
    e^{i theta} U: unitarity and ``is_mirror`` (scale sqrt(n)), preservation and the truth
    protocol (scale 1), each at the same tol."""
    rng = np.random.default_rng(seed)
    w, tol = random_unitary(rng, n), 10.0 ** log_tol
    u = (w * random_phases(rng, n)) @ w.conj().T if mirror else random_unitary(rng, n)
    pset = ProjectorSet([np.outer(w[:, k], w[:, k].conj()) for k in range(n)])
    psi = QuantumState(random_state(rng, n))
    turned = cmath.exp(1j * theta) * u
    assert_kept(verdict(lambda: UnitaryOperator(turned, tol=tol)),
                verdict(lambda: UnitaryOperator(u, tol=tol)))
    units = [UnitaryOperator(m, tol=1e-8) for m in (turned, u)]  # admitted: judged below at tol
    for call in (lambda unit: is_mirror(unit, pset, tol),
                 lambda unit: verify_probability_preservation(unit, pset, psi, tol),
                 lambda unit: truth_protocol(unit, psi, tol)):
        assert_kept(*(verdict(lambda: call(unit)) for unit in units))


@pytest.mark.xfail(strict=True, raises=NotUnitary,
                   reason="ROADMAP item 10: within eps_n sqrt(n) of its threshold the unitarity "
                   "verdict is rounding's, and a global phase moves that rounding")
def test_a_global_phase_keeps_the_unitarity_verdict_at_its_threshold():
    """At the smallest tol a Haar U passes, e^{i theta} U fails for some draw: its residuals
    differ from U's by rounding alone (within eps_n sqrt(n)), across the threshold."""
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.choice([2, 3, 4, 8]))
        u = UnitaryOperator(random_unitary(rng, n))
        tol = max(u.residuals.values()) / math.sqrt(n)
        if max(u.residuals.values()) <= tol * math.sqrt(n):  # U passes at tol
            UnitaryOperator(cmath.exp(1j * rng.uniform(0.0, 2 * math.pi)) * u.matrix, tol=tol)


JUDGES = {
    "projector_set": lambda mats, tol: ProjectorSet(mats, tol=tol),
    "povm": lambda mats, tol: Povm(mats, tol=tol),
    "measurement_set": lambda mats, tol: validate_completeness(MeasurementOperatorSet(mats), tol),
    "unitary": lambda mats, tol: UnitaryOperator(mats[0], tol=tol),
    "observable": lambda mats, tol: spectral_decompose(mats[0], tol=tol),
}


def judged_as(kind, mats, tol):
    """The library's judgement of ``mats`` as ``kind`` at ``tol``, pickled so that every float
    compares bit for bit: a measurement set's completeness record, the records and residuals of
    what it admits (an observable's with its projector set's records), or the class, message,
    records and residuals of its refusal."""
    try:
        judged = JUDGES[kind](mats, tol)
    except QmeasureError as exc:
        return pickle.dumps((type(exc), str(exc), exc.records, exc.residuals))
    if kind == "measurement_set":  # the completeness record itself
        return pickle.dumps(judged)
    spectral = judged.projector_set().records if kind == "observable" else ()
    return pickle.dumps((judged.records + spectral, judged.residuals))


def draw_operators(rng, kind, n, nudge):
    """Operators of ``kind`` on C^n, exact up to rounding (eigenspace projectors of a Haar
    basis, also as a POVM; U_m P_m for Haar U_m; a Haar unitary; a Hermitian matrix), each
    moved by ``nudge`` times a complex Gaussian matrix, or for one draw in two its Hermitian
    part, so that verdicts pass and fail, at hermiticity or at a later requirement."""
    if kind == "unitary":
        mats = [random_unitary(rng, n)]
    elif kind == "observable":
        mats = [random_hermitian(rng, n, degenerate=bool(rng.integers(2)))]
    else:
        w = random_unitary(rng, n)
        mats = [w[:, g] @ w[:, g].conj().T for g in random_partition(rng, n, int(rng.integers(1, n + 1)))]
        if kind == "measurement_set":
            mats = [random_unitary(rng, n) @ p for p in mats]
    moves = rng.normal(size=(len(mats), n, n)) + 1j * rng.normal(size=(len(mats), n, n))
    if rng.integers(2):
        moves = (moves + moves.conj().transpose(0, 2, 1)) / 2.0
    return [m + nudge * move for m, move in zip(mats, moves)]


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, n=DIMS, kind=st.sampled_from(sorted(JUDGES)),
       nudge=st.sampled_from([0.0, 1e-13, 1e-11, 1e-9, 1e-6]), log_tol=st.floats(-15.5, -6.0))
def test_a_saved_and_loaded_family_keeps_every_verdict_bit_for_bit(tmp_path_factory, seed, n, kind,
                                                                   nudge, log_tol):
    """``save_operator_file`` then ``load_operator_file`` gives matrices that the library
    judges exactly as it judged the originals, whichever way the verdict goes."""
    mats, tol = draw_operators(np.random.default_rng(seed), kind, n, nudge), 10.0 ** log_tol
    path = tmp_path_factory.mktemp("round_trip") / "family.json"
    save_operator_file(path, kind, mats)
    loaded = load_operator_file(path)
    assert (loaded.kind, loaded.dim, len(loaded.matrices)) == (kind, n, len(mats))
    assert judged_as(kind, loaded.matrices, tol) == judged_as(kind, mats, tol)
